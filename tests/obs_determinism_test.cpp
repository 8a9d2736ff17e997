// The observability layer's contracts: observation is passive (golden
// digests byte-identical with or without an observer), aggregation is
// thread-count invariant (swarm metrics and event digests identical at 1,
// 4 and 8 workers), histogram merge is associative and commutative, and
// the trace ring drops oldest-first with exact accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/swarm.hpp"

namespace rqs::obs {
namespace {

// --- passivity: attaching an observer never changes an execution ---

TEST(ObsPassivity, GoldenDigestsIdenticalObserverOffAndOn) {
  const scenario::ScenarioGenerator generator;
  const scenario::ScenarioRunner off;
  scenario::ScenarioRunner::Options metrics_opts;
  metrics_opts.collect_metrics = true;
  const scenario::ScenarioRunner with_metrics(metrics_opts);
  scenario::ScenarioRunner::Options trace_opts;
  trace_opts.trace_capacity = 1 << 14;
  const scenario::ScenarioRunner with_tracing(trace_opts);

  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto spec = generator.generate(seed);
    const auto base = off.run(spec);
    const auto m = with_metrics.run(spec);
    const auto t = with_tracing.run(spec);
    EXPECT_EQ(base.trace_digest, m.trace_digest) << "seed " << seed;
    EXPECT_EQ(base.trace_digest, t.trace_digest) << "seed " << seed;
    EXPECT_EQ(base.ops_completed, m.ops_completed) << "seed " << seed;
    EXPECT_EQ(base.end_time, t.end_time) << "seed " << seed;
    // The observed runs really observed something.
    EXPECT_TRUE(base.metrics.empty());
    EXPECT_EQ(base.events_digest, 0u);
    EXPECT_GT(m.metrics.counter("sim.delivers"), 0u) << "seed " << seed;
    EXPECT_NE(t.events_digest, 0u) << "seed " << seed;
  }
}

TEST(ObsPassivity, TracedRunsAreReproducible) {
  const scenario::ScenarioGenerator generator;
  scenario::ScenarioRunner::Options opts;
  opts.trace_capacity = 1 << 14;
  const scenario::ScenarioRunner runner(opts);
  const auto spec = generator.generate(7);
  const auto a = runner.run(spec);
  const auto b = runner.run(spec);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events_digest, b.events_digest);
  EXPECT_EQ(a.metrics.to_string(), b.metrics.to_string());
}

// --- thread-count invariance: swarm aggregation is a commutative merge ---

TEST(ObsSwarm, MetricsAndEventDigestInvariantAcrossWorkerCounts) {
  scenario::SwarmOptions opts;
  opts.scenarios = 48;
  opts.base_seed = 100;
  opts.runner.trace_capacity = 1 << 12;

  opts.threads = 1;
  const auto one = scenario::run_swarm(opts);
  opts.threads = 4;
  const auto four = scenario::run_swarm(opts);
  opts.threads = 8;
  const auto eight = scenario::run_swarm(opts);

  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_NE(one.events_digest, 0u);
  EXPECT_EQ(one.events_digest, four.events_digest);
  EXPECT_EQ(one.events_digest, eight.events_digest);
  // Full snapshot equality, not just counters: histogram buckets merged in
  // any worker order must coincide.
  EXPECT_EQ(one.metrics.to_string(), four.metrics.to_string());
  EXPECT_EQ(one.metrics.to_string(), eight.metrics.to_string());
  EXPECT_GT(one.metrics.counter("sim.delivers"), 0u);
}

// --- histogram algebra ---

LatencyHistogram make_hist(const std::vector<std::int64_t>& values) {
  LatencyHistogram h;
  for (const std::int64_t v : values) h.record(v);
  return h;
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  const auto a = make_hist({1, 5, 9, 1000, 123456});
  const auto b = make_hist({0, 2, 2, 7777777});
  const auto c = make_hist({42, 4242, 424242, 1, 1});

  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ab_c = ab;
  ab_c.merge(c);

  LatencyHistogram bc = b;
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);

  LatencyHistogram ba = b;
  ba.merge(a);

  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.sum(), a.sum() + b.sum() + c.sum());
  EXPECT_EQ(ab_c.min(), 0);
  EXPECT_EQ(ab_c.max(), 7777777);
}

TEST(ObsHistogram, IndexAndRangeAreInverse) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{31}, std::uint64_t{32},
                          std::uint64_t{1000}, std::uint64_t{123456789},
                          std::uint64_t{1} << 40, ~std::uint64_t{0} >> 1}) {
    const std::size_t idx = LatencyHistogram::index_of(v);
    ASSERT_LT(idx, LatencyHistogram::kSlots);
    const auto [lo, hi] = LatencyHistogram::range_of(idx);
    EXPECT_LE(lo, static_cast<std::int64_t>(v)) << v;
    EXPECT_GE(hi, static_cast<std::int64_t>(v)) << v;
    // Relative bucket width is bounded by 1/kSub.
    EXPECT_LE(hi - lo + 1,
              std::max<std::int64_t>(1, lo / LatencyHistogram::kSub + 1))
        << v;
  }
}

TEST(ObsHistogram, PercentilesExactInLinearRangeBoundedBeyond) {
  LatencyHistogram h;
  for (std::int64_t v = 1; v <= 100; ++v) h.record(v);
  // Values < 2*kSub = 32 get exact buckets; the percentile of a uniform
  // 1..100 population must land within one bucket of the true value.
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(static_cast<double>(h.percentile(50.0)), 50.0, 4.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(99.0)), 99.0, 7.0);
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(100.0), 100);

  LatencyHistogram empty;
  EXPECT_EQ(empty.percentile(50.0), 0);
}

TEST(ObsHistogram, RecordClampsNegativeToZero) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

// --- snapshot merge ---

TEST(ObsSnapshot, MergeSumsCountersAndHistograms) {
  MetricsRegistry r1;
  r1.bump("a");
  r1.bump("b", 3);
  r1.histogram("h").record(10);
  MetricsRegistry r2;
  r2.bump("b", 2);
  r2.bump("c");
  r2.histogram("h").record(20);
  r2.histogram("g").record(1);

  MetricsSnapshot s = r1.snapshot();
  s.merge(r2.snapshot());
  EXPECT_EQ(s.counter("a"), 1u);
  EXPECT_EQ(s.counter("b"), 5u);
  EXPECT_EQ(s.counter("c"), 1u);
  EXPECT_EQ(s.counter("absent"), 0u);
  ASSERT_NE(s.histogram("h"), nullptr);
  EXPECT_EQ(s.histogram("h")->count(), 2u);
  EXPECT_EQ(s.histogram("h")->sum(), 30u);
  ASSERT_NE(s.histogram("g"), nullptr);
  EXPECT_EQ(s.histogram("absent"), nullptr);
}

// --- trace ring ---

TEST(ObsTraceRing, DropOldestKeepsNewestWithExactAccounting) {
  TraceRing ring(8);  // power of two already
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::int64_t i = 0; i < 20; ++i) {
    ring.record(TraceEvent{i, 0, 0, 0, 0,
                           static_cast<std::uint8_t>(TraceKind::kTimer), 0});
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.size(), 8u);
  // Retained events are the newest 8, oldest first.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].at, static_cast<std::int64_t>(12 + i));
  }
}

TEST(ObsTraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(ObsTraceRing, CapacityAboveTheCeilingThrowsBeforeAllocating) {
  // SIZE_MAX is past 2^63, where doubling up to the capacity would wrap.
  EXPECT_THROW(TraceRing{TraceRing::kMaxCapacity + 1}, std::length_error);
  EXPECT_THROW(TraceRing{SIZE_MAX}, std::length_error);
}

TEST(ObsTraceRing, DigestCoversOrderAndDrops) {
  const auto fill = [](TraceRing& ring, std::initializer_list<int> ats) {
    for (const int at : ats) {
      ring.record(TraceEvent{at, 0, 0, 0, 0,
                             static_cast<std::uint8_t>(TraceKind::kTimer), 0});
    }
  };
  TraceRing a(4);
  TraceRing b(4);
  fill(a, {1, 2, 3});
  fill(b, {1, 3, 2});
  EXPECT_NE(a.digest(), b.digest());  // order-sensitive
  TraceRing c(4);
  fill(c, {1, 2, 3});
  EXPECT_EQ(a.digest(), c.digest());  // deterministic
}

// --- binary dump round trip ---

TEST(ObsExport, DumpRoundTripsThroughDisk) {
  const scenario::ScenarioGenerator generator;
  Observer ob(1 << 12);
  scenario::ScenarioRunner::Options opts;
  opts.observer = &ob;
  const scenario::ScenarioRunner runner(opts);
  (void)runner.run(generator.generate(42));
  ASSERT_NE(ob.ring(), nullptr);
  ASSERT_GT(ob.ring()->size(), 0u);

  const TraceDump dump = TraceDump::from(ob);
  const std::string path =
      testing::TempDir() + "/obs_determinism_ring.bin";
  ASSERT_TRUE(save_trace(path, dump));
  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->recorded, dump.recorded);
  EXPECT_EQ(loaded->dropped, dump.dropped);
  ASSERT_EQ(loaded->events.size(), dump.events.size());
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    EXPECT_EQ(loaded->events[i].at, dump.events[i].at);
    EXPECT_EQ(loaded->events[i].kind, dump.events[i].kind);
  }
  EXPECT_EQ(loaded->tags, dump.tags);
}

// The dump starts with a 32-byte header: magic, event count, recorded,
// dropped, each 8 bytes. Every event after it takes 32 bytes.

TEST(ObsExport, LoadRejectsAClaimedCountWithNoEventsBehindIt) {
  const std::string path = testing::TempDir() + "/obs_export_huge_count.bin";
  ASSERT_TRUE(save_trace(path, TraceDump{}));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const std::uint64_t count = std::uint64_t{1} << 40;
    for (int i = 0; i < 8; ++i) f.put(static_cast<char>(count >> (8 * i)));
  }
  std::filesystem::resize_file(path, 32);
  std::optional<TraceDump> loaded;
  EXPECT_NO_THROW(loaded = load_trace(path));
  EXPECT_FALSE(loaded.has_value());
}

TEST(ObsExport, LoadRejectsADumpCutMidEvent) {
  TraceDump dump;
  dump.events.resize(2);
  const std::string path = testing::TempDir() + "/obs_export_cut.bin";
  ASSERT_TRUE(save_trace(path, dump));
  ASSERT_TRUE(load_trace(path).has_value());
  std::filesystem::resize_file(path, 32 + 32 + 16);
  std::optional<TraceDump> loaded;
  EXPECT_NO_THROW(loaded = load_trace(path));
  EXPECT_FALSE(loaded.has_value());
}

}  // namespace
}  // namespace rqs::obs
