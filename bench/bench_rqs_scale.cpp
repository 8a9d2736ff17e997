// Experiment E20: breaking the 64-process ceiling. Hierarchical RQS
// constructions (core/hierarchy.hpp) at n in {64, 128, 256}: wide
// classification of materialized composite quorums and Monte-Carlo
// availability, neither of which enumerates the astronomically large
// composite quorum family. The table's verdict rows are checks, and the
// binary exits non-zero when one fails. perfbench's check-sweep workload
// times the structural check() on the same three points.
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/analysis.hpp"
#include "core/classification.hpp"
#include "core/hierarchy.hpp"

namespace rqs {
namespace {

/// The three scale points: clusters x cluster size = 64, 128, 256.
struct ScalePoint {
  const char* label;
  ThresholdParams top;
  ThresholdParams inner;
};

const ScalePoint kScalePoints[] = {
    {"n=64  (8 clusters x 8)",
     {8, 1, 1, 1, 0, true, true},
     {8, 1, 1, 1, 0, true, true}},
    {"n=128 (8 clusters x 16)",
     {8, 1, 1, 1, 0, true, true},
     {16, 2, 2, 2, 0, true, true}},
    {"n=256 (16 clusters x 16)",
     {16, 2, 2, 2, 0, true, true},
     {16, 2, 2, 2, 0, true, true}},
};

HierarchicalRqs build(const ScalePoint& sp) {
  return make_hierarchical_threshold(sp.top, sp.inner);
}

std::string quorum_count_str(const HierarchicalRqs& h) {
  const std::uint64_t c = h.composite_quorum_count();
  if (c == kBinomialSaturated) return "> 2^64 (saturated)";
  return std::to_string(c);
}

void print_tables() {
  rqs::bench::print_header(
      "E20: hierarchical RQS at n in {64, 128, 256}",
      "two-level composition keeps check()/classify() tractable at n >> 64: "
      "structural validation costs one <= 64-process check per layer while "
      "the composite quorum family it certifies grows beyond 2^64 members");
  for (const ScalePoint& sp : kScalePoints) {
    const HierarchicalRqs h = build(sp);
    const HierarchicalCheckResult res = h.check();
    rqs::bench::check_row(std::string(sp.label) + " structural check",
                          res.ok() ? "valid" : "INVALID", res.ok());
    rqs::bench::print_row(std::string(sp.label) + " composite quorums",
                          quorum_count_str(h));

    const auto wide = h.materialize_quorums<WideProcessSet>(8);
    std::vector<WideProcessSet> sets;
    for (const WideQuorum& q : wide) sets.push_back(q.set);
    const WideAdversary adv =
        WideAdversary::threshold(h.total_processes(), sp.inner.k);
    const ClassificationResult cls = classify(sets, adv);
    rqs::bench::check_row(
        std::string(sp.label) + " classify(8 composite quorums)",
        cls.property1_ok ? ("P1 ok, |QC1|=" + std::to_string(cls.class1_count) +
                            ", |QC2|=" + std::to_string(cls.class2_count))
                         : "P1 FAILS",
        cls.property1_ok && cls.class1_count == 8 && cls.class2_count == 8);

    Rng rng{2026};
    const double avail = h.availability_sampled(0.01, 20000, rng);
    rqs::bench::print_row(
        std::string(sp.label) + " availability(p=0.01, sampled)",
        std::to_string(avail));
  }

  // Differential anchor (full suite: tests/hierarchy_test.cpp): on a
  // 9-process universe both the structural and the flat Definition 2 check
  // are computable, and they agree.
  const ThresholdParams crash{3, 0, 1, 1, 0, true, true};
  const HierarchicalRqs small = make_hierarchical_threshold(crash, crash);
  auto flat_adv = small.flatten_adversary<ProcessSet>(1u << 20);
  bool agree = false;
  if (flat_adv.has_value()) {
    const RefinedQuorumSystem flat{std::move(*flat_adv),
                                   small.materialize_quorums<ProcessSet>(0)};
    agree = small.check().ok() == flat.check(0).ok();
  }
  rqs::bench::check_row("hierarchical == flat check (9-process universe)",
                        agree ? "agree" : "DISAGREE", agree);
}

void BM_WideClassifyComposite(benchmark::State& state) {
  const ScalePoint& sp = kScalePoints[static_cast<std::size_t>(state.range(0))];
  const HierarchicalRqs h = build(sp);
  const auto wide = h.materialize_quorums<WideProcessSet>(8);
  std::vector<WideProcessSet> sets;
  for (const WideQuorum& q : wide) sets.push_back(q.set);
  const WideAdversary adv =
      WideAdversary::threshold(h.total_processes(), sp.inner.k);
  for (auto _ : state) benchmark::DoNotOptimize(classify(sets, adv).class1_count);
  state.counters["processes"] = static_cast<double>(h.total_processes());
}
BENCHMARK(BM_WideClassifyComposite)->Arg(0)->Arg(1)->Arg(2);

void BM_HierarchicalAvailability(benchmark::State& state) {
  const ScalePoint& sp = kScalePoints[static_cast<std::size_t>(state.range(0))];
  const HierarchicalRqs h = build(sp);
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.availability_sampled(0.01, 1000, rng));
  }
  state.counters["processes"] = static_cast<double>(h.total_processes());
}
BENCHMARK(BM_HierarchicalAvailability)->Arg(0)->Arg(1)->Arg(2);

void BM_MaterializeComposite(benchmark::State& state) {
  const ScalePoint& sp = kScalePoints[static_cast<std::size_t>(state.range(0))];
  const HierarchicalRqs h = build(sp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.materialize_quorums<WideProcessSet>(64).size());
  }
}
BENCHMARK(BM_MaterializeComposite)->Arg(0)->Arg(1)->Arg(2);

void BM_WideSetAlgebra(benchmark::State& state) {
  // The raw cost of the 4-word set algebra relative to the 1-word protocol
  // sets (BENCH_sim_hotpath tracks the latter): intersect + popcount over a
  // pseudo-random working set.
  std::vector<WideProcessSet> sets;
  Rng rng{11};
  for (int i = 0; i < 64; ++i) {
    WideProcessSet s;
    for (int j = 0; j < 80; ++j) {
      s.insert(static_cast<ProcessId>(rng.uniform(0, 255)));
    }
    sets.push_back(s);
  }
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const WideProcessSet& a : sets) {
      for (const WideProcessSet& b : sets) acc += (a & b).size();
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_WideSetAlgebra);

}  // namespace
}  // namespace rqs

RQS_BENCH_MAIN(rqs::print_tables)
