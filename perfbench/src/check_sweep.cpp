// Workload `check-sweep`: a fixed catalogue of systems, each checked by a
// fresh check() that builds its engine per call, plus
// HierarchicalRqs::check() at n = 64 / 128 / 256 and classify() on the
// catalogue's quorum lists of at most 20 quorums. It is the only workload
// that runs the check engine and classification, so a check-engine change
// shows here and a protocol change must not.
//
// Every verdict is compared with the one recorded in the catalogue: for
// threshold-family points that is ThresholdBounds::all() (the first
// failing property when it fails); for the named systems it is the
// verdict written next to them below.
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/check_engine.hpp"
#include "core/classification.hpp"
#include "core/constructions.hpp"
#include "core/hierarchy.hpp"

namespace perfbench {
namespace {

using rqs::RefinedQuorumSystem;
using rqs::ThresholdBounds;
using rqs::ThresholdParams;

struct Entry {
  std::string name;
  RefinedQuorumSystem sys;
  int first_failing;  // property of the first violation check() reports; 0 = valid
};

struct Hier {
  std::string name;
  rqs::HierarchicalRqs h;  // recorded verdict: valid
};

struct Catalogue {
  std::vector<Entry> entries;
  std::vector<Hier> hier;
  std::vector<std::size_t> classified;  // entries with at most 20 quorums
  std::vector<std::vector<rqs::ProcessSet>> lists;  // their quorum sets
};

// Threshold-family points (Examples 2-6) on both sides of ThresholdBounds.
constexpr ThresholdParams kThresholdPoints[] = {
    {4, 1, 1, 1, 0, true, true},    // 3t+1 at t = 1: valid
    {4, 1, 1, 1, 1, true, true},    // q = 1 breaks P2
    {4, 1, 1, 1, 0, false, true},   // no class 1: P3 needs n > t + r + 2k = 4
    {5, 1, 1, 1, 0, true, true},    // valid
    {5, 1, 2, 2, 0, true, true},    // n = 2t + k breaks P1
    {5, 1, 1, 1, 0, false, true},   // masking: valid
    {5, 0, 2, 2, 1, true, true},    // crash-only fast5 shape: valid
    {6, 1, 1, 1, 1, true, true},    // valid
    {6, 1, 2, 2, 0, true, true},    // valid
    {6, 1, 2, 2, 1, true, true},    // P2 boundary n = t + 2k + 2q
    {7, 1, 2, 1, 0, true, true},    // graded7: valid
    {7, 2, 2, 2, 0, true, true},    // 3t+1 at t = 2: valid
    {7, 2, 2, 2, 1, true, true},    // q = 1 breaks P2
    {7, 1, 2, 2, 1, true, true},    // valid
    {7, 2, 2, 2, 0, false, true},   // no class 1: P3 needs n > t + r + 2k = 8
    {8, 1, 2, 2, 1, true, true},    // valid
    {8, 2, 3, 3, 0, true, true},    // n = 2t + k breaks P1
    {8, 2, 2, 2, 0, false, false},  // no classes (dissemination): valid
};

int first_failing(const ThresholdParams& p) {
  if (!ThresholdBounds::property1(p)) return 1;
  if (!ThresholdBounds::property2(p)) return 2;
  if (!ThresholdBounds::property3(p)) return 3;
  return 0;
}

std::string label(const ThresholdParams& p) {
  return "threshold n=" + std::to_string(p.n) + " k=" + std::to_string(p.k) +
         " t=" + std::to_string(p.t) + " r=" + std::to_string(p.r) +
         " q=" + std::to_string(p.q) + (p.has_class1 ? "" : " no-qc1") +
         (p.has_class2 ? "" : " no-qc2");
}

template <class Make>
void add(Catalogue& c, Tracer* tr, std::string name, int expect, Make&& make) {
  Scope s(tr, "core.build", 0);
  c.entries.push_back(Entry{std::move(name), make(), expect});
}

std::unique_ptr<Catalogue> build(Tracer* tr) {
  auto c = std::make_unique<Catalogue>();
  for (const ThresholdParams& p : kThresholdPoints) {
    add(*c, tr, label(p), first_failing(p), [&] { return rqs::make_threshold_rqs(p); });
  }
  for (std::size_t t = 1; t <= 3; ++t) {
    add(*c, tr, "3t+1 t=" + std::to_string(t), 0,
        [&] { return rqs::make_3t1_instantiation(t); });
  }
  add(*c, tr, "fig3", 0, [] { return rqs::make_fig3_example(); });
  add(*c, tr, "example7", 0, [] { return rqs::make_example7(); });
  add(*c, tr, "fig1 fast5", 0, [] { return rqs::make_fig1_fast5(); });
  add(*c, tr, "fig1 broken5", 2, [] { return rqs::make_fig1_broken5(); });

  // Hierarchical scale points: clusters x cluster size = 64, 128, 256.
  const ThresholdParams p8{8, 1, 1, 1, 0, true, true};
  const ThresholdParams p16{16, 2, 2, 2, 0, true, true};
  const struct {
    const char* name;
    ThresholdParams top, inner;
  } kHier[] = {{"hier n=64", p8, p8}, {"hier n=128", p8, p16}, {"hier n=256", p16, p16}};
  for (const auto& h : kHier) {
    Scope s(tr, "core.build", 0);
    c->hier.push_back(Hier{h.name, rqs::make_hierarchical_threshold(h.top, h.inner)});
  }

  // classify() runs on every quorum list of at most 20 quorums (its limit).
  for (std::size_t i = 0; i < c->entries.size(); ++i) {
    if (c->entries[i].sys.quorum_count() > 20) continue;
    c->classified.push_back(i);
    auto& sets = c->lists.emplace_back();
    for (const auto& q : c->entries[i].sys.quorums()) sets.push_back(q.set);
  }
  return c;
}

/// check() as the engine runs it, one span per stage (traced run only).
rqs::CheckResult traced_check(const RefinedQuorumSystem& sys, Tracer& tr,
                              std::uint64_t req) {
  std::optional<rqs::CheckEngine> engine;
  {
    Scope s(&tr, "core.engine", req);
    engine.emplace(sys);
  }
  rqs::CheckResult out;
  bool ok = false;
  {
    Scope s(&tr, "core.p1", req);
    ok = engine->check_property1(out, 1);
  }
  if (!ok) return out;
  {
    Scope s(&tr, "core.p2", req);
    ok = engine->check_property2(out, 1);
  }
  if (!ok) return out;
  {
    Scope s(&tr, "core.p3", req);
    (void)engine->check_property3(out, 1);
  }
  return out;
}

}  // namespace

void run_check_sweep(const RunOptions& o, Tracer& tr, Report& rep) {
  std::vector<double> call_us;
  double sweep_s = 0;
  std::size_t calls = 0;

  // classify()'s best assignments: the first pass's results are exact work
  // counts that run.py compares with the recorded ones (perfbench/
  // expected.json), and every later pass must reproduce them.
  std::vector<rqs::ClassificationResult> first_classes;

  const auto cat = run_workload(
      o, tr, rep, [&] { return build(o.trace ? &tr : nullptr); },
      [&](const Catalogue& c, Tracer* t, std::size_t round) {
        const std::int64_t sweep0 = now_ns();
        for (const Entry& e : c.entries) {
          const std::uint64_t req = t ? t->new_request() : 0;
          const std::int64_t t0 = now_ns();
          rqs::CheckResult r;
          if (t) {
            Scope s(t, "core.check", req);
            r = traced_check(e.sys, *t, req);
          } else {
            r = e.sys.check();
          }
          const std::int64_t t1 = now_ns();
          if (!t) call_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          const int got = r.ok() ? 0 : r.violations.front().property;
          rep.unit(got == e.first_failing, [&] {
            return e.name + ": first failing property " + std::to_string(got) + ", recorded " +
                   std::to_string(e.first_failing);
          });
        }
        for (const Hier& h : c.hier) {
          const std::uint64_t req = t ? t->new_request() : 0;
          const std::int64_t t0 = now_ns();
          bool ok = false;
          {
            Scope s(t, "core.hier_check", req);
            ok = h.h.check().ok();
          }
          if (!t) call_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
          rep.unit(ok, [&] { return h.name + ": structural check failed, recorded valid"; });
        }
        for (std::size_t i = 0; i < c.classified.size(); ++i) {
          const Entry& e = c.entries[c.classified[i]];
          const std::uint64_t req = t ? t->new_request() : 0;
          const std::int64_t t0 = now_ns();
          rqs::ClassificationResult r;
          {
            Scope s(t, "core.classify", req);
            r = rqs::classify(c.lists[i], e.sys.adversary());
          }
          if (!t) call_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
          if (round == 0 && !t) {
            first_classes.push_back(r);
            rep.count("classify." + e.name,
                      std::to_string(r.property1_ok) + "/" + std::to_string(r.class1_count) +
                          "/" + std::to_string(r.class2_count));
          }
          const rqs::ClassificationResult& want = first_classes.at(i);
          rep.unit(r.property1_ok == want.property1_ok && r.classes == want.classes, [&] {
            return e.name + ": classification differs between passes";
          });
        }
        if (!t) {
          sweep_s += static_cast<double>(now_ns() - sweep0) * 1e-9;
          calls += c.entries.size() + c.hier.size() + c.classified.size();
        }
      });
  rep.metrics["checks_per_s"] = ratio(static_cast<double>(calls), sweep_s);
  rep.metrics["check_p50_us"] = percentile(call_us, 50);
  rep.samples["check_p50_us"] = call_us.size();

  std::uint64_t quorums = 0;
  for (const Entry& e : cat->entries) quorums += e.sys.quorum_count();
  rep.count("core.quorums", quorums);
  rep.count("check.calls_per_pass",
            cat->entries.size() + cat->hier.size() + cat->classified.size());

  if (o.trace) {
    rep.metrics["core.build_us"] = tr.mean("core.build", 1e3);
    rep.metrics["core.engine_us"] = tr.mean("core.engine", 1e3);
    rep.metrics["core.p1_us"] = tr.mean("core.p1", 1e3);
    rep.metrics["core.p2_us"] = tr.mean("core.p2", 1e3);
    rep.metrics["core.p3_us"] = tr.mean("core.p3", 1e3);
    rep.metrics["core.hier_check_us"] = tr.mean("core.hier_check", 1e3);
    rep.metrics["core.classify_us"] = tr.mean("core.classify", 1e3);
  }
}

}  // namespace perfbench
