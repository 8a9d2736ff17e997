// Workload `swarm`: run_swarm with one worker thread over consecutive
// seeds starting at the seed argument, with the default generator mix
// (both protocols, the valid families, Byzantine roles, crashes,
// partitions, asynchrony, loss and duplication windows with retries
// armed), max_keys = 3 and the runner's collect_metrics on. One worker,
// because with two the pass rate spread over a third of its value between
// identical passes while one worker stayed within a few percent.
//
// The traced run adds probes over the seeds of its first passes: the same
// seeds with collect_metrics off (obs.metrics_overhead), and one
// generate + run call per seed outside run_swarm, whose spans and
// per-scenario metric snapshots give the scenario, sim, obs, storage and
// consensus layer figures.
#include <string>
#include <vector>

#include "bench.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/swarm.hpp"

namespace perfbench {
namespace {

namespace scenario = rqs::scenario;

constexpr std::size_t kScenarios = 400;   // per pass
constexpr std::size_t kProbeRounds = 4;   // traced run: probed passes

scenario::SwarmOptions swarm_options(std::uint64_t seed, std::size_t round,
                                     bool collect_metrics) {
  scenario::SwarmOptions o;
  o.scenarios = kScenarios;
  o.threads = 1;
  o.base_seed = seed + round * kScenarios;
  o.generator.max_keys = 3;
  o.runner.collect_metrics = collect_metrics;
  return o;
}

struct Swarm {
  scenario::ScenarioGenerator generator;
  scenario::ScenarioRunner runner;
  std::vector<rqs::RefinedQuorumSystem> families;
};

std::unique_ptr<Swarm> build(std::uint64_t seed) {
  const scenario::SwarmOptions o = swarm_options(seed, 0, true);
  auto s = std::make_unique<Swarm>(
      Swarm{scenario::ScenarioGenerator(o.generator), scenario::ScenarioRunner(o.runner), {}});
  // The systems of the default mix, which every scenario is drawn over
  // (run_swarm materializes its own copy per scenario).
  for (const auto f : {scenario::SystemFamily::kFast5, scenario::SystemFamily::kThreeT1of1,
                       scenario::SystemFamily::kThreeT1of2, scenario::SystemFamily::kExample7,
                       scenario::SystemFamily::kGraded7, scenario::SystemFamily::kMasking4}) {
    s->families.push_back(scenario::materialize(f));
  }
  return s;
}

void check_report(const scenario::SwarmReport& r, Report& rep) {
  rep.attempted += r.scenarios_run;
  rep.failed += r.violating;
  for (const scenario::SwarmFailure& f : r.failures) {
    if (rep.failures.size() < 8) rep.failures.push_back("scenario " + f.to_string());
  }
}

/// Per-protocol totals of the probe's individual runs.
struct Probe {
  std::size_t scenarios[2]{};
  std::size_t ops_started[2]{};
  std::size_t ops_completed{0};
  std::size_t liveness_checked{0};
  std::vector<double> generate_us;
  std::vector<double> run_us[2];
  double individual_s{0};  // Σ generate + run
  double swarm_on_s{0};
  double swarm_off_s{0};
  rqs::obs::MetricsSnapshot merged;
};

void probe_round(const Swarm& s, std::uint64_t seed, std::size_t round, Tracer& tr,
                 Probe& p, Report& rep) {
  std::int64_t t0 = now_ns();
  const scenario::SwarmReport on = scenario::run_swarm(swarm_options(seed, round, true));
  p.swarm_on_s += static_cast<double>(now_ns() - t0) * 1e-9;
  t0 = now_ns();
  const scenario::SwarmReport off = scenario::run_swarm(swarm_options(seed, round, false));
  p.swarm_off_s += static_cast<double>(now_ns() - t0) * 1e-9;

  std::uint64_t digest = 0;
  const scenario::SwarmOptions o = swarm_options(seed, round, true);
  for (std::size_t i = 0; i < o.scenarios; ++i) {
    const std::uint64_t req = tr.new_request();
    std::int64_t a = now_ns();
    scenario::ScenarioSpec spec;
    {
      Scope g(&tr, "scenario.generate", req);
      spec = s.generator.generate(o.base_seed + i);
    }
    std::int64_t b = now_ns();
    const std::size_t proto = spec.protocol == scenario::Protocol::kStorage ? 0 : 1;
    scenario::ScenarioResult res;
    {
      Scope r(&tr, proto == 0 ? "scenario.run.storage" : "scenario.run.consensus", req);
      res = s.runner.run(spec);
    }
    const std::int64_t c = now_ns();
    {
      Scope m(&tr, "obs.merge", req);
      p.merged.merge(res.metrics);
    }
    p.generate_us.push_back(static_cast<double>(b - a) * 1e-3);
    p.run_us[proto].push_back(static_cast<double>(c - b) * 1e-3);
    p.individual_s += static_cast<double>(c - a) * 1e-9;
    p.scenarios[proto] += 1;
    p.ops_started[proto] += res.ops_started;
    p.ops_completed += res.ops_completed;
    p.liveness_checked += res.liveness_checked;
    digest ^= res.trace_digest;
  }
  // run_swarm must match the same scenarios run one by one, with metrics
  // collection on or off (the observer is passive).
  if (digest != on.digest || on.digest != off.digest || !on.ok() || !off.ok()) {
    rep.fail("swarm probe round " + std::to_string(round) +
             ": run_swarm digests differ from the individual runs");
  }
}

std::uint64_t bumps(const rqs::obs::MetricsSnapshot& m) {
  std::uint64_t n = 0;
  for (const auto& [name, v] : m.counters) {
    if (name.rfind("sim.", 0) != 0) n += v;  // sim.* are event totals, not bumps
  }
  for (const auto& [name, h] : m.histograms) n += h.count();
  return n;
}

void report_probe(const Probe& p, Report& rep) {
  const rqs::obs::MetricsSnapshot& m = p.merged;
  const auto c = [&](const char* name) { return static_cast<double>(m.counter(name)); };
  const double n = static_cast<double>(p.scenarios[0] + p.scenarios[1]);
  const double storage_ops = static_cast<double>(p.ops_started[0]);
  const double instances = static_cast<double>(p.scenarios[1]);

  rep.metrics["sim.sends_per_scenario"] = ratio(c("sim.sends"), n);
  rep.metrics["sim.timers_per_scenario"] = ratio(c("sim.timers"), n);
  rep.metrics["obs.bumps_per_scenario"] = ratio(static_cast<double>(bumps(m)), n);
  rep.metrics["obs.metrics_overhead"] = ratio(p.swarm_on_s, p.swarm_off_s) - 1.0;

  rep.metrics["storage.retransmit_per_op"] =
      ratio(c("storage.write.retransmit") + c("storage.read.retransmit"), storage_ops);
  const double first = c("storage.write.first_try") + c("storage.read.first_try");
  rep.metrics["storage.first_try_share"] =
      ratio(first, first + c("storage.write.retried") + c("storage.read.retried"));
  const double reads =
      c("storage.read.class1") + c("storage.read.class2") + c("storage.read.class3");
  const auto* rows = m.histogram("storage.rdack.rows");
  rep.metrics["storage.rdack_rows_per_read"] =
      ratio(rows ? static_cast<double>(rows->sum()) : 0.0, reads);

  rep.metrics["consensus.retransmit_per_instance"] =
      ratio(c("consensus.propose.retransmit"), instances);
  rep.metrics["consensus.choose_abort_per_instance"] =
      ratio(c("consensus.choose.abort"), instances);

  rep.metrics["scenario.generate_us"] = percentile(p.generate_us, 50);
  rep.samples["scenario.generate_us"] = p.generate_us.size();
  report_percentiles("scenario.run.storage", p.run_us[0], rep);
  report_percentiles("scenario.run.consensus", p.run_us[1], rep);
  rep.metrics["scenario.ops_completed_share"] =
      ratio(static_cast<double>(p.ops_completed),
            static_cast<double>(p.ops_started[0] + p.ops_started[1]));
  rep.metrics["scenario.liveness_per_scenario"] =
      ratio(static_cast<double>(p.liveness_checked), n);
  rep.metrics["scenario.swarm_overhead"] = ratio(p.swarm_on_s, p.individual_s) - 1.0;
}

}  // namespace

void run_swarm(const RunOptions& o, Tracer& tr, Report& rep) {
  std::size_t scenarios = 0;
  double swarm_s = 0;
  const auto s = run_workload(
      o, tr, rep, [&] { return build(o.seed); },
      [&](const Swarm&, Tracer* t, std::size_t round) {
        const std::int64_t t0 = now_ns();
        scenario::SwarmReport r;
        {
          Scope span(t, "scenario.swarm", t ? t->new_request() : 0);
          r = scenario::run_swarm(swarm_options(o.seed, round, true));
        }
        if (!t) {
          swarm_s += static_cast<double>(now_ns() - t0) * 1e-9;
          scenarios += r.scenarios_run;
        }
        check_report(r, rep);
        if (round == 0 && !t) {
          rep.count("swarm.digest", r.digest);
          rep.count("swarm.scenarios", r.scenarios_run);
          rep.count("swarm.ops_started", r.ops_started);
          rep.count("swarm.ops_completed", r.ops_completed);
          rep.count("swarm.liveness_checked", r.liveness_checked);
        }
      });
  rep.metrics["scenarios_per_s"] = ratio(static_cast<double>(scenarios), swarm_s);

  if (o.trace) {
    Probe p;
    for (std::size_t round = 0; round < kProbeRounds; ++round) {
      probe_round(*s, o.seed, round, tr, p, rep);
    }
    report_probe(p, rep);
    rep.metrics["obs.merge_us"] = tr.mean("obs.merge", 1e3);
  }
}

}  // namespace perfbench
