#include "scenario/swarm.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "obs/format.hpp"

namespace rqs::scenario {

namespace {

/// Full reproducers kept in a report (all failures are counted).
constexpr std::size_t kMaxFailuresKept = 8;

}  // namespace

std::string SwarmFailure::to_string() const {
  std::string out = "seed " + std::to_string(seed) + ":\n";
  for (const std::string& v : violations) out += "  " + v + "\n";
  out += "reproducer (" + std::to_string(shrunk_entries) + " entries):\n" +
         shrunk.to_string();
  return out;
}

std::string SwarmReport::summary() const {
  std::string out = std::to_string(scenarios_run) + " scenarios, " +
                    std::to_string(violating) + " violating, ops " +
                    obs::format_fraction(ops_completed, ops_started) +
                    " completed, " + std::to_string(liveness_checked) +
                    " liveness claims, digest " + obs::format_digest(digest);
  if (events_digest != 0) {
    out += ", events digest " + obs::format_digest(events_digest);
  }
  for (const SwarmFailure& f : failures) out += "\n" + f.to_string();
  if (!metrics.empty()) out += "\nmetrics:\n" + metrics.to_string();
  return out;
}

SwarmReport run_swarm(const SwarmOptions& opts) {
  struct Tally {
    std::size_t violating{0};
    std::size_t ops_started{0};
    std::size_t ops_completed{0};
    std::size_t liveness_checked{0};
    std::uint64_t digest{0};
    obs::MetricsSnapshot metrics;
    std::uint64_t events_digest{0};
    std::vector<std::uint64_t> failing_seeds;
  };

  const std::size_t thread_count = std::max<std::size_t>(1, opts.threads);
  std::atomic<std::size_t> cursor{0};
  std::vector<Tally> tallies(thread_count);

  auto worker = [&](std::size_t me) {
    const ScenarioGenerator generator(opts.generator);
    const ScenarioRunner runner(opts.runner);
    Tally& tally = tallies[me];
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= opts.scenarios) return;
      const std::uint64_t seed = opts.base_seed + i;
      const ScenarioResult result = runner.run(generator.generate(seed));
      tally.ops_started += result.ops_started;
      tally.ops_completed += result.ops_completed;
      tally.liveness_checked += result.liveness_checked;
      tally.digest ^= result.trace_digest;
      tally.metrics.merge(result.metrics);
      tally.events_digest ^= result.events_digest;
      if (!result.ok()) {
        ++tally.violating;
        tally.failing_seeds.push_back(seed);
      }
    }
  };

  if (thread_count == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (std::size_t t = 0; t < thread_count; ++t) threads.emplace_back(worker, t);
    for (std::thread& t : threads) t.join();
  }

  SwarmReport report;
  report.scenarios_run = opts.scenarios;
  std::vector<std::uint64_t> failing;
  for (const Tally& tally : tallies) {
    report.violating += tally.violating;
    report.ops_started += tally.ops_started;
    report.ops_completed += tally.ops_completed;
    report.liveness_checked += tally.liveness_checked;
    report.digest ^= tally.digest;
    report.metrics.merge(tally.metrics);
    report.events_digest ^= tally.events_digest;
    failing.insert(failing.end(), tally.failing_seeds.begin(),
                   tally.failing_seeds.end());
  }

  // Re-derive and shrink the lowest failing seeds sequentially, so the
  // reported reproducers are deterministic whatever the thread count.
  std::sort(failing.begin(), failing.end());
  const ScenarioGenerator generator(opts.generator);
  const ScenarioRunner runner(opts.runner);
  for (const std::uint64_t seed : failing) {
    if (report.failures.size() >= kMaxFailuresKept) break;
    SwarmFailure failure;
    failure.seed = seed;
    failure.spec = generator.generate(seed);
    failure.violations = runner.run(failure.spec).violations;
    if (opts.shrink_failures) {
      const ShrinkResult s = shrink(failure.spec, runner);
      failure.shrunk = s.spec;
      failure.shrunk_entries = s.entries_after;
    } else {
      failure.shrunk = failure.spec;
      failure.shrunk_entries = failure.spec.schedule.size();
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace rqs::scenario
