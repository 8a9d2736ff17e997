#include "scenario/shrink.hpp"

namespace rqs::scenario {

namespace {

/// Scenario executions one shrink may spend, the first run included.
constexpr std::size_t kMaxRuns = 512;

}  // namespace

ShrinkResult shrink(const ScenarioSpec& spec, const ScenarioRunner& runner) {
  ShrinkResult out;
  out.spec = spec;
  out.entries_before = spec.schedule.size();

  out.violating = !runner.run(out.spec).ok();
  ++out.runs;
  if (!out.violating) {
    out.entries_after = out.spec.schedule.size();
    return out;
  }

  bool changed = true;
  while (changed && out.runs < kMaxRuns) {
    changed = false;

    // Pass 1: drop entries, latest first (ops near the end are most often
    // incidental padding; the violating core tends to be the earliest
    // write/read interplay).
    for (std::size_t i = out.spec.schedule.size(); i-- > 0 && out.runs < kMaxRuns;) {
      ScenarioSpec candidate = out.spec;
      candidate.schedule.erase(candidate.schedule.begin() +
                               static_cast<std::ptrdiff_t>(i));
      ++out.runs;
      if (!runner.run(candidate).ok()) {
        out.spec = std::move(candidate);
        changed = true;
      }
    }

    // Pass 2: lift per-operation visibility restrictions (an entry whose
    // reachable set can widen to "all servers" and still violate reads
    // better in the reproducer).
    for (std::size_t i = 0; i < out.spec.schedule.size() && out.runs < kMaxRuns;
         ++i) {
      if (out.spec.schedule[i].reachable.empty()) continue;
      ScenarioSpec candidate = out.spec;
      candidate.schedule[i].reachable = {};
      ++out.runs;
      if (!runner.run(candidate).ok()) {
        out.spec = std::move(candidate);
        changed = true;
      }
    }
  }

  out.entries_after = out.spec.schedule.size();
  return out;
}

}  // namespace rqs::scenario
