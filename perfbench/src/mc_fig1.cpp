// Workload `mc-fig1`: mc::explore() with default options (sleep sets plus
// the state cache) on the paper's Figure 1 three-entry spec, once on the
// greedy kFig1Broken5 system and once on the repaired kFast5 one. The
// writer writes 1 visible to {2}; reader 0 reads from {2,3,4}; reader 1
// reads from {0,1,3}. Broken-5 must yield exactly one violation, a read
// inversion, and fast5 a clean certificate; both searches must be complete.
//
// The traced run adds seeded random walks through the same specs that
// time McExecution's public calls one by one, and splits the exploration
// time into replays x ctor + transitions x fire + arrivals x (enabled +
// digest + violations), leaving mc.unexplained_share.
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mc/execution.hpp"
#include "mc/explorer.hpp"

namespace perfbench {
namespace {

namespace scenario = rqs::scenario;
namespace mc = rqs::mc;

constexpr std::size_t kWalks = 300;        // per spec, traced run only
constexpr std::size_t kMaxWalkDepth = 200;

scenario::ScenarioSpec fig1_spec(scenario::SystemFamily family) {
  scenario::ScenarioSpec s;
  s.family = family;
  s.reader_count = 2;
  scenario::ScheduleEntry w;
  w.kind = scenario::ScheduleEntry::Kind::kWrite;
  w.value = 1;
  w.reachable = rqs::ProcessSet{{2}};
  scenario::ScheduleEntry r0;
  r0.kind = scenario::ScheduleEntry::Kind::kRead;
  r0.client = 0;
  r0.reachable = rqs::ProcessSet{{2, 3, 4}};
  scenario::ScheduleEntry r1;
  r1.kind = scenario::ScheduleEntry::Kind::kRead;
  r1.client = 1;
  r1.reachable = rqs::ProcessSet{{0, 1, 3}};
  s.schedule = {w, r0, r1};
  return s;
}

struct Spec {
  const char* name;
  scenario::ScenarioSpec spec;
  bool expect_violation;
};

std::unique_ptr<std::vector<Spec>> build() {
  auto specs = std::make_unique<std::vector<Spec>>();
  specs->push_back({"broken5", fig1_spec(scenario::SystemFamily::kFig1Broken5), true});
  specs->push_back({"fast5", fig1_spec(scenario::SystemFamily::kFast5), false});
  // The initial state every search starts from: building it here puts the
  // deployment's construction in set-up. explore() reports a spec outside
  // the checker's fragment as an error, which fails the verdict check.
  for (const Spec& s : *specs) {
    const mc::McExecution root(s.spec);
  }
  return specs;
}

bool verdict_ok(const Spec& s, const mc::McResult& r) {
  if (!r.error.empty() || !r.complete) return false;
  if (!s.expect_violation) return r.violations.empty();
  return r.violations.size() == 1 &&
         r.violations[0].signature.find("read inversion") != std::string::npos;
}

void random_walks(const std::vector<Spec>& specs, std::uint64_t seed, Tracer& tr) {
  std::mt19937_64 rng(seed);
  std::vector<mc::Choice> enabled;
  std::vector<std::string> violations;
  for (const Spec& s : specs) {
    for (std::size_t w = 0; w < kWalks; ++w) {
      const std::uint64_t req = tr.new_request();
      std::optional<mc::McExecution> ex;
      {
        Scope c(&tr, "mc.ctor", req);
        ex.emplace(s.spec);
      }
      for (std::size_t depth = 0; depth < kMaxWalkDepth; ++depth) {
        {
          Scope e(&tr, "mc.enabled", req);
          ex->enabled(enabled);
        }
        if (enabled.empty()) break;
        const mc::Choice c = enabled[rng() % enabled.size()];
        {
          Scope f(&tr, "mc.fire", req);
          ex->fire(c);
        }
        {
          Scope d(&tr, "mc.digest", req);
          (void)ex->digest();
        }
        {
          Scope v(&tr, "mc.violations", req);
          ex->violations(violations);
        }
      }
    }
  }
}

}  // namespace

void run_mc_fig1(const RunOptions& o, Tracer& tr, Report& rep) {
  mc::McStats sum;  // over both specs, one pass
  double explore_s = 0;
  std::size_t untraced = 0;
  const auto specs = run_workload(
      o, tr, rep, build, [&](const std::vector<Spec>& all, Tracer* t, std::size_t round) {
        for (const Spec& s : all) {
          const std::int64_t t0 = now_ns();
          mc::McResult r;
          {
            Scope span(t, "mc.explore", t ? t->new_request() : 0);
            r = mc::explore(s.spec);
          }
          if (!t) explore_s += static_cast<double>(now_ns() - t0) * 1e-9;
          rep.unit(verdict_ok(s, r), [&] {
            return std::string(s.name) + ": unexpected verdict (complete=" +
                   std::to_string(r.complete) + ", " + std::to_string(r.violations.size()) +
                   " violations) " + r.error;
          });
          if (round == 0 && !t) {
            const std::string k = std::string("mc.") + s.name + ".";
            rep.count(k + "arrivals", r.stats.states_visited);
            rep.count(k + "distinct_states", r.stats.distinct_states);
            rep.count(k + "transitions", r.stats.transitions);
            rep.count(k + "replays", r.stats.replays);
            rep.count(k + "exploration_digest", r.exploration_digest);
            sum.states_visited += r.stats.states_visited;
            sum.distinct_states += r.stats.distinct_states;
            sum.transitions += r.stats.transitions;
            sum.replays += r.stats.replays;
            sum.cache_pruned += r.stats.cache_pruned;
            sum.sleep_pruned += r.stats.sleep_pruned;
          }
        }
        if (!t) ++untraced;
      });
  rep.metrics["mc_verdict_s"] = rep.metrics["pass_s"];

  const auto arrivals = static_cast<double>(sum.states_visited);
  const auto transitions = static_cast<double>(sum.transitions);
  const auto replays = static_cast<double>(sum.replays);
  const double pass_explore_s = ratio(explore_s, static_cast<double>(untraced));
  rep.count("mc.arrivals", sum.states_visited);
  rep.count("mc.distinct_states", sum.distinct_states);
  rep.count("mc.transitions", sum.transitions);
  rep.count("mc.replays", sum.replays);
  rep.metrics["mc.states_per_s"] = ratio(arrivals, pass_explore_s);
  rep.metrics["mc.transitions_per_s"] = ratio(transitions, pass_explore_s);
  rep.metrics["mc.transitions_per_arrival"] = ratio(transitions, arrivals);
  rep.metrics["mc.cache_prune_share"] = ratio(static_cast<double>(sum.cache_pruned), arrivals);
  rep.metrics["mc.sleep_prune_share"] = ratio(static_cast<double>(sum.sleep_pruned), arrivals);

  if (o.trace) {
    random_walks(*specs, o.seed, tr);
    const double ctor_ns = tr.mean("mc.ctor", 1.0);
    const double fire_ns = tr.mean("mc.fire", 1.0);
    const double enabled_ns = tr.mean("mc.enabled", 1.0);
    const double digest_ns = tr.mean("mc.digest", 1.0);
    const double violations_ns = tr.mean("mc.violations", 1.0);
    rep.metrics["mc.ctor_us"] = ctor_ns * 1e-3;
    rep.metrics["mc.fire_ns"] = fire_ns;
    rep.metrics["mc.enabled_ns"] = enabled_ns;
    rep.metrics["mc.digest_ns"] = digest_ns;
    rep.metrics["mc.violations_ns"] = violations_ns;
    const double explained_ns = replays * ctor_ns + transitions * fire_ns +
                                arrivals * (enabled_ns + digest_ns + violations_ns);
    rep.metrics["mc.unexplained_share"] = 1.0 - ratio(explained_ns, pass_explore_s * 1e9);
  }
}

}  // namespace perfbench
