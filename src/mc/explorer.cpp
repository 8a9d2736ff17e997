#include "mc/explorer.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/fnv.hpp"

namespace rqs::mc {

namespace {

/// Sorted-vector set helpers (choice sets are tiny — a handful of
/// entries — so ordered vectors beat node containers and keep iteration
/// order canonical).
using ChoiceSet = std::vector<Choice>;

void insert_sorted(ChoiceSet& s, const Choice& c) {
  const auto it = std::lower_bound(s.begin(), s.end(), c);
  if (it != s.end() && *it == c) return;
  s.insert(it, c);
}

[[nodiscard]] ChoiceSet difference(const ChoiceSet& a, const ChoiceSet& b) {
  ChoiceSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

[[nodiscard]] ChoiceSet intersection(const ChoiceSet& a, const ChoiceSet& b) {
  ChoiceSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// One DFS frame: the transitions still to take from its state, and the
/// set sleeping at the state (explored siblings join it as the frame
/// advances).
struct Frame {
  ChoiceSet to_explore;
  std::size_t next{0};
  ChoiceSet sleep;
  std::uint64_t digest{0};  // of the frame's state, checked on restore
};

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += "; ";
    out += p;
  }
  return out;
}

}  // namespace

McResult explore(const scenario::ScenarioSpec& spec, const McOptions& opts) {
  McResult res;

  McExecution exec(spec);
  if (!exec.unsupported().empty()) {
    res.error = exec.unsupported();
    return res;
  }
  // saved[k] holds the state of the frame at depth k, taken before its
  // first choice fired when it has more to take. Declared after exec, so
  // the states release their message references before exec's pool goes.
  std::vector<McExecution::State> saved;

  Fnv64 xdigest;
  // digest -> sleep set the state was (last) explored with. Ordered map:
  // rqs_lint bans unordered containers in protocol directories, and the
  // canonical iteration order costs nothing here.
  std::map<std::uint64_t, ChoiceSet> cache;
  std::vector<Frame> stack;
  ChoiceSet path;
  std::set<std::string> seen_signatures;
  ChoiceSet enabled_buf;
  std::vector<std::string> viol_buf;
  bool truncated = false;
  bool aborted = false;

  // Processes an arrival at the current exec state (reached via `path`
  // with `sleep_in` asleep): records digest/violations, applies cache and
  // sleep pruning, and returns the frame to push — or nullopt for a leaf.
  const auto arrive = [&](ChoiceSet sleep_in) -> std::optional<Frame> {
    ++res.stats.states_visited;
    res.stats.max_depth_seen = std::max(res.stats.max_depth_seen, path.size());
    const std::uint64_t d = exec.digest();
    xdigest.mix(d);
    if (opts.collect_state_digests) res.state_digests.push_back(d);

    exec.violations(viol_buf);
    if (!viol_buf.empty()) {
      std::string sig = join(viol_buf);
      if (seen_signatures.insert(sig).second) {
        res.violations.push_back(McViolation{std::move(sig), path});
      }
      if (opts.stop_on_first_violation) {
        aborted = true;
        return std::nullopt;
      }
    }

    Frame frame;
    frame.digest = d;
    if (opts.use_state_cache) {
      const auto it = cache.find(d);
      if (it != cache.end()) {
        // Godefroid's re-exploration rule: prune iff the stored sleep set
        // T is covered by the incoming one S; else explore exactly T \ S
        // with everything else asleep, and shrink the stored set to
        // T intersect S (monotone, so the search terminates).
        const ChoiceSet revisit = difference(it->second, sleep_in);
        it->second = intersection(it->second, sleep_in);
        if (revisit.empty()) {
          ++res.stats.cache_pruned;
          return std::nullopt;
        }
        exec.enabled(enabled_buf);
        // Copied from enabled_buf, the first range: the stored choices
        // carry queue positions of an earlier state with this digest,
        // whose queue layout can differ.
        frame.to_explore = intersection(enabled_buf, revisit);
        frame.sleep = difference(enabled_buf, frame.to_explore);
        if (frame.to_explore.empty()) {
          ++res.stats.cache_pruned;
          return std::nullopt;
        }
        return frame;
      }
    }

    exec.enabled(enabled_buf);
    if (enabled_buf.empty()) return std::nullopt;  // genuinely terminal
    if (path.size() >= opts.max_depth) {
      ++res.stats.truncated;
      truncated = true;  // unexplored successors: no certificate
      return std::nullopt;
    }
    if (opts.use_state_cache) cache.emplace(d, sleep_in);
    if (opts.use_sleep_sets) {
      frame.to_explore = difference(enabled_buf, sleep_in);
      frame.sleep = std::move(sleep_in);
      if (frame.to_explore.empty()) {
        ++res.stats.sleep_pruned;
        return std::nullopt;
      }
    } else {
      frame.to_explore = enabled_buf;
    }
    return frame;
  };

  if (std::optional<Frame> root = arrive(ChoiceSet{})) {
    stack.push_back(std::move(*root));
  } else {
    ++res.stats.executions;
  }

  // exec holds the state of stack.back() before the frame's first choice
  // fires; for each later one, the state saved then is restored.
  while (!stack.empty() && !aborted) {
    Frame& top = stack.back();
    if (top.next >= top.to_explore.size()) {
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    if (res.stats.states_visited >= opts.max_states) {
      truncated = true;
      break;
    }
    const std::size_t depth = path.size();
    if (top.next == 0) {
      if (top.to_explore.size() > 1) {
        if (saved.size() <= depth) saved.resize(depth + 1);
        exec.save(saved[depth]);
      }
    } else {
      // The restored queue is laid out as saved, so each choice's position
      // still names its event. Counted as the stateless search's replay of
      // the path from the initial state would be.
      exec.restore(saved[depth]);
      assert(exec.digest() == top.digest);
      ++res.stats.replays;
      res.stats.transitions += depth;
    }

    const Choice c = top.to_explore[top.next++];
    ChoiceSet child_sleep;
    if (opts.use_sleep_sets) {
      for (const Choice& u : top.sleep) {
        if (independent(u, c)) child_sleep.push_back(u);
      }
      insert_sorted(top.sleep, c);  // c sleeps for the later siblings
    }
    exec.fire(c);
    ++res.stats.transitions;
    xdigest.mix(c.key());
    path.push_back(c);

    if (std::optional<Frame> child = arrive(std::move(child_sleep))) {
      stack.push_back(std::move(*child));
    } else {
      ++res.stats.executions;
      path.pop_back();
    }
  }

  if (opts.collect_state_digests) {
    std::sort(res.state_digests.begin(), res.state_digests.end());
    res.state_digests.erase(
        std::unique(res.state_digests.begin(), res.state_digests.end()),
        res.state_digests.end());
  }
  res.stats.distinct_states = cache.size();
  res.exploration_digest = xdigest.digest();
  res.complete = !truncated && !aborted;
  return res;
}

std::vector<RoleBranch> explore_roles(const scenario::ScenarioSpec& spec,
                                      const McOptions& opts) {
  // Only servers branch: an id outside the system builds no Byzantine
  // process, as a crash of a non-server is ignored.
  const std::size_t servers = scenario::materialize(spec.family).universe_size();
  std::vector<ProcessId> pool;
  for (ProcessId id = 0; id < servers; ++id) {
    if (spec.byzantine.contains(id)) pool.push_back(id);
  }
  std::vector<RoleBranch> out;
  const std::size_t subsets = std::size_t{1} << pool.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    RoleBranch branch;
    for (std::size_t b = 0; b < pool.size(); ++b) {
      if ((mask >> b) & 1u) branch.coalition.insert(pool[b]);
    }
    scenario::ScenarioSpec sub = spec;
    sub.byzantine = branch.coalition;
    if (branch.coalition.empty()) sub.role = scenario::FaultRole::kNone;
    branch.result = explore(sub, opts);
    out.push_back(std::move(branch));
  }
  // Smallest coalitions first (stable for equal sizes: mask order).
  std::stable_sort(out.begin(), out.end(),
                   [](const RoleBranch& a, const RoleBranch& b) {
                     return a.coalition.size() < b.coalition.size();
                   });
  return out;
}

scenario::ScenarioSpec to_runner_spec(const scenario::ScenarioSpec& spec) {
  scenario::ScenarioSpec out = spec;
  sim::SimTime t = 0;
  for (scenario::ScheduleEntry& e : out.schedule) {
    e.at = t;
    t += 20 * sim::kDefaultDelta;
  }
  return out;
}

}  // namespace rqs::mc
