// Pinned explorations for the model-checker suites.
//
// A row holds an exploration's exploration_digest, every McStats field and
// its violation count, recorded once. A change to how McExecution builds
// the deployment, names transitions or injects entries moves at least one
// of these numbers. On a mismatch the measured row is printed in source
// form, ready to paste.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "mc/explorer.hpp"

namespace rqs::mc {

struct PinnedExploration {
  std::uint64_t digest{0};
  std::uint64_t executions{0}, transitions{0}, replays{0};
  std::uint64_t states_visited{0}, distinct_states{0};
  std::uint64_t sleep_pruned{0}, cache_pruned{0}, truncated{0};
  std::size_t max_depth_seen{0};
  std::size_t violations{0};

  friend bool operator==(const PinnedExploration&,
                         const PinnedExploration&) = default;
};

inline std::string to_cpp(const PinnedExploration& p) {
  std::ostringstream os;
  os << "{0x" << std::hex << p.digest << std::dec << "ull, " << p.executions
     << ", " << p.transitions << ", " << p.replays << ", " << p.states_visited
     << ", " << p.distinct_states << ", " << p.sleep_pruned << ", "
     << p.cache_pruned << ", " << p.truncated << ", " << p.max_depth_seen
     << ", " << p.violations << "}";
  return os.str();
}

/// {digest, executions, transitions, replays, states_visited,
///  distinct_states, sleep_pruned, cache_pruned, truncated,
///  max_depth_seen, violations}
inline void expect_pinned(const McResult& r, const PinnedExploration& want) {
  const McStats& s = r.stats;
  const PinnedExploration got{r.exploration_digest, s.executions,
                              s.transitions,        s.replays,
                              s.states_visited,     s.distinct_states,
                              s.sleep_pruned,       s.cache_pruned,
                              s.truncated,          s.max_depth_seen,
                              r.violations.size()};
  EXPECT_TRUE(got == want) << "measured: " << to_cpp(got);
}

}  // namespace rqs::mc
