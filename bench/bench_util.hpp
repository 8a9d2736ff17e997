// Shared helpers for the benchmark binaries: every binary first prints its
// experiment table (the paper-claim vs measured reproduction rows recorded
// in EXPERIMENTS.md; empty where gtests assert the claims), then runs its
// google-benchmark microbenchmarks.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

namespace rqs::bench {

inline void print_header(const std::string& experiment, const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
}

inline void print_row(const std::string& label, const std::string& value) {
  std::printf("  %-58s %s\n", label.c_str(), value.c_str());
}

/// Number of check_row() rows whose check failed so far.
inline int& failed_checks() {
  static int failed = 0;
  return failed;
}

/// A row whose claim is also a check: printed like print_row(), marked
/// FAILED when `ok` is false, and RQS_BENCH_MAIN then exits non-zero.
inline void check_row(const std::string& label, const std::string& value, bool ok) {
  print_row(label, ok ? value : value + "  [CHECK FAILED]");
  if (!ok) ++failed_checks();
}

}  // namespace rqs::bench

/// Standard main: table first, then benchmarks. A failed check_row() row
/// ends the run right after the tables with exit status 1.
#define RQS_BENCH_MAIN(print_tables_fn)                                       \
  int main(int argc, char** argv) {                                           \
    print_tables_fn();                                                        \
    if (rqs::bench::failed_checks() > 0) {                                    \
      std::fprintf(stderr, "%d claim check(s) failed\n",                      \
                   rqs::bench::failed_checks());                              \
      return 1;                                                               \
    }                                                                         \
    benchmark::Initialize(&argc, argv);                                       \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {                 \
      return 1;                                                               \
    }                                                                         \
    benchmark::RunSpecifiedBenchmarks();                                      \
    benchmark::Shutdown();                                                    \
    return 0;                                                                 \
  }
