// trace_export: convert an observability trace to Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
//
// Two sources:
//   --golden SEED   run the seeded golden scenario with full tracing
//                   attached and export its ring
//   --in PATH       load a binary ring dump written with --save-ring
//
// Options:
//   --out PATH            output JSON path ("-" = stdout, the default)
//   --save-ring PATH      also persist the binary dump (with --golden)
//   --trace-capacity N    ring capacity for --golden, 1 <= N <= 1<<24
//                         (default 1<<16)
//   --metrics             print the metrics snapshot to stderr
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--golden SEED | --in DUMP) [--out PATH] [--save-ring PATH]"
               " [--trace-capacity N] [--metrics]\n";
  return 2;
}

/// Parses a whole decimal string into `out`; false on anything else.
bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string in_path;
  std::string out_path = "-";
  std::string ring_path;
  std::uint64_t capacity = std::uint64_t{1} << 16;
  bool print_metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--golden") {
      if (!parse_u64(next(), seed)) return usage(argv[0]);
      have_seed = true;
    } else if (arg == "--in") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      in_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--save-ring") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      ring_path = v;
    } else if (arg == "--trace-capacity") {
      // Observer(0) keeps no ring, and there would be nothing to export;
      // past the ring's ceiling the Observer would throw.
      if (!parse_u64(next(), capacity) || capacity == 0 ||
          capacity > rqs::obs::TraceRing::kMaxCapacity) {
        return usage(argv[0]);
      }
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (have_seed == !in_path.empty()) return usage(argv[0]);

  rqs::obs::TraceDump dump;
  if (have_seed) {
    rqs::obs::Observer observer(capacity);
    rqs::scenario::ScenarioRunner::Options opts;
    opts.observer = &observer;
    const rqs::scenario::ScenarioRunner runner(opts);
    const rqs::scenario::ScenarioGenerator generator;
    const auto result = runner.run(generator.generate(seed));
    std::cerr << "seed " << seed << ": " << result.to_string() << "\n"
              << "trace: " << observer.ring()->size() << " events retained, "
              << observer.ring()->dropped() << " dropped, events digest "
              << observer.events_digest() << "\n";
    if (print_metrics) std::cerr << observer.snapshot().to_string();
    dump = rqs::obs::TraceDump::from(observer);
    if (!ring_path.empty() && !rqs::obs::save_trace(ring_path, dump)) {
      std::cerr << "error: cannot write ring dump " << ring_path << "\n";
      return 1;
    }
  } else {
    auto loaded = rqs::obs::load_trace(in_path);
    if (!loaded) {
      std::cerr << "error: cannot load ring dump " << in_path << "\n";
      return 1;
    }
    dump = std::move(*loaded);
  }

  if (out_path == "-") {
    rqs::obs::write_chrome_trace(std::cout, dump);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "error: cannot open " << out_path << "\n";
      return 1;
    }
    rqs::obs::write_chrome_trace(out, dump);
  }
  return 0;
}
