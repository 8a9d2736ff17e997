// The repository benchmark binary:
//
//   rqs_perfbench --workload ladder|swarm|mc-fig1|check-sweep --seed N
//                 --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload in a closed loop on one thread for about S seconds,
// verifies every unit's output, and prints one JSON line with the units
// attempted and failed, every metric it measured (the unit is fixed by the
// metric name), sample counts and the exact work counts. perfbench/run.py
// builds this binary, checks the counts against the recorded ones and
// prints the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using perfbench::Report;

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class Map, class Fmt>
std::string json_object(const Map& m, Fmt&& fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + fmt(v);
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: rqs_perfbench --workload ladder|swarm|mc-fig1|check-sweep "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  perfbench::RunOptions o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      have_seconds = *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::string_view(val) == "0" || std::string_view(val) == "1";
      o.trace = std::string_view(val) == "1";
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) return usage();

  perfbench::Tracer tracer;
  Report rep;
  if (workload == "ladder") {
    perfbench::run_ladder(o, tracer, rep);
  } else if (workload == "swarm") {
    perfbench::run_swarm(o, tracer, rep);
  } else if (workload == "mc-fig1") {
    perfbench::run_mc_fig1(o, tracer, rep);
  } else if (workload == "check-sweep") {
    perfbench::run_check_sweep(o, tracer, rep);
  } else {
    return usage();
  }

  if (o.trace) {
    for (const auto& [layer, ns] : tracer.layer_self()) {
      rep.metrics[layer + ".self_share"] = perfbench::ratio(
          static_cast<double>(ns), static_cast<double>(tracer.root_ns()));
    }
    if (!spans_path.empty() && !tracer.write_chrome_trace(spans_path)) {
      std::fprintf(stderr, "rqs_perfbench: cannot write %s\n", spans_path.c_str());
    }
  }

  std::string failures = "[";
  for (const std::string& f : rep.failures) {
    if (failures.size() > 1) failures += ",";
    failures += json_string(f);
  }
  failures += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
      "\"failed\":%llu,\"failures\":%s,\"metrics\":%s,\"samples\":%s,"
      "\"counts\":%s}\n",
      json_string(workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), failures.c_str(),
      json_object(rep.metrics, json_number).c_str(),
      json_object(rep.samples, [](std::uint64_t v) { return std::to_string(v); }).c_str(),
      json_object(rep.counts, json_string).c_str());
  return 0;
}
