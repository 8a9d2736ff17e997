// Shared plumbing of the repository benchmark: the wall clock, sample
// statistics, the span tracer, the pass loop and the report each workload
// fills. Everything here sits outside the libraries: spans wrap calls into
// a layer's public functions, they never reach inside one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Percentile p in [0, 100] of `v`, interpolating linearly between the
/// two closest ranks; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Ratio that reads 0 instead of dividing by zero.
[[nodiscard]] inline double ratio(double num, double den) noexcept {
  return den == 0 ? 0.0 : num / den;
}

/// In-memory span recorder. A span has a name ("<layer>.<call>"), start,
/// end, the span open around it (its parent) and a request id shared by
/// every span of one storage op, consensus instance, scenario,
/// exploration or verdict call. Per-name totals (count, duration, self
/// time = duration minus the time covered by child spans) are kept for
/// every span; the first kKeptSpans spans are also kept whole and written
/// out as a Chrome trace at the end of the run.
class Tracer {
 public:
  static constexpr std::size_t kKeptSpans = 100000;

  struct Totals {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };

  [[nodiscard]] std::uint64_t new_request() noexcept { return ++last_request_; }

  /// `name` must be a string literal (its address keys the totals).
  void open(const char* name, std::uint64_t request);
  void close();

  /// Totals of every span called `name`.
  [[nodiscard]] Totals totals(std::string_view name) const;
  /// Mean duration of the spans called `name`, in `unit_ns` units.
  [[nodiscard]] double mean(std::string_view name, double unit_ns) const;
  /// (layer, self ns) for every layer that recorded a span.
  [[nodiscard]] std::map<std::string, std::int64_t> layer_self() const;
  /// Summed duration of the root spans: every layer's self time lies
  /// inside it, so the self times add up to this.
  [[nodiscard]] std::int64_t root_ns() const noexcept { return root_ns_; }

  /// Writes the kept spans as a Chrome trace (Perfetto loads it).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Kept {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into kept_, -1 for a root span
    std::uint64_t request;
  };
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t kept;  // index into kept_, -1 when not kept
    std::uint64_t request;
  };

  std::vector<Kept> kept_;
  std::vector<Open> stack_;
  std::vector<std::pair<const char*, Totals>> totals_;  // few names: linear
  std::uint64_t last_request_{0};
  std::uint64_t not_kept_{0};
  std::int64_t root_ns_{0};
};

/// Span for the enclosing scope; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t request) : t_(t) {
    if (t_) t_->open(name, request);
  }
  ~Scope() {
    if (t_) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// What one workload run reports. Metric names fix their unit by suffix
/// (see perfbench/README.md); run.py attaches the unit.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;             ///< first few, for the log
  std::map<std::string, double> metrics;         ///< timings, rates, ratios
  std::map<std::string, std::uint64_t> samples;  ///< sample count per timing
  /// Exact work counts, a function of the inputs alone, kept as text so
  /// 64-bit digests survive the JSON round trip.
  std::map<std::string, std::string> counts;

  void fail(std::string what);
  void count(const std::string& name, std::uint64_t v) { counts[name] = std::to_string(v); }
  void count(const std::string& name, double v);
  void count(const std::string& name, std::string v) { counts[name] = std::move(v); }
  /// Records a unit's outcome: attempted, and failed unless `ok`; `what`
  /// describes a failure and is only called for one.
  template <class What>
  void unit(bool ok, What&& what) {
    ++attempted;
    if (!ok) fail(what());
  }
};

struct RunOptions {
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

/// Pass wall times, split by whether the tracer was attached; set-up wall
/// times; and the peak resident set once set-up and the first pass are
/// done (later passes repeat the same kind of work, and only the
/// benchmark's own sample buffers keep growing with the run length).
struct RunTimes {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> setup_s;
  double peak_rss_mib{0};
};

/// Stores pass_s (median untraced pass), setup_s (median set-up),
/// peak_rss_mib and, for traced runs, trace_overhead (median traced pass /
/// median untraced pass - 1).
void report_passes(const RunTimes& pt, Report& rep);

/// Runs one workload: times build() once at process start, then runs
/// pass(state, tracer, round) until `o.seconds` have gone by, at least
/// once. Untraced runs attach no tracer. Traced runs alternate untraced
/// and traced passes over the same inputs (`round` is shared by each
/// pair), with at least one of each, so the tracing overhead is measured
/// on identical work. After every pass it times further throwaway
/// build()s for 1% of that pass (at least 1 ms), so that setup_s is a
/// median over the whole run rather than over one moment of a noisy host.
/// Reports through report_passes() and returns the first state.
template <class Build, class Pass>
auto run_workload(const RunOptions& o, Tracer& tracer, Report& rep, Build&& build,
                  Pass&& pass) {
  RunTimes pt;
  const auto timed_build = [&] {
    const std::int64_t t0 = now_ns();
    auto state = build();
    pt.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return state;
  };
  auto state = timed_build();
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    const std::size_t round = o.trace ? i / 2 : i;
    const std::int64_t t0 = now_ns();
    pass(*state, traced ? &tracer : nullptr, round);
    const std::int64_t t1 = now_ns();
    (traced ? pt.traced_s : pt.untraced_s).push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (i == 0) pt.peak_rss_mib = peak_rss_mib();
    const std::int64_t until = now_ns() + std::max<std::int64_t>(1'000'000, (t1 - t0) / 100);
    do {
      (void)timed_build();
    } while (now_ns() < until);
    if (now_ns() - start >= budget && (!o.trace || !pt.traced_s.empty())) break;
  }
  report_passes(pt, rep);
  return state;
}

/// Stores p50/p99 of `us` under "<prefix>.p50_us" / "<prefix>.p99_us".
void report_percentiles(const std::string& prefix, const std::vector<double>& us,
                        Report& rep);

void run_ladder(const RunOptions& o, Tracer& tr, Report& rep);
void run_swarm(const RunOptions& o, Tracer& tr, Report& rep);
void run_mc_fig1(const RunOptions& o, Tracer& tr, Report& rep);
void run_check_sweep(const RunOptions& o, Tracer& tr, Report& rep);

}  // namespace perfbench
