#include "bench.hpp"

#include <fstream>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Tracer::open(const char* name, std::uint64_t request) {
  std::int64_t kept = -1;
  const std::int64_t start = now_ns();
  if (kept_.size() < kKeptSpans) {
    kept = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Kept{name, start, start,
                         stack_.empty() ? -1 : stack_.back().kept, request});
  } else {
    ++not_kept_;
  }
  stack_.push_back(Open{name, start, 0, kept, request});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  if (o.kept >= 0) kept_[static_cast<std::size_t>(o.kept)].end_ns = end;
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [&](const auto& e) { return e.first == o.name; });
  if (it == totals_.end()) {
    totals_.emplace_back(o.name, Totals{});
    it = totals_.end() - 1;
  }
  ++it->second.count;
  it->second.total_ns += dur;
  it->second.self_ns += dur - o.child_ns;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  Totals sum;
  for (const auto& [n, t] : totals_) {
    if (name != n) continue;
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

double Tracer::mean(std::string_view name, double unit_ns) const {
  const Totals t = totals(name);
  return ratio(static_cast<double>(t.total_ns) / unit_ns,
               static_cast<double>(t.count));
}

std::map<std::string, std::int64_t> Tracer::layer_self() const {
  std::map<std::string, std::int64_t> out;
  for (const auto& [n, t] : totals_) {
    const std::string_view s(n);
    out[std::string(s.substr(0, s.find('.')))] += t.self_ns;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start_ns;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", k.name,
                 static_cast<int>(std::strcspn(k.name, ".")), k.name,
                 static_cast<double>(k.start_ns - t0) * 1e-3,
                 static_cast<double>(k.end_ns - k.start_ns) * 1e-3, i,
                 static_cast<long long>(k.parent),
                 static_cast<unsigned long long>(k.request));
  }
  std::fprintf(f, "],\"otherData\":{\"spans_not_kept\":%llu}}\n",
               static_cast<unsigned long long>(not_kept_));
  return std::fclose(f) == 0;
}

void Report::fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

void Report::count(const std::string& name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  counts[name] = buf;
}

double peak_rss_mib() {
  // VmHWM is this process image's own high-water mark; getrusage's
  // ru_maxrss would also count the parent's resident set before exec.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

void report_passes(const RunTimes& pt, Report& rep) {
  rep.metrics["setup_s"] = percentile(pt.setup_s, 50);
  rep.samples["setup_s"] = pt.setup_s.size();
  rep.metrics["pass_s"] = percentile(pt.untraced_s, 50);
  rep.metrics["peak_rss_mib"] = pt.peak_rss_mib;
  rep.samples["pass_s"] = pt.untraced_s.size();
  if (!pt.traced_s.empty()) {
    rep.metrics["trace_overhead"] =
        ratio(percentile(pt.traced_s, 50), percentile(pt.untraced_s, 50)) - 1.0;
    rep.samples["trace_overhead"] = pt.traced_s.size();
  }
}

void report_percentiles(const std::string& prefix, const std::vector<double>& us,
                        Report& rep) {
  rep.metrics[prefix + ".p50_us"] = percentile(us, 50);
  rep.metrics[prefix + ".p99_us"] = percentile(us, 99);
  rep.samples[prefix + ".p50_us"] = us.size();
  rep.samples[prefix + ".p99_us"] = us.size();
}

}  // namespace perfbench
