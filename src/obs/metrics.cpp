#include "obs/metrics.hpp"

#include "obs/format.hpp"

namespace rqs::obs {

std::int64_t LatencyHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min();
  double rank = p / 100.0 * static_cast<double>(count_);
  if (rank > static_cast<double>(count_)) rank = static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (counts_[i] == 0) continue;
    cum += counts_[i];
    if (static_cast<double>(cum) >= rank) {
      const auto [lo, hi] = range_of(i);
      if (lo == hi) return lo;
      // Linear interpolation inside the bucket: rank position among the
      // bucket's own samples, assumed uniform over [lo, hi].
      const double in_bucket =
          rank - static_cast<double>(cum - counts_[i]);
      const double frac = in_bucket / static_cast<double>(counts_[i]);
      auto v = lo + static_cast<std::int64_t>(
                        static_cast<double>(hi - lo) * frac + 0.5);
      // The top bucket's nominal range may exceed the recorded maximum.
      if (v > max()) v = max();
      if (v < min()) v = min();
      return v;
    }
  }
  return max();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += name + " " + format_histogram_line(h) + "\n";
  }
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    snap.counters.try_emplace(name, value);
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.try_emplace(name, *h);
  }
  return snap;
}

}  // namespace rqs::obs
