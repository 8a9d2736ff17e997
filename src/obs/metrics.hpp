// Named counters and log-bucketed sim-time latency histograms.
//
// The histogram is HDR-style log-linear: values are binned by magnitude
// (one bucket per power of two beyond the linear prefix) with kSub linear
// sub-buckets each, so relative error is bounded by 1/kSub everywhere.
// The record path is integer-only — a shift, a bit_width and an add —
// and never allocates; percentiles are interpolated from bucket bounds at
// query time. Histograms merge by bucket-wise addition, which is
// associative and commutative, so swarm workers can aggregate into
// per-worker snapshots and the final merge is thread-count invariant.
//
// Counter / histogram names must be string literals (or otherwise outlive
// the registry): the registry stores views, snapshots copy to strings.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/flat_map.hpp"

namespace rqs::obs {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSub = 1u << kSubBits;  // linear sub-buckets
  static constexpr std::size_t kSlots = (64 - kSubBits) * kSub;

  /// Slot of value v. Values < 2*kSub get exact slots; beyond that, each
  /// power-of-two range splits into kSub sub-buckets.
  [[nodiscard]] static constexpr std::size_t index_of(std::uint64_t v) noexcept {
    const unsigned w = static_cast<unsigned>(std::bit_width(v | 1));
    if (w <= kSubBits + 1) return static_cast<std::size_t>(v);
    const unsigned b = w - kSubBits - 1;
    return static_cast<std::size_t>(b) * kSub +
           static_cast<std::size_t>(v >> b);
  }

  /// [lo, hi] value range of slot `idx` (inverse of index_of).
  [[nodiscard]] static constexpr std::pair<std::int64_t, std::int64_t>
  range_of(std::size_t idx) noexcept {
    if (idx < 2 * kSub) {
      return {static_cast<std::int64_t>(idx), static_cast<std::int64_t>(idx)};
    }
    const std::size_t b = idx / kSub - 1;
    const std::uint64_t s = idx - b * kSub;
    return {static_cast<std::int64_t>(s << b),
            static_cast<std::int64_t>(((s + 1) << b) - 1)};
  }

  // rqs-hot-path
  void record(std::int64_t value) noexcept {
    const std::uint64_t v =
        value < 0 ? 0 : static_cast<std::uint64_t>(value);
    ++counts_[index_of(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kSlots; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::int64_t min() const noexcept {
    return count_ == 0 ? 0 : static_cast<std::int64_t>(min_);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    return static_cast<std::int64_t>(max_);
  }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t slot_count(std::size_t idx) const noexcept {
    return counts_[idx];
  }

  /// Value at percentile p in [0, 100], interpolated linearly inside the
  /// containing bucket. Exact for values < 2*kSub; relative error bounded
  /// by 1/kSub beyond.
  [[nodiscard]] std::int64_t percentile(double p) const noexcept;

  [[nodiscard]] bool operator==(const LatencyHistogram& other) const noexcept {
    return counts_ == other.counts_ && count_ == other.count_ &&
           sum_ == other.sum_ &&
           (count_ == 0 || (min_ == other.min_ && max_ == other.max_));
  }

 private:
  std::array<std::uint64_t, kSlots> counts_{};
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
  std::uint64_t min_{~std::uint64_t{0}};
  std::uint64_t max_{0};
};

/// Value-type aggregate of a registry: owned names, full histograms (so
/// percentiles stay correct after cross-worker merges). Mergeable; the
/// merge is commutative and associative.
struct MetricsSnapshot {
  FlatMap<std::string, std::uint64_t> counters;
  FlatMap<std::string, LatencyHistogram> histograms;

  void merge(const MetricsSnapshot& other);

  /// Counter value by name (0 if absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept {
    const std::uint64_t* v = counters.find(name);
    return v != nullptr ? *v : 0;
  }
  /// Histogram by name (null if absent).
  [[nodiscard]] const LatencyHistogram* histogram(
      std::string_view name) const noexcept {
    return histograms.find(name);
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && histograms.empty();
  }
  /// One line per metric: counters as "name value", histograms as
  /// "name count/p50/p90/p99/p999/max".
  [[nodiscard]] std::string to_string() const;
};

/// Registry of named counters and histograms, each a FlatMap keyed by the
/// name view, so the steady state (every name seen before) never
/// allocates. Histograms are boxed: a first-sight insert shifts the
/// entries behind it, and a pointer is cheaper to shift than a histogram.
class MetricsRegistry {
 public:
  // rqs-hot-path
  void bump(std::string_view name, std::uint64_t by = 1) {
    counters_[name] += by;
  }

  // rqs-hot-path
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name) {
    std::unique_ptr<LatencyHistogram>& h = histograms_[name];
    if (!h) h = std::make_unique<LatencyHistogram>();  // rqs-lint: allow(hot-path-alloc) cold first-sight allocation, as with the table insert
    return *h;
  }

  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept {
    const std::uint64_t* v = counters_.find(name);
    return v != nullptr ? *v : 0;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  void clear() noexcept {
    counters_.clear();
    histograms_.clear();
  }

 private:
  FlatMap<std::string_view, std::uint64_t> counters_;
  FlatMap<std::string_view, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace rqs::obs
