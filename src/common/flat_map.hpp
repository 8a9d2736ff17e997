// Sorted flat containers: FlatSet<K> and FlatMap<K, V>.
//
// The repo's small keyed tables (per-tag send counters, the class 2
// quorum-id sets every storage message carries, the metric tables and the
// observer's tag table) hold a few dozen keys at most and are probed far
// more often than they grow. Each keeps its keys sorted and unique in one
// std::vector: lookup is a binary search over contiguous memory, iteration
// runs in key order (so a table can feed a digest or a report), and
// copying a table is a single allocation at most.
//
// The comparator is std::less<>, which is transparent: a table keyed by
// std::string is probed with a std::string_view or a literal, and one
// keyed by std::string_view with a literal, without building a key. A
// table grows only through FlatSet::insert and FlatMap::try_emplace; once
// every key has been seen, lookups and updates never allocate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace rqs {

/// Unique keys in ascending order.
template <typename K>
class FlatSet {
 public:
  using const_iterator = typename std::vector<K>::const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<K> keys) { insert(keys.begin(), keys.end()); }

  void insert(const K& key) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), key, std::less<>{});
    if (it == v_.end() || std::less<>{}(key, *it)) v_.insert(it, key);
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  template <typename Q>
  [[nodiscard]] bool contains(const Q& key) const {
    return std::binary_search(v_.begin(), v_.end(), key, std::less<>{});
  }

  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  void clear() noexcept { v_.clear(); }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

 private:
  std::vector<K> v_;  // sorted, unique
};

/// (key, value) pairs with unique keys, in ascending key order. An insert
/// shifts the entries behind it, so a reference into the map lasts until
/// the next first-sight key.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// The value at `key`, built in place from `args` on first sight. An
  /// existing value is returned as it is, never overwritten.
  // rqs-hot-path
  template <typename Q, typename... Args>
  V& try_emplace(const Q& key, Args&&... args) {
    const auto it = lower(*this, key);
    if (it != v_.end() && !std::less<>{}(key, it->first)) return it->second;
    // rqs-lint: allow(hot-path-alloc) the one growth site: first sight of a key, after which the table is at steady state
    return v_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(std::forward<Args>(args)...))
        ->second;
  }
  /// The value at `key`, value-initialized on first sight.
  template <typename Q>
  V& operator[](const Q& key) {
    return try_emplace(key);
  }

  /// The value at `key`, or null.
  template <typename Q>
  [[nodiscard]] const V* find(const Q& key) const {
    const auto it = lower(*this, key);
    return it != v_.end() && !std::less<>{}(key, it->first) ? &it->second
                                                            : nullptr;
  }
  /// The value at `key`; throws std::out_of_range when it is absent.
  template <typename Q>
  [[nodiscard]] const V& at(const Q& key) const {
    if (const V* v = find(key)) return *v;
    throw std::out_of_range("FlatMap::at: no such key");
  }
  template <typename Q>
  [[nodiscard]] std::size_t count(const Q& key) const {
    return find(key) != nullptr ? 1 : 0;
  }

  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  void clear() noexcept { v_.clear(); }
  void reserve(std::size_t n) { v_.reserve(n); }

 private:
  template <typename Self, typename Q>
  [[nodiscard]] static auto lower(Self& self, const Q& key) {
    return std::lower_bound(
        self.v_.begin(), self.v_.end(), key,
        [](const value_type& e, const Q& k) { return std::less<>{}(e.first, k); });
  }

  std::vector<value_type> v_;  // sorted by key, unique
};

}  // namespace rqs
