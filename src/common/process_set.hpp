// BasicProcessSet<Words>: a subset of a universe of at most 64*Words
// processes, represented as a fixed-width multi-word bitmask. All of the
// paper's set algebra (intersection, union, set difference, subset tests)
// is a short word-wise loop — loop-free after unrolling for the widths used
// here — which keeps the Property 1/2/3 checkers exact and fast at any
// width.
//
// Width-selection rule:
//   * ProcessSet (= BasicProcessSet<1>, one 64-bit word) is the default
//     everywhere a process id rides inside a message or a simulator event:
//     the sim/consensus/storage/scenario layers are 1-word *by
//     construction* (their harnesses assign dense ids < 64 and their POD
//     message layouts budget exactly 8 bytes per set). Its layout and
//     semantics are byte-identical to the historical single-uint64_t
//     ProcessSet.
//   * WideProcessSet (= BasicProcessSet<4>, n <= 256) is the analysis
//     width: the core layer (adversary structures, property checkers,
//     classification, hierarchical constructions) is instantiated for it
//     so quorum systems over hundreds of processes can be checked without
//     touching the protocol hot paths.
//
// Out-of-range process ids are a *hard* error at every width: insert /
// erase / contains / single / universe trap instead of shifting by >= 64
// (which is UB and, in Release builds, silently produced garbage masks
// before this guard existed).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/types.hpp"

namespace rqs {

namespace detail {
/// Hard out-of-range failure for process-set operations. Never returns;
/// aborts in Release as well as Debug (an out-of-range id used to be UB —
/// a silent `1 << 64` — in Release). Defined in process_set.cpp so the
/// cold path never inlines into the hot set algebra.
[[noreturn]] void process_set_bounds_failure(std::size_t value,
                                             std::size_t limit,
                                             const char* what);
}  // namespace detail

template <std::size_t Words>
class BasicProcessSet {
  static_assert(Words >= 1, "a process set needs at least one word");

 public:
  /// Number of 64-bit words backing the set.
  static constexpr std::size_t kWords = Words;
  /// Maximum universe size supported by this width.
  static constexpr std::size_t kMaxProcesses = 64 * Words;

  constexpr BasicProcessSet() noexcept = default;

  /// Builds the set {ids...}. Ids must be < kMaxProcesses (hard-checked).
  constexpr BasicProcessSet(std::initializer_list<ProcessId> ids) noexcept {
    for (ProcessId id : ids) insert(id);
  }

  /// The set {0, 1, ..., n-1}. n must be <= kMaxProcesses (hard-checked).
  [[nodiscard]] static constexpr BasicProcessSet universe(std::size_t n) noexcept {
    if (n > kMaxProcesses) {
      detail::process_set_bounds_failure(n, kMaxProcesses, "universe size");
    }
    BasicProcessSet s;
    for (std::size_t w = 0; w < Words && n > 0; ++w) {
      s.w_[w] = (n >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
      n = (n >= 64) ? n - 64 : 0;
    }
    return s;
  }

  /// The singleton {id}.
  [[nodiscard]] static constexpr BasicProcessSet single(ProcessId id) noexcept {
    BasicProcessSet s;
    s.insert(id);
    return s;
  }

  /// Constructs directly from a bitmask (bit i set <=> process i is a
  /// member). One-word sets only; wider sets are built by insertion.
  [[nodiscard]] static constexpr BasicProcessSet from_mask(std::uint64_t mask) noexcept
    requires(Words == 1)
  {
    BasicProcessSet s;
    s.w_[0] = mask;
    return s;
  }

  /// The raw mask of a one-word set.
  [[nodiscard]] constexpr std::uint64_t mask() const noexcept
    requires(Words == 1)
  {
    return w_[0];
  }

  /// The w-th 64-bit word (processes 64w .. 64w+63); any width.
  [[nodiscard]] constexpr std::uint64_t word(std::size_t w) const noexcept {
    return w_[w];
  }

  [[nodiscard]] constexpr bool empty() const noexcept {
    for (std::size_t w = 0; w < Words; ++w) {
      if (w_[w] != 0) return false;
    }
    return true;
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept {
    std::size_t total = 0;
    for (std::size_t w = 0; w < Words; ++w) {
      total += static_cast<std::size_t>(std::popcount(w_[w]));
    }
    return total;
  }

  [[nodiscard]] constexpr bool contains(ProcessId id) const noexcept {
    check_id(id);
    return (w_[id / 64] >> (id % 64)) & 1u;
  }

  constexpr void insert(ProcessId id) noexcept {
    check_id(id);
    w_[id / 64] |= (std::uint64_t{1} << (id % 64));
  }

  constexpr void erase(ProcessId id) noexcept {
    check_id(id);
    w_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
  }

  /// Set algebra. `&` intersection, `|` union, `-` set difference.
  [[nodiscard]] friend constexpr BasicProcessSet operator&(BasicProcessSet a,
                                                           BasicProcessSet b) noexcept {
    for (std::size_t w = 0; w < Words; ++w) a.w_[w] &= b.w_[w];
    return a;
  }
  [[nodiscard]] friend constexpr BasicProcessSet operator|(BasicProcessSet a,
                                                           BasicProcessSet b) noexcept {
    for (std::size_t w = 0; w < Words; ++w) a.w_[w] |= b.w_[w];
    return a;
  }
  [[nodiscard]] friend constexpr BasicProcessSet operator-(BasicProcessSet a,
                                                           BasicProcessSet b) noexcept {
    for (std::size_t w = 0; w < Words; ++w) a.w_[w] &= ~b.w_[w];
    return a;
  }
  constexpr BasicProcessSet& operator&=(BasicProcessSet o) noexcept {
    for (std::size_t w = 0; w < Words; ++w) w_[w] &= o.w_[w];
    return *this;
  }
  constexpr BasicProcessSet& operator|=(BasicProcessSet o) noexcept {
    for (std::size_t w = 0; w < Words; ++w) w_[w] |= o.w_[w];
    return *this;
  }
  constexpr BasicProcessSet& operator-=(BasicProcessSet o) noexcept {
    for (std::size_t w = 0; w < Words; ++w) w_[w] &= ~o.w_[w];
    return *this;
  }

  /// True iff *this is a subset of `other` (not necessarily proper).
  [[nodiscard]] constexpr bool subset_of(BasicProcessSet other) const noexcept {
    for (std::size_t w = 0; w < Words; ++w) {
      if ((w_[w] & ~other.w_[w]) != 0) return false;
    }
    return true;
  }
  /// True iff *this is a proper subset of `other`.
  [[nodiscard]] constexpr bool proper_subset_of(BasicProcessSet other) const noexcept {
    return subset_of(other) && *this != other;
  }
  [[nodiscard]] constexpr bool intersects(BasicProcessSet other) const noexcept {
    for (std::size_t w = 0; w < Words; ++w) {
      if ((w_[w] & other.w_[w]) != 0) return true;
    }
    return false;
  }

  /// Complement within the universe {0..n-1} (the paper's X-bar).
  [[nodiscard]] constexpr BasicProcessSet complement(std::size_t n) const noexcept {
    return universe(n) - *this;
  }

  /// The smallest member, or kInvalidProcess if empty.
  [[nodiscard]] constexpr ProcessId first() const noexcept {
    for (std::size_t w = 0; w < Words; ++w) {
      if (w_[w] != 0) {
        return static_cast<ProcessId>(64 * w +
                                      static_cast<std::size_t>(std::countr_zero(w_[w])));
      }
    }
    return kInvalidProcess;
  }

  friend constexpr bool operator==(BasicProcessSet, BasicProcessSet) noexcept = default;
  /// Total order by mask value (most-significant word first), matching the
  /// numeric order of the underlying big-endian-word integer; makes
  /// BasicProcessSet usable as a map/set key at any width.
  friend constexpr bool operator<(BasicProcessSet a, BasicProcessSet b) noexcept {
    for (std::size_t w = Words; w-- > 0;) {
      if (a.w_[w] != b.w_[w]) return a.w_[w] < b.w_[w];
    }
    return false;
  }

  /// Iteration over members in increasing id order.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ProcessId;
    using difference_type = std::ptrdiff_t;
    using pointer = const ProcessId*;
    using reference = ProcessId;

    constexpr iterator() noexcept : word_(Words) {}
    constexpr explicit iterator(const std::array<std::uint64_t, Words>& bits) noexcept
        : bits_(bits) {
      skip_empty_words();
    }
    constexpr ProcessId operator*() const noexcept {
      return static_cast<ProcessId>(
          64 * word_ + static_cast<std::size_t>(std::countr_zero(bits_[word_])));
    }
    constexpr iterator& operator++() noexcept {
      bits_[word_] &= bits_[word_] - 1;  // clear lowest set bit
      skip_empty_words();
      return *this;
    }
    friend constexpr bool operator==(const iterator& a, const iterator& b) noexcept {
      if (a.word_ != b.word_) return false;
      return a.word_ >= Words || a.bits_[a.word_] == b.bits_[b.word_];
    }

   private:
    constexpr void skip_empty_words() noexcept {
      while (word_ < Words && bits_[word_] == 0) ++word_;
    }

    std::array<std::uint64_t, Words> bits_{};
    std::size_t word_{0};
  };

  [[nodiscard]] constexpr iterator begin() const noexcept { return iterator{w_}; }
  [[nodiscard]] constexpr iterator end() const noexcept { return iterator{}; }

  /// Members as a vector, in increasing id order.
  [[nodiscard]] std::vector<ProcessId> members() const {
    std::vector<ProcessId> out;
    out.reserve(size());
    for (ProcessId id : *this) out.push_back(id);
    return out;
  }

  /// Renders as "{0,2,5}".
  [[nodiscard]] std::string to_string() const {
    std::string out = "{";
    bool first_member = true;
    for (ProcessId id : *this) {
      if (!first_member) out += ",";
      out += std::to_string(id);
      first_member = false;
    }
    out += "}";
    return out;
  }

 private:
  static constexpr void check_id(ProcessId id) noexcept {
    if (id >= kMaxProcesses) {
      detail::process_set_bounds_failure(id, kMaxProcesses, "process id");
    }
  }

  std::array<std::uint64_t, Words> w_{};
};

/// The protocol-layer set: one word, ids < 64, rides inside POD messages.
using ProcessSet = BasicProcessSet<1>;

/// The analysis-layer set: four words, universes up to 256 processes.
using WideProcessSet = BasicProcessSet<4>;

/// Folds the set's words, lowest first, into `h`: the content digests of
/// messages and of process states (never raw bytes).
template <std::size_t Words>
constexpr void digest_into(Fnv64& h, const BasicProcessSet<Words>& s) noexcept {
  for (std::size_t w = 0; w < Words; ++w) h.mix(s.word(w));
}

template <std::size_t Words>
std::ostream& operator<<(std::ostream& os, const BasicProcessSet<Words>& s);

/// Drops every set that is a (non-strict) subset of another in the family,
/// keeping a single copy of duplicates, and returns the survivors sorted by
/// mask. Used to normalize adversary structures and their pairwise unions:
/// "x is covered by some family member" is preserved.
template <std::size_t Words>
[[nodiscard]] std::vector<BasicProcessSet<Words>> keep_maximal_sets(
    std::vector<BasicProcessSet<Words>> sets);

// Definitions live in process_set.cpp; the library instantiates the two
// supported widths there.
extern template std::ostream& operator<< <1>(std::ostream&, const BasicProcessSet<1>&);
extern template std::ostream& operator<< <4>(std::ostream&, const BasicProcessSet<4>&);
extern template std::vector<BasicProcessSet<1>> keep_maximal_sets<1>(
    std::vector<BasicProcessSet<1>>);
extern template std::vector<BasicProcessSet<4>> keep_maximal_sets<4>(
    std::vector<BasicProcessSet<4>>);

}  // namespace rqs
