// Unit tests for the common layer's sets: ProcessSet (construction,
// algebra, iteration, ordering) and the sorted flat containers FlatSet /
// FlatMap, checked against std::set / std::map as oracles.
#include "common/process_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace rqs {
namespace {

TEST(ProcessSetTest, DefaultIsEmpty) {
  ProcessSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.mask(), 0u);
  EXPECT_EQ(s.first(), kInvalidProcess);
}

TEST(ProcessSetTest, InitializerList) {
  ProcessSet s{0, 2, 5};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.first(), 0u);
}

TEST(ProcessSetTest, Universe) {
  EXPECT_EQ(ProcessSet::universe(0).size(), 0u);
  EXPECT_EQ(ProcessSet::universe(5).size(), 5u);
  EXPECT_EQ(ProcessSet::universe(5).mask(), 0b11111u);
  EXPECT_EQ(ProcessSet::universe(64).size(), 64u);
}

TEST(ProcessSetTest, Single) {
  const ProcessSet s = ProcessSet::single(7);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(7));
}

TEST(ProcessSetTest, InsertErase) {
  ProcessSet s;
  s.insert(3);
  s.insert(3);
  EXPECT_EQ(s.size(), 1u);
  s.insert(9);
  EXPECT_EQ(s.size(), 2u);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.contains(9));
  s.erase(3);  // erasing twice is harmless
  EXPECT_EQ(s.size(), 1u);
}

TEST(ProcessSetTest, Intersection) {
  const ProcessSet a{0, 1, 2, 3};
  const ProcessSet b{2, 3, 4, 5};
  EXPECT_EQ((a & b), (ProcessSet{2, 3}));
}

TEST(ProcessSetTest, Union) {
  const ProcessSet a{0, 1};
  const ProcessSet b{1, 2};
  EXPECT_EQ((a | b), (ProcessSet{0, 1, 2}));
}

TEST(ProcessSetTest, Difference) {
  const ProcessSet a{0, 1, 2, 3};
  const ProcessSet b{1, 3, 5};
  EXPECT_EQ((a - b), (ProcessSet{0, 2}));
}

TEST(ProcessSetTest, CompoundAssignment) {
  ProcessSet s{0, 1, 2};
  s &= ProcessSet{1, 2, 3};
  EXPECT_EQ(s, (ProcessSet{1, 2}));
  s |= ProcessSet{5};
  EXPECT_EQ(s, (ProcessSet{1, 2, 5}));
  s -= ProcessSet{2};
  EXPECT_EQ(s, (ProcessSet{1, 5}));
}

TEST(ProcessSetTest, SubsetRelations) {
  const ProcessSet a{1, 2};
  const ProcessSet b{0, 1, 2, 3};
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_TRUE(a.proper_subset_of(b));
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_FALSE(a.proper_subset_of(a));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(ProcessSet{}.subset_of(a));
}

TEST(ProcessSetTest, Intersects) {
  EXPECT_TRUE((ProcessSet{0, 1}).intersects(ProcessSet{1, 2}));
  EXPECT_FALSE((ProcessSet{0, 1}).intersects(ProcessSet{2, 3}));
  EXPECT_FALSE(ProcessSet{}.intersects(ProcessSet{0}));
}

TEST(ProcessSetTest, Complement) {
  const ProcessSet s{0, 2};
  EXPECT_EQ(s.complement(4), (ProcessSet{1, 3}));
  EXPECT_EQ(ProcessSet{}.complement(3), ProcessSet::universe(3));
}

TEST(ProcessSetTest, IterationInOrder) {
  const ProcessSet s{5, 1, 9, 0};
  std::vector<ProcessId> seen;
  for (ProcessId id : s) seen.push_back(id);
  EXPECT_EQ(seen, (std::vector<ProcessId>{0, 1, 5, 9}));
  EXPECT_EQ(s.members(), seen);
}

TEST(ProcessSetTest, EmptyIteration) {
  int count = 0;
  for ([[maybe_unused]] ProcessId id : ProcessSet{}) ++count;
  EXPECT_EQ(count, 0);
}

TEST(ProcessSetTest, StdAlgorithmsWork) {
  const ProcessSet s{1, 3, 5};
  EXPECT_TRUE(std::all_of(s.begin(), s.end(), [](ProcessId p) { return p % 2 == 1; }));
  EXPECT_TRUE(std::any_of(s.begin(), s.end(), [](ProcessId p) { return p == 3; }));
  EXPECT_FALSE(std::any_of(s.begin(), s.end(), [](ProcessId p) { return p == 2; }));
}

TEST(ProcessSetTest, Ordering) {
  std::set<ProcessSet> keys;
  keys.insert(ProcessSet{0});
  keys.insert(ProcessSet{1});
  keys.insert(ProcessSet{0});
  EXPECT_EQ(keys.size(), 2u);
}

TEST(ProcessSetTest, ToString) {
  EXPECT_EQ((ProcessSet{0, 2, 5}).to_string(), "{0,2,5}");
  EXPECT_EQ(ProcessSet{}.to_string(), "{}");
}

TEST(ProcessSetTest, FromMaskRoundTrip) {
  const ProcessSet s{0, 63};
  EXPECT_EQ(ProcessSet::from_mask(s.mask()), s);
}

TEST(FlatMapTest, SeededRandomOpsMatchStdMap) {
  Rng rng(2026);
  FlatMap<int, std::uint64_t> m;
  std::map<int, std::uint64_t> oracle;
  for (int i = 0; i < 4000; ++i) {
    const int k = static_cast<int>(rng.uniform(-40, 40));
    const auto v = static_cast<std::uint64_t>(rng.uniform(1, 1000));
    switch (rng.uniform(0, 2)) {
      case 0:  // never overwrites: both keep the first value
        EXPECT_EQ(m.try_emplace(k, v), oracle.try_emplace(k, v).first->second);
        break;
      case 1:  // value-initializes on first sight
        EXPECT_EQ(m[k] += v, oracle[k] += v);
        break;
      default: {
        const auto it = oracle.find(k);
        const std::uint64_t* got = m.find(k);
        ASSERT_EQ(got != nullptr, it != oracle.end()) << "key " << k;
        EXPECT_EQ(m.count(k), oracle.count(k));
        if (it != oracle.end()) {
          EXPECT_EQ(*got, it->second);
          EXPECT_EQ(m.at(k), it->second);
        } else {
          EXPECT_THROW((void)m.at(k), std::out_of_range);
        }
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
  }
  // Ordered, unique iteration.
  using Entries = std::vector<std::pair<int, std::uint64_t>>;
  EXPECT_EQ(Entries(m.begin(), m.end()), Entries(oracle.begin(), oracle.end()));
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(0), nullptr);
}

TEST(FlatMapTest, FirstSightAndAbsentKeys) {
  FlatMap<int, std::string> m;
  m.reserve(4);
  EXPECT_EQ(m[7], "");  // value-initialized
  EXPECT_EQ(m.try_emplace(3, 2, 'x'), "xx");  // built from the arguments
  EXPECT_EQ(m.try_emplace(3, "other"), "xx");  // kept, not overwritten
  m[7] = "seven";
  EXPECT_EQ(m.at(7), "seven");
  EXPECT_EQ(m.count(5), 0u);
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_THROW((void)m.at(5), std::out_of_range);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.begin()->first, 3);
}

TEST(FlatMapTest, HeterogeneousLookup) {
  // A literal into a string_view key: the tag counters' probe.
  FlatMap<std::string_view, std::uint64_t> tags;
  ++tags["WR_ACK"];
  tags["WR"] += 5;
  EXPECT_EQ(tags.at("WR"), 5u);
  EXPECT_EQ(tags.count("RD"), 0u);
  EXPECT_EQ(tags.begin()->first, "WR");
  // A string_view into a string key: the metric snapshots' probe.
  FlatMap<std::string, std::uint64_t> named;
  const std::string owner = "storage.read.class1";
  const std::string_view name = owner;
  named.try_emplace(name, 4);
  named[std::string_view("sim.sends")] += 2;
  EXPECT_EQ(named.at(name), 4u);
  EXPECT_EQ(*named.find(std::string_view("sim.sends")), 2u);
  EXPECT_EQ(named.find(name.substr(0, 7)), nullptr);
  EXPECT_EQ(named.begin()->first, "sim.sends");
}

TEST(FlatSetTest, SeededRandomInsertsMatchStdSet) {
  Rng rng(26);
  FlatSet<std::uint32_t> s;
  std::set<std::uint32_t> oracle;
  for (int i = 0; i < 2000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.uniform(0, 60));
    if (rng.chance(0.5)) {
      s.insert(id);
      oracle.insert(id);
    } else {
      EXPECT_EQ(s.contains(id), oracle.contains(id)) << "id " << id;
    }
    ASSERT_EQ(s.size(), oracle.size());
  }
  EXPECT_TRUE(std::equal(s.begin(), s.end(), oracle.begin(), oracle.end()));
  FlatSet<std::uint32_t> ranged;
  ranged.insert(oracle.rbegin(), oracle.rend());
  EXPECT_EQ(ranged, s);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(FlatSetTest, Equality) {
  EXPECT_EQ((FlatSet<int>{3, 1, 2, 3}), (FlatSet<int>{1, 2, 3}));
  EXPECT_NE((FlatSet<int>{1, 2}), (FlatSet<int>{1, 2, 3}));
  EXPECT_NE((FlatSet<int>{}), (FlatSet<int>{0}));
  EXPECT_EQ((FlatSet<int>{}), FlatSet<int>());
}

}  // namespace
}  // namespace rqs
