// Tests for the Example 2-6 constructions: the analytic feasibility bounds
// of the paper must agree exactly with the explicit property checkers.
#include <gtest/gtest.h>

#include "common/combinatorics.hpp"
#include "core/constructions.hpp"

namespace rqs {
namespace {

TEST(ConstructionsTest, CrashMajorityIsValid) {
  for (std::size_t n = 1; n <= 9; ++n) {
    const RefinedQuorumSystem rqs = make_crash_majority(n);
    EXPECT_TRUE(rqs.valid()) << "n=" << n;
    EXPECT_FALSE(rqs.has_class1());
    EXPECT_FALSE(rqs.has_class2());
    // Every quorum is a majority.
    for (const Quorum& q : rqs.quorums()) {
      EXPECT_GT(2 * q.set.size(), n - (n - 1) / 2 - 1);
      EXPECT_GE(q.set.size(), n - (n - 1) / 2);
    }
  }
}

TEST(ConstructionsTest, ByzantineThirdIsValid) {
  for (std::size_t n = 4; n <= 10; ++n) {
    const RefinedQuorumSystem rqs = make_byzantine_third(n);
    EXPECT_TRUE(rqs.valid()) << "n=" << n;
    EXPECT_EQ(rqs.adversary().threshold_k(), (n - 1) / 3);
  }
}

TEST(ConstructionsTest, DisseminatingValidIffP1Bound) {
  // Disseminating systems only need Property 1: |S| > 2t + k.
  for (std::size_t n = 3; n <= 8; ++n) {
    for (std::size_t k = 0; k <= 2; ++k) {
      for (std::size_t t = k; t <= 3 && t <= n; ++t) {
        const ThresholdParams p{.n = n, .k = k, .t = t, .r = 0, .q = 0,
                                .has_class1 = false, .has_class2 = false};
        const RefinedQuorumSystem rqs = make_disseminating(n, k, t);
        EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
            << "n=" << n << " k=" << k << " t=" << t;
        EXPECT_EQ(rqs.valid(), n > 2 * t + k);
      }
    }
  }
}

TEST(ConstructionsTest, MaskingValidIffBounds) {
  for (std::size_t n = 4; n <= 9; ++n) {
    for (std::size_t k = 0; k <= 2; ++k) {
      for (std::size_t t = k; t <= 2; ++t) {
        const ThresholdParams p{.n = n, .k = k, .t = t, .r = t, .q = 0,
                                .has_class1 = false, .has_class2 = true};
        const RefinedQuorumSystem rqs = make_masking(n, k, t);
        EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
            << "n=" << n << " k=" << k << " t=" << t;
        // P3 without class 1 degenerates to |Q2 n Q| >= 2k+1:
        // |S| > t + r + 2k with r = t.
        EXPECT_EQ(rqs.valid(), n > 2 * t + k && n > 2 * t + 2 * k);
      }
    }
  }
}

// Example 5/6 sweep: explicit validity == analytic bounds, across the
// whole small parameter space.
struct GradedParam {
  std::size_t n, k, t, r, q;
};

class GradedSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GradedSweepTest, ExplicitMatchesAnalytic) {
  const std::size_t n = GetParam();
  for (std::size_t k = 0; k <= 2; ++k) {
    for (std::size_t t = 1; t <= 3 && t < n; ++t) {
      for (std::size_t r = 0; r <= t; ++r) {
        for (std::size_t q = 0; q <= r; ++q) {
          const ThresholdParams p{.n = n, .k = k, .t = t, .r = r, .q = q,
                                  .has_class1 = true, .has_class2 = true};
          const RefinedQuorumSystem rqs = make_graded_threshold(n, k, t, r, q);
          EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
              << "n=" << n << " k=" << k << " t=" << t << " r=" << r
              << " q=" << q;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UniverseSizes, GradedSweepTest,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u, 9u));

TEST(ConstructionsTest, FastThresholdLamportBounds) {
  // Example 5: valid iff |S| > 2q + t + 2k and |S| > 2t + k (and the
  // graded P3 bound, implied when r = q).
  for (std::size_t n = 4; n <= 9; ++n) {
    for (std::size_t k = 0; k <= 2; ++k) {
      for (std::size_t t = 1; t <= 2; ++t) {
        for (std::size_t q = 0; q <= t; ++q) {
          const RefinedQuorumSystem rqs = make_fast_threshold(n, k, t, q);
          const ThresholdParams p{.n = n, .k = k, .t = t, .r = q, .q = q,
                                  .has_class1 = true, .has_class2 = true};
          EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
              << "n=" << n << " k=" << k << " t=" << t << " q=" << q;
        }
      }
    }
  }
}

TEST(ConstructionsTest, ThreeTPlusOneInstantiation) {
  // |S| = 3t+1, k = t, r = t, q = 0: the full set is the only class 1
  // quorum; every quorum is class 2.
  for (std::size_t t = 1; t <= 3; ++t) {
    const RefinedQuorumSystem rqs = make_3t1_instantiation(t);
    EXPECT_TRUE(rqs.valid()) << "t=" << t;
    EXPECT_EQ(rqs.class1_ids().size(), 1u);
    EXPECT_EQ(rqs.quorum_set(rqs.class1_ids()[0]),
              ProcessSet::universe(3 * t + 1));
    EXPECT_EQ(rqs.class2_ids().size(), rqs.quorum_count());
  }
}

TEST(ConstructionsTest, Fig1FastFiveShape) {
  const RefinedQuorumSystem rqs = make_fig1_fast5();
  EXPECT_TRUE(rqs.valid());
  // Class 1 quorums: the five 4-subsets and the full set.
  EXPECT_EQ(rqs.class1_ids().size(), 6u);
  // All quorums (3-, 4-, 5-subsets) are class 2 (k = 0 makes P3 free).
  EXPECT_EQ(rqs.class2_ids().size(), rqs.quorum_count());
  EXPECT_EQ(rqs.quorum_count(), binomial(5, 3) + binomial(5, 4) + 1);
}

TEST(ConstructionsTest, BestAvailablePrefersBetterClass) {
  const RefinedQuorumSystem rqs = make_fig1_fast5();
  // All alive: a class 1 quorum is available.
  auto best = rqs.best_available(ProcessSet::universe(5));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(rqs.quorum(*best).cls, QuorumClass::Class1);
  // Two crashed: only class 2 quorums remain.
  best = rqs.best_available(ProcessSet{0, 1, 2});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(rqs.quorum(*best).cls, QuorumClass::Class2);
  // Three crashed: nothing.
  EXPECT_FALSE(rqs.best_available(ProcessSet{0, 1}).has_value());
}

TEST(ConstructionsTest, QuorumLookupHelpers) {
  const RefinedQuorumSystem rqs = make_example7();
  const auto id = rqs.find(ProcessSet{1, 3, 4, 5});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(rqs.quorum(*id).cls, QuorumClass::Class1);
  EXPECT_FALSE(rqs.find(ProcessSet{0, 1}).has_value());
  EXPECT_EQ(rqs.quorum_count(), 3u);
}

}  // namespace
}  // namespace rqs
