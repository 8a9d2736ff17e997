// Randomized property tests on the core abstraction: random general
// adversaries and quorum lists, checking internal consistency of the
// checkers, the classifier and the analysis module.
#include <gtest/gtest.h>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/classification.hpp"
#include "core/constructions.hpp"

namespace rqs {
namespace {

Adversary random_adversary(Rng& rng, std::size_t n, std::size_t elements,
                           std::size_t max_size) {
  std::vector<ProcessSet> maximal;
  for (std::size_t e = 0; e < elements; ++e) {
    ProcessSet s;
    const std::size_t size =
        static_cast<std::size_t>(rng.uniform(1, static_cast<std::int64_t>(max_size)));
    while (s.size() < size) {
      s.insert(static_cast<ProcessId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1)));
    }
    maximal.push_back(s);
  }
  maximal.push_back(ProcessSet{});  // crash faults always possible
  return Adversary{n, std::move(maximal)};
}

std::vector<ProcessSet> random_quorums(Rng& rng, std::size_t n,
                                       std::size_t count, std::size_t min_size) {
  std::vector<ProcessSet> out;
  for (std::size_t q = 0; q < count; ++q) {
    ProcessSet s;
    const std::size_t size = min_size + static_cast<std::size_t>(rng.uniform(
                                            0, static_cast<std::int64_t>(n - min_size)));
    while (s.size() < size) {
      s.insert(static_cast<ProcessId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1)));
    }
    out.push_back(s);
  }
  return out;
}

class CoreRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreRandomTest, ClassifierOutputAlwaysValid) {
  Rng rng(GetParam());
  const std::size_t n = 5 + static_cast<std::size_t>(rng.uniform(0, 2));
  const Adversary adv = random_adversary(rng, n, 3, 2);
  const std::vector<ProcessSet> quorums = random_quorums(rng, n, 4, n - 2);
  const ClassificationResult r = classify(quorums, adv);
  if (!r.property1_ok) return;
  std::vector<Quorum> annotated;
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    annotated.push_back(Quorum{quorums[i], r.classes[i]});
  }
  const RefinedQuorumSystem sys{adv, std::move(annotated)};
  const CheckResult check = sys.check(0);
  EXPECT_TRUE(check.ok()) << sys.to_string() << "\n" << check.to_string();
}

TEST_P(CoreRandomTest, ConferenceP3ImpliesCorrectedP3) {
  // The conference-version Property 3 is strictly stronger: whenever it
  // holds, the corrected property must hold too.
  Rng rng(GetParam() * 31);
  const std::size_t n = 5 + static_cast<std::size_t>(rng.uniform(0, 2));
  const Adversary adv = random_adversary(rng, n, 3, 2);
  const std::vector<ProcessSet> quorums = random_quorums(rng, n, 4, n - 2);
  const ClassificationResult r = classify(quorums, adv);
  if (!r.property1_ok) return;
  std::vector<Quorum> annotated;
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    annotated.push_back(Quorum{quorums[i], r.classes[i]});
  }
  const RefinedQuorumSystem sys{adv, std::move(annotated)};
  if (sys.check_property3_conference()) {
    CheckResult check;
    EXPECT_TRUE(sys.check_property3(check, 0)) << sys.to_string();
  }
}

TEST_P(CoreRandomTest, BasicLargeMonotonicity) {
  // Supersets of basic sets are basic; supersets of large sets are large.
  Rng rng(GetParam() * 101);
  const std::size_t n = 6;
  const Adversary adv = random_adversary(rng, n, 4, 3);
  for (int trial = 0; trial < 50; ++trial) {
    const ProcessSet x = ProcessSet::from_mask(
        static_cast<std::uint64_t>(rng.uniform(0, 63)));
    ProcessSet y = x;
    y.insert(static_cast<ProcessId>(rng.uniform(0, 5)));
    if (adv.is_basic(x)) {
      EXPECT_TRUE(adv.is_basic(y));
    }
    if (adv.is_large(x)) {
      EXPECT_TRUE(adv.is_large(y));
      // Large implies basic when the empty set is in B.
      EXPECT_TRUE(adv.is_basic(x));
    }
  }
}

TEST_P(CoreRandomTest, AvailabilityMonotoneInFailureProbability) {
  Rng rng(GetParam() * 1009);
  const Adversary adv = Adversary::threshold(6, 1);
  const std::vector<ProcessSet> quorums = random_quorums(rng, 6, 4, 4);
  const ClassificationResult r = classify(quorums, adv);
  if (!r.property1_ok) return;
  std::vector<Quorum> annotated;
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    annotated.push_back(Quorum{quorums[i], r.classes[i]});
  }
  const RefinedQuorumSystem sys{adv, std::move(annotated)};
  double prev = 1.1;
  for (const double p : {0.0, 0.1, 0.3, 0.6, 0.9}) {
    const double a = availability(sys, p);
    EXPECT_LE(a, prev + 1e-12);
    prev = a;
  }
}

TEST_P(CoreRandomTest, ThresholdVsGeneralAgreeOnRandomClassifications) {
  // The analytic threshold path and the enumerated general path must agree
  // on randomly classified quorum lists, not only on nested families.
  Rng rng(GetParam() * 7);
  const std::size_t n = 6;
  const std::size_t k = 1;
  const std::vector<ProcessSet> quorums = random_quorums(rng, n, 4, 4);
  std::vector<Quorum> annotated;
  for (const ProcessSet& q : quorums) {
    const int cls = static_cast<int>(rng.uniform(1, 3));
    annotated.push_back(Quorum{q, static_cast<QuorumClass>(cls)});
  }
  // Repair nesting: Class1 implies Class2 by construction of the enum.
  const RefinedQuorumSystem analytic{Adversary::threshold(n, k), annotated};
  const RefinedQuorumSystem enumerated{
      Adversary{n, Adversary::threshold(n, k).maximal_elements()}, annotated};
  CheckResult ra, rb;
  EXPECT_EQ(analytic.check_property1(ra, 1), enumerated.check_property1(rb, 1));
  ra = {}; rb = {};
  EXPECT_EQ(analytic.check_property2(ra, 1), enumerated.check_property2(rb, 1));
  ra = {}; rb = {};
  EXPECT_EQ(analytic.check_property3(ra, 1), enumerated.check_property3(rb, 1));
}

TEST_P(CoreRandomTest, ContainmentQueryMatchesBruteForce) {
  // has_quorum_in and any_quorum against a brute-force scan of quorums()
  // filtered by class, on random class labels and random sets S.
  Rng rng(GetParam() * 13);
  const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform(0, 2));
  std::vector<Quorum> annotated;
  for (const ProcessSet& q : random_quorums(rng, n, 10, 2)) {
    annotated.push_back(Quorum{q, static_cast<QuorumClass>(rng.uniform(1, 3))});
  }
  const RefinedQuorumSystem sys{Adversary::threshold(n, 1), std::move(annotated)};
  const auto inside = [&](QuorumId id, ProcessSet s) {
    return sys.quorums()[id].set.subset_of(s);
  };
  for (int trial = 0; trial < 50; ++trial) {
    ProcessSet s;
    for (ProcessId i = 0; i < n; ++i) {
      if (rng.chance(0.75)) s.insert(i);
    }
    for (const QuorumClass c :
         {QuorumClass::Class1, QuorumClass::Class2, QuorumClass::Class3}) {
      // The visitor sees the ids of class <= c in ascending order and stops
      // at the first one inside S.
      std::vector<QuorumId> want_visits;
      bool want = false;
      for (QuorumId id = 0; id < sys.quorum_count() && !want; ++id) {
        if (sys.quorums()[id].cls > c) continue;
        want_visits.push_back(id);
        want = inside(id, s);
      }
      std::vector<QuorumId> visits;
      const bool got = sys.any_quorum(c, [&](QuorumId id) {
        visits.push_back(id);
        return inside(id, s);
      });
      EXPECT_EQ(got, want);
      EXPECT_EQ(visits, want_visits);
      EXPECT_EQ(sys.has_quorum_in(s, c), want) << "class " << static_cast<int>(c);
    }
    // The id-list overload scans exactly the caller's list.
    std::vector<QuorumId> ids;
    for (QuorumId id = 0; id < sys.quorum_count(); ++id) {
      if (rng.chance(0.3)) ids.push_back(id);
    }
    bool want = false;
    for (const QuorumId id : ids) want = want || inside(id, s);
    EXPECT_EQ(sys.has_quorum_in(s, ids), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreRandomTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace rqs
