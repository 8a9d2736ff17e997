// Pinned executions of the quorum-scanning handlers at t = 2 and t = 3.
//
// On the 3t+1 instantiation (29 quorums at t = 2, 176 at t = 3) the
// reader tests valid1/valid2/valid3 against every quorum in Responded
// (Fig. 7) and each acceptor sends one update2 per quorum its update1
// senders cover (Fig. 15, lines 34-38). At t = 1 (5 quorums) those loops
// are nearly trivial, so only larger systems show whether a change to them
// keeps every execution as it was.
//
// On 3t+1 every quorum is class 2, so a check that wrongly skips class 3
// quorums behaves the same there. The graded7 rows (graded threshold
// n = 7, k = 1, t = 2, r = 1, q = 0: the same 29 quorums, split 1 / 7 / 21
// over classes 1 / 2 / 3) pin executions whose progress needs a class 3
// quorum: two crashed servers leave only class 3 quorums alive.
//
// Each run is compared to values recorded once: the simulated end time,
// the sent and delivered message counts, one FNV over every process's
// digest_state, the per-tag send counts, and the operation outcomes (read
// values and rounds; learned value and learn delays). Storage cells run 20
// write+read pairs with all servers up, some servers crashed, or some
// servers Byzantine (fabricating one pair, or equivocating between two).
// Consensus cells follow the repo benchmark's ladder cells (2 proposers, 1
// learner): all up, a Byzantine leader, some acceptors Byzantine, and some
// acceptors crashed. Each consensus cell runs once stopped as soon as the
// learner learns, leaving thousands of messages in flight when the cluster
// is destroyed, and once drained to idle.
//
// On the network's fast path a broadcast is one queued fan-out. The
// differential test at the end reruns t = 2 cells with a rule installed
// that sends every broadcast as one event per target, and checks that the
// two runs cannot be told apart.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

namespace rqs {
namespace {

constexpr sim::SimTime kDeadlineDeltas = 200;
constexpr Value kPairs = 20;

struct Fingerprint {
  sim::SimTime end_time{0};
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t state{0};  // FNV over every process's digest_state
  std::string tags;        // sent_by_tag, "TAG=count" in tag order
  std::string outcome;     // per-op results, see the run functions
  std::size_t fanout_slots{0};  // not pinned; the differential test reads it
};

std::string to_cpp(const Fingerprint& f) {
  std::ostringstream os;
  os << "{" << f.end_time << ", " << f.sent << ", " << f.delivered << ", 0x"
     << std::hex << f.state << "ull" << std::dec << ",\n \"" << f.tags << "\",\n \""
     << f.outcome << "\"}";
  return os.str();
}

void expect_pinned(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.tags, want.tags);
  EXPECT_EQ(got.outcome, want.outcome);
  if (::testing::Test::HasFailure()) ADD_FAILURE() << "measured: " << to_cpp(got);
}

void mix_process(Fnv64& h, const sim::Process& p) {
  h.mix(p.id());
  p.digest_state(h);
}

Fingerprint network_fingerprint(sim::Simulation& s) {
  Fingerprint f;
  f.end_time = s.now();
  f.sent = s.network().messages_sent();
  f.delivered = s.messages_delivered();
  f.fanout_slots = s.fanout_slot_capacity();
  std::ostringstream tags;
  for (const auto& [tag, count] : s.network().sent_by_tag()) {
    tags << (tags.tellp() > 0 ? " " : "") << tag << "=" << count;
  }
  f.tags = tags.str();
  return f;
}

/// How far a drive may run: kDeadlineDeltas past now.
sim::SimTime deadline(const sim::Simulation& s) {
  return s.now() + kDeadlineDeltas * s.delta();
}

RefinedQuorumSystem graded7() { return make_graded_threshold(7, 1, 2, 1, 0); }

/// Runs on the fresh cluster's simulation before the first operation.
using Prepare = std::function<void(sim::Simulation&)>;

// --- storage ---------------------------------------------------------------

enum class Lie { kFabricate, kEquivocate };

/// "a x2, b x1" for {a, a, b}.
std::string run_length(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0, j = 0; i < items.size(); i = j) {
    while (j < items.size() && items[j] == items[i]) ++j;
    out += (i > 0 ? ", " : "") + items[i] + " x" + std::to_string(j - i);
  }
  return out;
}

/// 20 write+read pairs on key 0 of `sys`, alternating between two readers
/// (ids 41 and 42, so an equivocating server shows each reader a different
/// lie). Servers 0..crashed-1 crash before the first write; servers
/// 0..byzantine-1 are Byzantine and tell `lie`. The outcome lists "write
/// rounds/read rounds" per pair, run-length encoded.
Fingerprint storage_run(RefinedQuorumSystem sys, std::size_t crashed,
                        std::size_t byzantine, Lie lie = Lie::kFabricate,
                        const Prepare& prepare = {}) {
  storage::StorageClusterConfig cfg;
  cfg.reader_count = 2;
  if (byzantine > 0) {
    cfg.byzantine = ProcessSet::universe(byzantine);
    cfg.forge = lie == Lie::kFabricate
                    ? storage::ByzantineStorageServer::fabricate({1000, -7})
                    : storage::ByzantineStorageServer::equivocate({1000, -7},
                                                                  {1001, -8});
  }
  storage::StorageCluster c(std::move(sys), cfg);
  if (prepare) prepare(c.sim());
  for (ProcessId id = 0; id < crashed; ++id) c.crash(id);
  std::vector<std::string> rounds;
  for (Value v = 1; v <= kPairs; ++v) {
    const std::size_t r = static_cast<std::size_t>(v % 2);
    c.async_write(v);
    EXPECT_TRUE(c.sim().run_until([&] { return c.write_done(); }, deadline(c.sim())))
        << "write " << v;
    c.async_read(r);
    EXPECT_TRUE(c.sim().run_until([&] { return c.read_done(r); }, deadline(c.sim())))
        << "read " << v;
    EXPECT_EQ(c.last_read_value(r), v);
    rounds.push_back(std::to_string(c.writer().last_write_rounds()) + "/" +
                     std::to_string(c.reader(r).last_read_rounds()));
  }
  EXPECT_TRUE(c.checker().check().atomic);

  Fingerprint f = network_fingerprint(c.sim());
  Fnv64 h;
  mix_process(h, c.writer());
  for (std::size_t i = 0; i < c.reader_count(); ++i) mix_process(h, c.reader(i));
  for (const ProcessId s : c.server_set()) mix_process(h, c.server(s));
  f.state = h.digest();
  f.outcome = run_length(rounds);
  return f;
}

TEST(QuorumScalingPinnedTest, StorageUp) {
  expect_pinned(storage_run(make_3t1_instantiation(2), 0, 0),
                {80000, 560, 560, 0xa991f447d9b2c651ull,
                 "RD=140 RD_ACK=140 WR=140 WR_ACK=140",
                 "1/1 x20"});
  expect_pinned(storage_run(make_3t1_instantiation(3), 0, 0),
                {80000, 800, 800, 0x978740280580ee13ull,
                 "RD=200 RD_ACK=200 WR=200 WR_ACK=200",
                 "1/1 x20"});
}

TEST(QuorumScalingPinnedTest, StorageCrash) {
  expect_pinned(storage_run(make_3t1_instantiation(2), 2, 0),
                {120000, 720, 600, 0xebc0b8c6f9f53a39ull,
                 "RD=140 RD_ACK=100 WR=280 WR_ACK=200",
                 "2/1 x20"});
  expect_pinned(storage_run(make_3t1_instantiation(3), 3, 0),
                {120000, 1020, 840, 0x3648149347037b58ull,
                 "RD=200 RD_ACK=140 WR=400 WR_ACK=280",
                 "2/1 x20"});
}

TEST(QuorumScalingPinnedTest, StorageFabricate) {
  expect_pinned(storage_run(make_3t1_instantiation(2), 0, 2),
                {80000, 560, 560, 0xa8b666344988b33eull,
                 "RD=140 RD_ACK=140 WR=140 WR_ACK=140",
                 "1/1 x20"});
  expect_pinned(storage_run(make_3t1_instantiation(3), 0, 3),
                {80000, 800, 800, 0xea892162314b5450ull,
                 "RD=200 RD_ACK=200 WR=200 WR_ACK=200",
                 "1/1 x20"});
}

TEST(QuorumScalingPinnedTest, StorageEquivocate) {
  expect_pinned(storage_run(make_3t1_instantiation(2), 0, 2, Lie::kEquivocate),
                {80000, 560, 560, 0x52c6a38698322dcfull,
                 "RD=140 RD_ACK=140 WR=140 WR_ACK=140",
                 "1/1 x20"});
  expect_pinned(storage_run(make_3t1_instantiation(3), 0, 3, Lie::kEquivocate),
                {80000, 800, 800, 0x49a4e08538762bb9ull,
                 "RD=200 RD_ACK=200 WR=200 WR_ACK=200",
                 "1/1 x20"});
}

TEST(QuorumScalingPinnedTest, Graded7Storage) {
  expect_pinned(storage_run(graded7(), 0, 0),
                {80000, 560, 560, 0xbe6df5762cfc8e91ull,
                 "RD=140 RD_ACK=140 WR=140 WR_ACK=140",
                 "1/1 x20"});
  expect_pinned(storage_run(graded7(), 2, 0),
                {160000, 960, 800, 0x4ce2d410745f45c7ull,
                 "RD=140 RD_ACK=100 WR=420 WR_ACK=300",
                 "3/1 x20"});
  expect_pinned(storage_run(graded7(), 0, 1),
                {80000, 560, 560, 0x2075a8c1f3f9fa96ull,
                 "RD=140 RD_ACK=140 WR=140 WR_ACK=140",
                 "1/1 x20"});
  expect_pinned(storage_run(graded7(), 0, 1, Lie::kEquivocate),
                {80000, 560, 560, 0x194276bce52cea2full,
                 "RD=140 RD_ACK=140 WR=140 WR_ACK=140",
                 "1/1 x20"});
}

// --- consensus -------------------------------------------------------------

enum class Leader { kHonest, kByzantine };
enum class Stop { kLearned, kIdle };

constexpr Value kProposal = 7;
constexpr std::size_t kProposers = 2;

/// One single-shot instance on `sys`: acceptors 0..crashed-1 crash before
/// the proposal, acceptors 0..byzantine-1 are Byzantine, and `leader` says
/// whether the leader of view 0 is. The outcome is "learned value@learn
/// delays".
Fingerprint consensus_run(RefinedQuorumSystem sys, std::size_t crashed,
                          std::size_t byzantine, Leader leader, Stop stop,
                          const Prepare& prepare = {}) {
  consensus::ClusterConfig cfg;
  cfg.proposer_count = kProposers;
  cfg.learner_count = 1;
  cfg.byzantine_proposer = leader == Leader::kByzantine;
  cfg.byzantine_acceptors = ProcessSet::universe(byzantine);
  consensus::ConsensusCluster c(std::move(sys), cfg);
  if (prepare) prepare(c.sim());
  for (ProcessId id = 0; id < crashed; ++id) c.sim().crash(id);
  c.propose(0, kProposal);
  // The honest proposer 1 takes over once the Byzantine leader's view is
  // suspected.
  if (leader == Leader::kByzantine) c.propose(1, kProposal);
  EXPECT_TRUE(c.run_until_learned(kDeadlineDeltas));
  if (stop == Stop::kIdle) c.sim().run_until([&] { return c.sim().idle(); }, deadline(c.sim()));
  EXPECT_EQ(c.agreed_value(), std::optional<Value>{kProposal});

  Fingerprint f = network_fingerprint(c.sim());
  Fnv64 h;
  for (std::size_t i = 0; i < kProposers; ++i) mix_process(h, c.proposer(i));
  for (const ProcessId a : c.config().acceptors) mix_process(h, c.acceptor(a));
  for (std::size_t i = 0; i < c.learner_count(); ++i) mix_process(h, c.learner(i));
  f.state = h.digest();
  const auto agreed = c.agreed_value();
  const auto delays = c.learn_delays(0);
  f.outcome = (agreed ? std::to_string(*agreed) : "none") + "@" +
              (delays ? std::to_string(*delays) : "-");
  return f;
}

TEST(QuorumScalingPinnedTest, ConsensusFast) {
  expect_pinned(consensus_run(make_3t1_instantiation(2), 0, 0, Leader::kHonest, Stop::kLearned),
                {2000, 1736, 63, 0x98c2453f9b177e10ull,
                 "DECISION=49 PREPARE=7 UPDATE1=56 UPDATE2=1624",
                 "7@2"});
  expect_pinned(consensus_run(make_3t1_instantiation(2), 0, 0, Leader::kHonest, Stop::kIdle),
                {10000, 1862, 1862, 0xbc79a9087854bdd3ull,
                 "DECISION=105 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=56 UPDATE2=1624 UPDATE3=56",
                 "7@2"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 0, 0, Leader::kHonest, Stop::kLearned),
                {2000, 19580, 120, 0xcd7dff9f6e77b97cull,
                 "DECISION=100 PREPARE=10 UPDATE1=110 UPDATE2=19360",
                 "7@2"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 0, 0, Leader::kHonest, Stop::kIdle),
                {10000, 19820, 19820, 0x3d0df38cd411ce20ull,
                 "DECISION=210 DECISION_PULL=10 PREPARE=10 SYNC=10 UPDATE1=110 UPDATE2=19360 "
                 "UPDATE3=110",
                 "7@2"});
}

TEST(QuorumScalingPinnedTest, ConsensusByzLeader) {
  expect_pinned(consensus_run(make_3t1_instantiation(2), 0, 0, Leader::kByzantine, Stop::kLearned),
                {11000, 1862, 182, 0xd6a6352017f9c504ull,
                 "DECISION=49 DECISION_PULL=21 NEW_VIEW=7 NEW_VIEW_ACK=7 PREPARE=21 SYNC=14 "
                 "UPDATE1=112 UPDATE2=1624 VIEW_CHANGE=7",
                 "7@11"});
  expect_pinned(consensus_run(make_3t1_instantiation(2), 0, 0, Leader::kByzantine, Stop::kIdle),
                {20000, 1974, 1974, 0xd4e226f353bd38fbull,
                 "DECISION=105 DECISION_PULL=21 NEW_VIEW=7 NEW_VIEW_ACK=7 PREPARE=21 SYNC=14 "
                 "UPDATE1=112 UPDATE2=1624 UPDATE3=56 VIEW_CHANGE=7",
                 "7@11"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 0, 0, Leader::kByzantine, Stop::kLearned),
                {11000, 19790, 320, 0x3f8e92c4c517352full,
                 "DECISION=100 DECISION_PULL=30 NEW_VIEW=10 NEW_VIEW_ACK=10 PREPARE=30 SYNC=20 "
                 "UPDATE1=220 UPDATE2=19360 VIEW_CHANGE=10",
                 "7@11"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 0, 0, Leader::kByzantine, Stop::kIdle),
                {20000, 20010, 20010, 0xd8a6b14ae697367ull,
                 "DECISION=210 DECISION_PULL=30 NEW_VIEW=10 NEW_VIEW_ACK=10 PREPARE=30 SYNC=20 "
                 "UPDATE1=220 UPDATE2=19360 UPDATE3=110 VIEW_CHANGE=10",
                 "7@11"});
}

TEST(QuorumScalingPinnedTest, ConsensusByzAcceptors) {
  expect_pinned(consensus_run(make_3t1_instantiation(2), 0, 2, Leader::kHonest, Stop::kLearned),
                {2000, 812, 63, 0x6bd3b6daf0a52b10ull,
                 "DECISION=21 PREPARE=7 UPDATE1=56 UPDATE2=728",
                 "7@2"});
  expect_pinned(consensus_run(make_3t1_instantiation(2), 0, 2, Leader::kHonest, Stop::kIdle),
                {10000, 966, 966, 0xacbb69258189c32ull,
                 "DECISION=105 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=56 UPDATE2=728 UPDATE3=56",
                 "7@2"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 0, 3, Leader::kHonest, Stop::kLearned),
                {2000, 9905, 120, 0x9a5cbf005207838full,
                 "DECISION=50 PREPARE=10 UPDATE1=110 UPDATE2=9735",
                 "7@2"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 0, 3, Leader::kHonest, Stop::kIdle),
                {10000, 10195, 10195, 0x579d76bcb836c685ull,
                 "DECISION=210 DECISION_PULL=10 PREPARE=10 SYNC=10 UPDATE1=110 UPDATE2=9735 "
                 "UPDATE3=110",
                 "7@2"});
}

TEST(QuorumScalingPinnedTest, ConsensusCrash) {
  expect_pinned(consensus_run(make_3t1_instantiation(2), 2, 0, Leader::kHonest, Stop::kLearned),
                {3000, 162, 65, 0xd2896fd958e6f6dbull,
                 "DECISION=35 PREPARE=7 UPDATE1=40 UPDATE2=40 UPDATE3=40",
                 "7@3"});
  expect_pinned(consensus_run(make_3t1_instantiation(2), 2, 0, Leader::kHonest, Stop::kIdle),
                {10000, 216, 160, 0xb85740074b10ad9bull,
                 "DECISION=75 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=40 UPDATE2=40 UPDATE3=40",
                 "7@3"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 3, 0, Leader::kHonest, Stop::kLearned),
                {3000, 311, 119, 0x7dcfc5abf4bc135dull,
                 "DECISION=70 PREPARE=10 UPDATE1=77 UPDATE2=77 UPDATE3=77",
                 "7@3"});
  expect_pinned(consensus_run(make_3t1_instantiation(3), 3, 0, Leader::kHonest, Stop::kIdle),
                {10000, 408, 294, 0x1c0d444dbf261c25ull,
                 "DECISION=147 DECISION_PULL=10 PREPARE=10 SYNC=10 UPDATE1=77 UPDATE2=77 "
                 "UPDATE3=77",
                 "7@3"});
}

TEST(QuorumScalingPinnedTest, Graded7Consensus) {
  expect_pinned(consensus_run(graded7(), 0, 0, Leader::kHonest, Stop::kLearned),
                {2000, 1736, 63, 0x98c2453f9b177e10ull,
                 "DECISION=49 PREPARE=7 UPDATE1=56 UPDATE2=1624",
                 "7@2"});
  expect_pinned(consensus_run(graded7(), 0, 0, Leader::kHonest, Stop::kIdle),
                {10000, 1862, 1862, 0xbc79a9087854bdd3ull,
                 "DECISION=105 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=56 UPDATE2=1624 UPDATE3=56",
                 "7@2"});
  expect_pinned(consensus_run(graded7(), 0, 0, Leader::kByzantine, Stop::kLearned),
                {11000, 1862, 182, 0xd6a6352017f9c504ull,
                 "DECISION=49 DECISION_PULL=21 NEW_VIEW=7 NEW_VIEW_ACK=7 PREPARE=21 SYNC=14 "
                 "UPDATE1=112 UPDATE2=1624 VIEW_CHANGE=7",
                 "7@11"});
  expect_pinned(consensus_run(graded7(), 0, 0, Leader::kByzantine, Stop::kIdle),
                {20000, 1974, 1974, 0xd4e226f353bd38fbull,
                 "DECISION=105 DECISION_PULL=21 NEW_VIEW=7 NEW_VIEW_ACK=7 PREPARE=21 SYNC=14 "
                 "UPDATE1=112 UPDATE2=1624 UPDATE3=56 VIEW_CHANGE=7",
                 "7@11"});
  expect_pinned(consensus_run(graded7(), 0, 1, Leader::kHonest, Stop::kLearned),
                {2000, 1004, 63, 0x48fb9ccca2be7d90ull,
                 "DECISION=21 PREPARE=7 UPDATE1=56 UPDATE2=920",
                 "7@2"});
  expect_pinned(consensus_run(graded7(), 0, 1, Leader::kHonest, Stop::kIdle),
                {10000, 1158, 1158, 0x64c96696232917b2ull,
                 "DECISION=105 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=56 UPDATE2=920 UPDATE3=56",
                 "7@2"});
  expect_pinned(consensus_run(graded7(), 2, 0, Leader::kHonest, Stop::kLearned),
                {4000, 176, 95, 0xd2896fd958e6f6dbull,
                 "DECISION=35 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=40 UPDATE2=40 UPDATE3=40",
                 "7@4"});
  expect_pinned(consensus_run(graded7(), 2, 0, Leader::kHonest, Stop::kIdle),
                {10000, 216, 160, 0xb85740074b10ad9bull,
                 "DECISION=75 DECISION_PULL=7 PREPARE=7 SYNC=7 UPDATE1=40 UPDATE2=40 UPDATE3=40",
                 "7@4"});
  expect_pinned(consensus_run(graded7(), 2, 0, Leader::kByzantine, Stop::kLearned),
                {13000, 268, 175, 0xea3a0c68a8df2e1ull,
                 "DECISION=35 DECISION_PULL=21 NEW_VIEW=7 NEW_VIEW_ACK=5 PREPARE=21 SYNC=14 "
                 "UPDATE1=80 UPDATE2=40 UPDATE3=40 VIEW_CHANGE=5",
                 "7@13"});
  expect_pinned(consensus_run(graded7(), 2, 0, Leader::kByzantine, Stop::kIdle),
                {20000, 268, 200, 0x58244d49923553baull,
                 "DECISION=35 DECISION_PULL=21 NEW_VIEW=7 NEW_VIEW_ACK=5 PREPARE=21 SYNC=14 "
                 "UPDATE1=80 UPDATE2=40 UPDATE3=40 VIEW_CHANGE=5",
                 "7@13"});
}

// --- fan-out versus per-target sends ----------------------------------------

/// Runs `run` twice, each with a tracing observer attached: on the
/// network's fast path, where a broadcast is one queued fan-out, and with
/// fixed_delay(all, all, Delta) installed, which sends every broadcast as
/// one event per target with the same delays. The runs must agree on every
/// fingerprint field and on the order of every send, delivery and timer.
void expect_same_on_both_paths(const std::function<Fingerprint(const Prepare&)>& run) {
  constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;
  obs::Observer fanout_obs(kTraceCapacity);
  obs::Observer per_target_obs(kTraceCapacity);
  const Fingerprint fanout = run([&](sim::Simulation& s) { s.set_observer(&fanout_obs); });
  const Fingerprint per_target = run([&](sim::Simulation& s) {
    s.set_observer(&per_target_obs);
    const ProcessSet all = ProcessSet::universe(ProcessSet::kMaxProcesses);
    s.network().fixed_delay(all, all, s.delta());
  });
  EXPECT_GT(fanout.fanout_slots, 0u);
  EXPECT_EQ(per_target.fanout_slots, 0u);
  EXPECT_EQ(fanout.end_time, per_target.end_time);
  EXPECT_EQ(fanout.sent, per_target.sent);
  EXPECT_EQ(fanout.delivered, per_target.delivered);
  EXPECT_EQ(fanout.tags, per_target.tags);
  EXPECT_EQ(fanout.state, per_target.state);
  EXPECT_EQ(fanout.outcome, per_target.outcome);
  EXPECT_EQ(fanout_obs.ring()->dropped(), 0u);
  EXPECT_EQ(fanout_obs.events_digest(), per_target_obs.events_digest());
}

TEST(QuorumScalingPinnedTest, FanoutMatchesPerTargetSends) {
  const RefinedQuorumSystem sys = make_3t1_instantiation(2);
  expect_same_on_both_paths(
      [&](const Prepare& prepare) { return storage_run(sys, 0, 0, Lie::kFabricate, prepare); });
  for (const Leader leader : {Leader::kHonest, Leader::kByzantine}) {
    for (const Stop stop : {Stop::kLearned, Stop::kIdle}) {
      expect_same_on_both_paths([&](const Prepare& prepare) {
        return consensus_run(sys, 0, 0, leader, stop, prepare);
      });
    }
  }
}

}  // namespace
}  // namespace rqs
