#include "storage/writer.hpp"

#include <cassert>

#include "obs/observer.hpp"

namespace rqs::storage {

RqsWriter::RqsWriter(sim::Simulation& sim, ProcessId id,
                     const RefinedQuorumSystem& rqs, ProcessSet servers,
                     ObjectId key, std::uint32_t rank,
                     RetryPolicy::Config retry)
    : ProcessOf(sim, id), rqs_(rqs), servers_(servers), key_(key),
      rank_(rank), retx_(sim, id, retry), ts_(0, rank) {}

void RqsWriter::write(Value v, DoneFn done) {
  assert(!busy() && "one outstanding operation per client");
  assert(!is_bottom(v));
  ts_ = Timestamp{ts_.seq + 1, rank_};  // line 1: inc(ts)
  value_ = v;
  done_ = std::move(done);
  qc2_prime_.clear();
  round_ = 1;
  retried_op_ = false;
  write_started_ = now();
  start_round();
}

void RqsWriter::start_round() {
  if (auto* ob = sim().observer()) {
    ob->phase(now(), id(), obs::kPhaseWriteRound, key_,
              static_cast<std::uint64_t>(ts_.seq),
              static_cast<std::uint8_t>(round_));
  }
  acked_ = ProcessSet{};
  op_ = ++op_seq_;
  send_all(servers_, round_msg());
  if (round_ < 3) {  // line 11: trigger(timeout) only in rounds 1 and 2
    timer_expired_ = false;
    timer_ = set_timer(2 * sim().delta());
  } else {
    timer_expired_ = true;
  }
  retx_.start((static_cast<std::uint64_t>(id()) << 32) ^ op_);
}

sim::PooledMessage<WrMsg> RqsWriter::round_msg() {
  auto msg = make_msg<WrMsg>();
  msg->key = key_;
  msg->ts = ts_;
  msg->value = value_;
  msg->qc2_set = (round_ == 2) ? qc2_prime_ : QuorumIdSet{};  // lines 0, 8, 10
  msg->rnd = round_;
  msg->op = op_;
  msg->completed = completed_;
  return msg;
}

void RqsWriter::on(ProcessId from, const WrAck& ack) {
  if (round_ == 0) return;
  if (ack.key != key_ || ack.op != op_) return;
  if (ack.ts != ts_ || ack.rnd != round_) return;
  if (!servers_.contains(from)) return;
  acked_.insert(from);
  maybe_finish_round();
}

void RqsWriter::on_timer(sim::TimerId timer) {
  using Fired = sim::Retransmitter::Fired;
  const Fired fired = retx_.fire(timer, [this] {
    if (auto* ob = sim().observer()) ob->count("storage.write.retransmit");
    send_all(servers_ - acked_, round_msg());
  });
  if (fired != Fired::kNotMine) {
    retried_op_ = true;
    if (fired == Fired::kGaveUp) {
      // Failover: restart the round with a fresh nonce, which resets the
      // ack set and courts a fresh quorum.
      if (auto* ob = sim().observer()) ob->count("storage.write.failover");
      start_round();
    }
    return;
  }
  if (timer != timer_) return;
  timer_expired_ = true;
  maybe_finish_round();
}

void RqsWriter::maybe_finish_round() {
  // Line 12: wait for acks from some quorum AND timeout expiration.
  if (!timer_expired_) return;
  if (!rqs_.has_quorum_in(acked_)) return;

  switch (round_) {
    case 1: {
      // Line 3: a class 1 quorum acked => single-round write.
      if (rqs_.has_quorum_in(acked_, QuorumClass::Class1)) {
        complete();
        return;
      }
      // Lines 4-5: remember the class 2 quorums that acked round 1.
      qc2_prime_.clear();
      rqs_.any_quorum(QuorumClass::Class2, [&](QuorumId q2) {
        if (rqs_.quorum_set(q2).subset_of(acked_)) qc2_prime_.insert(q2);
        return false;
      });
      round_ = 2;
      start_round();  // line 6
      return;
    }
    case 2: {
      // Line 7: acks from some quorum of QC'2 => two-round write.
      if (rqs_.has_quorum_in(acked_, qc2_prime_)) {
        complete();
        return;
      }
      qc2_prime_.clear();  // line 8
      round_ = 3;
      start_round();
      return;
    }
    case 3:
      complete();  // line 9
      return;
    default:
      return;
  }
}

void RqsWriter::complete() {
  if (auto* ob = sim().observer()) {
    // Ladder position of the write: rounds 1/2/3 are exactly the class
    // 1/2/3 termination cases of Figure 5.
    const auto cls = static_cast<std::uint8_t>(round_ > 3 ? 3 : round_);
    ob->count(cls == 1 ? "storage.write.class1"
                       : cls == 2 ? "storage.write.class2"
                                  : "storage.write.class3");
    ob->record_latency("storage.write.sim_time", now() - write_started_);
    ob->record_latency("storage.write.rounds", round_);
    ob->quorum_class(now(), id(), obs::kPhaseWriteDone, cls, round_);
    ob->phase(now(), id(), obs::kPhaseWriteDone, key_,
              static_cast<std::uint64_t>(ts_.seq),
              static_cast<std::uint8_t>(round_));
    if (retx_.enabled()) {
      ob->count(retried_op_ ? "storage.write.retried"
                            : "storage.write.first_try");
    }
  }
  last_rounds_ = round_;
  round_ = 0;
  completed_ = TsValue{ts_, value_};
  if (!timer_expired_) cancel_timer(timer_);
  retx_.stop();
  DoneFn done = std::move(done_);
  done_ = nullptr;
  if (done) done();
}

// Model-checker state digest; same exclusion rules as RqsReader (timer_
// handle, last_rounds_ / write_started_, the done_ callback).
void RqsWriter::digest_state(Fnv64& h) const {
  digest_into(h, ts_);
  h.mix(static_cast<std::uint64_t>(value_));
  digest_into(h, completed_);
  h.mix(round_);
  h.mix(op_);
  h.mix(op_seq_);
  digest_into(h, acked_);
  digest_into(h, qc2_prime_);
  h.mix(timer_expired_ ? 1 : 0);
  h.mix(retx_.attempt());
}

}  // namespace rqs::storage
