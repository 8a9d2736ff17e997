#include "storage/abd.hpp"

#include <cassert>

namespace rqs::storage {

void AbdServer::on_message(ProcessId from, const sim::Message& m) {
  switch (m.type()) {
    case AbdWriteMsg::kType: {
      const auto& wr = static_cast<const AbdWriteMsg&>(m);
      if (wr.ts > cell_.ts) cell_ = TsValue{wr.ts, wr.value};
      auto ack = make_msg<AbdWriteAck>();
      ack->ts = wr.ts;
      send(from, std::move(ack));
      return;
    }
    case AbdReadMsg::kType: {
      const auto& rd = static_cast<const AbdReadMsg&>(m);
      auto ack = make_msg<AbdReadAck>();
      ack->read_no = rd.read_no;
      ack->ts = cell_.ts;
      ack->value = cell_.val;
      send(from, std::move(ack));
      return;
    }
    default:
      // rqs-lint: allow(drop) AbdWriteAck AbdReadAck — acks flow from
      // servers to clients; a server never receives one.
      return;
  }
}

void AbdWriter::write(Value v, DoneFn done) {
  assert(!busy_);
  busy_ = true;
  done_ = std::move(done);
  acked_ = ProcessSet{};
  ts_ = Timestamp{ts_.seq + 1, ts_.writer};
  auto msg = make_msg<AbdWriteMsg>();
  msg->ts = ts_;
  msg->value = v;
  send_all(servers_, std::move(msg));
}

void AbdWriter::on_message(ProcessId from, const sim::Message& m) {
  // rqs-lint: allow(drop) AbdWriteMsg AbdReadMsg AbdReadAck — the writer
  // only ever hears write acks; it never issues reads.
  if (m.type() != AbdWriteAck::kType) return;
  const auto* ack = static_cast<const AbdWriteAck*>(&m);
  if (!busy_ || ack->ts != ts_) return;
  acked_.insert(from);
  if (acked_.size() >= majority()) {
    busy_ = false;
    DoneFn done = std::move(done_);
    done_ = nullptr;
    if (done) done();
  }
}

void AbdReader::read(DoneFn done) {
  assert(phase_ == Phase::kIdle);
  done_ = std::move(done);
  phase_ = Phase::kQuery;
  acked_ = ProcessSet{};
  best_ = kInitialPair;
  ++read_no_;
  auto msg = make_msg<AbdReadMsg>();
  msg->read_no = read_no_;
  send_all(servers_, std::move(msg));
}

void AbdReader::on_message(ProcessId from, const sim::Message& m) {
  switch (m.type()) {
    case AbdReadAck::kType: {
      const auto* ack = static_cast<const AbdReadAck*>(&m);
      if (phase_ != Phase::kQuery || ack->read_no != read_no_) return;
      acked_.insert(from);
      if (TsValue{ack->ts, ack->value} > best_) {
        best_ = TsValue{ack->ts, ack->value};
      }
      if (acked_.size() >= majority()) {
        phase_ = Phase::kWriteback;
        acked_ = ProcessSet{};
        auto wb = make_msg<AbdWriteMsg>();
        wb->ts = best_.ts;
        wb->value = best_.val;
        send_all(servers_, std::move(wb));
      }
      return;
    }
    case AbdWriteAck::kType: {
      const auto* ack = static_cast<const AbdWriteAck*>(&m);
      if (phase_ != Phase::kWriteback || ack->ts != best_.ts) return;
      acked_.insert(from);
      if (acked_.size() >= majority()) {
        phase_ = Phase::kIdle;
        DoneFn done = std::move(done_);
        done_ = nullptr;
        if (done) done(best_.val);
      }
      return;
    }
    default:
      // rqs-lint: allow(drop) AbdWriteMsg AbdReadMsg — request messages
      // are addressed to servers, never to a reading client.
      return;
  }
}

}  // namespace rqs::storage
