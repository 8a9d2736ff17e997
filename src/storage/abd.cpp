#include "storage/abd.hpp"

#include <cassert>

namespace rqs::storage {

void AbdServer::on(ProcessId from, const AbdWriteMsg& wr) {
  if (wr.ts > cell_.ts) cell_ = TsValue{wr.ts, wr.value};
  auto ack = make_msg<AbdWriteAck>();
  ack->ts = wr.ts;
  send(from, std::move(ack));
}

void AbdServer::on(ProcessId from, const AbdReadMsg& rd) {
  auto ack = make_msg<AbdReadAck>();
  ack->read_no = rd.read_no;
  ack->ts = cell_.ts;
  ack->value = cell_.val;
  send(from, std::move(ack));
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

void AbdWriter::on(ProcessId from, const AbdWriteAck& ack) {
  if (!busy_ || ack.ts != ts_) return;
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

void AbdReader::on(ProcessId from, const AbdReadAck& ack) {
  if (phase_ != Phase::kQuery || ack.read_no != read_no_) return;
  acked_.insert(from);
  if (TsValue{ack.ts, ack.value} > best_) best_ = TsValue{ack.ts, ack.value};
  if (acked_.size() >= majority()) {
    phase_ = Phase::kWriteback;
    acked_ = ProcessSet{};
    auto wb = make_msg<AbdWriteMsg>();
    wb->ts = best_.ts;
    wb->value = best_.val;
    send_all(servers_, std::move(wb));
  }
}

void AbdReader::on(ProcessId from, const AbdWriteAck& ack) {
  if (phase_ != Phase::kWriteback || ack.ts != best_.ts) return;
  acked_.insert(from);
  if (acked_.size() >= majority()) {
    phase_ = Phase::kIdle;
    DoneFn done = std::move(done_);
    done_ = nullptr;
    if (done) done(best_.val);
  }
}

}  // namespace rqs::storage
