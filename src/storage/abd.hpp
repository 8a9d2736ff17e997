// Baseline: the classical Attiya-Bar-Noy-Dolev (ABD) SWMR atomic storage
// over majority quorums, tolerating a minority of crash failures.
//
// This is the paper's reference point [4]: writes take one round, reads
// always take two rounds (query + writeback), regardless of conditions —
// which is exactly the lower bound the RQS algorithm circumvents with
// class 1 quorums when more servers are reachable. The benches contrast
// round counts of ABD and RQS storage across best/degraded cases.
#pragma once

#include <functional>
#include <map>

#include "common/types.hpp"
#include "sim/process.hpp"

namespace rqs::storage {

struct AbdWriteMsg;
struct AbdWriteAck;
struct AbdReadMsg;
struct AbdReadAck;
using AbdMessages =
    sim::MessageList<AbdWriteMsg, AbdWriteAck, AbdReadMsg, AbdReadAck>;

struct AbdWriteMsg final : sim::TypedMessage<AbdWriteMsg, AbdMessages, 64> {
  Timestamp ts{0};
  Value value{kBottom};
  [[nodiscard]] std::string_view tag() const override { return "ABD_WRITE"; }
};
struct AbdWriteAck final : sim::TypedMessage<AbdWriteAck, AbdMessages, 64> {
  Timestamp ts{0};
  [[nodiscard]] std::string_view tag() const override { return "ABD_WRITE_ACK"; }
};
struct AbdReadMsg final : sim::TypedMessage<AbdReadMsg, AbdMessages, 64> {
  std::uint64_t read_no{0};
  [[nodiscard]] std::string_view tag() const override { return "ABD_READ"; }
};
struct AbdReadAck final : sim::TypedMessage<AbdReadAck, AbdMessages, 64> {
  std::uint64_t read_no{0};
  Timestamp ts{0};
  Value value{kBottom};
  [[nodiscard]] std::string_view tag() const override { return "ABD_READ_ACK"; }
};

/// ABD server: one timestamped register cell. Drops acks, which flow from
/// servers to clients.
class AbdServer final
    : public sim::ProcessOf<AbdServer, AbdMessages,
                            sim::MessageList<AbdWriteAck, AbdReadAck>> {
 public:
  AbdServer(sim::Simulation& sim, ProcessId id) : ProcessOf(sim, id) {}
  void on(ProcessId from, const AbdWriteMsg& wr);
  void on(ProcessId from, const AbdReadMsg& rd);

  [[nodiscard]] TsValue cell() const noexcept { return cell_; }

 private:
  TsValue cell_{kInitialPair};
};

/// ABD writer: single round to a majority. Send-once, like the paper's
/// automata: the baseline runs over reliable channels only. It only ever
/// hears write acks: it never issues reads.
class AbdWriter final
    : public sim::ProcessOf<
          AbdWriter, AbdMessages,
          sim::MessageList<AbdWriteMsg, AbdReadMsg, AbdReadAck>> {
 public:
  using DoneFn = std::function<void()>;
  AbdWriter(sim::Simulation& sim, ProcessId id, ProcessSet servers)
      : ProcessOf(sim, id), servers_(servers) {}

  void write(Value v, DoneFn done);
  [[nodiscard]] RoundNumber last_write_rounds() const noexcept { return 1; }
  void on(ProcessId from, const AbdWriteAck& ack);

 private:
  [[nodiscard]] std::size_t majority() const { return servers_.size() / 2 + 1; }

  ProcessSet servers_;
  Timestamp ts_{0};
  ProcessSet acked_;
  bool busy_{false};
  DoneFn done_;
};

/// ABD reader: query round + writeback round, always two rounds. Send-once,
/// like AbdWriter. Drops requests, which are addressed to servers.
class AbdReader final
    : public sim::ProcessOf<AbdReader, AbdMessages,
                            sim::MessageList<AbdWriteMsg, AbdReadMsg>> {
 public:
  using DoneFn = std::function<void(Value)>;
  AbdReader(sim::Simulation& sim, ProcessId id, ProcessSet servers)
      : ProcessOf(sim, id), servers_(servers) {}

  void read(DoneFn done);
  [[nodiscard]] RoundNumber last_read_rounds() const noexcept { return 2; }
  void on(ProcessId from, const AbdReadAck& ack);
  void on(ProcessId from, const AbdWriteAck& ack);

 private:
  [[nodiscard]] std::size_t majority() const { return servers_.size() / 2 + 1; }

  ProcessSet servers_;
  std::uint64_t read_no_{0};
  enum class Phase { kIdle, kQuery, kWriteback } phase_{Phase::kIdle};
  ProcessSet acked_;
  TsValue best_{kInitialPair};
  DoneFn done_;
};

}  // namespace rqs::storage
