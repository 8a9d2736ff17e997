// Scenario harness wiring a storage cluster inside the simulator.
//
// Builds servers 0..n-1 (benign or Byzantine) over a given refined quorum
// system, plus per-key client sessions of the keyed register space: one
// writer and `reader_count` readers per key. Offers "blocking" operations
// that drive the simulation until the operation's response step. Every
// started operation enters one log (invocation and response, numbered in
// the order they happen), and every completed one is recorded into a
// per-key AtomicityChecker. Used by tests, benches, examples, the scenario
// runner and the model checker.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/rqs.hpp"
#include "sim/network.hpp"
#include "storage/reader.hpp"
#include "storage/server.hpp"
#include "storage/spec.hpp"
#include "storage/writer.hpp"

namespace rqs::storage {

// Client process ids. They share the ProcessSet id space with servers
// (ids 0..n-1), so they must stay below ProcessSet::kMaxProcesses = 64 —
// the storage layer is 1-word (protocol width) by construction; see the
// width-selection rule in common/process_set.hpp. Network scripting
// addresses clients through ProcessSet rules. Clients
// are laid out in per-key blocks of (1 + reader_count) ids starting at
// kWriterId, so a single-key cluster keeps the historical layout
// (writer 40, readers 41, 42, ...).
inline constexpr ProcessId kWriterId = 40;
inline constexpr ProcessId kFirstReaderId = 41;

[[nodiscard]] constexpr ProcessId writer_client_id(
    ObjectId key, std::size_t readers_per_key) noexcept {
  return kWriterId + static_cast<ProcessId>(key) *
                         static_cast<ProcessId>(1 + readers_per_key);
}
[[nodiscard]] constexpr ProcessId reader_client_id(
    ObjectId key, std::size_t reader, std::size_t readers_per_key) noexcept {
  return writer_client_id(key, readers_per_key) + 1 +
         static_cast<ProcessId>(reader);
}

/// Named deployment parameters for a StorageCluster; the scenario layer
/// (src/scenario/deployment.hpp) builds deployments from this struct.
struct StorageClusterConfig {
  std::size_t reader_count{1};  ///< readers per key
  ProcessSet byzantine{};  ///< servers built as ByzantineStorageServer
  ByzantineStorageServer::ForgeFn forge{};  ///< null = forget_everything()
  sim::SimTime delta{sim::kDefaultDelta};
  std::size_t key_count{1};  ///< independent registers (keys 0..key_count-1)
  /// Servers drop history rows below the latest known-complete timestamp
  /// (bounded rd_ack snapshots). false = the full-history reference mode
  /// for the differential suite and benches: rows are never dropped (the
  /// paper's Section 5 keep-everything behaviour), while completion
  /// tracking/materialization stay on so both modes see identical
  /// messages.
  bool compact_history{true};
  /// Retransmission policy for all writers and readers (disabled by
  /// default — the send-once paper automata). The scenario runner enables
  /// it whenever a spec schedules loss or duplication faults.
  RetryPolicy::Config retry{};
};

class StorageCluster {
 public:
  /// Creates the cluster. Servers listed in `cfg.byzantine` are created as
  /// ByzantineStorageServer with `cfg.forge`; unlisted servers are benign.
  StorageCluster(RefinedQuorumSystem rqs, const StorageClusterConfig& cfg);

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] sim::Network& network() noexcept { return sim_.network(); }
  [[nodiscard]] const RefinedQuorumSystem& rqs() const noexcept { return rqs_; }
  [[nodiscard]] ProcessSet server_set() const noexcept { return servers_; }
  [[nodiscard]] std::size_t key_count() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t reader_count() const noexcept { return reader_count_; }

  [[nodiscard]] RqsWriter& writer(ObjectId key = 0) { return *keys_.at(key).writer; }
  [[nodiscard]] RqsReader& reader(std::size_t i) { return reader(0, i); }
  [[nodiscard]] RqsReader& reader(ObjectId key, std::size_t i) {
    return *keys_.at(key).readers.at(i);
  }
  [[nodiscard]] RqsStorageServer& server(ProcessId id) { return *servers_obj_.at(id); }

  /// Crashes a server (or client) now.
  void crash(ProcessId id) { sim_.crash(id); }

  /// Virtual Deltas a blocking operation may drive the simulation before
  /// it gives up. With retry on and no live quorum the client fails over
  /// and restarts its round forever, so the queue never drains and only
  /// this bound ends the drive. The longest blocking operation in the
  /// tests takes 12 Deltas, the longest in bench_loss_recovery (50% loss,
  /// retry on, seeded) 882; the bound sits an order of magnitude above.
  static constexpr sim::SimTime kBlockingDeadlineDeltas = 10'000;

  /// Steps `s` until `done()` holds; false when the queue drains or
  /// kBlockingDeadlineDeltas pass first. The blocking operations drive
  /// with it, as do callers of the async ones and harnesses built on a
  /// bare Simulation.
  template <typename Done>
  static bool drive(sim::Simulation& s, Done done) {
    return s.run_until(done, s.now() + kBlockingDeadlineDeltas * s.delta());
  }

  /// Runs write(v) on a key to completion; returns the rounds it took.
  /// Throws std::runtime_error when the queue drains or
  /// kBlockingDeadlineDeltas pass first (no live quorum), as
  /// blocking_read does.
  RoundNumber blocking_write(Value v) { return blocking_write(0, v); }
  RoundNumber blocking_write(ObjectId key, Value v);

  /// Runs read() by reader i of a key to completion; returns (value, rounds).
  struct ReadOutcome {
    Value value{kBottom};
    RoundNumber rounds{0};
  };
  ReadOutcome blocking_read(std::size_t i) { return blocking_read(0, i); }
  ReadOutcome blocking_read(ObjectId key, std::size_t i);

  /// Starts a write without driving the simulation (for overlapping ops).
  void async_write(Value v) { async_write(0, v); }
  void async_write(ObjectId key, Value v);
  /// Starts a read without driving the simulation.
  void async_read(std::size_t i) { async_read(0, i); }
  void async_read(ObjectId key, std::size_t i);
  /// True iff the key's reader i has no read in flight: the read started
  /// last completed (value via last_read_value). A crashed reader's read
  /// never completes.
  [[nodiscard]] bool read_done(std::size_t i) const { return read_done(0, i); }
  [[nodiscard]] bool read_done(ObjectId key, std::size_t i) const {
    return !keys_.at(key).readers.at(i)->busy();
  }
  [[nodiscard]] Value last_read_value(std::size_t i) const {
    return last_read_value(0, i);
  }
  [[nodiscard]] Value last_read_value(ObjectId key, std::size_t i) const {
    return keys_.at(key).read_value.at(i);
  }
  [[nodiscard]] bool write_done() const { return write_done(0); }
  [[nodiscard]] bool write_done(ObjectId key) const {
    return !keys_.at(key).writer->busy();
  }

  /// The checker accumulating all completed operations on a key, reads
  /// in completion order.
  [[nodiscard]] AtomicityChecker& checker(ObjectId key = 0) {
    return keys_.at(key).checker;
  }

  /// One started operation. Invocations and responses are numbered 1, 2,
  /// ... in the order they happen across the cluster: an order of
  /// endpoints that, unlike the virtual clock, still separates operations
  /// when every event sits at one instant (the model checker's delta = 0).
  struct Operation {
    bool is_write{false};
    ObjectId key{0};
    std::size_t reader{0};       ///< reader index; 0 for writes
    sim::SimTime invoked_at{0};  ///< virtual time of the invocation
    std::uint64_t invoked{0};    ///< endpoint ordinal of the invocation
    /// Endpoint ordinal of the response; 0 while pending.
    std::uint64_t responded{0};
    /// The written value, or the read's return once it completes.
    Value value{kBottom};

    [[nodiscard]] bool completed() const noexcept { return responded != 0; }
  };

  /// Every operation started by async_write/async_read (and so by the
  /// blocking calls), in invocation order.
  [[nodiscard]] const std::vector<Operation>& operations() const noexcept {
    return log_;
  }
  /// Invocations plus responses so far: the last ordinal handed out.
  [[nodiscard]] std::uint64_t endpoints() const noexcept { return endpoints_; }

 private:
  struct KeyClients {
    std::unique_ptr<RqsWriter> writer;
    std::vector<std::unique_ptr<RqsReader>> readers;
    AtomicityChecker checker;
    std::vector<Value> read_value;
  };

  sim::Simulation sim_;
  RefinedQuorumSystem rqs_;
  ProcessSet servers_;
  std::size_t reader_count_;
  std::vector<std::unique_ptr<RqsStorageServer>> servers_obj_;
  std::vector<KeyClients> keys_;
  std::vector<Operation> log_;
  std::uint64_t endpoints_{0};
};

}  // namespace rqs::storage
