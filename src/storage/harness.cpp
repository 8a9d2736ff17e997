#include "storage/harness.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace rqs::storage {

StorageCluster::StorageCluster(RefinedQuorumSystem rqs,
                               const StorageClusterConfig& cfg)
    : sim_(cfg.delta), rqs_(std::move(rqs)),
      servers_(ProcessSet::universe(rqs_.universe_size())),
      reader_count_(cfg.reader_count) {
  // Hard runtime checks (not asserts: Release builds must diagnose these
  // too) — client ids share the ProcessSet id space with servers. A server
  // id at kWriterId would fail the writer's registration, and an id >=
  // kMaxProcesses would trap in the process-set bounds guard; failing here
  // instead names the misconfiguration.
  if (rqs_.universe_size() > kWriterId) {
    throw std::invalid_argument(
        "StorageCluster: rqs.universe_size() = " +
        std::to_string(rqs_.universe_size()) +
        " exceeds " + std::to_string(kWriterId) +
        " (server ids must stay below the first client id)");
  }
  if (cfg.key_count < 1 ||
      writer_client_id(static_cast<ObjectId>(cfg.key_count), cfg.reader_count) >
          ProcessSet::kMaxProcesses) {
    throw std::invalid_argument(
        "StorageCluster: key_count * (1 + reader_count) client ids exceed "
        "the ProcessSet id space (need 40 + key_count * (1 + reader_count) "
        "<= 64)");
  }
  ByzantineStorageServer::ForgeFn forge = cfg.forge;
  if (!forge) forge = ByzantineStorageServer::forget_everything();
  for (ProcessId id = 0; id < rqs_.universe_size(); ++id) {
    if (cfg.byzantine.contains(id)) {
      servers_obj_.push_back(std::make_unique<ByzantineStorageServer>(
          sim_, id, forge, cfg.compact_history));
    } else {
      servers_obj_.push_back(
          std::make_unique<RqsStorageServer>(sim_, id, cfg.compact_history));
    }
  }
  keys_.resize(cfg.key_count);
  for (ObjectId key = 0; key < cfg.key_count; ++key) {
    KeyClients& kc = keys_[key];
    kc.writer = std::make_unique<RqsWriter>(
        sim_, writer_client_id(key, cfg.reader_count), rqs_, servers_, key,
        /*rank=*/0, cfg.retry);
    for (std::size_t i = 0; i < cfg.reader_count; ++i) {
      kc.readers.push_back(std::make_unique<RqsReader>(
          sim_, reader_client_id(key, i, cfg.reader_count), rqs_, servers_,
          RqsReader::Mode::kAtomic, key, cfg.retry));
      kc.read_done.push_back(true);
      kc.read_value.push_back(kBottom);
      kc.read_invoked.push_back(0);
    }
  }
}

RoundNumber StorageCluster::blocking_write(ObjectId key, Value v) {
  async_write(key, v);
  while (!keys_[key].write_done && sim_.step()) {
  }
  // Hard check, not an assert: in Release the rounds of the previous write
  // would come back as this one's.
  if (!keys_[key].write_done) {
    throw std::runtime_error("StorageCluster::blocking_write: the write on key " +
                             std::to_string(key) +
                             " did not terminate (no live quorum?)");
  }
  return keys_[key].writer->last_write_rounds();
}

StorageCluster::ReadOutcome StorageCluster::blocking_read(ObjectId key,
                                                          std::size_t i) {
  async_read(key, i);
  while (!keys_[key].read_done[i] && sim_.step()) {
  }
  if (!keys_[key].read_done[i]) {
    throw std::runtime_error("StorageCluster::blocking_read: reader " +
                             std::to_string(i) + " of key " +
                             std::to_string(key) +
                             " did not terminate (no live quorum?)");
  }
  return ReadOutcome{keys_[key].read_value[i],
                     keys_[key].readers[i]->last_read_rounds()};
}

void StorageCluster::async_write(ObjectId key, Value v) {
  KeyClients& kc = keys_.at(key);
  assert(kc.write_done);
  kc.write_done = false;
  kc.write_invoked = sim_.now();
  kc.writer->write(v, [this, key, v] {
    KeyClients& done_kc = keys_[key];
    done_kc.write_done = true;
    done_kc.checker.add_write(done_kc.write_invoked, sim_.now(), v);
  });
}

void StorageCluster::async_read(ObjectId key, std::size_t i) {
  KeyClients& kc = keys_.at(key);
  assert(kc.read_done.at(i));
  kc.read_done[i] = false;
  kc.read_invoked[i] = sim_.now();
  kc.readers[i]->read([this, key, i](Value v) {
    KeyClients& done_kc = keys_[key];
    done_kc.read_done[i] = true;
    done_kc.read_value[i] = v;
    done_kc.checker.add_read(done_kc.read_invoked[i], sim_.now(), v);
  });
}

}  // namespace rqs::storage
