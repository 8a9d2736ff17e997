#include "storage/harness.hpp"

#include <stdexcept>
#include <string>

namespace rqs::storage {

namespace {

/// Copies `live` into slot i of `copies`, the next slot on a first save:
/// later saves assign, reusing the copy's buffers.
template <class T>
void save_copy(std::vector<T>& copies, std::size_t i, const T& live) {
  if (i < copies.size()) {
    copies[i] = live;
  } else {
    copies.push_back(live);
  }
}

}  // namespace

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
      kc.read_value.push_back(kBottom);
    }
  }
}

RoundNumber StorageCluster::blocking_write(ObjectId key, Value v) {
  async_write(key, v);
  // Hard check, not an assert: in Release the rounds of the previous write
  // would come back as this one's.
  if (!drive(sim_, [&] { return write_done(key); })) {
    throw std::runtime_error("StorageCluster::blocking_write: the write on key " +
                             std::to_string(key) +
                             " did not terminate (no live quorum?)");
  }
  return keys_[key].writer->last_write_rounds();
}

StorageCluster::ReadOutcome StorageCluster::blocking_read(ObjectId key,
                                                          std::size_t i) {
  async_read(key, i);
  if (!drive(sim_, [&] { return read_done(key, i); })) {
    throw std::runtime_error("StorageCluster::blocking_read: reader " +
                             std::to_string(i) + " of key " +
                             std::to_string(key) +
                             " did not terminate (no live quorum?)");
  }
  return ReadOutcome{keys_[key].read_value[i],
                     keys_[key].readers[i]->last_read_rounds()};
}

void StorageCluster::save(State& s) {
  sim_.save(s.sim_);
  network().save(s.network_);
  for (std::size_t i = 0; i < servers_obj_.size(); ++i) {
    save_copy(s.servers_, i, *servers_obj_[i]);
  }
  for (std::size_t key = 0; key < keys_.size(); ++key) {
    const KeyClients& kc = keys_[key];
    save_copy(s.writers_, key, *kc.writer);
    for (std::size_t i = 0; i < reader_count_; ++i) {
      save_copy(s.readers_, key * reader_count_ + i, *kc.readers[i]);
    }
    save_copy(s.checkers_, key, kc.checker);
    save_copy(s.read_values_, key, kc.read_value);
  }
  s.log_ = log_;
  s.endpoints_ = endpoints_;
}

void StorageCluster::restore(const State& s) {
  sim_.restore(s.sim_);
  network().restore(s.network_);
  for (std::size_t i = 0; i < servers_obj_.size(); ++i) {
    *servers_obj_[i] = s.servers_[i];
  }
  for (std::size_t key = 0; key < keys_.size(); ++key) {
    KeyClients& kc = keys_[key];
    *kc.writer = s.writers_[key];
    for (std::size_t i = 0; i < reader_count_; ++i) {
      *kc.readers[i] = s.readers_[key * reader_count_ + i];
    }
    kc.checker = s.checkers_[key];
    kc.read_value = s.read_values_[key];
  }
  log_ = s.log_;
  endpoints_ = s.endpoints_;
}

void StorageCluster::async_write(ObjectId key, Value v) {
  KeyClients& kc = keys_.at(key);
  log_.push_back({.is_write = true, .key = key, .invoked_at = sim_.now(),
                  .invoked = ++endpoints_, .value = v});
  kc.writer->write(v, [this, op = log_.size() - 1] {
    Operation& o = log_[op];
    o.responded = ++endpoints_;
    keys_[o.key].checker.add_write(o.invoked_at, sim_.now(), o.value);
  });
}

void StorageCluster::async_read(ObjectId key, std::size_t i) {
  KeyClients& kc = keys_.at(key);
  log_.push_back({.key = key, .reader = i, .invoked_at = sim_.now(),
                  .invoked = ++endpoints_});
  kc.readers[i]->read([this, op = log_.size() - 1](Value v) {
    Operation& o = log_[op];
    o.responded = ++endpoints_;
    o.value = v;
    KeyClients& done_kc = keys_[o.key];
    done_kc.read_value[o.reader] = v;
    done_kc.checker.add_read(o.invoked_at, sim_.now(), v);
  });
}

}  // namespace rqs::storage
