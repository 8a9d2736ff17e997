#include "mc/execution.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "common/fnv.hpp"
#include "storage/messages.hpp"

namespace rqs::mc {

namespace {

using scenario::ScheduleEntry;
using scenario::SystemFamily;

/// Number of SystemFamily enumerators (they run from 0 with no gaps). The
/// switch names every family and has no default, so -Wswitch (an error
/// under -Werror) stops the build when a family is added; the return must
/// then name the new last one.
constexpr std::size_t family_count() {
  switch (SystemFamily{}) {
    case SystemFamily::kFast5:
    case SystemFamily::kThreeT1of1:
    case SystemFamily::kThreeT1of2:
    case SystemFamily::kExample7:
    case SystemFamily::kGraded7:
    case SystemFamily::kMasking4:
    case SystemFamily::kFig1Broken5:
    case SystemFamily::kTiny3:
      break;
  }
  return static_cast<std::size_t>(SystemFamily::kTiny3) + 1;
}

/// One immutable system per family, built on first use. Every replay
/// builds a cluster, which copies its system from here instead of
/// rebuilding it. scenario::materialize() itself is untouched, so swarm
/// workers share nothing.
const RefinedQuorumSystem& family_system(SystemFamily f) {
  static const auto systems = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array{scenario::materialize(static_cast<SystemFamily>(I))...};
  }(std::make_index_sequence<family_count()>{});
  return systems[static_cast<std::size_t>(f)];
}

/// The runner's deployment of the spec, with every event at virtual time
/// 0: selection order, not the clock, is the nondeterminism.
storage::StorageClusterConfig zero_delta_config(
    const scenario::ScenarioSpec& spec) {
  storage::StorageClusterConfig cfg = scenario::storage_config(spec);
  cfg.delta = 0;
  return cfg;
}

std::uint64_t delivery_id(const sim::Event& ev) {
  Fnv64 h;
  h.mix(ev.delivery.from);
  h.mix(ev.delivery.to);
  ev.delivery.msg->digest_into(h);
  return h.digest();
}

std::uint64_t timer_id(const sim::Event& ev) {
  Fnv64 h;
  h.mix(ev.timer.owner);
  h.mix(ev.timer.arm_seq);
  return h.digest();
}

}  // namespace

std::string to_string(const Choice& c) {
  switch (c.kind) {
    case Choice::Kind::kInject:
      return "inject#" + std::to_string(c.id);
    case Choice::Kind::kDeliver:
      return "deliver(->" + std::to_string(c.target) + ")#" +
             std::to_string(c.id & 0xffffu);
    case Choice::Kind::kTimer:
      return "timer(" + std::to_string(c.target) + ")#" +
             std::to_string(c.id & 0xffffu);
  }
  return "?";
}

McExecution::McExecution(const scenario::ScenarioSpec& spec)
    : spec_(spec),
      cluster_(family_system(spec.family), zero_delta_config(spec)),
      visibility_(cluster_.network(), cluster_.server_set()) {
  if (spec.protocol != scenario::Protocol::kStorage) {
    unsupported_ = "model checker supports storage specs only";
    return;
  }
  std::vector<std::pair<ObjectId, Value>> write_values;
  for (const ScheduleEntry& e : spec_.schedule) {
    switch (e.kind) {
      case ScheduleEntry::Kind::kWrite:
        if (e.key >= spec_.key_count) {
          unsupported_ = "write entry on out-of-range key";
          return;
        }
        for (const auto& [k, v] : write_values) {
          if (k == e.key && v == e.value) {
            unsupported_ = "duplicate write value on a key (checker "
                           "requires unique write values)";
            return;
          }
        }
        write_values.emplace_back(e.key, e.value);
        break;
      case ScheduleEntry::Kind::kRead:
        if (e.key >= spec_.key_count || e.client >= spec_.reader_count) {
          unsupported_ = "read entry on out-of-range key/reader";
          return;
        }
        break;
      case ScheduleEntry::Kind::kCrash:
        break;
      case ScheduleEntry::Kind::kPartition:
        if (e.until != ScheduleEntry::kForever) {
          unsupported_ = "timed partitions need the clock; only "
                         "until=forever partitions are explorable";
          return;
        }
        break;
      case ScheduleEntry::Kind::kPropose:
      case ScheduleEntry::Kind::kAsynchrony:
      case ScheduleEntry::Kind::kLoss:
      case ScheduleEntry::Kind::kDuplicate:
        unsupported_ =
            "entry kind not explorable (propose/asynchrony/loss/duplicate)";
        return;
    }
  }
}

Choice McExecution::event_choice(const sim::Event& ev) const {
  Choice c;
  if (ev.kind() == sim::Event::kDelivery) {
    c.kind = Choice::Kind::kDeliver;
    c.id = delivery_id(ev);
    c.target = ev.delivery.to;
  } else {
    assert(ev.kind() == sim::Event::kTimer);  // MC never schedules callbacks
    c.kind = Choice::Kind::kTimer;
    c.id = timer_id(ev);
    c.target = ev.timer.owner;
  }
  c.client_side = is_client(c.target);
  c.global = false;
  return c;
}

// rqs-hot-path
void McExecution::enabled(std::vector<Choice>& out) {
  out.clear();
  if (injected_ < spec_.schedule.size()) {
    const ScheduleEntry& e = spec_.schedule[injected_];
    Choice c;
    c.kind = Choice::Kind::kInject;
    c.id = injected_;
    c.client_side = true;
    c.global = e.kind == ScheduleEntry::Kind::kCrash ||
               e.kind == ScheduleEntry::Kind::kPartition;
    switch (e.kind) {
      case ScheduleEntry::Kind::kWrite:
        c.target = storage::writer_client_id(e.key, spec_.reader_count);
        break;
      case ScheduleEntry::Kind::kRead:
        c.target =
            storage::reader_client_id(e.key, e.client, spec_.reader_count);
        break;
      default:
        c.target = kInvalidProcess;
        break;
    }
    // rqs-lint: allow(hot-path-alloc) amortized: caller reuses the vector
    out.push_back(c);
  }
  sim::Simulation& sim = cluster_.sim();
  const std::size_t queued = sim.queued_count();
  for (std::size_t i = 0; i < queued; ++i) {
    const sim::Event& ev = sim.queued_event(i);
    assert(sim.event_live(ev));  // drain_dead() ran after the last fire
    Choice c = event_choice(ev);
    c.position = static_cast<std::uint32_t>(i);
    // rqs-lint: allow(hot-path-alloc) amortized: caller reuses the vector
    out.push_back(c);
  }
  // Payload-identical events tie on (kind, id); the smallest Event::key
  // goes first, and unique() keeps it. Their firings are interchangeable,
  // so the pick is canonical. The one injection never ties.
  std::sort(out.begin(), out.end(), [&sim](const Choice& a, const Choice& b) {
    if (a < b) return true;
    if (b < a || a.kind == Choice::Kind::kInject) return false;
    return sim.queued_event(a.position).key < sim.queued_event(b.position).key;
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

// rqs-hot-path
void McExecution::fire(const Choice& c) {
  if (c.kind == Choice::Kind::kInject) {
    assert(c.id == injected_ && injected_ < spec_.schedule.size());
    inject_next();
  } else {
    sim::Simulation& sim = cluster_.sim();
    assert(c.position < sim.queued_count() &&
           event_choice(sim.queued_event(c.position)) == c);
    sim.fire_queued(c.position);
  }
  drain_dead();
}

void McExecution::inject_next() {
  const ScheduleEntry& e = spec_.schedule[injected_++];
  if (scenario::apply_fault_entry(cluster_.sim(), e,
                                  cluster_.rqs().universe_size(), spec_.seed)) {
    return;
  }
  if (!scenario::start_storage_op(cluster_, visibility_, e)) {
    ++skipped_;  // client busy: the entry is a no-op
  }
}

void McExecution::drain_dead() {
  // Dead events (deliveries to crashed processes, cancelled timers) are
  // dispatch no-ops; fire them eagerly so they never appear as choices or
  // in digests. Dispatching a dead event spawns nothing, so one restart
  // per removal terminates.
  sim::Simulation& sim = cluster_.sim();
  bool again = true;
  while (again) {
    again = false;
    const std::size_t queued = sim.queued_count();
    for (std::size_t i = 0; i < queued; ++i) {
      if (!sim.event_live(sim.queued_event(i))) {
        sim.fire_queued(i);
        again = true;
        break;
      }
    }
  }
}

// rqs-hot-path
std::uint64_t McExecution::digest() {
  Fnv64 h;
  h.mix(injected_);
  h.mix(skipped_);
  h.mix(cluster_.endpoints());

  // Crash set + process automata, in fixed id order. The id range covers
  // servers (0..n-1) and the contiguous per-key client blocks.
  sim::Simulation& sim = cluster_.sim();
  const ProcessId limit =
      storage::writer_client_id(spec_.key_count, spec_.reader_count);
  for (ProcessId id = 0; id < limit; ++id) {
    if (sim.crashed(id)) h.mix(~std::uint64_t{id});
    const sim::Process* p = sim.process(id);
    if (p == nullptr) continue;
    h.mix(id);
    p->digest_state(h);
  }

  // Live pending events as a sorted content multiset: the queue's heap
  // layout and sequence numbers are schedule history, not state.
  scratch_.clear();
  const std::size_t queued = sim.queued_count();
  for (std::size_t i = 0; i < queued; ++i) {
    const sim::Event& ev = sim.queued_event(i);
    Fnv64 eh;
    eh.mix(static_cast<std::uint64_t>(ev.kind()));
    if (ev.kind() == sim::Event::kDelivery) {
      eh.mix(ev.delivery.from);
      eh.mix(ev.delivery.to);
      ev.delivery.msg->digest_into(eh);
    } else {
      eh.mix(ev.timer.owner);
      eh.mix(ev.timer.arm_seq);
    }
    // rqs-lint: allow(hot-path-alloc) amortized: scratch_ keeps capacity
    scratch_.push_back(eh.digest());
  }
  std::sort(scratch_.begin(), scratch_.end());
  h.mix(scratch_.size());
  for (const std::uint64_t d : scratch_) h.mix(d);

  // Operation log with endpoint ordinals: merged states must agree on
  // every future atomicity verdict, not just on automaton state.
  const auto& ops = cluster_.operations();
  h.mix(ops.size());
  for (const auto& op : ops) {
    h.mix(static_cast<std::uint64_t>(op.is_write));
    h.mix(op.key);
    h.mix(op.reader);
    h.mix(op.invoked);
    h.mix(static_cast<std::uint64_t>(op.completed()));
    h.mix(op.responded);
    h.mix(static_cast<std::uint64_t>(op.value));
  }
  return h.digest();
}

void McExecution::violations(std::vector<std::string>& out) const {
  out.clear();
  const auto& ops = cluster_.operations();
  for (ObjectId key = 0; key < spec_.key_count; ++key) {
    storage::AtomicityChecker ck;
    for (const auto& op : ops) {
      if (op.is_write && op.key == key && op.completed()) {
        ck.add_write(static_cast<sim::SimTime>(op.invoked),
                     static_cast<sim::SimTime>(op.responded), op.value);
      }
    }
    for (const auto& op : ops) {
      if (op.is_write && op.key == key && !op.completed()) {
        ck.add_pending_write(static_cast<sim::SimTime>(op.invoked), op.value);
      }
    }
    for (const auto& op : ops) {
      if (!op.is_write && op.key == key && op.completed()) {
        ck.add_read(static_cast<sim::SimTime>(op.invoked),
                    static_cast<sim::SimTime>(op.responded), op.value);
      }
    }
    const storage::AtomicityChecker::Result res = ck.check();
    for (const std::string& v : res.violations) {
      out.push_back("key " + std::to_string(key) + ": " + v);
    }
  }
}

}  // namespace rqs::mc
