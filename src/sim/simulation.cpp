#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/observer.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"

namespace rqs::sim {

Simulation::Simulation(SimTime delta)
    : delta_(delta), network_(std::make_unique<Network>(*this)) {}

Simulation::~Simulation() {
  // Undelivered messages still hold one reference each; drop them so the
  // pool (destroyed after the queue) gets every block back. A pending
  // fan-out's single reference lives in its slot and goes with fanouts_.
  for (const Event& ev : queue_.raw()) {
    if (ev.kind() == Event::kDelivery) MessagePtr::release(ev.delivery.msg);
  }
}

void Simulation::add_process(Process& p) {
  if (processes_.size() <= p.id()) processes_.resize(p.id() + 1, nullptr);
  // Hard check, not an assert: a Release build would otherwise replace the
  // first process, and every message sent to it would reach the second.
  if (processes_[p.id()] != nullptr) {
    throw std::invalid_argument("Simulation::add_process: process id " +
                                std::to_string(p.id()) +
                                " is already registered");
  }
  processes_[p.id()] = &p;
}

Process* Simulation::process(ProcessId id) const {
  return id < processes_.size() ? processes_[id] : nullptr;
}

void Simulation::crash(ProcessId id) {
  if (crashed_.size() <= id) crashed_.resize(id + 1, 0);
  crashed_[id] = 1;
}

bool Simulation::crashed(ProcessId id) const {
  return id < crashed_.size() && crashed_[id] != 0;
}

void Simulation::schedule_at(SimTime at, std::function<void()> fn) {
  // Clamp rather than assert: a past-time schedule compiled without asserts
  // must not reorder the queue behind events that already fired.
  if (at < now_) at = now_;
  std::uint32_t slot;
  if (!callback_free_.empty()) {
    slot = callback_free_.back();
    callback_free_.pop_back();
    callbacks_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  }
  Event ev;
  ev.at = at;
  ev.key = next_key(kDeliveryPhase, Event::kCallback);
  ev.callback.slot = slot;
  queue_.push(ev);
}

// rqs-hot-path
void Simulation::deliver_at(SimTime at, ProcessId from, ProcessId to,
                            MessagePtr msg) {
  if (at < now_) at = now_;
  // Only scheduled deliveries are observed: a message the network dropped
  // never reaches this point and leaves no trace event.
  if (obs_ != nullptr) {
    obs_->on_send(now_, at, from, to, msg->type(), msg->tag());
  }
  Event ev;
  ev.at = at;
  ev.key = next_key(kDeliveryPhase, Event::kDelivery);
  ev.delivery = {from, to, msg.detach()};  // the event owns one reference
  queue_.push(ev);
}

// rqs-hot-path
void Simulation::fan_out(SimTime at, ProcessId from, ProcessSet targets,
                         MessagePtr msg) {
  assert(!targets.empty());
  if (at < now_) at = now_;
  if (obs_ != nullptr) {
    const MessageType type = msg->type();
    const std::string_view tag = msg->tag();
    for (const ProcessId to : targets) obs_->on_send(now_, at, from, to, type, tag);
  }
  std::uint32_t slot;
  if (!fanout_free_.empty()) {
    slot = fanout_free_.back();
    fanout_free_.pop_back();
    fanouts_[slot] = {std::move(msg), targets, from};
  } else {
    slot = static_cast<std::uint32_t>(fanouts_.size());
    fanouts_.push_back({std::move(msg), targets, from});  // rqs-lint: allow(hot-path-alloc) bounded by the peak in-flight fan-out count, then recycled
  }
  Event ev;
  ev.at = at;
  // One sequence number per target: the i-th target's delivery takes the
  // key its own deliver_at() would have had.
  ev.key = next_key(kDeliveryPhase, Event::kFanout);
  next_seq_ += targets.size() - 1;
  ev.fanout.slot = slot;
  queue_.push(ev);
}

// rqs-hot-path
bool Simulation::peel(const Event& fan, Event& delivery) {
  const std::uint32_t slot = fan.fanout.slot;
  FanoutSlot& f = fanouts_[slot];
  const ProcessId to = f.targets.first();
  f.targets.erase(to);
  delivery.at = fan.at;
  delivery.key = fan.key - Event::kFanout + Event::kDelivery;
  if (!f.targets.empty()) {
    delivery.delivery = {f.from, to, MessagePtr(f.msg).detach()};
    return true;
  }
  delivery.delivery = {f.from, to, f.msg.detach()};
  fanout_free_.push_back(slot);  // rqs-lint: allow(hot-path-alloc) bounded by the peak in-flight fan-out count, then recycled
  return false;
}

void Simulation::expand_pending_fanouts() {
  while (fanout_free_.size() < fanouts_.size()) {
    const std::vector<Event>& raw = queue_.raw();
    const auto it = std::find_if(raw.begin(), raw.end(), [](const Event& e) {
      return e.kind() == Event::kFanout;
    });
    Event fan = queue_.remove_at(static_cast<std::size_t>(it - raw.begin()));
    Event delivery;
    bool more = true;
    while (more) {
      more = peel(fan, delivery);
      queue_.push(delivery);
      fan.key += Event::kSeqStep;
    }
  }
}

TimerId Simulation::arm_timer(Timer& timer, SimTime delay) {
  std::uint32_t slot;
  if (!timer_free_.empty()) {
    slot = timer_free_.back();
    timer_free_.pop_back();
    timer_slots_[slot].timer = &timer;
  } else {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    timer_slots_.push_back(TimerSlot{1, &timer});
  }
  const TimerId id = (TimerId{timer_slots_[slot].gen} << 32) | slot;
  const ProcessId owner = timer.owner_.id();
  if (timer_arms_.size() <= owner) timer_arms_.resize(owner + 1, 0);
  SimTime at = now_ + delay;
  if (at < now_) at = now_;
  Event ev;
  ev.at = at;
  ev.key = next_key(kTimerPhase, Event::kTimer);
  ev.timer = {id, owner, timer_arms_[owner]++};
  queue_.push(ev);
  return id;
}

void Simulation::cancel_timer(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // A stale id (its timer already fired: generation bumped on slot reuse)
  // must be a no-op — that is the point of the generation scheme.
  if (slot < timer_slots_.size() && timer_slots_[slot].gen == gen) {
    timer_slots_[slot].timer = nullptr;
  }
}

// Dead-event oracle for the model checker (src/mc). It mirrors the
// dispatch switch below: an event for which event_live() is false
// (delivery to a crashed or unregistered process, a cancelled expiry or
// one of a crashed owner) invokes no handler, so it is a no-op up to
// bookkeeping and not a scheduling choice. Keep it in lockstep with
// dispatch(): a new early-return there is a new dead-event case here.
bool Simulation::event_live(const Event& ev) const {
  switch (ev.kind()) {
    case Event::kDelivery:
      return !crashed(ev.delivery.to) && process(ev.delivery.to) != nullptr;
    case Event::kTimer: {
      const auto slot = static_cast<std::uint32_t>(ev.timer.id & 0xffffffffu);
      const auto gen = static_cast<std::uint32_t>(ev.timer.id >> 32);
      return slot < timer_slots_.size() && timer_slots_[slot].gen == gen &&
             timer_slots_[slot].timer != nullptr && !crashed(ev.timer.owner);
    }
    case Event::kCallback:
      return true;
    case Event::kFanout:
      // queued_event() expands fan-outs first, so no caller passes one.
      assert(false && "fan-out reached event_live()");
      return false;
  }
  return false;
}

bool Simulation::fire_queued(std::size_t i) {
  expand_fanouts();
  if (i >= queue_.size()) return false;
  const Event ev = queue_.remove_at(i);
  // Out-of-order firing never rewinds the clock; mc runs with delta = 0,
  // where every event sits at now() anyway.
  if (ev.at > now_) now_ = ev.at;
  dispatch(ev);
  return true;
}

void Simulation::State::release() noexcept {
  for (const Event& ev : queue_) {
    if (ev.kind() == Event::kDelivery) MessagePtr::release(ev.delivery.msg);
  }
  queue_.clear();
}

void Simulation::save(State& s) {
  // Hard check, not an assert: a Release build would otherwise restore a
  // queue whose callback events name slots that hold nothing.
  if (callback_free_.size() != callbacks_.size()) {
    throw std::logic_error(
        "Simulation::save: a schedule_at callback is pending");
  }
  expand_fanouts();
  s.release();
  s.sim_ = this;
  s.queue_ = queue_.raw();
  for (const Event& ev : s.queue_) {
    if (ev.kind() == Event::kDelivery) MessagePtr::retain(ev.delivery.msg);
  }
  s.now_ = now_;
  s.next_seq_ = next_seq_;
  s.messages_delivered_ = messages_delivered_;
  s.crashed_ = crashed_;
  s.timer_slots_ = timer_slots_;
  s.timer_free_ = timer_free_;
  s.timer_arms_ = timer_arms_;
  s.fanout_slots_ = fanouts_.size();
  s.fanout_free_ = fanout_free_;
  s.callback_slots_ = callbacks_.size();
  s.callback_free_ = callback_free_;
}

void Simulation::restore(const State& s) {
  assert(s.sim_ == this && "restoring a state saved by another simulation");
  // Take the saved queue's references before dropping the current ones: a
  // message queued in both must not reach zero in between.
  for (const Event& ev : s.queue_) {
    if (ev.kind() == Event::kDelivery) MessagePtr::retain(ev.delivery.msg);
  }
  for (const Event& ev : queue_.raw()) {
    if (ev.kind() == Event::kDelivery) MessagePtr::release(ev.delivery.msg);
  }
  queue_.assign(s.queue_);
  now_ = s.now_;
  next_seq_ = s.next_seq_;
  messages_delivered_ = s.messages_delivered_;
  crashed_ = s.crashed_;
  timer_slots_ = s.timer_slots_;
  timer_free_ = s.timer_free_;
  timer_arms_ = s.timer_arms_;
  // Every fan-out was expanded when the state was saved.
  for (FanoutSlot& f : fanouts_) f.msg.reset();
  fanouts_.resize(s.fanout_slots_);
  fanout_free_ = s.fanout_free_;
  for (std::function<void()>& fn : callbacks_) fn = nullptr;
  callbacks_.resize(s.callback_slots_);
  callback_free_ = s.callback_free_;
}

// rqs-hot-path
void Simulation::dispatch(const Event& ev) {
  switch (ev.kind()) {
    case Event::kDelivery: {
      // Adopt the event's reference so the message is released (block
      // recycled) when delivery returns, whatever the receiver does.
      const MessagePtr msg = MessagePtr::adopt(ev.delivery.msg);
      const ProcessId to = ev.delivery.to;
      if (crashed(to)) return;
      Process* p = process(to);
      if (p == nullptr) return;
      ++messages_delivered_;
      if (obs_ != nullptr) {
        obs_->on_deliver(now_, ev.delivery.from, to, msg->type(), msg->tag());
      }
      p->on_message(ev.delivery.from, *msg);
      return;
    }
    case Event::kTimer: {
      const TimerId id = ev.timer.id;
      const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
      TimerSlot& s = timer_slots_[slot];
      assert(s.gen == static_cast<std::uint32_t>(id >> 32) &&
             "slot recycled before its event popped");
      Timer* const timer = s.timer;
      // Free the slot and idle the Timer *before* its handler: the handler
      // sees armed() false, cancelling there is a no-op, and re-arming may
      // legally reuse the slot under a fresh generation. A crashed owner's
      // Timer is left as it was: the process takes no further step.
      s.timer = nullptr;
      if (++s.gen == 0) s.gen = 1;
      timer_free_.push_back(slot);  // rqs-lint: allow(hot-path-alloc) bounded by the peak in-flight timer count, then recycled
      if (timer == nullptr || crashed(ev.timer.owner)) return;
      if (obs_ != nullptr) obs_->on_timer(now_, ev.timer.owner, id);
      timer->id_ = 0;
      timer->on_expiry_();
      return;
    }
    case Event::kCallback: {
      const std::uint32_t slot = ev.callback.slot;
      // Move the closure out and free the slot before invoking: the
      // callback may schedule further callbacks (growing / reusing the
      // vector) or even re-enter run().
      std::function<void()> fn = std::move(callbacks_[slot]);
      callbacks_[slot] = nullptr;
      callback_free_.push_back(slot);  // rqs-lint: allow(hot-path-alloc) bounded by the peak in-flight callback count, then recycled
      fn();
      return;
    }
    case Event::kFanout:
      // step() peels fan-outs one target at a time and fire_queued()
      // expands them first, so neither passes one here.
      assert(false && "fan-out reached dispatch()");
      return;
  }
}

// rqs-hot-path
bool Simulation::step() {
  if (queue_.empty()) return false;
  const Event& top = queue_.top();
  assert(top.at >= now_);
  now_ = top.at;
  if (top.kind() != Event::kFanout) {
    dispatch(queue_.pop());
    return true;
  }
  // One target per step. The fan-out stays on top until its last target:
  // every other queued key lies outside its reserved range.
  Event delivery;
  if (peel(top, delivery)) {
    queue_.advance_top();
  } else {
    queue_.pop();
  }
  dispatch(delivery);
  return true;
}

SimTime Simulation::run(SimTime deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) {
    step();
  }
  return now_;
}

}  // namespace rqs::sim
