#include "src/sim/event_queue.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace pegasus::sim {

namespace {

constexpr uint64_t kSlotMask = 0xFFFFFFFFull;

uint64_t PackId(uint32_t slot, uint32_t gen) {
  // slot+1 keeps the value nonzero so EventId{}.valid() stays false.
  return (static_cast<uint64_t>(gen) << 32) | (static_cast<uint64_t>(slot) + 1);
}

// A decreasing push would break the lane's (time, seq) order and with it
// the engine's exact execution order. Under NDEBUG an assert would let the
// event run out of order, so this stops every build type.
[[noreturn]] void FailLanePush(TimeNs t, TimeNs last) {
  std::fprintf(stderr,
               "sim::Simulator::PushLane: time %lld is before the lane's last pending "
               "entry at %lld\n",
               static_cast<long long>(t), static_cast<long long>(last));
  std::abort();
}

}  // namespace

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return static_cast<uint32_t>(slot_count_++);
}

EventId Simulator::ScheduleAt(TimeNs t, Handler fn) {
  if (t < now_) {
    t = now_;
  }
  const uint32_t index = AcquireSlot();
  Slot& slot = SlotAt(index);
  slot.fn = std::move(fn);
  slot.seq = next_seq_;
  queue_.push(HeapEntry{t, next_seq_, index});
  ++next_seq_;
  ++live_;
  return EventId{PackId(index, slot.gen)};
}

void Simulator::PushLane(LaneId* lane, TimeNs t, LaneFn fn, void* ctx, uint32_t a,
                         uint32_t b) {
  if (t < now_) {
    t = now_;
  }
  if (*lane == kNoLane) {
    Lane& created = lanes_.emplace_back();
    created.fn = fn;
    created.ctx = ctx;
    *lane = static_cast<LaneId>(lanes_.size());
  }
  const uint32_t index = *lane - 1;
  Lane& l = lanes_[index];
  if (l.size == 0) {
    l.head_a = a;
    l.head_b = b;
    queue_.push(HeapEntry{t, next_seq_, index | kLaneBit});
  } else {
    if (t < l.last) {
      FailLanePush(t, l.last);
    }
    const uint32_t queued = l.size - 1;  // entries already in the ring
    const uint32_t capacity = static_cast<uint32_t>(l.ring.size());
    if (queued == capacity) {
      // Full (or never used): double the ring, unrolling it to start at 0.
      std::vector<LaneEntry> grown(capacity == 0 ? 4 : size_t{capacity} * 2);
      for (uint32_t i = 0; i < queued; ++i) {
        grown[i] = l.ring[(l.ring_head + i) & (capacity - 1)];
      }
      l.ring = std::move(grown);
      l.ring_head = 0;
    }
    const uint32_t mask = static_cast<uint32_t>(l.ring.size()) - 1;
    l.ring[(l.ring_head + queued) & mask] = LaneEntry{t, next_seq_, a, b};
  }
  l.last = t;
  ++l.size;
  ++next_seq_;
  ++live_;
}

void Simulator::RunLaneHead(uint32_t index) {
  Lane& l = lanes_[index];
  const uint32_t a = l.head_a;
  const uint32_t b = l.head_b;
  if (--l.size > 0) {
    // The ring's front becomes the head, queued under its reserved seq.
    const LaneEntry& next = l.ring[l.ring_head];
    l.ring_head = (l.ring_head + 1) & (static_cast<uint32_t>(l.ring.size()) - 1);
    l.head_a = next.a;
    l.head_b = next.b;
    queue_.push(HeapEntry{next.time, next.seq, index | kLaneBit});
  }
  ++lane_events_;
  // Copied out first: the callback may create a lane, which can relocate
  // lanes_ and with it `l`.
  const LaneFn fn = l.fn;
  void* const ctx = l.ctx;
  fn(ctx, a, b);
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.fn = Handler();
  slot.seq = 0;
  ++slot.gen;
  free_slots_.push_back(index);
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>((id.value & kSlotMask) - 1);
  const uint32_t gen = static_cast<uint32_t>(id.value >> 32);
  if (index >= slot_count_) {
    return false;
  }
  Slot& slot = SlotAt(index);
  if (slot.gen != gen || slot.seq == 0) {
    // Already ran, already cancelled, or the slot moved on to a newer event.
    return false;
  }
  // The heap entry stays behind as a tombstone; the pop loop discards it by
  // seeing a seq mismatch. The slot itself is reusable right away.
  ReleaseSlot(index);
  --live_;
  return true;
}

bool Simulator::SkimStaleHead() {
  while (!queue_.empty() && !EntryLive(queue_.top())) {
    queue_.pop();
  }
  return !queue_.empty();
}

bool Simulator::Step() {
  if (!SkimStaleHead()) {
    return false;
  }
  const HeapEntry entry = queue_.top();
  queue_.pop();
  now_ = entry.time;
  --live_;
  ++executed_;
  if ((entry.slot & kLaneBit) != 0) {
    RunLaneHead(entry.slot & ~kLaneBit);
    return true;
  }
  // Move the handler out and release the slot before invoking, so the
  // handler is free to schedule (and land in this very slot).
  Handler fn = std::move(SlotAt(entry.slot).fn);
  ReleaseSlot(entry.slot);
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(TimeNs t) {
  while (SkimStaleHead() && queue_.top().time <= t) {
    Step();
  }
  if (now_ < t) {
    now_ = t;
  }
}

void Simulator::RunUntilBefore(TimeNs t) {
  while (SkimStaleHead() && queue_.top().time < t) {
    Step();
  }
  if (now_ < t) {
    now_ = t;
  }
}

TimeNs Simulator::NextEventTime() {
  return SkimStaleHead() ? queue_.top().time : kTimeNever;
}

bool Simulator::RunUntilPredicate(const std::function<bool()>& pred) {
  if (pred()) {
    return true;
  }
  while (Step()) {
    if (pred()) {
      return true;
    }
  }
  return false;
}

}  // namespace pegasus::sim
