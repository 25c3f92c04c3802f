// Discrete-event simulation engine.
//
// A Simulator owns the virtual clock and the time-ordered queues of pending
// events. Components schedule closures at absolute or relative times; the
// main loop pops them in (time, insertion-order) order, so runs are fully
// deterministic. Events can be cancelled, which is used for timer-style
// behaviour (retransmission timers, scheduler preemption points).
//
// Engine internals are built for cell-rate churn:
//   - Handlers are stored in an inline small-buffer callable (Handler), so
//     closures up to kInlineSize bytes never touch the heap. Larger ones
//     fall back to a single allocation.
//   - Handlers live in a slab of reusable slots; the timer queue holds
//     only small POD entries {time, seq, slot}.
//   - EventIds carry the slot's generation, so Cancel is O(1), an id that
//     already ran (or was already cancelled) is rejected without any
//     bookkeeping growth, and a cancelled slot is reusable immediately.
//   - Lanes carry the data plane's monotone streams (link serialisation
//     completions, wire propagation, switch fabric transit). A lane is a
//     FIFO of events whose times never decrease, each a plain function
//     pointer call with two 32-bit arguments: no slot, no Handler, and only
//     the lane's HEAD is queued.
//
// Pending work sits in two queues that share one (time, seq) key:
//   - the timer queue holds every ScheduleAt event. A cancelled event stays
//     behind as a tombstone, skimmed off once it heads the timer queue and
//     sorts before the lane-head queue's head.
//   - the lane-head queue holds one entry per non-empty lane and is never
//     stale. Its minimum usually sits outside the heap in a front slot: a
//     push that sorts before the current minimum takes the front slot (an
//     occupant it displaces goes into the heap), any other push goes into
//     the heap, and a pop takes the front slot when it is occupied. So a
//     data-plane event whose successor sorts first touches no heap at all,
//     and no lane push sifts through the control timers (about 1,000 in a
//     metro-large fleet, nearly all of them milliseconds ahead).
// Each step runs whichever queue's head has the smaller key.
//
// The order is exact. Every lane push reserves its seq from the same
// counter ScheduleAt uses, at push time, so seqs are assigned exactly as if
// each push had been a ScheduleAt. Within a lane, times never decrease (a
// push that would break this aborts in every build type) and seqs increase,
// so a lane's entries are already sorted by (time, seq) and its head is its
// minimum. The front slot, when occupied, sorts before every entry in the
// lane-head heap, so the lane-head queue's head is the minimum over all lane
// heads. The timer queue's first live entry is the minimum over all pending
// ScheduleAt events; a tombstone ahead of it that sorts after the lane head
// changes nothing, because the lane head runs first either way. Seqs are
// unique, so the smaller of the two heads is the global (time, seq) minimum
// over all pending events: the execution order, now(),
// executed(), pending() and lane_events() are exactly those of the
// all-ScheduleAt run.
#ifndef PEGASUS_SRC_SIM_EVENT_QUEUE_H_
#define PEGASUS_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace pegasus::sim {

// Opaque handle for cancelling a scheduled event. Encodes a slot index plus
// the slot's generation at schedule time, so a handle outliving its event
// can never cancel the slot's next occupant.
struct EventId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

class Simulator {
 public:
  // Move-only type-erased callable with inline storage: the replacement for
  // std::function<void()> on the event hot path. Any callable whose size is
  // at most kInlineSize (and that is nothrow-move-constructible) is stored
  // in place; anything bigger goes through one heap allocation.
  class Handler {
   public:
    // Room for a closure that captures a few pointers and scalars (endpoint
    // pacing, device and control timers) without making slots
    // cache-hostile. Link and switch transit need no closure: they run on
    // lanes.
    static constexpr size_t kInlineSize = 96;

    Handler() = default;
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Handler> &&
                                          std::is_invocable_r_v<void, std::decay_t<F>&>>>
    Handler(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        new (storage_) Fn(std::forward<F>(f));
        ops_ = &kInlineOps<Fn>;
      } else {
        *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
        ops_ = &kHeapOps<Fn>;
      }
    }
    Handler(Handler&& other) noexcept { MoveFrom(other); }
    Handler& operator=(Handler&& other) noexcept {
      if (this != &other) {
        Reset();
        MoveFrom(other);
      }
      return *this;
    }
    Handler(const Handler&) = delete;
    Handler& operator=(const Handler&) = delete;
    ~Handler() { Reset(); }

    explicit operator bool() const { return ops_ != nullptr; }
    void operator()() { ops_->invoke(storage_); }

   private:
    struct Ops {
      void (*invoke)(void* self);
      // Move-constructs `dst` from `src` and destroys `src`.
      void (*relocate)(void* dst, void* src);
      void (*destroy)(void* self);
    };

    template <typename Fn>
    static void InlineInvoke(void* self) {
      (*std::launder(reinterpret_cast<Fn*>(self)))();
    }
    template <typename Fn>
    static void InlineRelocate(void* dst, void* src) {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    template <typename Fn>
    static void InlineDestroy(void* self) {
      std::launder(reinterpret_cast<Fn*>(self))->~Fn();
    }
    template <typename Fn>
    static void HeapInvoke(void* self) {
      (**std::launder(reinterpret_cast<Fn**>(self)))();
    }
    template <typename Fn>
    static void HeapRelocate(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = *std::launder(reinterpret_cast<Fn**>(src));
    }
    template <typename Fn>
    static void HeapDestroy(void* self) {
      delete *std::launder(reinterpret_cast<Fn**>(self));
    }

    template <typename Fn>
    static constexpr Ops kInlineOps{&InlineInvoke<Fn>, &InlineRelocate<Fn>, &InlineDestroy<Fn>};
    template <typename Fn>
    static constexpr Ops kHeapOps{&HeapInvoke<Fn>, &HeapRelocate<Fn>, &HeapDestroy<Fn>};

    void Reset() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
        ops_ = nullptr;
      }
    }
    void MoveFrom(Handler& other) {
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  TimeNs now() const { return now_; }

  // Schedules `fn` to run at absolute time `t`. Times in the past are clamped
  // to `now` (the event still runs, immediately after current-time events).
  EventId ScheduleAt(TimeNs t, Handler fn);

  // Schedules `fn` to run `d` after the current time (d < 0 clamps to now).
  EventId ScheduleAfter(DurationNs d, Handler fn) { return ScheduleAt(now_ + d, std::move(fn)); }

  // Cancels a pending event. Returns true if the event had not yet run;
  // cancelling an id that already ran (or was already cancelled) returns
  // false and records nothing.
  bool Cancel(EventId id);

  // Runs a single event. Returns false when nothing is pending.
  bool Step();

  // Runs events until nothing is pending.
  void Run();

  // Runs events with time <= `t`, then sets the clock to exactly `t`.
  void RunUntil(TimeNs t);

  // Bounded-horizon variant: runs events with time strictly BEFORE `t`,
  // then sets the clock to exactly `t`, leaving events at `t` and later
  // pending. This is the window primitive of conservative parallel
  // simulation (src/sim/shard.h): a shard may execute up to — but not
  // into — the horizon its neighbours' lookahead guarantees safe.
  void RunUntilBefore(TimeNs t);

  // Absolute time of the earliest pending event, or kTimeNever when nothing
  // is pending. Non-const: stale (cancelled) timer heads are skimmed off.
  TimeNs NextEventTime();

  // Runs events until `pred()` is true (checked after each event) or the
  // nothing is pending. Returns true if the predicate fired.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  // Number of pending (non-cancelled) events.
  size_t pending() const { return live_; }

  // Total events executed since construction; useful as a progress metric.
  uint64_t executed() const { return executed_; }

  // --- Lanes (see the file comment) ---
  // Identifies a lane within one Simulator. An owner keeps a LaneId
  // initialised to kNoLane; the lane's first push creates the lane record
  // here and stores its id. An id is meaningful only to the Simulator that
  // issued it, and the owner must not touch the Simulator from its
  // destructor: the Simulator may already be gone.
  using LaneId = uint32_t;
  static constexpr LaneId kNoLane = 0;
  // What a lane event runs: `ctx` is the pointer given at the lane's first
  // push, `a` and `b` the pushed entry's arguments.
  using LaneFn = void (*)(void* ctx, uint32_t a, uint32_t b);

  // Appends an event at absolute time `t` to the lane `*lane`, creating the
  // lane (with `fn` and `ctx`, which later pushes do not change) when
  // `*lane` is kNoLane. Times in the past are clamped to `now`, as in
  // ScheduleAt. A time earlier than the lane's last pending entry aborts
  // with a message in every build type. Lane events cannot be cancelled.
  void PushLane(LaneId* lane, TimeNs t, LaneFn fn, void* ctx, uint32_t a = 0, uint32_t b = 0);

  // Events executed from lanes; a subset of executed().
  uint64_t lane_events() const { return lane_events_; }

 private:
  // A pending event's handler plus the identity needed to validate timer
  // entries and EventIds against slot reuse. seq/gen lead the layout so the
  // pop path's liveness check and the head of the handler's inline storage
  // share a cache line.
  struct Slot {
    uint64_t seq = 0;  // seq of the current occupant; 0 when the slot is free
    uint32_t gen = 1;  // bumped on every release; pins EventId validity
    Handler fn;
  };
  // What both queues sort: 24 bytes of POD, no handler.
  struct HeapEntry {
    TimeNs time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events; in the timer
                   // queue also the staleness check against the slot's
                   // current occupant
    uint32_t index;  // slot index (timer queue) or lane index (lane-head queue)
  };
  // Compares (time, seq) as one 128-bit key: a branch-free comparison on
  // the pop path. Times are never negative (the clock starts at 0 and
  // scheduling clamps to it), so the unsigned key keeps their order.
  struct Later {
    static unsigned __int128 Key(const HeapEntry& e) {
      return (static_cast<unsigned __int128>(static_cast<uint64_t>(e.time)) << 64) | e.seq;
    }
    bool operator()(const HeapEntry& a, const HeapEntry& b) const { return Key(a) > Key(b); }
  };
  using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later>;

  // The slab is chunked so slots have stable addresses: growing it never
  // relocates live handlers (std::vector growth would move-construct every
  // slot through the Handler vtable).
  static constexpr size_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Slot& SlotAt(uint32_t index) const {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  // Points `*next` at the earliest pending entry of either queue, first
  // skimming cancelled timers off the timer queue's head while they sort
  // before the lane-head queue's head. Returns false when nothing is
  // pending; otherwise `*from_lane` says which queue holds it. Inline (and
  // defined in event_queue.cc, the only user) so the run loops keep
  // `*next` in registers.
  inline bool SelectNext(HeapEntry* next, bool* from_lane);
  // Removes the entry SelectNext last returned, then runs it.
  inline void RunSelected(const HeapEntry& entry, bool from_lane);
  // Queues a lane's head in the lane-head queue (see the file comment).
  void PushLaneHead(const HeapEntry& head);
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);

  // One pending lane event: its (time, seq) key and the callback arguments.
  struct LaneEntry {
    TimeNs time;
    uint64_t seq;
    uint32_t a;
    uint32_t b;
  };
  // A lane's callback and its pending entries. The head's arguments sit
  // inline (its time and seq are in the lane-head queue); the entries behind
  // it wait in a ring whose capacity is zero or a power of two, so a lane
  // that never holds more than one entry never allocates. Reused for the
  // Simulator's lifetime.
  struct Lane {
    LaneFn fn = nullptr;
    void* ctx = nullptr;
    TimeNs last = 0;  // time of the newest pending entry
    uint32_t head_a = 0;
    uint32_t head_b = 0;
    uint32_t size = 0;  // pending entries, the head included
    uint32_t ring_head = 0;
    std::vector<LaneEntry> ring;
  };
  // Pops lane `index`'s head, queues its successor, and runs it.
  void RunLaneHead(uint32_t index);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  uint64_t lane_events_ = 0;
  size_t live_ = 0;
  size_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  Heap timers_;  // ScheduleAt events, cancelled ones included as tombstones
  // The lane-head queue: `lane_front_` when `has_lane_front_`, plus the heap.
  // An occupied front sorts before every entry in `lane_heads_`.
  HeapEntry lane_front_{};
  bool has_lane_front_ = false;
  Heap lane_heads_;
  std::vector<Lane> lanes_;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_EVENT_QUEUE_H_
