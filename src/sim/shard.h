// Region-sharded conservative parallel simulation (PDES).
//
// A ShardGroup runs K `Simulator` shards side by side, synchronized the
// classic conservative way, with PER-CHANNEL lookahead: every directed
// boundary channel (for an ATM link, one direction of a cross-shard trunk)
// guarantees that a message emitted by its source shard at time t cannot be
// observed by the destination before t + L_channel. At the start of each
// barrier window the group snapshots every shard's earliest pending event
// and gives each shard its own horizon
//
//     horizon(d) = min over inbound channels c of
//                  ( next_event(source(c)) + L_c )
//
// — the source cannot emit anything on c before its own next event runs, so
// nothing can reach d before that bound. A shard whose inbound neighbours
// are idle (no pending events) is unconstrained and runs straight to the
// next sync point, however small some distant pair's lookahead is; a shard
// adjacent only to wide channels never crawls at the group-wide minimum.
// Every window runs on the calling thread, one shard after another.
//
// A boundary posting is scheduled straight onto the destination shard's
// simulator at its delivery time. With effective(src) the source's next
// event relaxed over the channel graph (see PlanWindow), the posting can
// never land in the destination's past, whichever shard runs first in a
// window:
//
//     deliver_at >= now(src) + L >= effective(src) + L >= horizon(dst)
//                >= now(dst)
//
// The same holds for a post made by control code, because every shard is
// parked at the control timestamp t and deliver_at >= t + L.
//
// One external `Simulator` (typically the PegasusSystem clock) acts as the
// CONTROL shard: its events — workload arrivals, admission, QoS-monitor
// ticks — are global synchronisation points. RunControlBatch quiesces all
// shards with their clocks parked at exactly the control timestamp and then
// runs EVERY control event at that timestamp as one batch (a Poisson
// arrival burst, a co-periodic monitor + metrics tick) under a single
// quiesce, so control code may read and mutate any shard's state exactly as
// it does under the unsharded engine. That discipline is what makes the
// sharded run reproduce the unsharded results bit for bit: sharding changes
// wall clock only, never outcomes.
#ifndef PEGASUS_SRC_SIM_SHARD_H_
#define PEGASUS_SRC_SIM_SHARD_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace pegasus::sim {

class ShardGroup;

// One directed boundary link. Channels are created by
// ShardGroup::RegisterBoundary and owned by the group.
class BoundaryChannel {
 public:
  // Emits one boundary message due at `deliver_at`: checks it against the
  // channel's lookahead, counts it in Stats::messages and returns the
  // destination shard's simulator, on which the caller schedules the
  // delivery at exactly `deliver_at` (an atm::Link pushes it onto its wire
  // lane there). Called from the source shard's event handlers, or from
  // control code at a sync point. `deliver_at` must honour the lookahead
  // (emission time + at least the link propagation delay): the
  // conservative window invariant depends on it, so a violation aborts
  // with a message in every build type rather than run late and out of
  // order.
  Simulator* Emit(TimeNs deliver_at);

  // Emit, then schedules `fn` on the destination shard at `deliver_at`.
  void Post(TimeNs deliver_at, Simulator::Handler fn) {
    Emit(deliver_at)->ScheduleAt(deliver_at, std::move(fn));
  }

 private:
  friend class ShardGroup;

  BoundaryChannel(ShardGroup* group, Simulator* src_sim, Simulator* dst_sim, DurationNs lookahead)
      : group_(group), src_sim_(src_sim), dst_sim_(dst_sim), lookahead_(lookahead) {}

  ShardGroup* group_;
  Simulator* src_sim_;
  Simulator* dst_sim_;
  DurationNs lookahead_;
};

class ShardGroup {
 public:
  struct Options {
    int shards = 1;
    // Ignored: every window runs inline on the calling thread. The field
    // remains only so that `Options{shards, threads}` initialisers in
    // perfbench/harness.cc still compile.
    int threads = 0;
  };

  struct Stats {
    uint64_t windows = 0;      // conservative windows executed
    uint64_t sync_points = 0;  // control-batch quiesce points
    uint64_t messages = 0;     // boundary posts, counted when posted
    // Always zero: boundary posts are scheduled directly, so nothing is
    // handed off or merged. The fields remain only because
    // perfbench/harness.cc reads them, like Options::threads.
    uint64_t handoffs = 0;
    uint64_t merges = 0;
  };

  // `control` is the externally owned control simulator (see the class
  // comment). Shard simulators are created and owned by the group.
  ShardGroup(Simulator* control, Options options);

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  Simulator* control() const { return control_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulator* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  // Index of `s` among the shards, or -1 (control / foreign simulator).
  int shard_index(const Simulator* s) const;

  // Declares a directed boundary link from `src`'s shard to `dst`'s shard
  // whose earliest cross-shard effect lags emission by `lookahead` (> 0;
  // for an ATM link, its propagation delay). Only the destination shard's
  // windows are bounded by it — per-channel lookahead, not a group-wide
  // minimum. Both simulators must be distinct shards of this group. A
  // violated precondition aborts with a message in every build type: a
  // zero lookahead would otherwise stall the window loop forever.
  BoundaryChannel* RegisterBoundary(Simulator* src, Simulator* dst, DurationNs lookahead);

  // Runs every shard and the control simulator through time `t`, with
  // RunUntil(t) semantics on each clock (events at exactly `t` run; all
  // clocks end at `t`). Callable repeatedly with increasing times.
  void RunUntil(TimeNs t);

  // Quiesces every shard at `t` — no shard event before `t` left pending,
  // every shard clock parked at exactly `t` — and then runs ALL control
  // events at or before `t` as ONE batch. Consecutive control events at the
  // same timestamp (a Poisson arrival burst, a monitor tick plus a metrics
  // tick) cost a single quiesce, not one per event. One sync point is
  // charged per batch. RunUntil is a loop over this primitive.
  void RunControlBatch(TimeNs t);

  const Stats& stats() const { return stats_; }
  // Smallest registered boundary lookahead, or kTimeNever when no boundary
  // has been registered. Purely informational: windows are bounded per
  // channel, never by this minimum.
  DurationNs lookahead() const { return min_lookahead_; }

 private:
  friend class BoundaryChannel;

  // What one shard does inside the current window.
  enum class WindowMode : uint8_t {
    kSkip = 0,       // no event before its horizon; not touched at all
    kExclusive = 1,  // RunUntilBefore(horizon)
    kInclusive = 2,  // RunUntil(horizon) — end-of-run windows only
  };

  // Runs conservative windows until no shard holds an event before `limit`
  // (`inclusive` widens that to "at or before"), then parks every shard
  // clock at `limit`.
  void AdvanceShards(TimeNs limit, bool inclusive);
  // Fills next_times_ with every shard's earliest pending event and returns
  // the minimum.
  TimeNs SnapshotNextEvents();
  // Computes per-shard horizons and modes for one window from the
  // next_times_ snapshot.
  void PlanWindow(TimeNs limit, bool inclusive);

  Simulator* control_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::unique_ptr<BoundaryChannel>> channels_;
  DurationNs min_lookahead_ = kTimeNever;
  Stats stats_;

  // Per destination shard: the inbound (source shard, lookahead) bounds,
  // collapsed to the tightest lookahead per source pair.
  struct InboundBound {
    int src;
    DurationNs lookahead;
  };
  std::vector<std::vector<InboundBound>> inbound_;

  // Window plan: the per-shard snapshot, then the horizons and modes
  // PlanWindow derives from it.
  std::vector<TimeNs> next_times_;
  // next_times_ relaxed to a fixpoint over the channel graph: the earliest
  // instant each shard could execute anything this window, counting events
  // it may still receive (transitively) from other shards. Scratch for
  // PlanWindow, kept as a member to avoid per-window allocation.
  std::vector<TimeNs> effective_;
  std::vector<TimeNs> horizons_;
  std::vector<WindowMode> modes_;
};

}  // namespace pegasus::sim

#endif  // PEGASUS_SRC_SIM_SHARD_H_
