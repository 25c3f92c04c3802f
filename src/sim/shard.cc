#include "src/sim/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace pegasus::sim {

namespace {

TimeNs SaturatingAdd(TimeNs t, DurationNs d) {
  return d >= kTimeNever - t ? kTimeNever : t + d;
}

// A violated RegisterBoundary precondition stops every build type: under
// NDEBUG an assert would let a zero lookahead stall the window loop forever
// and a foreign simulator index inbound_[-1].
[[noreturn]] void FailRegisterBoundary(const char* why) {
  std::fprintf(stderr, "sim::ShardGroup::RegisterBoundary: %s\n", why);
  std::abort();
}

}  // namespace

void BoundaryChannel::Post(TimeNs deliver_at, Simulator::Handler fn) {
  // Under NDEBUG an assert would let ScheduleAt clamp an early posting to
  // the destination's clock: it would run late and out of order.
  if (deliver_at < src_sim_->now() + lookahead_) {
    std::fprintf(stderr,
                 "sim::BoundaryChannel::Post: deliver_at %lld is inside the lookahead "
                 "(source now %lld + %lld)\n",
                 static_cast<long long>(deliver_at), static_cast<long long>(src_sim_->now()),
                 static_cast<long long>(lookahead_));
    std::abort();
  }
  ++group_->stats_.messages;
  dst_sim_->ScheduleAt(deliver_at, std::move(fn));
}

ShardGroup::ShardGroup(Simulator* control, Options options) : control_(control) {
  const int count = std::max(1, options.shards);
  shards_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  inbound_.resize(static_cast<size_t>(count));
  next_times_.resize(static_cast<size_t>(count), kTimeNever);
  horizons_.resize(static_cast<size_t>(count), kTimeNever);
  modes_.resize(static_cast<size_t>(count), WindowMode::kSkip);
}

int ShardGroup::shard_index(const Simulator* s) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() == s) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

BoundaryChannel* ShardGroup::RegisterBoundary(Simulator* src, Simulator* dst,
                                              DurationNs lookahead) {
  const int src_idx = shard_index(src);
  const int dst_idx = shard_index(dst);
  if (src_idx < 0 || dst_idx < 0) {
    FailRegisterBoundary("both simulators must be shards of this group");
  }
  if (src_idx == dst_idx) {
    FailRegisterBoundary("source and destination must be different shards");
  }
  if (lookahead <= 0) {
    FailRegisterBoundary("lookahead must be positive; zero would stall the window loop");
  }
  channels_.push_back(std::unique_ptr<BoundaryChannel>(
      new BoundaryChannel(this, src, dst, lookahead)));
  min_lookahead_ = std::min(min_lookahead_, lookahead);
  // The destination's window bound only needs the tightest lookahead per
  // source shard, not one entry per parallel link.
  auto& bounds = inbound_[static_cast<size_t>(dst_idx)];
  bool merged = false;
  for (InboundBound& b : bounds) {
    if (b.src == src_idx) {
      b.lookahead = std::min(b.lookahead, lookahead);
      merged = true;
      break;
    }
  }
  if (!merged) {
    bounds.push_back(InboundBound{src_idx, lookahead});
  }
  return channels_.back().get();
}

TimeNs ShardGroup::SnapshotNextEvents() {
  TimeNs n = kTimeNever;
  for (size_t i = 0; i < shards_.size(); ++i) {
    next_times_[i] = shards_[i]->NextEventTime();
    n = std::min(n, next_times_[i]);
  }
  return n;
}

void ShardGroup::PlanWindow(TimeNs limit, bool inclusive) {
  // Per-channel lookahead: nothing can reach shard d over channel c before
  // next_event(source(c)) + lookahead(c). But "next_event(source)" is not
  // the source's own queue alone — the source may be woken THIS window by a
  // train from a third shard and emit earlier than its snapshot suggests.
  // So first relax the snapshot to a fixpoint: effective[i] is the earliest
  // instant shard i could execute ANY event this window, whether already
  // queued or still in flight from a neighbour. Lookaheads are strictly
  // positive and the values only ever decrease toward the global minimum,
  // so the relaxation terminates (in ≤ diameter passes in practice).
  effective_ = next_times_;
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t d = 0; d < shards_.size(); ++d) {
      for (const InboundBound& b : inbound_[d]) {
        const TimeNs via =
            SaturatingAdd(effective_[static_cast<size_t>(b.src)], b.lookahead);
        if (via < effective_[d]) {
          effective_[d] = via;
          changed = true;
        }
      }
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A shard whose neighbours (and their transitive feeders) are quiet
    // still runs straight to the sync point regardless of how small some
    // distant pair's lookahead is — idle chains relax to kTimeNever.
    TimeNs horizon = kTimeNever;
    for (const InboundBound& b : inbound_[i]) {
      horizon = std::min(horizon,
                         SaturatingAdd(effective_[static_cast<size_t>(b.src)], b.lookahead));
    }
    WindowMode mode = WindowMode::kSkip;
    TimeNs target;
    if (inclusive && horizon > limit) {
      // End-of-run window bound by the cap, not a channel: events at the
      // limit itself are safe to run (anything they emit lands strictly
      // later than limit).
      target = limit;
      if (next_times_[i] <= limit) {
        mode = WindowMode::kInclusive;
      }
    } else {
      target = std::min(horizon, limit);
      if (next_times_[i] < target) {
        mode = WindowMode::kExclusive;
      }
    }
    horizons_[i] = target;
    modes_[i] = mode;
  }
}

void ShardGroup::AdvanceShards(TimeNs limit, bool inclusive) {
  for (;;) {
    const TimeNs n = SnapshotNextEvents();
    if (n > limit || (!inclusive && n == limit)) {
      break;
    }
    // Progress is guaranteed: the shard holding the earliest event has a
    // horizon at least min-inbound-lookahead past it (lookaheads are > 0),
    // so that event runs this window.
    PlanWindow(limit, inclusive);
    for (size_t i = 0; i < shards_.size(); ++i) {
      switch (modes_[i]) {
        case WindowMode::kSkip:
          // No event before this shard's horizon: don't even park its clock —
          // the final quiesce below does that once, not per window.
          break;
        case WindowMode::kExclusive:
          shards_[i]->RunUntilBefore(horizons_[i]);
          break;
        case WindowMode::kInclusive:
          shards_[i]->RunUntil(horizons_[i]);
          break;
      }
    }
    ++stats_.windows;
  }
  // Quiesce: no shard holds an event before (at, when inclusive) `limit`;
  // park every clock exactly there so code running at the sync point reads
  // coherent clocks.
  for (const auto& shard : shards_) {
    if (inclusive) {
      shard->RunUntil(limit);
    } else {
      shard->RunUntilBefore(limit);
    }
  }
}

void ShardGroup::RunControlBatch(TimeNs t) {
  // Quiesce the shards AT the batch's timestamp, then run every control
  // event at or before it under that single quiesce. Control code observes
  // — and may mutate — exactly the state the unsharded schedule would have
  // produced.
  AdvanceShards(t, /*inclusive=*/false);
  control_->RunUntil(t);
  ++stats_.sync_points;
}

void ShardGroup::RunUntil(TimeNs t) {
  // Control events are global sync points, batched per distinct timestamp:
  // a burst of same-instant arrivals or a monitor tick plus a metrics tick
  // costs ONE quiesce.
  for (;;) {
    const TimeNs t_control = control_->NextEventTime();
    if (t_control > t) {
      break;
    }
    RunControlBatch(t_control);
  }
  // No control events remain at or before `t`: finish shard events through
  // `t` (inclusive, matching Simulator::RunUntil) and park the clocks.
  AdvanceShards(t, /*inclusive=*/true);
  control_->RunUntil(t);
}

}  // namespace pegasus::sim
