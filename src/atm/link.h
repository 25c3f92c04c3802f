// Point-to-point ATM link model.
//
// A Link is unidirectional: cells handed to SendCell are serialised at the
// link rate, experience the propagation delay, and are delivered to the
// attached sink. The link keeps a bounded transmit queue and TAIL-DROPS:
// a cell arriving to a full queue is dropped regardless of its cell-loss
// priority bit (priority-aware discard would be a switch policy; the link
// itself is a dumb pipe). Drops are counted per priority class so an
// observer can weight the loss of reserved-class cells above best-effort
// ones when deriving congestion severity.
//
// Cell trains: back-to-back cells queued while the transmitter is busy are
// coalesced into a train and handed to the sink as ONE DeliverBurst — one
// scheduled event per train instead of two per cell. A train is CUT at
// serialisation completion: the event fires when the next end-of-frame cell
// (or the kMaxTrainCells-th cell of a raw stream) clears the transmitter,
// groups whatever has serialised by then, and the wire then adds pure
// propagation delay on top. A frame's completion instant — the latency
// media code can observe — is identical to the per-cell path; only interior
// cells move (to their frame's end). Cutting at serialisation completion
// rather than completion-plus-propagation matters for determinism: a shard
// boundary link's event cannot wait out the propagation delay (that delay
// IS its conservative lookahead), so the cut must never depend on cells
// sent during the propagation window. Admission (per-cell tail-drop), the
// split drop counters, cells_sent, busy_time and the queue-occupancy view
// are bit-identical to the per-cell path.
//
// Both of a link's event streams are monotone, so both run as engine lanes
// (sim::Simulator::PushLane) rather than closures: serialisation
// completions on the link's own simulator, and wire deliveries — each
// `now + propagation_delay`, the train's cell count the lane entry's only
// argument — on the simulator the sink runs on. A boundary link differs
// only in where the wire lane lives: on the sink's shard, after its
// BoundaryChannel has checked the lookahead. The link holds two 4-byte
// lane ids and allocates nothing until it first carries a cell.
//
// One FIFO holds every accepted, undelivered cell in send order, and each
// cell is copied into it once. Its first wire_ cells are cut trains on the
// wire; a wire is a pure delay, so trains leave it in the order they
// entered, and each wire delivery hands the front `count` cells to the
// sink and pops them. The rest are the current, uncut train; a cut only
// moves the boundary. The uncut cells are always back-to-back, the last
// completing at tx_free_at_: a cell that joins a non-empty uncut train
// arrives before the train's last cell completes (a cut is pending and
// fires no later than that, or a zero-delay sink sends from inside a cut,
// whose remaining cells complete later), so it starts when its
// predecessor finishes. Cell i of n uncut cells therefore completes at
// tx_free_at_ - (n-1-i) * cell_time_, and no cell carries a completion
// stamp. A cut fires at its target's completion and takes exactly the
// cells up to the target, since the ones after it complete later, so its
// size is known when it is armed. A sink may send on the link delivering
// to it: the FIFO keeps the delivered span valid while it grows.
//
// Activity log: every field Stats() reports that a monitor diffs
// (cells_sent, both drop counters, busy_time) changes only inside the
// per-cell body of SendCell, and queued_cells can only GROW there; between
// sends the queue only drains. So a link whose SendCell/SendBurst has not
// run since an observer's last look still shows that look's counters. A
// link registered with a Network appends its id to the network's activity
// log on the first such call after each drain (Network::DrainActiveLinks),
// before the tail-drop test because drops count too, and once per call, not
// per cell. A free-standing link logs nothing.
#ifndef PEGASUS_SRC_ATM_LINK_H_
#define PEGASUS_SRC_ATM_LINK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/atm/cell.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard.h"
#include "src/sim/time.h"

namespace pegasus::atm {

// Anything that can accept a cell: a switch input port, a device, a NIC.
class CellSink {
 public:
  virtual ~CellSink() = default;
  virtual void DeliverCell(const Cell& cell) = 0;
  // A train of back-to-back cells that completed the link together, in send
  // order. Sinks that can exploit batching (a switch fabric, a NIC ring)
  // override this; the default preserves per-cell semantics.
  virtual void DeliverBurst(const Cell* cells, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      DeliverCell(cells[i]);
    }
  }
};

// A FIFO in one contiguous buffer that is reused across trains: elements
// are appended at the back and consumed from the front in runs, and each
// run is contiguous. The consumed prefix is compacted away once it
// outweighs the rest, so each element moves O(1) times amortised and the
// buffer stays within about twice its peak occupancy: a permanently
// backlogged link holds O(queue_limit) cells, not an ever-growing history.
//
// The span front() returns stays valid until the next front() or
// pop_front(), even if push_back outgrows the buffer meanwhile: growth
// keeps the buffer it replaces until the next front(). So a consumer may
// hand the span to code that appends to the same FIFO, as a link's sink
// may send on that link while a train is being delivered to it.
template <typename T>
class Fifo {
  static_assert(std::is_trivially_copyable_v<T>, "compaction moves elements bytewise");

 public:
  size_t size() const { return tail_ - head_; }
  // The i-th oldest element.
  const T& operator[](size_t i) const { return buf_[head_ + i]; }
  // The oldest element; the rest follow it contiguously.
  const T* front() {
    retired_.reset();
    return buf_.get() + head_;
  }
  T& back() { return buf_[tail_ - 1]; }
  void push_back(const T& value) {
    if (tail_ == cap_) {
      Grow();
    }
    buf_[tail_++] = value;
  }
  void pop_front(size_t count) {
    head_ += static_cast<uint32_t>(count);
    if (head_ == tail_) {
      head_ = 0;
      tail_ = 0;
    } else if (head_ * 2 >= tail_) {
      std::memmove(buf_.get(), buf_.get() + head_, (tail_ - head_) * sizeof(T));
      tail_ -= head_;
      head_ = 0;
    }
  }

 private:
  // Moves the elements into a buffer twice their number (at least 16). The
  // buffer current at the last front() is kept in retired_; a later one
  // was never handed out and is freed at once.
  void Grow() {
    const uint32_t live = tail_ - head_;
    const uint32_t cap = std::max<uint32_t>(16, 2 * live);
    std::unique_ptr<T[]> grown(new T[cap]);
    std::copy(buf_.get() + head_, buf_.get() + tail_, grown.get());
    if (retired_ == nullptr) {
      retired_ = std::move(buf_);
    }
    buf_ = std::move(grown);
    head_ = 0;
    tail_ = live;
    cap_ = cap;
  }

  std::unique_ptr<T[]> buf_;
  std::unique_ptr<T[]> retired_;
  uint32_t head_ = 0;
  uint32_t tail_ = 0;
  uint32_t cap_ = 0;
};

class Link {
 public:
  // `queue_limit` is the maximum number of cells waiting for serialisation;
  // a cell being transmitted does not count against the limit.
  Link(sim::Simulator* sim, std::string name, int64_t bits_per_second,
       sim::DurationNs propagation_delay, size_t queue_limit = 1024);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_sink(CellSink* sink) { sink_ = sink; }
  CellSink* sink() const { return sink_; }
  // The simulator serialising this link's cells: the SOURCE side's shard.
  sim::Simulator* simulator() const { return sim_; }

  // Marks this link as a shard boundary (src/sim/shard.h): the sink lives
  // on another shard's simulator. Trains are cut at serialisation
  // completion either way, and each train's delivery is the same wire-lane
  // event due at `now + propagation_delay`; a boundary link pushes it
  // through `channel` onto the sink's shard instead of its own simulator.
  // The propagation delay serves as the conservative lookahead window.
  // Must be called before the link carries its first train.
  void SetBoundary(sim::BoundaryChannel* channel) { boundary_ = channel; }
  bool is_boundary() const { return boundary_ != nullptr; }

  // Enqueues a cell for transmission. Returns false (and counts a drop) if
  // the transmit queue is full.
  bool SendCell(const Cell& cell);

  // Offers a whole train of cells; equivalent to calling SendCell on each
  // (admission and tail-drop stay per-cell) but schedules at most one
  // delivery event. Returns the number of cells accepted.
  size_t SendBurst(const Cell* cells, size_t count);

  const std::string& name() const { return name_; }
  // Dense id assigned by the owning Network (its index in links()); -1 when
  // the link is free-standing. Admission bookkeeping indexes flat arrays by
  // it instead of hashing the pointer.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }
  // Arms the activity log (see the class comment): the next send appends
  // id() to `log` and disarms it. The owning Network arms its links at
  // registration and re-arms each one its drain takes.
  void set_activity_log(std::vector<int>* log) { activity_log_ = log; }
  int64_t bits_per_second() const { return bps_; }
  sim::DurationNs propagation_delay() const { return prop_delay_; }
  // Serialisation time of one 53-octet cell on this link.
  sim::DurationNs cell_time() const { return cell_time_; }

  uint64_t cells_sent() const { return cells_sent_; }
  uint64_t cells_dropped() const { return cells_dropped_high_ + cells_dropped_low_; }
  // Tail-drops split by the dropped cell's loss-priority bit.
  uint64_t cells_dropped_high() const { return cells_dropped_high_; }
  uint64_t cells_dropped_low() const { return cells_dropped_low_; }
  int64_t bytes_sent() const { return static_cast<int64_t>(cells_sent_) * kCellSize; }
  // Fraction of wall-clock time the transmitter has been busy, in [0, 1].
  double utilization() const;
  // Cells accepted but not yet clear of the transmitter. The transmitter
  // drains deterministically (one cell per cell_time until tx_free_at_), so
  // occupancy is computed from the busy horizon instead of counted per
  // delivery event — same trajectory, no bookkeeping on the hot path.
  size_t queued_cells() const;
  size_t queue_limit() const { return queue_limit_; }
  // Cumulative time the transmitter has spent busy since construction: one
  // cell time per cell sent.
  sim::DurationNs busy_time() const {
    return static_cast<sim::DurationNs>(cells_sent_) * cell_time_;
  }

  // Cheap copyable snapshot of the link's cumulative counters plus the
  // instantaneous queue state — a monitor diffs two snapshots to get the
  // per-interval drop/throughput deltas and interval utilisation.
  struct StatsSnapshot {
    uint64_t cells_sent = 0;
    uint64_t cells_dropped_high = 0;
    uint64_t cells_dropped_low = 0;
    size_t queued_cells = 0;
    size_t queue_limit = 0;
    sim::DurationNs busy_time = 0;
  };
  StatsSnapshot Stats() const {
    return StatsSnapshot{cells_sent_,    cells_dropped_high_, cells_dropped_low_,
                         queued_cells(), queue_limit_,        busy_time()};
  }

 private:
  // Ceiling on how many cells one delivery event may defer when a stream
  // never marks end-of-frame (raw floods): bounds the added latency of an
  // interior cell to kMaxTrainCells serialisation times.
  static constexpr size_t kMaxTrainCells = 128;

  // Number of accepted cells whose serialisation completes after `now`.
  size_t QueuedAt(sim::TimeNs now) const;
  // Appends id() to the armed activity log and disarms it.
  void MarkActive() {
    if (activity_log_ != nullptr) {
      activity_log_->push_back(id_);
      activity_log_ = nullptr;
    }
  }
  // The per-cell body of SendCell: tail-drop test, transmitter reservation,
  // train append. Callers have already marked the link active.
  bool Enqueue(const Cell& cell);
  // Arms the next cut: at the first uncut end-of-frame cell's completion,
  // or the kMaxTrainCells-th uncut cell's, whichever is earlier.
  void ArmDelivery();
  // The armed cut: moves its cells onto the wire.
  void DeliverReady();
  // Hands the `count` oldest cells, all on the wire, to the sink and drops
  // them.
  void DeliverFront(size_t count);
  // Lane callbacks (sim::Simulator::LaneFn); `ctx` is the Link.
  static void OnSerialised(void* ctx, uint32_t, uint32_t);
  static void OnPropagated(void* ctx, uint32_t count, uint32_t);

  sim::Simulator* sim_;
  std::string name_;
  int id_ = -1;
  // Serialisation completions, on sim_ (see ArmDelivery).
  sim::Simulator::LaneId serialise_lane_ = sim::Simulator::kNoLane;
  int64_t bps_;
  sim::DurationNs prop_delay_;
  sim::DurationNs cell_time_;
  size_t queue_limit_;
  // A cell arriving while the transmitter is reserved more than this far
  // ahead finds queue_limit_ cells waiting and is dropped (see Enqueue).
  sim::DurationNs drop_backlog_;
  CellSink* sink_ = nullptr;
  sim::BoundaryChannel* boundary_ = nullptr;

  // The transmitter is modelled by a "busy until" horizon rather than an
  // explicit queue: each accepted cell reserves the next cell_time_ slot.
  sim::TimeNs tx_free_at_ = 0;
  uint64_t cells_sent_ = 0;
  uint64_t cells_dropped_high_ = 0;
  uint64_t cells_dropped_low_ = 0;

  // Accepted, undelivered cells in send order: wire_ cut cells on the wire,
  // then the uncut train (see the class comment).
  Fifo<Cell> cells_;
  uint32_t wire_ = 0;
  // Cells the pending cut takes; zero while none is armed.
  uint32_t cut_ = 0;
  // The owning Network's activity log while armed, null once this link is
  // logged until the next drain, and always null for a free-standing link.
  std::vector<int>* activity_log_ = nullptr;
  // Wire deliveries, on the sink's simulator (sim_, or the destination
  // shard's for a boundary link).
  sim::Simulator::LaneId wire_lane_ = sim::Simulator::kNoLane;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_LINK_H_
