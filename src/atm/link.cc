#include "src/atm/link.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace pegasus::atm {

namespace {

// QueuedAt(now) >= limit exactly when tx_free_at_ - now exceeds this: for
// limit >= 1, ceil(d / cell_time) >= limit iff d > (limit - 1) * cell_time,
// and a zero limit drops every cell.
sim::DurationNs DropBacklog(size_t queue_limit, sim::DurationNs cell_time) {
  constexpr sim::DurationNs kMax = std::numeric_limits<sim::DurationNs>::max();
  if (queue_limit == 0) {
    return std::numeric_limits<sim::DurationNs>::min();
  }
  if (queue_limit - 1 > static_cast<size_t>(kMax / cell_time)) {
    return kMax;
  }
  return static_cast<sim::DurationNs>(queue_limit - 1) * cell_time;
}

}  // namespace

Link::Link(sim::Simulator* sim, std::string name, int64_t bits_per_second,
           sim::DurationNs propagation_delay, size_t queue_limit)
    : sim_(sim),
      name_(std::move(name)),
      bps_(bits_per_second),
      prop_delay_(propagation_delay),
      cell_time_(sim::TransmissionTime(kCellSize, bits_per_second)),
      queue_limit_(queue_limit),
      drop_backlog_(DropBacklog(queue_limit, cell_time_)) {}

size_t Link::QueuedAt(sim::TimeNs now) const {
  if (tx_free_at_ <= now) {
    return 0;
  }
  return static_cast<size_t>((tx_free_at_ - now + cell_time_ - 1) / cell_time_);
}

size_t Link::queued_cells() const { return QueuedAt(sim_->now()); }

bool Link::SendCell(const Cell& cell) {
  MarkActive();
  return Enqueue(cell);
}

bool Link::Enqueue(const Cell& cell) {
  const sim::TimeNs now = sim_->now();
  // QueuedAt(now) >= queue_limit_, without its division (see DropBacklog).
  if (tx_free_at_ - now > drop_backlog_) {
    // Tail-drop: the ARRIVING cell is lost, whatever its priority bit says
    // (see the class comment); the split counters record which class lost.
    ++(cell.low_priority ? cells_dropped_low_ : cells_dropped_high_);
    return false;
  }
  tx_free_at_ = std::max(now, tx_free_at_) + cell_time_;
  ++cells_sent_;
  cells_.push_back(cell);
  // Cells appended while a cut is pending ride that train; the cut re-arms
  // for whatever it leaves uncut.
  if (cut_ == 0) {
    ArmDelivery();
  }
  return true;
}

size_t Link::SendBurst(const Cell* cells, size_t count) {
  MarkActive();
  size_t accepted = 0;
  for (size_t i = 0; i < count; ++i) {
    accepted += Enqueue(cells[i]) ? 1 : 0;
  }
  return accepted;
}

void Link::ArmDelivery() {
  // The train is cut at the first end-of-frame cell so frame completion
  // instants match the per-cell path exactly; frameless streams batch up to
  // kMaxTrainCells per event.
  const size_t uncut = cells_.size() - wire_;
  const size_t last = std::min(uncut, kMaxTrainCells) - 1;
  size_t target = last;
  for (size_t i = 0; i < last; ++i) {
    if (cells_[wire_ + i].end_of_frame) {
      target = i;
      break;
    }
  }
  cut_ = static_cast<uint32_t>(target + 1);
  // The uncut cells are back-to-back up to tx_free_at_ (see the class
  // comment), so the target completes uncut - cut_ cell times before it.
  const sim::TimeNs done =
      tx_free_at_ - static_cast<sim::DurationNs>(uncut - cut_) * cell_time_;
  // The event fires at serialisation completion for EVERY link — boundary or
  // not. Grouping decisions must only depend on what the transmitter has
  // actually serialised, never on cells that happen to be sent during the
  // propagation window; otherwise a boundary link (whose event cannot wait
  // out the propagation delay without forfeiting its lookahead) would cut
  // trains differently from the single-simulator path. The wire itself is
  // pure delay, applied after the cut in DeliverReady. At most one
  // completion is pending and each is due after the last, so the lane's
  // times never decrease.
  sim_->PushLane(&serialise_lane_, done, &Link::OnSerialised, this);
}

void Link::OnSerialised(void* ctx, uint32_t, uint32_t) {
  static_cast<Link*>(ctx)->DeliverReady();
}

void Link::OnPropagated(void* ctx, uint32_t count, uint32_t) {
  static_cast<Link*>(ctx)->DeliverFront(count);
}

void Link::DeliverFront(size_t count) {
  const Cell* cells = cells_.front();
  if (count == 1) {
    sink_->DeliverCell(cells[0]);
  } else {
    sink_->DeliverBurst(cells, count);
  }
  cells_.pop_front(count);
  wire_ -= static_cast<uint32_t>(count);
}

void Link::DeliverReady() {
  const uint32_t count = cut_;
  cut_ = 0;
  if (sink_ == nullptr) {
    // No sink has ever been attached, so nothing is on the wire and the
    // cut train is the front of the FIFO: it is discarded.
    cells_.pop_front(count);
  } else {
    wire_ += count;
    if (prop_delay_ == 0) {
      // Never a boundary link: its propagation delay is its lookahead, and
      // RegisterBoundary refuses a zero lookahead. The cut is the whole
      // wire, and the sink may send on this link while it runs.
      DeliverFront(count);
    } else {
      // The cut is made at serialisation completion; the wire adds pure
      // delay, so its deliveries leave in FIFO order on one lane. A
      // boundary link's lane lives on the sink's shard.
      const sim::TimeNs arrive = sim_->now() + prop_delay_;
      sim::Simulator* wire = boundary_ != nullptr ? boundary_->Emit(arrive) : sim_;
      wire->PushLane(&wire_lane_, arrive, &Link::OnPropagated, this, count);
    }
  }
  // Whatever is still uncut (queued after the cut was armed, or sent by a
  // zero-delay sink, which then armed its own cut) gets the next cut.
  if (cells_.size() > wire_ && cut_ == 0) {
    ArmDelivery();
  }
}

double Link::utilization() const {
  const sim::TimeNs now = sim_->now();
  if (now <= 0) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(busy_time()) / static_cast<double>(now));
}

}  // namespace pegasus::atm
