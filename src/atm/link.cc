#include "src/atm/link.h"

#include <algorithm>
#include <utility>

namespace pegasus::atm {

Link::Link(sim::Simulator* sim, std::string name, int64_t bits_per_second,
           sim::DurationNs propagation_delay, size_t queue_limit)
    : sim_(sim),
      name_(std::move(name)),
      bps_(bits_per_second),
      prop_delay_(propagation_delay),
      cell_time_(sim::TransmissionTime(kCellSize, bits_per_second)),
      queue_limit_(queue_limit) {}

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
  if (QueuedAt(now) >= queue_limit_) {
    // Tail-drop: the ARRIVING cell is lost, whatever its priority bit says
    // (see the class comment); the split counters record which class lost.
    ++(cell.low_priority ? cells_dropped_low_ : cells_dropped_high_);
    return false;
  }
  const sim::TimeNs start = std::max(now, tx_free_at_);
  const sim::TimeNs done = start + cell_time_;
  tx_free_at_ = done;
  busy_time_ += cell_time_;
  ++cells_sent_;
  train_.push_back(PendingCell{cell, done});
  // Cells appended while a delivery event is pending ride that train; the
  // event re-arms itself for whatever it finds undelivered.
  if (!delivery_pending_) {
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
  const size_t last = std::min(train_.size(), kMaxTrainCells) - 1;
  size_t target = last;
  for (size_t i = 0; i < last; ++i) {
    if (train_[i].cell.end_of_frame) {
      target = i;
      break;
    }
  }
  delivery_pending_ = true;
  // The event fires at serialisation completion for EVERY link — boundary or
  // not. Grouping decisions must only depend on what the transmitter has
  // actually serialised, never on cells that happen to be sent during the
  // propagation window; otherwise a boundary link (whose event cannot wait
  // out the propagation delay without forfeiting its lookahead) would cut
  // trains differently from the single-simulator path. The wire itself is
  // pure delay, applied after the cut in DeliverReady. At most one
  // completion is pending and each is due after the last, so the lane's
  // times never decrease.
  sim_->PushLane(&serialise_lane_, train_[target].done, &Link::OnSerialised, this);
}

void Link::OnSerialised(void* ctx, uint32_t, uint32_t) {
  static_cast<Link*>(ctx)->DeliverReady();
}

void Link::OnPropagated(void* ctx, uint32_t count, uint32_t) {
  static_cast<Link*>(ctx)->DeliverFront(count);
}

void Link::DeliverFront(size_t count) {
  const Cell* cells = burst_buf_.front();
  if (count == 1) {
    sink_->DeliverCell(cells[0]);
  } else {
    sink_->DeliverBurst(cells, count);
  }
  burst_buf_.pop_front(count);
}

void Link::DeliverReady() {
  delivery_pending_ = false;
  const sim::TimeNs now = sim_->now();
  size_t count = 0;
  while (count < train_.size() && train_[count].done <= now) {
    ++count;
  }
  if (count > 0 && sink_ == nullptr) {
    train_.pop_front(count);  // no sink: the cut train is discarded
  } else if (count > 0) {
    for (size_t i = 0; i < count; ++i) {
      burst_buf_.push_back(train_[i].cell);
    }
    train_.pop_front(count);
    if (prop_delay_ == 0) {
      // Never a boundary link: its propagation delay is its lookahead, and
      // RegisterBoundary refuses a zero lookahead.
      DeliverFront(count);
    } else {
      // The cut is made at serialisation completion; the wire adds pure
      // delay, so its deliveries leave in FIFO order on one lane. A
      // boundary link's lane lives on the sink's shard.
      const sim::TimeNs arrive = now + prop_delay_;
      sim::Simulator* wire = boundary_ != nullptr ? boundary_->Emit(arrive) : sim_;
      wire->PushLane(&wire_lane_, arrive, &Link::OnPropagated, this,
                     static_cast<uint32_t>(count));
    }
  }
  // Whatever is still undelivered (queued after the event was armed, or
  // enqueued re-entrantly by the sink — which then armed its own event)
  // gets the next event.
  if (train_.size() > 0 && !delivery_pending_) {
    ArmDelivery();
  }
}

double Link::utilization() const {
  const sim::TimeNs now = sim_->now();
  if (now <= 0) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(busy_time_) / static_cast<double>(now));
}

}  // namespace pegasus::atm
