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
  size_t accepted = 0;
  for (size_t i = 0; i < count; ++i) {
    accepted += SendCell(cells[i]) ? 1 : 0;
  }
  return accepted;
}

void Link::ArmDelivery() {
  // The train is cut at the first end-of-frame cell so frame completion
  // instants match the per-cell path exactly; frameless streams batch up to
  // kMaxTrainCells per event.
  const size_t last = std::min(train_.size(), train_head_ + kMaxTrainCells) - 1;
  size_t target = last;
  for (size_t i = train_head_; i < last; ++i) {
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
  // pure delay, applied after the cut in DeliverReady.
  sim_->ScheduleAt(train_[target].done, [this]() { DeliverReady(); });
}

void Link::DeliverReady() {
  delivery_pending_ = false;
  const sim::TimeNs now = sim_->now();
  size_t end = train_head_;
  while (end < train_.size() && train_[end].done <= now) {
    ++end;
  }
  const size_t count = end - train_head_;
  if (count > 0) {
    burst_buf_.clear();
    burst_buf_.reserve(count);
    for (size_t i = train_head_; i < end; ++i) {
      burst_buf_.push_back(train_[i].cell);
    }
    train_head_ = end;
    if (train_head_ == train_.size()) {
      train_.clear();
      train_head_ = 0;
    } else if (train_head_ * 2 >= train_.size()) {
      // Compact once the delivered prefix outweighs the remainder: each
      // erase moves at most as many cells as were just delivered, so the
      // cost is amortised O(1) per cell and a permanently backlogged link
      // holds O(queue_limit) memory instead of growing without bound.
      train_.erase(train_.begin(), train_.begin() + static_cast<ptrdiff_t>(train_head_));
      train_head_ = 0;
    }
    if (sink_ != nullptr && prop_delay_ == 0) {
      // Never a boundary link: its propagation delay is its lookahead, and
      // RegisterBoundary refuses a zero lookahead.
      if (count == 1) {
        sink_->DeliverCell(burst_buf_[0]);
      } else {
        sink_->DeliverBurst(burst_buf_.data(), count);
      }
    } else if (sink_ != nullptr) {
      // The cut is made at serialisation completion; the wire adds pure
      // delay. The train is moved into the event so later cuts (which
      // rebuild burst_buf_) cannot clobber an in-flight delivery. A boundary
      // link schedules the same event on the sink's shard.
      sim::Simulator::Handler deliver = [sink = sink_, flight = std::move(burst_buf_)]() {
        if (flight.size() == 1) {
          sink->DeliverCell(flight[0]);
        } else {
          sink->DeliverBurst(flight.data(), flight.size());
        }
      };
      if (boundary_ != nullptr) {
        boundary_->Post(now + prop_delay_, std::move(deliver));
      } else {
        sim_->ScheduleAt(now + prop_delay_, std::move(deliver));
      }
    }
  }
  // Whatever is still undelivered (queued after the event was armed, or
  // enqueued re-entrantly by the sink — which then armed its own event)
  // gets the next event.
  if (train_head_ < train_.size() && !delivery_pending_) {
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
