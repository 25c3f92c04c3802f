#include "src/atm/endpoint.h"

#include <algorithm>

#include "src/atm/aal5.h"

namespace pegasus::atm {

Endpoint::Endpoint(sim::Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {}

void Endpoint::DeliverCell(const Cell& cell) {
  ++cells_received_;
  if (handler_) {
    handler_(cell);
  }
}

void Endpoint::DeliverBurst(const Cell* cells, size_t count) {
  cells_received_ += count;
  if (burst_handler_) {
    burst_handler_(cells, count);
    return;
  }
  if (handler_) {
    for (size_t i = 0; i < count; ++i) {
      handler_(cells[i]);
    }
  }
}

bool Endpoint::SendCell(Cell cell) {
  if (uplink_ == nullptr) {
    return false;
  }
  ++cells_sent_;
  return uplink_->SendCell(cell);
}

void Endpoint::SendFrame(Vci vci, const std::vector<uint8_t>& sdu, int64_t pace_bps) {
  tx_train_.clear();
  Aal5SegmentInto(vci, sdu.data(), sdu.size(), sim_->now(), next_seq_, &tx_train_);
  next_seq_ += tx_train_.size();
  if (uplink_ == nullptr) {
    // Matches SendCell on a detached endpoint: nothing is counted as sent.
    return;
  }
  if (pace_bps <= 0) {
    cells_sent_ += tx_train_.size();
    uplink_->SendBurst(tx_train_.data(), tx_train_.size());
    return;
  }
  const sim::DurationNs spacing = sim::TransmissionTime(kCellSize, pace_bps);
  Pacer& pacer = pacers_[vci];
  pacer.horizon = std::max(pacer.horizon, sim_->now());
  for (const Cell& c : tx_train_) {
    pacer.pending.push_back(PacedCell{pacer.horizon, c});
    pacer.horizon += spacing;
  }
  // Cells already due (the horizon had fallen behind the clock) leave now;
  // the rest wait for their window's wake.
  DrainPacer(vci, pacer);
  ArmPacer(vci, pacer);
}

void Endpoint::DrainPacer(Vci vci, Pacer& pacer) {
  (void)vci;
  const sim::TimeNs now = sim_->now();
  size_t due = 0;
  while (due < pacer.pending.size() && pacer.pending[due].due <= now) {
    ++due;
  }
  if (due == 0) {
    return;
  }
  // The due prefix leaves as one train (deque storage is not contiguous, so
  // stage it through the tx buffer).
  tx_train_.clear();
  for (size_t i = 0; i < due; ++i) {
    tx_train_.push_back(pacer.pending[i].cell);
  }
  pacer.pending.erase(pacer.pending.begin(), pacer.pending.begin() + static_cast<ptrdiff_t>(due));
  cells_sent_ += tx_train_.size();
  uplink_->SendBurst(tx_train_.data(), tx_train_.size());
}

void Endpoint::ArmPacer(Vci vci, Pacer& pacer) {
  if (pacer.wake_armed || pacer.pending.empty()) {
    return;
  }
  // Wake when the last cell of the next burst window falls due: the whole
  // window is then the due prefix and leaves as one burst. The final
  // (possibly partial) window of a frame therefore wakes at the end-of-frame
  // cell's own per-cell instant.
  const size_t last = std::min(pacer.pending.size(), kPaceBurstCells) - 1;
  pacer.wake_armed = true;
  sim_->ScheduleAt(pacer.pending[last].due, [this, vci]() {
    auto it = pacers_.find(vci);
    if (it == pacers_.end()) {
      return;
    }
    it->second.wake_armed = false;
    DrainPacer(vci, it->second);
    ArmPacer(vci, it->second);
  });
}

Vci Endpoint::AllocateIncomingVci() {
  Vci vci = incoming_vci_hint_;
  while (incoming_vcis_.count(vci) > 0) {
    ++vci;
  }
  incoming_vcis_.insert(vci);
  incoming_vci_hint_ = vci + 1;
  return vci;
}

void Endpoint::ReleaseIncomingVci(Vci vci) {
  incoming_vcis_.erase(vci);
  if (vci >= kVciFirstData && vci < incoming_vci_hint_) {
    incoming_vci_hint_ = vci;
  }
}

}  // namespace pegasus::atm
