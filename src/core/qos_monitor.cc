#include "src/core/qos_monitor.h"

#include <algorithm>
#include <cmath>

namespace pegasus::core {

namespace {

void SetBit(std::vector<uint64_t>& bits, size_t i) { bits[i / 64] |= uint64_t{1} << (i % 64); }

}  // namespace

QosMonitor::QosMonitor(sim::Simulator* sim, atm::Network* network, Config config)
    : network_(network),
      config_(config),
      task_(sim, config.period, [this]() { Tick(); }) {}

QosMonitor::QosMonitor(sim::Simulator* sim, atm::Network* network)
    : QosMonitor(sim, network, Config()) {}

void QosMonitor::AddFileServer(pfs::PegasusFileServer* server) {
  if (std::find(servers_.begin(), servers_.end(), server) != servers_.end()) {
    return;
  }
  // The recorder excludes sub-tolerance jitter from windowed miss counts.
  server->stream_quality().set_miss_tolerance(config_.lateness_tolerance);
  servers_.push_back(server);
}

void QosMonitor::Start() {
  if (!task_.running()) {
    // A restart must not score the whole stopped stretch as one interval:
    // drops and lateness accumulated while nobody watched are history, not
    // current pressure.
    Reprime();
  }
  task_.Start();
}

void QosMonitor::Stop() { task_.Stop(); }

void QosMonitor::Reprime() {
  for (size_t id = 0; id < link_states_.size(); ++id) {
    link_states_[id].primed = false;
    SetBit(carry_, id);
  }
  for (auto& [server, state] : disk_states_) {
    (void)server;
    state.primed = false;
  }
}

double QosMonitor::link_score(const atm::Link* link) const {
  const int id = link->id();
  if (id < 0 || static_cast<size_t>(id) >= link_states_.size()) {
    return 0.0;
  }
  return link_states_[static_cast<size_t>(id)].score;
}

double QosMonitor::link_severity(const atm::Link* link) const {
  const int id = link->id();
  if (id < 0 || static_cast<size_t>(id) >= link_states_.size()) {
    return 0.0;
  }
  return link_states_[static_cast<size_t>(id)].signalled;
}

double QosMonitor::disk_fraction(const pfs::PegasusFileServer* server) const {
  auto it = disk_states_.find(server);
  return it == disk_states_.end() ? 1.0 : it->second.signalled_fraction;
}

double QosMonitor::LinkRawScore(const atm::Link::StatsSnapshot& prev,
                                const atm::Link::StatsSnapshot& cur) const {
  // Drops destroy deliverable capacity outright: the weighted fraction of
  // this interval's offered cells that the link tail-dropped is severity in
  // the SignalCongestion sense ("the fraction of deliverable capacity that
  // is gone").
  const double sent = static_cast<double>(cur.cells_sent - prev.cells_sent);
  const double drops_high =
      static_cast<double>(cur.cells_dropped_high - prev.cells_dropped_high);
  const double drops_low =
      static_cast<double>(cur.cells_dropped_low - prev.cells_dropped_low);
  const double weighted_drops =
      drops_high * config_.high_drop_weight + drops_low * config_.low_drop_weight;
  double drop_score = 0.0;
  if (weighted_drops > 0.0) {
    drop_score = weighted_drops / (sent + weighted_drops);
  }
  // A standing transmit queue is the early warning: cells are delayed but
  // still delivered, so its contribution ramps from occupancy_floor and is
  // capped below what real loss can reach. It only counts when the
  // interval utilisation confirms a saturated transmitter.
  double occupancy_score = 0.0;
  const double interval_util =
      config_.period > 0
          ? static_cast<double>(cur.busy_time - prev.busy_time) /
                static_cast<double>(config_.period)
          : 0.0;
  if (cur.queue_limit > 0 && interval_util >= config_.utilization_floor) {
    const double occ =
        static_cast<double>(cur.queued_cells) / static_cast<double>(cur.queue_limit);
    if (occ > config_.occupancy_floor && config_.occupancy_floor < 1.0) {
      occupancy_score = config_.occupancy_cap * (occ - config_.occupancy_floor) /
                        (1.0 - config_.occupancy_floor);
    }
  }
  return std::clamp(std::max(drop_score, occupancy_score), 0.0, 1.0);
}

void QosMonitor::DrainActivity(int after) {
  network_->DrainActiveLinks(&drained_);
  for (int id : drained_) {
    // A link registered since this tick began is primed as new next tick.
    if (static_cast<size_t>(id) < link_states_.size()) {
      SetBit(id > after ? visit_ : carry_, static_cast<size_t>(id));
    }
  }
}

void QosMonitor::Announce(const atm::Link* link, double severity) {
  network_->SignalCongestion(link, severity);
  DrainActivity(link->id());
}

void QosMonitor::TickLink(atm::Link* l, LinkState& state) {
  // Quiescent fast path: a primed link with no smoothed score, no standing
  // signal, untouched counters and an empty queue cannot change any state
  // this tick (raw score is 0, the EWMA stays 0, and below_off_ticks /
  // ticks_since_change are only read while signalling and reset when a
  // signal raises). A link in this state that does not send again is not
  // carried, so it is not visited again until the activity log names it.
  if (state.primed && state.score == 0.0 && state.signalled == 0.0 &&
      l->cells_sent() == state.prev.cells_sent &&
      l->cells_dropped_high() == state.prev.cells_dropped_high &&
      l->cells_dropped_low() == state.prev.cells_dropped_low &&
      l->busy_time() == state.prev.busy_time && l->queued_cells() == 0) {
    return;
  }
  const atm::Link::StatsSnapshot cur = l->Stats();
  if (!state.primed) {
    state.prev = cur;
    state.primed = true;
    return;
  }
  const double raw = LinkRawScore(state.prev, cur);
  state.prev = cur;
  state.score += config_.smoothing * (raw - state.score);
  ++state.ticks_since_change;
  state.below_off_ticks =
      state.score <= config_.off_threshold ? state.below_off_ticks + 1 : 0;

  if (state.signalled == 0.0) {
    if (state.score >= config_.on_threshold) {
      const double severity = std::min(state.score, config_.max_severity);
      state.signalled = severity;
      state.ticks_since_change = 0;
      ++congestion_signals_;
      Announce(l, severity);
    }
  } else if (state.below_off_ticks >= config_.min_hold_ticks) {
    // The queue stayed drained for the whole dwell: announce the
    // all-clear so adapting sessions restore — the recovery half of the
    // loop. (A single quiet tick of an oscillating load is not a drain.)
    state.signalled = 0.0;
    state.ticks_since_change = 0;
    ++congestion_recoveries_;
    Announce(l, 0.0);
  } else if (std::abs(state.score - state.signalled) >= config_.severity_step &&
             state.ticks_since_change >= config_.min_hold_ticks) {
    // Escalate or relax only on a real, settled move; oscillations of
    // the smoothed score around the announced severity stay silent. A
    // relax never announces below on_threshold: sub-band severities are
    // the dwell-clear's business (announcing them would strand the
    // session a hair under nominal once the clear lands), but a score
    // that settles INSIDE the band must still be able to walk a stale
    // deep cut back down to the band's edge.
    const double severity =
        std::clamp(state.score, config_.on_threshold, config_.max_severity);
    state.signalled = severity;
    state.ticks_since_change = 0;
    ++congestion_signals_;
    Announce(l, severity);
  }
}

void QosMonitor::Tick() {
  // --- links: visit the logged and carried ones in ascending id ---
  const auto& links = network_->links();
  if (link_states_.size() < links.size()) {
    // Links registered since the last tick start unprimed and are carried.
    const size_t known = link_states_.size();
    link_states_.resize(links.size());
    carry_.resize((links.size() + 63) / 64);
    visit_.resize(carry_.size());
    for (size_t id = known; id < links.size(); ++id) {
      SetBit(carry_, id);
    }
  }
  // visit_ is all clear after the previous tick, so the swap hands this tick
  // the carried set and starts an empty one for the next. The log is
  // drained before the loop: sends that handlers make during the loop are
  // sorted by Announce.
  visit_.swap(carry_);
  DrainActivity(-1);
  for (size_t w = 0; w < visit_.size(); ++w) {
    // Re-read the word each time round: Announce may add higher ids to it.
    while (visit_[w] != 0) {
      const size_t id = w * 64 + static_cast<size_t>(__builtin_ctzll(visit_[w]));
      visit_[w] &= visit_[w] - 1;
      ++link_visits_;
      atm::Link* l = links[id].get();
      LinkState& state = link_states_[id];
      TickLink(l, state);
      // Carry what can change without a send: a score decays and a signal
      // clears on quiet ticks, and a standing queue fails the fast path.
      if (state.score != 0.0 || state.signalled != 0.0 || l->queued_cells() != 0) {
        SetBit(carry_, id);
      }
    }
  }

  // --- file servers: windowed lateness -> budget pressure ---
  for (pfs::PegasusFileServer* server : servers_) {
    DiskState& state = disk_states_[server];
    const pfs::StreamQualityRecorder::Window window =
        server->stream_quality().TakeWindow();
    if (!state.primed) {
      // The first drain carries everything recorded before monitoring
      // began; stale history is not current pressure.
      state.primed = true;
      continue;
    }
    // Raw score: the fraction of this window's chunks that missed their
    // deadline by more than the jitter tolerance (the recorder's
    // miss_tolerance, set on registration). An idle window (no chunks)
    // scores zero, so pressure decays once play-out stops too.
    double raw = 0.0;
    if (window.chunks > 0) {
      raw = static_cast<double>(window.deadline_misses) /
            static_cast<double>(window.chunks);
    }
    state.score += config_.smoothing * (raw - state.score);
    ++state.ticks_since_change;
    state.below_off_ticks =
        state.score <= config_.disk_off_threshold ? state.below_off_ticks + 1 : 0;

    const bool signalling = state.signalled_fraction < 1.0;
    if (!signalling) {
      if (state.score >= config_.disk_on_threshold) {
        const double fraction =
            std::clamp(1.0 - state.score, config_.min_disk_fraction, 1.0);
        state.signalled_fraction = fraction;
        state.ticks_since_change = 0;
        ++pressure_signals_;
        server->SignalBudgetPressure(fraction);
      }
    } else if (state.below_off_ticks >= config_.min_hold_ticks) {
      state.signalled_fraction = 1.0;
      state.ticks_since_change = 0;
      ++pressure_recoveries_;
      server->SignalBudgetPressure(1.0);
    } else {
      // As for links: a relax stops at the band's edge (1 - on_threshold);
      // going all the way to 1.0 is the dwell-clear's announcement.
      const double fraction = std::clamp(1.0 - state.score, config_.min_disk_fraction,
                                         1.0 - config_.disk_on_threshold);
      if (std::abs(fraction - state.signalled_fraction) >= config_.disk_fraction_step &&
          state.ticks_since_change >= config_.min_hold_ticks) {
        state.signalled_fraction = fraction;
        state.ticks_since_change = 0;
        ++pressure_signals_;
        server->SignalBudgetPressure(fraction);
      }
    }
  }
}

}  // namespace pegasus::core
