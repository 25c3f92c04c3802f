// Closed-loop QoS monitoring (§3.3's feedback loop without an oracle).
//
// The adaptation plane of stream.h reacts to Network::SignalCongestion and
// PegasusFileServer::SignalBudgetPressure — but until now both were explicit
// operator calls. The QosMonitor derives them from what the system actually
// does: a periodic simulated task snapshots links' transmit-queue
// occupancy, per-priority drop deltas and interval utilisation, and every
// file server's windowed play-out lateness, maps the EWMA-smoothed scores
// through thresholds with hysteresis to a severity in [0, 1], and raises the
// very same signals — including the decay-to-zero recovery signal that lets
// AdaptationPolicy sessions restore when queues drain. The explicit-signal
// API stays available (tests and fault injection use it); the monitor is
// just another caller of it.
//
// A tick's cost grows with the links under load, not with the fabric. It
// reads only the links that the network's activity log
// (Network::DrainActiveLinks) says sent since the last tick, plus the links
// it carries because their state can still move without a send. Every
// other link would stop at a full scan's quiescent test, so signals, scores
// and their order are those of a scan over every link.
#ifndef PEGASUS_SRC_CORE_QOS_MONITOR_H_
#define PEGASUS_SRC_CORE_QOS_MONITOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/atm/link.h"
#include "src/atm/network.h"
#include "src/pfs/server.h"
#include "src/sim/periodic_task.h"
#include "src/sim/time.h"

namespace pegasus::core {

class QosMonitor {
 public:
  struct Config {
    // Sampling cadence of the monitor task.
    sim::DurationNs period = sim::Milliseconds(10);
    // EWMA weight of the newest per-tick score, in (0, 1].
    double smoothing = 0.3;

    // --- link congestion mapping ---
    // Weight of a dropped cell by its loss-priority class: losing reserved
    // (high-priority) cells is worse than shedding best-effort ones.
    double high_drop_weight = 1.0;
    double low_drop_weight = 0.5;
    // Queue occupancy below this fraction of the queue limit contributes
    // nothing; above it, the excess ramps linearly up to occupancy_cap.
    double occupancy_floor = 0.5;
    // Severity ceiling of the occupancy term alone: a standing queue delays
    // cells but, unlike drops, does not yet destroy deliverable capacity.
    double occupancy_cap = 0.3;
    // The occupancy term counts only when the interval utilisation
    // (busy-time delta over the tick) shows a saturated transmitter — a
    // standing queue behind an idle transmitter is a sampling artifact.
    double utilization_floor = 0.9;
    // Smoothed score that raises a congestion signal / clears it. The gap
    // between the two is the hysteresis band that prevents signal churn.
    double on_threshold = 0.12;
    double off_threshold = 0.04;
    // While signalling, re-signal only when the smoothed score has moved at
    // least this far from the last severity announced...
    double severity_step = 0.15;
    // ...and no sooner than this many ticks after the previous change, so
    // an oscillating load cannot flap the announced severity every tick.
    // Recovery needs the same dwell: the all-clear is announced only after
    // the score has stayed below off_threshold this many consecutive ticks
    // (restoring a stream just to re-degrade it next tick is churn too).
    // The dwell must outlast the quiet phase of any oscillation the
    // monitor should ride out.
    int64_t min_hold_ticks = 8;
    // Severity is clamped here so a degraded stream never loses its whole
    // reservation to a transient measurement spike.
    double max_severity = 0.9;

    // --- disk budget-pressure mapping ---
    // Deadline misses later than this tolerance count toward the score
    // (sub-tolerance lateness is jitter, not pressure).
    sim::DurationNs lateness_tolerance = sim::Milliseconds(1);
    // Smoothed miss-ratio thresholds (raise / clear), same hysteresis idea.
    double disk_on_threshold = 0.10;
    double disk_off_threshold = 0.04;
    // Re-signal only when the deliverable fraction moved at least this far
    // (and min_hold_ticks apply here too).
    double disk_fraction_step = 0.15;
    // Floor of the deliverable fraction announced under pressure.
    double min_disk_fraction = 0.1;
  };

  QosMonitor(sim::Simulator* sim, atm::Network* network, Config config);
  QosMonitor(sim::Simulator* sim, atm::Network* network);

  QosMonitor(const QosMonitor&) = delete;
  QosMonitor& operator=(const QosMonitor&) = delete;

  // Adds a file server volume to the watch set (idempotent).
  void AddFileServer(pfs::PegasusFileServer* server);

  void Start();
  void Stop();
  bool running() const { return task_.running(); }
  const Config& config() const { return config_; }

  // --- introspection (tests, benches, dashboards) ---
  int64_t ticks() const { return task_.ticks(); }
  // Links read by link ticks, summed over ticks (deterministic). A scan of
  // every link would read ticks() x links.
  int64_t link_visits() const { return link_visits_; }
  // Congestion signals raised or escalated (severity > 0) / cleared.
  int64_t congestion_signals() const { return congestion_signals_; }
  int64_t congestion_recoveries() const { return congestion_recoveries_; }
  // Budget-pressure signals raised or escalated (fraction < 1) / cleared.
  int64_t pressure_signals() const { return pressure_signals_; }
  int64_t pressure_recoveries() const { return pressure_recoveries_; }
  // The smoothed congestion score of `link`, in [0, 1].
  double link_score(const atm::Link* link) const;
  // Severity currently announced for `link` (0 when not signalling).
  double link_severity(const atm::Link* link) const;
  // Deliverable fraction currently announced for `server` (1 = no pressure).
  double disk_fraction(const pfs::PegasusFileServer* server) const;

 private:
  struct LinkState {
    atm::Link::StatsSnapshot prev;
    bool primed = false;  // first tick only seeds `prev`
    double score = 0.0;
    double signalled = 0.0;  // last announced severity; 0 = not signalling
    int64_t ticks_since_change = 0;
    int64_t below_off_ticks = 0;  // consecutive ticks spent under off_threshold
  };
  struct DiskState {
    bool primed = false;  // first tick only discards the stale window
    double score = 0.0;
    double signalled_fraction = 1.0;  // 1 = not signalling
    int64_t ticks_since_change = 0;
    int64_t below_off_ticks = 0;
  };

  void Tick();
  // One link's tick: snapshot, diff, smooth, signal with hysteresis.
  void TickLink(atm::Link* link, LinkState& state);
  // Raises a congestion signal, then drains the sends its handlers made:
  // links above `link` join this tick's visits, as a scan in id order
  // would still reach them; the rest wait for the next tick.
  void Announce(const atm::Link* link, double severity);
  // Moves the activity log into the visit sets: ids above `after` into
  // visit_, the others into carry_.
  void DrainActivity(int after);
  // Discards whatever accumulated while the monitor was not watching: link
  // snapshot deltas and disk windows re-prime on the next tick.
  void Reprime();
  // One link's per-tick raw congestion score from the snapshot delta.
  double LinkRawScore(const atm::Link::StatsSnapshot& prev,
                      const atm::Link::StatsSnapshot& cur) const;

  atm::Network* network_;
  Config config_;
  sim::PeriodicTask task_;
  // Indexed by dense link id (= index in network->links()); grown lazily on
  // tick so links added after construction are picked up.
  std::vector<LinkState> link_states_;
  // Bitmaps over link id. carry_ holds the links the next tick must visit
  // whatever the log says: unprimed ones (new, or re-primed by Start) and
  // those whose last visit left a score, a signal or a standing queue.
  // visit_ is the current tick's set, carry_ plus the drained log; the
  // tick clears each bit as it visits.
  std::vector<uint64_t> carry_;
  std::vector<uint64_t> visit_;
  std::vector<int> drained_;  // scratch for DrainActivity
  int64_t link_visits_ = 0;
  std::vector<pfs::PegasusFileServer*> servers_;
  std::map<const pfs::PegasusFileServer*, DiskState> disk_states_;
  int64_t congestion_signals_ = 0;
  int64_t congestion_recoveries_ = 0;
  int64_t pressure_signals_ = 0;
  int64_t pressure_recoveries_ = 0;
};

}  // namespace pegasus::core

#endif  // PEGASUS_SRC_CORE_QOS_MONITOR_H_
