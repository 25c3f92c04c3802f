// The closed-loop QoS monitor: congestion severity derived from observed
// link queues and drops, disk budget pressure derived from windowed play-out
// lateness — with EWMA smoothing, hysteresis against signal churn, and
// decay-to-zero recovery signals that restore adapting streams. No test here
// calls SignalCongestion or SignalBudgetPressure explicitly; every signal is
// the monitor's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/atm/network.h"
#include "src/core/qos_monitor.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/sim/event_queue.h"
#include "src/sim/periodic_task.h"
#include "src/sim/random.h"

namespace pegasus::core {
namespace {

using sim::Milliseconds;
using sim::Seconds;

// One recorded congestion callback on a VC.
struct Signal {
  double severity = 0.0;
  sim::TimeNs at = 0;
};

// Schedules a burst of `cells_per_ms` raw cells per millisecond on `vci`
// from `ep`, for every millisecond in [from, to).
void Blast(sim::Simulator* sim, atm::Endpoint* ep, atm::Vci vci, int cells_per_ms,
           bool low_priority, sim::TimeNs from, sim::TimeNs to) {
  for (sim::TimeNs t = from; t < to; t += Milliseconds(1)) {
    sim->ScheduleAt(t, [ep, vci, cells_per_ms, low_priority]() {
      for (int i = 0; i < cells_per_ms; ++i) {
        atm::Cell cell;
        cell.vci = vci;
        cell.low_priority = low_priority;
        ep->SendCell(cell);
      }
    });
  }
}

// A slow two-endpoint network whose uplink is easy to overload, plus a
// monitor with the default mapping at a 10 ms tick.
class MonitorNetFixture : public ::testing::Test {
 protected:
  MonitorNetFixture() : net_(&sim_) {
    sw_ = net_.AddSwitch("sw", 4);
    // 10 Mb/s: one cell every 42.4 us, ~23.6 cells per millisecond.
    a_ = net_.AddEndpoint("a", sw_, 0, 10'000'000);
    b_ = net_.AddEndpoint("b", sw_, 1, 10'000'000);
    monitor_ = std::make_unique<QosMonitor>(&sim_, &net_, QosMonitor::Config());
  }

  // The link the blast overloads: a's uplink into the switch.
  const atm::Link* Uplink() const { return a_->uplink(); }

  sim::Simulator sim_;
  atm::Network net_;
  atm::Switch* sw_ = nullptr;
  atm::Endpoint* a_ = nullptr;
  atm::Endpoint* b_ = nullptr;
  std::unique_ptr<QosMonitor> monitor_;
};

// A sustained 2x overload trajectory: the monitor's smoothed severity must
// converge near the true lost-capacity fraction (~0.53), reach the VC's
// handler, and decay to a zero (recovery) signal once the source stops.
TEST_F(MonitorNetFixture, SeverityTracksDropTrajectoryAndRecovers) {
  auto vc = net_.OpenVc(a_, b_, atm::QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());
  std::vector<Signal> signals;
  net_.SetCongestionHandler(vc->id, [&](atm::VcId, const atm::Link* link, double severity) {
    EXPECT_EQ(link, Uplink());
    signals.push_back({severity, sim_.now()});
  });
  monitor_->Start();

  // 50 cells/ms offered against ~23.6 deliverable: drop fraction ~0.53.
  Blast(&sim_, a_, vc->source_vci, 50, /*low_priority=*/false, Milliseconds(100),
        Milliseconds(800));
  sim_.RunUntil(Milliseconds(790));

  ASSERT_FALSE(signals.empty());
  EXPECT_GT(monitor_->congestion_signals(), 0);
  // The announced severity settled near the measured loss fraction.
  EXPECT_NEAR(signals.back().severity, 0.53, 0.18);
  EXPECT_NEAR(monitor_->link_score(Uplink()), 0.53, 0.1);
  EXPECT_GT(monitor_->link_severity(Uplink()), 0.0);

  // The overload ends: the smoothed score decays below the off threshold
  // and the monitor announces the all-clear for that link.
  sim_.RunUntil(Milliseconds(1200));
  ASSERT_GE(signals.size(), 2u);
  EXPECT_EQ(signals.back().severity, 0.0);
  EXPECT_EQ(monitor_->congestion_recoveries(), 1);
  EXPECT_EQ(monitor_->link_severity(Uplink()), 0.0);
  EXPECT_LT(monitor_->link_score(Uplink()), 0.05);

  // Severity never escalated past the loss fraction's neighbourhood, and
  // every non-zero announcement was a real move (no per-tick chatter).
  for (size_t i = 0; i + 1 < signals.size(); ++i) {
    EXPECT_GT(signals[i].severity, 0.0);
    EXPECT_LE(signals[i].severity, monitor_->config().max_severity);
  }
}

// Oscillating occupancy around the threshold band must not flap the
// announced severity: smoothing plus the on/off band plus the hold time
// bound the signal count to a handful over dozens of oscillation cycles.
TEST_F(MonitorNetFixture, HysteresisPreventsSignalChurnOnOscillatingOccupancy) {
  auto vc = net_.OpenVc(a_, b_, atm::QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());
  int callbacks = 0;
  net_.SetCongestionHandler(vc->id,
                            [&](atm::VcId, const atm::Link*, double) { ++callbacks; });
  monitor_->Start();

  // 25 cycles of fill-and-drain: 42 ms at 2x rate builds the queue toward
  // its limit (no sustained drops), 42 ms of silence drains it fully. The
  // instantaneous occupancy seen by the 10 ms ticks swings 0 -> ~0.9 -> 0.
  for (int cycle = 0; cycle < 25; ++cycle) {
    const sim::TimeNs start = Milliseconds(100) + cycle * Milliseconds(84);
    Blast(&sim_, a_, vc->source_vci, 47, /*low_priority=*/false, start,
          start + Milliseconds(42));
  }
  sim_.RunUntil(Milliseconds(100) + 25 * Milliseconds(84) + Milliseconds(300));

  // Dozens of occupancy swings, at most a couple of announcements — and
  // never an alternating raise/clear/raise/clear chatter.
  EXPECT_LE(monitor_->congestion_signals(), 3);
  EXPECT_LE(monitor_->congestion_recoveries(), 1);
  EXPECT_LE(callbacks, 4);
  // Occupancy alone is capped well below what real loss can announce.
  for (const auto& link : net_.links()) {
    EXPECT_LE(monitor_->link_severity(link.get()),
              monitor_->config().occupancy_cap + 0.05);
  }
}

// Low-priority (best-effort) drops are discounted by the configured weight:
// the same drop trajectory announces a milder severity when the lost cells
// were best-effort than when they were reserved-class.
TEST_F(MonitorNetFixture, DropSeverityWeighsCellPriority) {
  auto vc = net_.OpenVc(a_, b_, atm::QosSpec{5'000'000});
  ASSERT_TRUE(vc.has_value());
  monitor_->Start();

  Blast(&sim_, a_, vc->source_vci, 50, /*low_priority=*/true, Milliseconds(100),
        Milliseconds(800));
  sim_.RunUntil(Milliseconds(790));

  // Weighted loss: (0.5 * 26.4) / (23.6 + 0.5 * 26.4) ~= 0.36 instead of
  // the unweighted ~0.53 of the high-priority trajectory.
  EXPECT_NEAR(monitor_->link_score(Uplink()), 0.36, 0.08);
  const atm::Link::StatsSnapshot stats = Uplink()->Stats();
  EXPECT_GT(stats.cells_dropped_low, 0u);
  EXPECT_EQ(stats.cells_dropped_high, 0u);
  EXPECT_EQ(net_.ReservedBps(Uplink()), 5'000'000);
}

// --- system level: the full closed loop through PegasusSystem ---

class ClosedLoopFixture : public ::testing::Test {
 protected:
  ClosedLoopFixture() : system_(&sim_) {
    desk_ = system_.AddWorkstation("desk");
    peer_ = system_.AddWorkstation("peer");
  }

  sim::Simulator sim_;
  PegasusSystem system_;
  Workstation* desk_ = nullptr;
  Workstation* peer_ = nullptr;
};

AdaptationPolicy TestPolicy(AdaptationMode mode = AdaptationMode::kFrameRateScaling) {
  AdaptationPolicy policy;
  policy.mode = mode;
  policy.floor = 0.05;
  policy.hysteresis = 0.02;
  policy.smoothing = 1.0;
  return policy;
}

// The acceptance scenario: with the monitor enabled and NO explicit signal
// calls anywhere, best-effort cross-traffic sharing the desk uplink
// degrades an adapting stream (an applied congestion-triggered adaptation
// event), and the stream restores to nominal after the cross-traffic stops.
TEST_F(ClosedLoopFixture, CrossTrafficDegradesAndRestoresAdaptingStream) {
  dev::AtmCamera::Config cfg;
  cfg.width = 320;
  cfg.height = 240;  // ~17 Mb/s of raw tiles on the wire at 25 fps
  dev::AtmCamera* camera = desk_->AddCamera(cfg);
  dev::AtmDisplay* display = peer_->AddDisplay(640, 480);

  auto r = system_.BuildStream("feed")
               .From(desk_, camera)
               .To(peer_, display)
               .WithSpec(StreamSpec::Video(25, 16'000'000))
               .WithAdaptation(TestPolicy())
               .Open();
  ASSERT_TRUE(r.report.ok());
  StreamSession* session = r.session;
  camera->Start(session->source_vci());

  QosMonitor* monitor = system_.EnableQosMonitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(system_.qos_monitor(), monitor);

  // Best-effort cross-traffic from the desk host floods the shared desk ->
  // backbone uplink at line rate for two seconds.
  auto cross = system_.network().OpenVc(desk_->host(), peer_->host());
  ASSERT_TRUE(cross.has_value());
  Blast(&sim_, desk_->host(), cross->source_vci, 500, /*low_priority=*/true, Seconds(1),
        Seconds(3));

  // Mid-blast: the stream has been degraded by a congestion-triggered
  // adaptation event the monitor raised on its own.
  sim_.RunUntil(Seconds(3));
  EXPECT_LT(session->adaptation_fraction(), 1.0);
  EXPECT_LT(session->contract().granted.bandwidth_bps, 16'000'000);
  int applied_congestion = 0;
  for (const AdaptationEvent& e : session->adaptation_log()) {
    if (e.applied && e.trigger == AdaptationEvent::Trigger::kNetworkCongestion) {
      ++applied_congestion;
    }
  }
  EXPECT_GE(applied_congestion, 1);
  // The camera pacing followed the degraded grant.
  EXPECT_EQ(camera->config().pace_bps, session->contract().granted.bandwidth_bps);

  // The cross-traffic stops: queues drain, the monitor announces recovery,
  // and the stream restores to its nominal contract — the half of the loop
  // that never happened without an operator.
  sim_.RunUntil(Seconds(5));
  EXPECT_GE(monitor->congestion_recoveries(), 1);
  EXPECT_NEAR(session->adaptation_fraction(), 1.0, 1e-9);
  EXPECT_EQ(session->contract().granted.bandwidth_bps, 16'000'000);
  EXPECT_EQ(camera->config().pace_bps, 16'000'000);
}

// Disk half of the loop: a synthetic lateness trajectory recorded against
// the file server's quality recorder drives budget pressure onto a reserved
// adapting stream, and the lateness clearing drives the restore.
TEST_F(ClosedLoopFixture, PlayoutLatenessDrivesDiskPressureAndRecovery) {
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  StorageNode* storage = system_.AddStorageServer(pfs_cfg);

  dev::AtmCamera::Config cfg;
  dev::AtmCamera* camera = desk_->AddCamera(cfg);
  StreamSpec spec = StreamSpec::Video(25, 8'000'000);
  spec.disk_bps = 1'000'000;
  auto r = system_.BuildStream("rec")
               .From(desk_, camera)
               .ToStorage(storage)
               .WithSpec(spec)
               .WithAdaptation(TestPolicy(AdaptationMode::kQualityScaling))
               .Open();
  ASSERT_TRUE(r.report.ok());
  StreamSession* session = r.session;

  QosMonitor* monitor = system_.EnableQosMonitor();
  pfs::PegasusFileServer* server = storage->server();

  // One second of overloaded play-out: every chunk misses its deadline by
  // 5 ms (synthetic trajectory — the monitor cannot tell it from a slow
  // disk, which is the point of measuring instead of asserting).
  for (sim::TimeNs t = Seconds(1); t < Seconds(2); t += Milliseconds(1)) {
    sim_.ScheduleAt(t, [server]() { server->stream_quality().Record(Milliseconds(5)); });
  }

  sim_.RunUntil(Seconds(2));
  EXPECT_GT(monitor->pressure_signals(), 0);
  EXPECT_LT(monitor->disk_fraction(server), 1.0);
  EXPECT_LT(session->contract().granted.disk_bps, 1'000'000);
  EXPECT_LT(session->adaptation_fraction(), 1.0);
  int applied_disk = 0;
  for (const AdaptationEvent& e : session->adaptation_log()) {
    if (e.applied && e.trigger == AdaptationEvent::Trigger::kDiskPressure) {
      ++applied_disk;
    }
  }
  EXPECT_GE(applied_disk, 1);
  // Quality scaling holds the frame rate while bits shrink.
  EXPECT_NEAR(session->contract().granted.frame_rate, 25.0, 1e-9);

  // The lateness stops (windows come back empty): the score decays, the
  // monitor announces fraction 1.0, and the reservation restores.
  sim_.RunUntil(Seconds(3));
  EXPECT_GE(monitor->pressure_recoveries(), 1);
  EXPECT_EQ(monitor->disk_fraction(server), 1.0);
  EXPECT_NEAR(session->adaptation_fraction(), 1.0, 1e-9);
  EXPECT_EQ(session->contract().granted.disk_bps, 1'000'000);
  EXPECT_EQ(server->reserved_stream_bps(), 1'000'000);
}

// The windowed export itself: TakeWindow drains exactly the samples since
// the previous call, keeps cumulative totals, and summarises lateness.
TEST(StreamQualityRecorderTest, WindowedExportDrainsAndAccumulates) {
  pfs::StreamQualityRecorder recorder;
  recorder.Record(-Milliseconds(1));  // on time
  recorder.Record(Milliseconds(4));   // late
  recorder.Record(Milliseconds(8));   // later

  pfs::StreamQualityRecorder::Window w = recorder.TakeWindow();
  EXPECT_EQ(w.chunks, 3);
  EXPECT_EQ(w.deadline_misses, 2);
  EXPECT_EQ(w.max_lateness, Milliseconds(8));
  EXPECT_NEAR(w.mean_lateness, static_cast<double>(Milliseconds(6)), 1.0);

  // Drained: the next window is empty, the cumulative view is not.
  w = recorder.TakeWindow();
  EXPECT_EQ(w.chunks, 0);
  EXPECT_EQ(w.deadline_misses, 0);
  EXPECT_EQ(recorder.chunks(), 3);
  EXPECT_EQ(recorder.deadline_misses(), 2);
  EXPECT_EQ(recorder.max_lateness(), Milliseconds(8));
  EXPECT_NEAR(recorder.mean_lateness(), static_cast<double>(Milliseconds(11)) / 3, 1.0);

  // Sub-tolerance lateness is jitter, not a windowed miss: with the
  // monitor's tolerance set, a windowful of hair-late chunks plus one real
  // miss counts exactly one miss (the cumulative strict counter still sees
  // them all).
  recorder.set_miss_tolerance(Milliseconds(1));
  for (int i = 0; i < 49; ++i) {
    recorder.Record(Milliseconds(1) / 10);  // 0.1 ms late: jitter
  }
  recorder.Record(Milliseconds(2));  // a real miss
  w = recorder.TakeWindow();
  EXPECT_EQ(w.chunks, 50);
  EXPECT_EQ(w.deadline_misses, 1);
  EXPECT_EQ(w.max_lateness, Milliseconds(2));
  EXPECT_EQ(recorder.deadline_misses(), 52);
}

// --- the visit sets against a scan of every link ---

// The monitor's link loop as it was before the activity log: every tick
// reads every link in id order, with the same quiescent fast path, the
// same scoring and the same signals. A twin of the world QosMonitor
// watches runs under this reference, and the two must agree bit for bit.
class FullScanMonitor {
 public:
  FullScanMonitor(sim::Simulator* sim, atm::Network* net)
      : net_(net), task_(sim, config_.period, [this]() { Tick(); }) {}

  void Start() {
    if (!task_.running()) {
      for (LinkState& state : states_) {
        state.primed = false;
      }
    }
    task_.Start();
  }
  void Stop() { task_.Stop(); }

  double score(size_t id) const { return id < states_.size() ? states_[id].score : 0.0; }
  double severity(size_t id) const {
    return id < states_.size() ? states_[id].signalled : 0.0;
  }
  int64_t signals() const { return signals_; }
  int64_t recoveries() const { return recoveries_; }
  // Links that got past the quiescent fast path, summed over ticks.
  int64_t active_visits() const { return active_visits_; }

 private:
  struct LinkState {
    atm::Link::StatsSnapshot prev;
    bool primed = false;
    double score = 0.0;
    double signalled = 0.0;
    int64_t ticks_since_change = 0;
    int64_t below_off_ticks = 0;
  };

  double RawScore(const atm::Link::StatsSnapshot& prev,
                  const atm::Link::StatsSnapshot& cur) const {
    const double sent = static_cast<double>(cur.cells_sent - prev.cells_sent);
    const double weighted_drops =
        static_cast<double>(cur.cells_dropped_high - prev.cells_dropped_high) *
            config_.high_drop_weight +
        static_cast<double>(cur.cells_dropped_low - prev.cells_dropped_low) *
            config_.low_drop_weight;
    double drop_score = 0.0;
    if (weighted_drops > 0.0) {
      drop_score = weighted_drops / (sent + weighted_drops);
    }
    double occupancy_score = 0.0;
    const double interval_util = static_cast<double>(cur.busy_time - prev.busy_time) /
                                 static_cast<double>(config_.period);
    if (cur.queue_limit > 0 && interval_util >= config_.utilization_floor) {
      const double occ =
          static_cast<double>(cur.queued_cells) / static_cast<double>(cur.queue_limit);
      if (occ > config_.occupancy_floor) {
        occupancy_score = config_.occupancy_cap * (occ - config_.occupancy_floor) /
                          (1.0 - config_.occupancy_floor);
      }
    }
    return std::clamp(std::max(drop_score, occupancy_score), 0.0, 1.0);
  }

  void Tick() {
    const auto& links = net_->links();
    if (states_.size() < links.size()) {
      states_.resize(links.size());
    }
    for (const auto& link : links) {
      atm::Link* l = link.get();
      LinkState& state = states_[static_cast<size_t>(l->id())];
      if (state.primed && state.score == 0.0 && state.signalled == 0.0 &&
          l->cells_sent() == state.prev.cells_sent &&
          l->cells_dropped_high() == state.prev.cells_dropped_high &&
          l->cells_dropped_low() == state.prev.cells_dropped_low &&
          l->busy_time() == state.prev.busy_time && l->queued_cells() == 0) {
        continue;
      }
      ++active_visits_;
      const atm::Link::StatsSnapshot cur = l->Stats();
      if (!state.primed) {
        state.prev = cur;
        state.primed = true;
        continue;
      }
      const double raw = RawScore(state.prev, cur);
      state.prev = cur;
      state.score += config_.smoothing * (raw - state.score);
      ++state.ticks_since_change;
      state.below_off_ticks =
          state.score <= config_.off_threshold ? state.below_off_ticks + 1 : 0;
      if (state.signalled == 0.0) {
        if (state.score >= config_.on_threshold) {
          state.signalled = std::min(state.score, config_.max_severity);
          state.ticks_since_change = 0;
          ++signals_;
          net_->SignalCongestion(l, state.signalled);
        }
      } else if (state.below_off_ticks >= config_.min_hold_ticks) {
        state.signalled = 0.0;
        state.ticks_since_change = 0;
        ++recoveries_;
        net_->SignalCongestion(l, 0.0);
      } else if (std::abs(state.score - state.signalled) >= config_.severity_step &&
                 state.ticks_since_change >= config_.min_hold_ticks) {
        state.signalled =
            std::clamp(state.score, config_.on_threshold, config_.max_severity);
        state.ticks_since_change = 0;
        ++signals_;
        net_->SignalCongestion(l, state.signalled);
      }
    }
  }

  const QosMonitor::Config config_;
  atm::Network* net_;
  sim::PeriodicTask task_;
  std::vector<LinkState> states_;
  int64_t signals_ = 0;
  int64_t recoveries_ = 0;
  int64_t active_visits_ = 0;
};

// One copy of a small fabric: two 6-port switches joined by a 20 Mb/s
// trunk, three hosts on each at 2, 10 and 155 Mb/s, and a best-effort VC
// from every host to its opposite number. Links 0 and 1 are the trunk;
// host h's uplink is link 2 + 2h.
struct TwinWorld {
  TwinWorld() {
    left = net.AddSwitch("left", 6);
    right = net.AddSwitch("right", 6);
    net.ConnectSwitches(left, 5, right, 5, 20'000'000);
    const int64_t rates[] = {2'000'000, 10'000'000, 155'000'000};
    for (int side = 0; side < 2; ++side) {
      for (int i = 0; i < 3; ++i) {
        hosts.push_back(net.AddEndpoint("h" + std::to_string(side * 3 + i),
                                        side == 0 ? left : right, i, rates[i]));
      }
    }
    for (size_t h = 0; h < hosts.size(); ++h) {
      vcs.push_back(*net.OpenVc(hosts[h], hosts[(h + 3) % hosts.size()]));
    }
  }

  // Sends `cells` cells on VC `v` now: single cells, or one AAL5 frame of
  // about that many cells offered to the uplink as one burst.
  void Send(size_t v, int cells, bool low_priority, bool frame) {
    atm::Endpoint* ep = hosts[v];
    if (frame) {
      ep->SendFrame(vcs[v].source_vci, std::vector<uint8_t>(static_cast<size_t>(cells) * 48 - 8));
      return;
    }
    for (int i = 0; i < cells; ++i) {
      atm::Cell cell;
      cell.vci = vcs[v].source_vci;
      cell.low_priority = low_priority;
      ep->SendCell(cell);
    }
  }
  void SendAt(sim::TimeNs at, size_t v, int cells, bool low_priority, bool frame) {
    sim.ScheduleAt(at, [this, v, cells, low_priority, frame]() {
      Send(v, cells, low_priority, frame);
    });
  }

  sim::Simulator sim;
  atm::Network net{&sim};
  atm::Switch* left = nullptr;
  atm::Switch* right = nullptr;
  std::vector<atm::Endpoint*> hosts;
  std::vector<atm::VcDescriptor> vcs;
};

// World `a` runs the QosMonitor, world `b` the full-scan reference; every
// input is applied to both.
class MonitorTwinTest : public ::testing::Test {
 protected:
  template <typename Fn>
  void Both(Fn fn) {
    fn(a_);
    fn(b_);
  }
  void Start() {
    monitor_.Start();
    reference_.Start();
  }
  void Stop() {
    monitor_.Stop();
    reference_.Stop();
  }

  // Advances both worlds one monitor period at a time and, after every
  // tick, compares every link's score and announced severity and the
  // signal counts, and checks that the monitor visited at least as many
  // links as the full scan found active. (It may visit more: a link carried
  // for a standing queue that drained without a send stops at the fast
  // path.) Stops at the first mismatch.
  void Advance(int ticks) {
    const sim::DurationNs period = monitor_.config().period;
    for (int i = 0; i < ticks && !HasFailure(); ++i) {
      const sim::TimeNs t = a_.sim.now() + period;
      const int64_t visits = monitor_.link_visits();
      const int64_t active = reference_.active_visits();
      a_.sim.RunUntil(t);
      b_.sim.RunUntil(t);
      ASSERT_EQ(a_.net.links().size(), b_.net.links().size());
      for (size_t id = 0; id < a_.net.links().size(); ++id) {
        const atm::Link* link = a_.net.links()[id].get();
        ASSERT_EQ(monitor_.link_score(link), reference_.score(id))
            << "link " << id << " at " << t;
        ASSERT_EQ(monitor_.link_severity(link), reference_.severity(id))
            << "link " << id << " at " << t;
      }
      ASSERT_EQ(monitor_.congestion_signals(), reference_.signals()) << "at " << t;
      ASSERT_EQ(monitor_.congestion_recoveries(), reference_.recoveries()) << "at " << t;
      ASSERT_GE(monitor_.link_visits() - visits, reference_.active_visits() - active)
          << "at " << t;
    }
  }

  TwinWorld a_;
  TwinWorld b_;
  QosMonitor monitor_{&a_.sim, &a_.net};
  FullScanMonitor reference_{&b_.sim, &b_.net};
};

// A seeded random mix of load phases, drop-inducing blasts, frames and
// quiet stretches; congestion handlers that send from inside the tick; and
// a stop/start in the middle.
TEST_F(MonitorTwinTest, RandomMixMatchesFullScan) {
  // Nominal cells per millisecond of each host's VC (the fast host is held
  // to about the trunk's rate).
  const int nominal[] = {5, 24, 60};
  const double levels[] = {0.0, 0.0, 0.5, 1.2, 2.5};
  sim::Rng rng(20240617);
  const sim::TimeNs horizon = Seconds(3);
  for (size_t v = 0; v < a_.vcs.size(); ++v) {
    for (sim::TimeNs phase = 0; phase < horizon; phase += Milliseconds(70)) {
      const double level = levels[rng.UniformInt(0, 4)];
      const bool low = rng.Bernoulli(0.5);
      for (sim::TimeNs t = phase; t < phase + Milliseconds(70); t += Milliseconds(1)) {
        int cells = static_cast<int>(std::lround(nominal[v % 3] * level));
        if (rng.Bernoulli(0.002)) {
          cells += 1100;  // overflows any queue at once
        }
        if (cells > 0) {
          const bool frame = rng.Bernoulli(0.3);
          // Off the tick grid, so no send shares an instant with a tick.
          const sim::TimeNs at = t + sim::Microseconds(137);
          Both([&](TwinWorld& w) { w.SendAt(at, v, cells, low, frame); });
        }
      }
    }
  }
  // Adapting sessions answer a signal with traffic of their own, on links
  // below and above the signalled one.
  Both([](TwinWorld& w) {
    for (size_t v : {1u, 4u}) {
      w.net.SetCongestionHandler(w.vcs[v].id, [&w, v](atm::VcId, const atm::Link*, double) {
        w.Send((v + 1) % w.vcs.size(), 8, /*low_priority=*/true, /*frame=*/false);
        w.Send((v + 5) % w.vcs.size(), 8, /*low_priority=*/false, /*frame=*/true);
      });
    }
  });

  Start();
  Advance(150);
  Stop();
  Both([](TwinWorld& w) { w.sim.RunUntil(w.sim.now() + Milliseconds(200)); });
  Start();
  Advance(150);
  Advance(50);  // the tail: queues drain, scores decay, signals clear

  // The mix exercised the whole loop, and the monitor read a fraction of
  // what a full scan would.
  EXPECT_GT(reference_.signals(), 2);
  EXPECT_GT(reference_.recoveries(), 0);
  EXPECT_LT(monitor_.link_visits(),
            monitor_.ticks() * static_cast<int64_t>(a_.net.links().size()));
}

// A slow link's queue outlives the tick after its last send: the monitor
// must keep visiting it until the queue is empty, then stop.
TEST_F(MonitorTwinTest, SlowQueueOutlivingATickIsVisited) {
  Start();
  Advance(2);
  // 150 cells on the 2 Mb/s uplink just before a tick: 212 us each, about
  // 32 ms of queue that drains over the next ticks with no further send.
  Both([](TwinWorld& w) { w.SendAt(w.sim.now() + Milliseconds(9), 0, 150, false, false); });
  Advance(1);
  const atm::Link* uplink = a_.hosts[0]->uplink();
  const uint64_t sent = uplink->cells_sent();
  // Advance checks every tick's visits against the full scan, which finds
  // the uplink active while its queue stands.
  Advance(2);
  EXPECT_GT(uplink->queued_cells(), 0u);
  EXPECT_EQ(uplink->cells_sent(), sent);
  Advance(5);
  // Everything has drained and been delivered: ticks read nothing.
  const int64_t idle = monitor_.link_visits();
  Advance(3);
  EXPECT_EQ(monitor_.link_visits(), idle);
}

// A link registered after Start() is primed at the next tick, like any
// other, even though it sends nothing for a while: its first busy interval
// is scored.
TEST_F(MonitorTwinTest, LinkRegisteredAfterStartIsWatched) {
  Start();
  Advance(5);
  Both([](TwinWorld& w) {
    atm::Endpoint* late = w.net.AddEndpoint("late", w.left, 3, 2'000'000);
    w.hosts.push_back(late);
    w.vcs.push_back(*w.net.OpenVc(late, w.hosts[3]));
    // After three idle ticks, 1100 cells at once and then 10 cells/ms
    // against ~4.7 deliverable: the late uplink drops.
    const sim::TimeNs from = w.sim.now() + Milliseconds(30) + sim::Microseconds(311);
    w.SendAt(from, w.vcs.size() - 1, 1100, false, false);
    for (int ms = 1; ms <= 300; ++ms) {
      w.SendAt(from + Milliseconds(ms), w.vcs.size() - 1, 10, false, false);
    }
  });
  Advance(40);
  EXPECT_GT(monitor_.link_severity(a_.hosts.back()->uplink()), 0.0);
  EXPECT_GT(monitor_.congestion_signals(), 0);
}

// Drops while the monitor is stopped are history: the restart re-primes
// every link instead of scoring the gap as one interval. A link that was
// idle through the stop is re-primed at the first tick too, so drops it
// takes later are scored from there.
TEST_F(MonitorTwinTest, TrafficWhileStoppedIsNotScored) {
  Both([](TwinWorld& w) { w.SendAt(Milliseconds(5), 1, 30, false, false); });
  Start();
  Advance(3);
  Stop();
  // 2000 cells into the 2 Mb/s uplink: about half are tail-dropped.
  Both([](TwinWorld& w) {
    w.Send(0, 2000, false, false);
    w.sim.RunUntil(w.sim.now() + Milliseconds(300));
  });
  ASSERT_GT(a_.hosts[0]->uplink()->cells_dropped(), 0u);
  Start();
  Advance(30);
  EXPECT_EQ(monitor_.congestion_signals(), 0);
  for (const auto& link : a_.net.links()) {
    EXPECT_EQ(monitor_.link_score(link.get()), 0.0);
  }
  // Host 1's uplink, idle since before the stop, now overflows.
  Both([](TwinWorld& w) { w.SendAt(w.sim.now() + Milliseconds(15), 1, 1500, false, false); });
  Advance(5);
  EXPECT_GT(monitor_.link_score(a_.hosts[1]->uplink()), 0.0);
}

// A congestion handler that sends during the tick, on a link below the
// signalled one (already visited this tick) and one above it (not yet):
// the full scan reads the higher link's new counters in this tick and the
// lower link's in the next, and so must the monitor.
TEST_F(MonitorTwinTest, SendFromSignalHandlerDuringTick) {
  Both([](TwinWorld& w) {
    // Host 1's uplink (link 4) is signalled; hosts 0 and 5 send on links 2
    // and 12.
    w.net.SetCongestionHandler(w.vcs[1].id, [&w](atm::VcId, const atm::Link*, double) {
      w.Send(0, 40, false, false);
      w.Send(5, 40, false, true);
    });
    for (int ms = 0; ms < 400; ++ms) {
      w.SendAt(Milliseconds(ms) + sim::Microseconds(53), 1, 60, false, false);
    }
  });
  Start();
  Advance(60);
  EXPECT_GT(monitor_.congestion_signals(), 0);
  EXPECT_GT(monitor_.congestion_recoveries(), 0);
}

}  // namespace
}  // namespace pegasus::core
