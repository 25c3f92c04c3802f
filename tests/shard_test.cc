// Region-sharded parallel simulation: the sharded engine must reproduce
// the single-simulator engine bit for bit — identical event interleavings
// at the observable level (delivery instants, counters, fleet fingerprints)
// at every shard count — while the conservative window machinery actually
// exercises boundary channels and sync points.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/atm/network.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard.h"

namespace pegasus {
namespace {

// FNV-1a over a (tag, time) observation log — the same digest discipline
// determinism_test applies to the single engine.
uint64_t DigestLog(const std::vector<std::pair<int, sim::TimeNs>>& log) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [tag, t] : log) {
    mix(static_cast<uint64_t>(tag));
    mix(static_cast<uint64_t>(t));
  }
  return h;
}

// --- Window machinery ------------------------------------------------------

TEST(ShardGroupTest, WindowsInterleaveShardAndControlEventsInTimeOrder) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {/*shards=*/2});
  sim::Simulator* a = group.shard(0);
  sim::Simulator* b = group.shard(1);
  sim::BoundaryChannel* ab = group.RegisterBoundary(a, b, /*lookahead=*/10);

  std::vector<std::pair<int, sim::TimeNs>> log;
  a->ScheduleAt(5, [&]() {
    log.emplace_back(0, a->now());
    ab->Post(a->now() + 10, [&]() { log.emplace_back(2, b->now()); });
  });
  b->ScheduleAt(12, [&]() { log.emplace_back(1, b->now()); });
  // Control code posting on a boundary channel: the source shard is parked
  // at the control timestamp, so the train is due exactly one lookahead
  // later — at the RunUntil limit, which is inclusive.
  control.ScheduleAt(20, [&]() {
    log.emplace_back(3, control.now());
    ab->Post(a->now() + 10, [&]() { log.emplace_back(4, b->now()); });
  });

  group.RunUntil(30);

  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0], (std::pair<int, sim::TimeNs>{0, 5}));
  EXPECT_EQ(log[1], (std::pair<int, sim::TimeNs>{1, 12}));
  EXPECT_EQ(log[2], (std::pair<int, sim::TimeNs>{2, 15}));
  EXPECT_EQ(log[3], (std::pair<int, sim::TimeNs>{3, 20}));
  EXPECT_EQ(log[4], (std::pair<int, sim::TimeNs>{4, 30}));
  EXPECT_EQ(a->now(), 30);
  EXPECT_EQ(b->now(), 30);
  EXPECT_EQ(control.now(), 30);
  EXPECT_GE(group.stats().windows, 1u);
  EXPECT_EQ(group.stats().sync_points, 1u);
  EXPECT_EQ(group.stats().messages, 2u);
}

TEST(ShardGroupTest, EventsAtRunUntilLimitExecute) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {/*shards=*/2});
  int ran = 0;
  group.shard(0)->ScheduleAt(100, [&]() { ++ran; });
  group.shard(1)->ScheduleAt(100, [&]() { ++ran; });
  control.ScheduleAt(100, [&]() { ++ran; });
  group.RunUntil(100);
  EXPECT_EQ(ran, 3);
}

// --- Boundary-link torture: minimum lookahead, saturating both ways --------

struct TortureResult {
  uint64_t digest = 0;
  uint64_t received_a = 0;
  uint64_t received_b = 0;
  uint64_t trunk_sent = 0;
  uint64_t trunk_dropped = 0;
};

// Two switches wired by a 1 ns propagation trunk (the minimum legal
// lookahead), one endpoint on each side, VCs both ways, and both endpoints
// flooding at coprime cadences well above the trunk rate — every window is
// as small as windows get and the trunk queue lives at its limit.
TortureResult RunTorture(int shards) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {shards});
  atm::Network net(&control);
  scenario::RegionPartitioner part(&net, shards > 0 ? &group : nullptr);

  part.EnterRegion(0);
  atm::Switch* sa = net.AddSwitch("sa", 2);
  part.EnterRegion(1);
  atm::Switch* sb = net.AddSwitch("sb", 2);
  net.ConnectSwitches(sa, 0, sb, 0, /*bps=*/20'000'000, /*propagation=*/1);

  part.EnterRegion(0);
  atm::Endpoint* ea = net.AddEndpoint("ea", sa, 1, 155'000'000);
  part.EnterRegion(1);
  atm::Endpoint* eb = net.AddEndpoint("eb", sb, 1, 155'000'000);

  auto vc_ab = net.OpenVc(ea, eb);
  auto vc_ba = net.OpenVc(eb, ea);
  EXPECT_TRUE(vc_ab.has_value());
  EXPECT_TRUE(vc_ba.has_value());

  std::vector<std::pair<int, sim::TimeNs>> log_a;
  std::vector<std::pair<int, sim::TimeNs>> log_b;
  ea->set_cell_handler(
      [&](const atm::Cell&) { log_a.emplace_back(0, ea->simulator()->now()); });
  eb->set_cell_handler(
      [&](const atm::Cell&) { log_b.emplace_back(1, eb->simulator()->now()); });

  // Self-rescheduling floods on each endpoint's own shard clock: bursts big
  // enough to overrun the 20 Mb/s trunk, cadences coprime to each other and
  // to every cell time so emission instants never phase-lock.
  struct Flood {
    atm::Endpoint* ep;
    atm::Vci vci;
    sim::DurationNs period;
    void Fire() {
      atm::Cell cell;
      cell.vci = vci;
      for (int i = 0; i < 8; ++i) {
        cell.end_of_frame = (i == 7);
        ep->SendCell(cell);
      }
      ep->simulator()->ScheduleAfter(period, [this]() { Fire(); });
    }
  };
  Flood fa{ea, vc_ab->source_vci, 7001};
  Flood fb{eb, vc_ba->source_vci, 9973};
  ea->simulator()->ScheduleAt(1, [&]() { fa.Fire(); });
  eb->simulator()->ScheduleAt(1, [&]() { fb.Fire(); });

  if (shards > 0) {
    group.RunUntil(sim::Milliseconds(20));
  } else {
    control.RunUntil(sim::Milliseconds(20));
  }

  TortureResult result;
  result.received_a = ea->cells_received();
  result.received_b = eb->cells_received();
  for (const auto& link : net.links()) {
    if (link->propagation_delay() == 1) {
      result.trunk_sent += link->cells_sent();
      result.trunk_dropped += link->cells_dropped();
    }
  }
  std::vector<std::pair<int, sim::TimeNs>> log = std::move(log_a);
  log.insert(log.end(), log_b.begin(), log_b.end());
  result.digest = DigestLog(log);
  return result;
}

TEST(ShardGroupTest, BoundaryTortureMatchesSingleSimulatorBitForBit) {
  const TortureResult reference = RunTorture(/*shards=*/0);
  EXPECT_GT(reference.received_a, 0u);
  EXPECT_GT(reference.received_b, 0u);
  // The floods overrun the trunk by design; the tail-drop path must be hot.
  EXPECT_GT(reference.trunk_dropped, 0u);

  for (int shards : {1, 2}) {
    const TortureResult sharded = RunTorture(shards);
    EXPECT_EQ(sharded.digest, reference.digest) << "shards=" << shards;
    EXPECT_EQ(sharded.received_a, reference.received_a);
    EXPECT_EQ(sharded.received_b, reference.received_b);
    EXPECT_EQ(sharded.trunk_sent, reference.trunk_sent);
    EXPECT_EQ(sharded.trunk_dropped, reference.trunk_dropped);
  }
}

// Three switches in a line, with the WORST-CASE lookahead split: a 1 ns
// trunk between sa and sb, a 5 us trunk between sb and sc. Per-channel
// lookahead lets sc's region run microseconds ahead while sa/sb crawl at
// nanosecond windows — every delivery instant must still land bit-equal to
// the single-simulator schedule, including traffic that crosses BOTH
// trunks (and so transits the fast region on its way to the slow one).
TortureResult RunAsymmetricTorture(int shards) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {shards});
  atm::Network net(&control);
  scenario::RegionPartitioner part(&net, shards > 0 ? &group : nullptr);

  part.EnterRegion(0);
  atm::Switch* sa = net.AddSwitch("sa", 2);
  part.EnterRegion(1);
  atm::Switch* sb = net.AddSwitch("sb", 3);
  part.EnterRegion(2);
  atm::Switch* sc = net.AddSwitch("sc", 2);
  net.ConnectSwitches(sa, 0, sb, 0, /*bps=*/20'000'000, /*propagation=*/1);
  net.ConnectSwitches(sb, 1, sc, 0, /*bps=*/20'000'000, /*propagation=*/sim::Microseconds(5));

  part.EnterRegion(0);
  atm::Endpoint* ea = net.AddEndpoint("ea", sa, 1, 155'000'000);
  part.EnterRegion(1);
  atm::Endpoint* eb = net.AddEndpoint("eb", sb, 2, 155'000'000);
  part.EnterRegion(2);
  atm::Endpoint* ec = net.AddEndpoint("ec", sc, 1, 155'000'000);

  auto vc_ab = net.OpenVc(ea, eb);
  auto vc_ba = net.OpenVc(eb, ea);
  auto vc_ac = net.OpenVc(ea, ec);  // crosses the 1 ns AND the 5 us trunk
  auto vc_ca = net.OpenVc(ec, ea);
  EXPECT_TRUE(vc_ab.has_value());
  EXPECT_TRUE(vc_ba.has_value());
  EXPECT_TRUE(vc_ac.has_value());
  EXPECT_TRUE(vc_ca.has_value());

  std::vector<std::pair<int, sim::TimeNs>> log_a;
  std::vector<std::pair<int, sim::TimeNs>> log_b;
  std::vector<std::pair<int, sim::TimeNs>> log_c;
  ea->set_cell_handler(
      [&](const atm::Cell& cell) { log_a.emplace_back(cell.vci, ea->simulator()->now()); });
  eb->set_cell_handler(
      [&](const atm::Cell& cell) { log_b.emplace_back(cell.vci, eb->simulator()->now()); });
  ec->set_cell_handler(
      [&](const atm::Cell& cell) { log_c.emplace_back(cell.vci, ec->simulator()->now()); });

  struct Flood {
    atm::Endpoint* ep;
    atm::Vci vci_1;
    atm::Vci vci_2;
    sim::DurationNs period;
    uint64_t n = 0;
    void Fire() {
      atm::Cell cell;
      cell.vci = (++n & 1) != 0 || vci_2 == 0 ? vci_1 : vci_2;
      for (int i = 0; i < 8; ++i) {
        cell.end_of_frame = (i == 7);
        ep->SendCell(cell);
      }
      ep->simulator()->ScheduleAfter(period, [this]() { Fire(); });
    }
  };
  Flood fa{ea, vc_ab->source_vci, vc_ac->source_vci, 7001};
  Flood fb{eb, vc_ba->source_vci, 0, 9973};
  Flood fc{ec, vc_ca->source_vci, 0, 11003};
  ea->simulator()->ScheduleAt(1, [&]() { fa.Fire(); });
  eb->simulator()->ScheduleAt(1, [&]() { fb.Fire(); });
  ec->simulator()->ScheduleAt(1, [&]() { fc.Fire(); });

  if (shards > 0) {
    group.RunUntil(sim::Milliseconds(20));
  } else {
    control.RunUntil(sim::Milliseconds(20));
  }

  TortureResult result;
  result.received_a = ea->cells_received();
  result.received_b = eb->cells_received() + ec->cells_received();
  for (const auto& link : net.links()) {
    if (link->propagation_delay() <= sim::Microseconds(5)) {
      result.trunk_sent += link->cells_sent();
      result.trunk_dropped += link->cells_dropped();
    }
  }
  std::vector<std::pair<int, sim::TimeNs>> log = std::move(log_a);
  log.insert(log.end(), log_b.begin(), log_b.end());
  log.insert(log.end(), log_c.begin(), log_c.end());
  result.digest = DigestLog(log);
  return result;
}

TEST(ShardGroupTest, AsymmetricLookaheadTortureMatchesSingleSimulatorBitForBit) {
  const TortureResult reference = RunAsymmetricTorture(/*shards=*/0);
  EXPECT_GT(reference.received_a, 0u);
  EXPECT_GT(reference.received_b, 0u);
  EXPECT_GT(reference.trunk_dropped, 0u);

  for (int shards : {1, 3}) {
    const TortureResult sharded = RunAsymmetricTorture(shards);
    EXPECT_EQ(sharded.digest, reference.digest) << "shards=" << shards;
    EXPECT_EQ(sharded.received_a, reference.received_a);
    EXPECT_EQ(sharded.received_b, reference.received_b);
    EXPECT_EQ(sharded.trunk_sent, reference.trunk_sent);
    EXPECT_EQ(sharded.trunk_dropped, reference.trunk_dropped);
  }
}

// A registered channel that carries nothing counts no messages while
// windows tick; one post counts exactly one.
TEST(ShardGroupTest, BoundaryMessagesCountOnlyPosts) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {/*shards=*/2});
  sim::Simulator* a = group.shard(0);
  sim::Simulator* b = group.shard(1);
  sim::BoundaryChannel* ab = group.RegisterBoundary(a, b, /*lookahead=*/100);

  struct Ticker {
    sim::Simulator* s;
    int left;
    void Fire() {
      if (--left > 0) {
        s->ScheduleAfter(50, [this]() { Fire(); });
      }
    }
  };
  Ticker ta{a, 100};
  Ticker tb{b, 100};
  a->ScheduleAt(1, [&]() { ta.Fire(); });
  b->ScheduleAt(1, [&]() { tb.Fire(); });
  group.RunUntil(10'000);

  EXPECT_GT(group.stats().windows, 0u);
  EXPECT_EQ(group.stats().messages, 0u);

  // Positive control: one post counts one message.
  int delivered = 0;
  a->ScheduleAt(10'050, [&]() {
    ab->Post(a->now() + 100, [&]() { ++delivered; });
  });
  group.RunUntil(20'000);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(group.stats().messages, 1u);
}

// A burst of control events at one instant is ONE global sync point, not
// one per event.
TEST(ShardGroupTest, SameTimestampControlEventsQuiesceOnce) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {/*shards=*/2});
  int ran = 0;
  group.shard(0)->ScheduleAt(50, []() {});
  group.shard(1)->ScheduleAt(150, []() {});
  for (int i = 0; i < 3; ++i) {
    control.ScheduleAt(100, [&]() { ++ran; });
  }
  group.RunUntil(200);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(group.stats().sync_points, 1u);

  // Distinct instants still quiesce separately.
  control.ScheduleAt(300, [&]() { ++ran; });
  control.ScheduleAt(400, [&]() { ++ran; });
  group.RunUntil(500);
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(group.stats().sync_points, 3u);
}

// Per-channel lookahead: a busy pair coupled by 5 us trunks must not be
// throttled to the 1 ns lookahead of a channel between two IDLE shards —
// under the old global-min horizon this topology planned a window per
// nanosecond-scale step; per-channel bounds plan one per 5 us.
TEST(ShardGroupTest, PerChannelLookaheadWidensWindows) {
  sim::Simulator control;
  sim::ShardGroup group(&control, {/*shards=*/4});
  sim::Simulator* a = group.shard(0);
  sim::Simulator* b = group.shard(1);
  group.RegisterBoundary(a, b, sim::Microseconds(5));
  group.RegisterBoundary(b, a, sim::Microseconds(5));
  // The distant fast pair: registered, never used, never scheduled.
  group.RegisterBoundary(group.shard(2), group.shard(3), /*lookahead=*/1);

  struct Ticker {
    sim::Simulator* s;
    int left;
    void Fire() {
      if (--left > 0) {
        s->ScheduleAfter(sim::Microseconds(1), [this]() { Fire(); });
      }
    }
  };
  Ticker ta{a, 1000};
  Ticker tb{b, 1000};
  a->ScheduleAt(1, [&]() { ta.Fire(); });
  b->ScheduleAt(1, [&]() { tb.Fire(); });
  group.RunUntil(sim::Milliseconds(1));

  // ~1 ms of 1 us events under 5 us windows: on the order of 200 windows.
  // The global-min horizon would need one window per event (2000+).
  EXPECT_GT(group.stats().windows, 0u);
  EXPECT_LT(group.stats().windows, 1000u);
}

// --- Fleet equivalence: the full metro scenario, every shard count ---------

scenario::TopologyParams SmallMetro() {
  scenario::TopologyParams params;
  params.core_switches = 2;
  params.agg_per_core = 2;
  params.edge_per_agg = 2;
  params.hosts_per_edge = 3;
  params.storage_per_core = 1;
  return params;
}

scenario::WorkloadParams ChurnParams() {
  scenario::WorkloadParams wparams;
  wparams.seed = 7;
  wparams.arrivals_per_sec = 40.0;
  wparams.mean_holding_sec = 1.0;
  wparams.data_session_fraction = 0.25;
  return wparams;
}

// shards == 0 runs the classic single-simulator engine.
uint64_t RunFleet(int shards) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::TopologyParams tparams = SmallMetro();
  sim::ShardGroup group(&sim, {shards > 0 ? shards : 1});
  const scenario::MetroTopology topo =
      scenario::BuildMetroTopology(system, tparams, shards > 0 ? &group : nullptr);
  scenario::ScenarioEngine engine(&system, &topo, ChurnParams());
  const scenario::FleetMetrics& metrics = engine.Run(sim::Seconds(2));
  EXPECT_GT(metrics.arrivals, 0);
  EXPECT_GT(metrics.admitted, 0);
  EXPECT_GT(metrics.link_cells_sent, 0u);
  return metrics.Fingerprint();
}

TEST(ShardGroupTest, FleetFingerprintIdenticalAtEveryShardCount) {
  const uint64_t reference = RunFleet(/*shards=*/0);
  for (int shards : {1, 2, 4, 8}) {
    EXPECT_EQ(RunFleet(shards), reference) << "shards=" << shards;
  }
}

// With the broadcast tier switched on, multicast trees span regions and
// replicated trains cross boundary channels; grafts and prunes land at
// global sync points. None of that may perturb the observable interleaving:
// the fleet fingerprint must stay bit-identical at every shard count, and
// the broadcast plane must actually have run (trees opened, leaves grafted).
uint64_t RunBroadcastFleet(int shards, scenario::FleetMetrics* out) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  const scenario::TopologyParams tparams = SmallMetro();
  sim::ShardGroup group(&sim, {shards > 0 ? shards : 1});
  const scenario::MetroTopology topo =
      scenario::BuildMetroTopology(system, tparams, shards > 0 ? &group : nullptr);
  scenario::WorkloadParams wparams = ChurnParams();
  wparams.broadcast_weight = 0.30;
  wparams.data_session_fraction = 0.5;  // channels must move replicated cells
  scenario::ScenarioEngine engine(&system, &topo, wparams);
  const scenario::FleetMetrics& metrics = engine.Run(sim::Seconds(2));
  EXPECT_GT(metrics.arrivals, 0);
  EXPECT_GT(metrics.admitted, 0);
  EXPECT_GT(metrics.link_cells_sent, 0u);
  if (out != nullptr) {
    *out = metrics;
  }
  return metrics.Fingerprint();
}

TEST(ShardGroupTest, BroadcastFleetFingerprintIdenticalAtEveryShardCount) {
  scenario::FleetMetrics reference_metrics;
  const uint64_t reference = RunBroadcastFleet(/*shards=*/0, &reference_metrics);
  EXPECT_GT(reference_metrics.mcast_trees_opened, 0);
  EXPECT_GT(reference_metrics.mcast_grafts, 0);
  EXPECT_GT(reference_metrics.mcast_peak_leaves, 1);
  for (int shards : {1, 2, 4, 8}) {
    scenario::FleetMetrics metrics;
    EXPECT_EQ(RunBroadcastFleet(shards, &metrics), reference) << "shards=" << shards;
    // The fan-out counters sit outside the fingerprint; pin them too.
    EXPECT_EQ(metrics.mcast_trees_opened, reference_metrics.mcast_trees_opened);
    EXPECT_EQ(metrics.mcast_grafts, reference_metrics.mcast_grafts);
    EXPECT_EQ(metrics.mcast_prunes, reference_metrics.mcast_prunes);
    EXPECT_EQ(metrics.mcast_peak_leaves, reference_metrics.mcast_peak_leaves);
  }
}

TEST(ShardGroupTest, ShardedFleetActuallyCrossesBoundaries) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  sim::ShardGroup group(&sim, {/*shards=*/4});
  const scenario::MetroTopology topo =
      scenario::BuildMetroTopology(system, SmallMetro(), &group);
  scenario::ScenarioEngine engine(&system, &topo, ChurnParams());
  engine.Run(sim::Seconds(1));

  EXPECT_GT(group.stats().windows, 0u);
  EXPECT_GT(group.stats().sync_points, 0u);
  EXPECT_GT(group.stats().messages, 0u);
  // Cross-region wires are exactly the core mesh and core-agg trunks.
  int boundaries = 0;
  for (const auto& link : system.network().links()) {
    boundaries += link->is_boundary() ? 1 : 0;
  }
  EXPECT_GT(boundaries, 0);
}

// --- Boundary preconditions ------------------------------------------------

// A zero-lookahead channel gives its destination a horizon equal to the
// source's next event, so no window makes progress. RegisterBoundary must
// refuse it — and a foreign or repeated simulator — in every build type,
// NDEBUG included, rather than hang or index out of range later. A post
// inside its channel's lookahead must abort too, rather than be clamped to
// the destination's clock and run late and out of order.
TEST(ShardGroupDeathTest, InvalidBoundaryAbortsInEveryBuildType) {
  EXPECT_DEATH(
      {
        sim::Simulator control;
        sim::ShardGroup group(&control, {/*shards=*/2});
        sim::Simulator* a = group.shard(0);
        sim::Simulator* b = group.shard(1);
        group.RegisterBoundary(a, b, /*lookahead=*/0);
        group.RegisterBoundary(b, a, /*lookahead=*/0);
        a->ScheduleAt(5, []() {});
        group.RunUntil(10);
      },
      "lookahead must be positive");
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        core::PegasusSystem system(&sim);
        sim::ShardGroup group(&sim, {/*shards=*/2});
        scenario::TopologyParams tparams = SmallMetro();
        tparams.core_mesh_prop = 0;
        const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, tparams, &group);
        scenario::ScenarioEngine engine(&system, &topo, ChurnParams());
        engine.Run(sim::Seconds(1));
      },
      "lookahead must be positive");
  EXPECT_DEATH(
      {
        sim::Simulator control;
        sim::ShardGroup group(&control, {/*shards=*/2});
        group.RegisterBoundary(group.shard(0), &control, /*lookahead=*/10);
      },
      "must be shards of this group");
  EXPECT_DEATH(
      {
        sim::Simulator control;
        sim::ShardGroup group(&control, {/*shards=*/2});
        group.RegisterBoundary(group.shard(1), group.shard(1), /*lookahead=*/10);
      },
      "must be different shards");
  EXPECT_DEATH(
      {
        sim::Simulator control;
        sim::ShardGroup group(&control, {/*shards=*/2});
        sim::Simulator* a = group.shard(0);
        sim::BoundaryChannel* ab = group.RegisterBoundary(a, group.shard(1), /*lookahead=*/10);
        a->ScheduleAt(5, [&]() { ab->Post(a->now() + 9, []() {}); });
        group.RunUntil(30);
      },
      "inside the lookahead");
}

// --- Per-purpose RNG streams ----------------------------------------------

// The data-session fraction draws from its own stream, so varying it must
// not shift which sessions arrive, where they go, or what admission says
// (with the monitor off and renegotiation disabled, data cells influence
// nothing upstream of them).
TEST(ScenarioRngStreamsTest, DataFractionDoesNotPerturbArrivalsOrAdmission) {
  auto run = [](double data_fraction) {
    sim::Simulator sim;
    core::PegasusSystem system(&sim);
    const scenario::TopologyParams tparams = SmallMetro();
    const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, tparams);
    scenario::WorkloadParams wparams;
    wparams.seed = 11;
    wparams.arrivals_per_sec = 40.0;
    wparams.mean_holding_sec = 1.0;
    wparams.renegotiate_fraction = 0.0;
    wparams.data_session_fraction = data_fraction;
    scenario::ScenarioEngine engine(&system, &topo, wparams);
    return engine.Run(sim::Seconds(2));
  };
  const scenario::FleetMetrics lean = run(0.0);
  const scenario::FleetMetrics heavy = run(0.6);
  EXPECT_GT(lean.arrivals, 0);
  EXPECT_EQ(lean.arrivals, heavy.arrivals);
  EXPECT_EQ(lean.admitted, heavy.admitted);
  EXPECT_EQ(lean.blocked, heavy.blocked);
  EXPECT_EQ(lean.peak_concurrent, heavy.peak_concurrent);
  // The data plane, by contrast, must respond to the knob.
  EXPECT_GT(heavy.link_cells_sent, lean.link_cells_sent);
}

}  // namespace
}  // namespace pegasus
