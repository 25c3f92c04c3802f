// E16 — Metro-scale scenario engine: generated hierarchical fabrics under
// session churn (§2.3, §6).
//
// "It is our belief that this architecture can be made to scale to very
// large systems indeed" — the paper's closing claim is about fleets, not
// desks. This harness generates core/aggregation/edge hierarchies with
// capacity tapering toward the subscriber, drives them with Poisson session
// churn (phone calls, Zipf-popular video-on-demand play-outs, recorder
// streams), and measures what an operator would: admission latency,
// blocking probability by layer, adaptation convergence and sustained
// simulated cell throughput.
//
// Modes:
//   (default)        full sweep: topology scaling + arrival-rate scaling
//   smoke [secs]     CI-sized run (2 aggregation switches, ~100 hosts);
//                    exits non-zero if nothing was admitted
//   snapshot         machine-readable JSON of the small/mid points
//   shards [secs]    region-sharded PDES: metro-large at 1/2/4/8 shards
//                    (windows run inline) vs the single-simulator reference,
//                    JSON with wall clocks and fingerprints (must be identical);
//                    exits non-zero on any fingerprint divergence
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"

using namespace pegasus;
using sim::Seconds;

namespace {

struct Point {
  std::string name;
  scenario::TopologyParams topo;
  double arrivals_per_sec = 0;
  int seconds = 6;
  double data_fraction = 0.05;
  scenario::FleetMetrics metrics;
  int switches = 0;
  int hosts = 0;
};

scenario::TopologyParams Metro(int cores, int aggs, int edges, int hosts) {
  scenario::TopologyParams p;
  p.core_switches = cores;
  p.agg_per_core = aggs;
  p.edge_per_agg = edges;
  p.hosts_per_edge = hosts;
  p.storage_per_core = 2;
  return p;
}

Point MakePoint(const std::string& name, scenario::TopologyParams topo, double arrivals_per_sec,
                int seconds, double data_fraction) {
  Point p;
  p.name = name;
  p.topo = topo;
  p.arrivals_per_sec = arrivals_per_sec;
  p.seconds = seconds;
  p.data_fraction = data_fraction;
  return p;
}

// `shards` == 0 runs the classic single-simulator engine; > 0 partitions
// the fabric by region across that many shards.
void RunPoint(Point* point, uint64_t seed, int shards = 0,
              sim::ShardGroup::Stats* stats_out = nullptr) {
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  std::unique_ptr<sim::ShardGroup> group;
  if (shards > 0) {
    group = std::make_unique<sim::ShardGroup>(&sim, sim::ShardGroup::Options{shards});
  }
  const scenario::MetroTopology topo =
      scenario::BuildMetroTopology(system, point->topo, group.get());
  point->switches = point->topo.num_switches();
  point->hosts = point->topo.num_hosts();

  scenario::WorkloadParams w;
  w.seed = seed;
  w.arrivals_per_sec = point->arrivals_per_sec;
  w.mean_holding_sec = 5.0;
  w.data_session_fraction = point->data_fraction;
  w.enable_qos_monitor = true;
  scenario::ScenarioEngine engine(&system, &topo, w);
  point->metrics = engine.Run(Seconds(point->seconds));
  if (stats_out != nullptr && group != nullptr) {
    *stats_out = group->stats();
  }
}

void AddRow(sim::Table* table, const Point& p) {
  const scenario::FleetMetrics& m = p.metrics;
  table->AddRow({p.name, sim::Table::Int(p.switches), sim::Table::Int(p.hosts),
                 sim::Table::Num(p.arrivals_per_sec, 0), sim::Table::Int(m.arrivals),
                 sim::Table::Int(m.admitted), sim::Table::Percent(m.blocking_probability()),
                 sim::Table::Int(m.peak_concurrent), sim::Table::Num(m.mean_admit_wall_us(), 1),
                 sim::Table::Num(m.mean_convergence_ms(), 0),
                 sim::Table::Num(m.cells_per_wall_second() / 1e6, 2)});
}

int RunSmoke(int seconds) {
  Point p = MakePoint("smoke", Metro(1, 2, 6, 8), 40.0, seconds, 0.3);
  p.topo.storage_per_core = 1;
  RunPoint(&p, 16);
  const scenario::FleetMetrics& m = p.metrics;
  std::printf("smoke: %d switches, %d hosts, %d s\n%s\n", p.switches, p.hosts, p.seconds,
              m.Summary().c_str());
  const bool ok = m.admitted > 0 && m.departed > 0 && m.link_cells_sent > 0 &&
                  m.records_played > 0;
  bench::PrintVerdict(ok, ok ? "metro smoke fleet admitted, moved cells and churned sessions"
                             : "metro smoke fleet admitted nothing");
  return ok ? 0 : 1;
}

void PrintJson(const std::vector<Point>& points) {
  std::printf("{\n  \"bench\": \"e16_metro_scale\",\n  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const scenario::FleetMetrics& m = points[i].metrics;
    std::printf("    {\"name\": \"%s\", \"switches\": %d, \"hosts\": %d, "
                "\"arrivals_per_sec\": %.0f, \"arrivals\": %lld, \"admitted\": %lld, "
                "\"blocking_probability\": %.4f, \"peak_concurrent\": %lld, "
                "\"admit_mean_us\": %.2f, \"convergence_ms\": %.1f, "
                "\"cells_per_wall_second\": %.0f, \"fingerprint\": \"%llx\"}%s\n",
                points[i].name.c_str(), points[i].switches, points[i].hosts,
                points[i].arrivals_per_sec, static_cast<long long>(m.arrivals),
                static_cast<long long>(m.admitted), m.blocking_probability(),
                static_cast<long long>(m.peak_concurrent), m.mean_admit_wall_us(),
                m.mean_convergence_ms(), m.cells_per_wall_second(),
                static_cast<unsigned long long>(m.Fingerprint()),
                i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int RunSnapshot() {
  std::vector<Point> points;
  points.push_back(MakePoint("metro-small", Metro(1, 2, 2, 8), 40.0, 4, 0.05));
  points.push_back(MakePoint("metro-mid", Metro(2, 2, 3, 16), 120.0, 4, 0.02));
  for (auto& p : points) {
    RunPoint(&p, 16);
  }
  PrintJson(points);
  return 0;
}

// Region-sharded PDES on the metro-large fabric: the single-simulator
// reference, then 1/2/4/8 shards, every window run inline — the wall clock
// is the pure window-machinery overhead. Sharding must change wall clock
// only — every fingerprint must equal the reference's. The JSON records the
// host's hardware concurrency plus per-point window, sync-point and
// boundary-message counters, so the wall clocks stay interpretable off this
// host.
int RunShardScaling(int seconds) {
  struct ShardPoint {
    int shards = 0;  // 0 = single-simulator reference
    double wall_seconds = 0;
    uint64_t fingerprint = 0;
    sim::ShardGroup::Stats stats;
  };
  std::vector<ShardPoint> points;
  for (int shards : {0, 1, 2, 4, 8}) {
    ShardPoint sp;
    sp.shards = shards;
    Point p = MakePoint("metro-large", Metro(3, 3, 4, 30), 400.0, seconds, 0.02);
    RunPoint(&p, 16, sp.shards, &sp.stats);
    sp.wall_seconds = p.metrics.run_wall_seconds;
    sp.fingerprint = p.metrics.Fingerprint();
    points.push_back(sp);
  }

  bool identical = true;
  for (const auto& sp : points) {
    identical = identical && sp.fingerprint == points[0].fingerprint;
  }
  std::printf("{\n  \"bench\": \"e16_shard_scaling\",\n"
              "  \"fabric\": \"metro-large\", \"seconds\": %d,\n"
              "  \"hardware_concurrency\": %u,\n  \"points\": [\n",
              seconds, std::thread::hardware_concurrency());
  for (size_t i = 0; i < points.size(); ++i) {
    const ShardPoint& sp = points[i];
    std::printf("    {\"shards\": %d, \"wall_seconds\": %.3f, "
                "\"speedup\": %.2f, \"windows\": %llu, \"sync_points\": %llu, "
                "\"boundary_messages\": %llu, \"fingerprint\": \"%llx\"}%s\n",
                sp.shards, sp.wall_seconds,
                points[0].wall_seconds / sp.wall_seconds,
                static_cast<unsigned long long>(sp.stats.windows),
                static_cast<unsigned long long>(sp.stats.sync_points),
                static_cast<unsigned long long>(sp.stats.messages),
                static_cast<unsigned long long>(sp.fingerprint),
                i + 1 < points.size() ? "," : "");
  }
  std::printf("  ],\n  \"identical_fingerprints\": %s\n}\n", identical ? "true" : "false");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) {
    const int seconds = argc > 2 ? std::max(2, std::atoi(argv[2])) : 3;
    return RunSmoke(seconds);
  }
  if (argc > 1 && std::strcmp(argv[1], "snapshot") == 0) {
    return RunSnapshot();
  }
  if (argc > 1 && std::strcmp(argv[1], "shards") == 0) {
    const int seconds = argc > 2 ? std::max(1, std::atoi(argv[2])) : 8;
    return RunShardScaling(seconds);
  }

  bench::PrintHeader(
      "E16", "metro-scale fabrics under session churn",
      "\"the system accommodates...millions of users\" — admission, blocking and "
      "adaptation must hold up on generated metropolitan hierarchies, not just a desk");

  // --- sweep 1: topology scaling at proportionate offered load ---
  std::vector<Point> scale;
  scale.push_back(MakePoint("metro-small", Metro(1, 2, 2, 8), 40.0, 6, 0.05));
  scale.push_back(MakePoint("metro-mid", Metro(2, 2, 3, 16), 120.0, 6, 0.02));
  scale.push_back(MakePoint("metro-large", Metro(3, 3, 4, 30), 400.0, 8, 0.02));
  for (auto& p : scale) {
    RunPoint(&p, 16);
  }
  sim::Table t1({"point", "switches", "hosts", "arr/s", "arrivals", "admitted", "blocking",
                 "peak", "admit us", "conv ms", "Mcell/s"});
  for (const auto& p : scale) {
    AddRow(&t1, p);
  }
  bench::PrintTable("topology scaling (Poisson churn, Zipf VOD, 5 s mean holding)", t1);

  // --- sweep 2: arrival-rate scaling on the mid fabric ---
  std::vector<Point> load;
  for (double rate : {60.0, 120.0, 240.0}) {
    load.push_back(
        MakePoint("mid@" + std::to_string(static_cast<int>(rate)), Metro(2, 2, 3, 16), rate, 6,
                  0.02));
  }
  for (auto& p : load) {
    RunPoint(&p, 16);
  }
  sim::Table t2({"point", "switches", "hosts", "arr/s", "arrivals", "admitted", "blocking",
                 "peak", "admit us", "conv ms", "Mcell/s"});
  for (const auto& p : load) {
    AddRow(&t2, p);
  }
  bench::PrintTable("arrival-rate scaling, fixed mid fabric", t2);

  // --- determinism spot-check: the small point replayed from its seed ---
  Point replay = MakePoint("metro-small", Metro(1, 2, 2, 8), 40.0, 6, 0.05);
  RunPoint(&replay, 16);
  const bool deterministic =
      replay.metrics.Fingerprint() == scale[0].metrics.Fingerprint();

  const scenario::FleetMetrics& big = scale.back().metrics;
  const bool fleet_scale = scale.back().switches >= 100 && big.peak_concurrent >= 1000;
  const bool monotone =
      load[0].metrics.blocking_probability() <= load[1].metrics.blocking_probability() &&
      load[1].metrics.blocking_probability() <= load[2].metrics.blocking_probability();
  const bool holds = fleet_scale && monotone && deterministic && big.admitted > 0 &&
                     big.blocked > 0 && big.link_cells_sent > 0;

  char text[256];
  std::snprintf(text, sizeof(text),
                "%d-switch fabric held %lld concurrent sessions (blocking %.1f%%, "
                "admission %.0f us mean), blocking monotone in load, seed-deterministic",
                scale.back().switches, static_cast<long long>(big.peak_concurrent),
                big.blocking_probability() * 100.0, big.mean_admit_wall_us());
  bench::PrintVerdict(holds, text);
  return holds ? 0 : 1;
}
