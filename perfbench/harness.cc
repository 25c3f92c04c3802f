// Benchmark harness: drives the simulator from outside through its public
// API, times every call it makes, and checks that the work came out right.
//
//   perfbench_harness <workload> <seed> <seconds> <trace 0|1> <out.json>
//
// Workloads (see README.md for why each exists):
//   fleet                 metro-large Poisson churn through scenario::ScenarioEngine
//   fleet-sharded         the same draws through sim::ShardGroup, 2 shards, auto threads
//   fleet-sharded-serial  the same, with the 2 shards run inline (threads = 1)
//   churn                 closed-loop contract open/graft/prune/renegotiate/close, no cells
//   pfs-log               Baker file churn on one pfs::PegasusFileServer with crashes
//
// A run performs a fixed number of rounds, `seconds` divided by the
// workload's nominal round time, so two builds always measure the same
// inputs. With trace=1, traced and untraced rounds alternate: traced rounds
// record a span around every public call (kept in memory, written to
// <out.json>.spans at exit), untraced rounds give the per-call timings.
// run.py computes the statistics from the raw samples this program writes.
// Every failed correctness gate is counted as a failed operation.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/storage_node.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/pfs/server.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"
#include "src/sim/random.h"
#include "src/sim/shard.h"

using namespace pegasus;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
double SecondsBetween(int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e9; }

// --- spans ---

class Tracer {
 public:
  struct Span {
    int32_t parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  int32_t Begin(const char* name) {
    if (!on_) {
      return -1;
    }
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{stack_.empty() ? -1 : stack_.back(), name, NowNs(), 0});
    stack_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    tracer_->End(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int32_t id_;
};

// --- what a run records ---

struct Round {
  bool traced = false;
  double setup_s = 0;     // topology build + engine construction (or server set-up)
  double build_s = 0;     // topology build
  double init_s = 0;      // engine construction / catalog seeding
  double wall_s = 0;      // host time of the round's measured work
  double sim_s = 0;       // simulated seconds the round covered (0: none)
  int64_t ops = 0;        // contract operations the round performed
  // The round's work in units its simulated output fixes, so that work per
  // host second compares across seeds: cell-hops (fleet), contract
  // operations (churn), blocks written to the log (pfs-log).
  int64_t work = 0;
  double admit_wall_ns = 0;  // fleet: FleetMetrics::admit_wall_ns_total
  int64_t admit_calls = 0;
  double cal = 0;         // host calibration rate around the round (CalibrationRate)
  int64_t rss_kb = 0;     // resident set when the round's work is done (ResidentKb)
};

struct Run {
  std::string workload;
  uint64_t seed = 0;
  Tracer tracer;
  std::vector<Round> rounds;
  // Every set-up performed (churn builds one fabric per batch of rounds):
  // seconds, and the calibration rate around it.
  std::vector<std::pair<double, double>> setups;
  std::map<std::string, std::vector<int64_t>> samples;  // ns, untraced rounds only
  // Deterministic work counters: per round for churn and pfs-log (every
  // round must repeat them), summed over the run's draws for the fleets.
  std::map<std::string, int64_t> counters;
  std::vector<std::string> fingerprints;         // fleet: one per untraced draw
  std::vector<std::string> traced_fingerprints;  // fleet: one per traced draw
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) {
        failures.push_back(what);
      }
    }
  }
  void Sample(const char* name, int64_t ns) {
    if (!tracer.on()) {
      samples[name].push_back(ns);
    }
  }
  // Fleet draws differ, so their counters are summed over the run.
  void AddCounters(const std::map<std::string, int64_t>& round_counters) {
    for (const auto& [name, value] : round_counters) {
      counters[name] += value;
    }
  }
  // The first round's counters are the reference; every later round of the
  // same inputs must reproduce them exactly.
  void CheckCounters(const std::map<std::string, int64_t>& round_counters) {
    if (counters.empty()) {
      counters = round_counters;
      return;
    }
    bool same = true;
    for (const auto& [name, value] : round_counters) {
      auto it = counters.find(name);
      if (it == counters.end() || it->second != value) {
        same = false;
        Check(false, "counter " + name + " changed between rounds: " +
                         (it == counters.end() ? std::string("absent") : std::to_string(it->second)) +
                         " -> " + std::to_string(value));
      }
    }
    if (same) {
      Check(true, "");
    }
  }
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Resident set size of this process now, in KiB. Rounds release their
// memory to the system when they end (malloc_trim), so each round's reading
// is that round's own footprint, not the high-water mark of earlier ones.
int64_t ResidentKb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long long size = 0;
  long long resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1024) : 0;
}

// --- host speed ---

// Runs of a fixed memory-bound kernel per host second. The host this
// benchmark was tuned on changes speed by up to 1.6x within a minute (other
// tenants share its cores), so each round is bracketed by this kernel and
// run.py scales timings to a reference kernel rate. The kernel is fixed code
// here, never the simulator's, so a change to the simulator still moves
// every normalised figure.
double CalibrationRate() {
  constexpr size_t kMask = (size_t{1} << 22) - 1;  // 32 MiB of uint64_t
  static std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kMask + 1);
    uint64_t x = 1;
    for (uint64_t& v : t) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = x;
    }
    return t;
  }();
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < (1 << 17); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & kMask];
    table[(acc >> 7) & kMask] ^= x;
  }
  const int64_t t1 = NowNs();
  table[0] += acc & 1;  // keeps the loop observable
  return 1e9 / static_cast<double>(std::max<int64_t>(1, t1 - t0));
}

// --- the metro-large fabric every network workload runs on ---

scenario::TopologyParams MetroLarge() {
  scenario::TopologyParams p;
  p.core_switches = 3;
  p.agg_per_core = 3;
  p.edge_per_agg = 4;
  p.hosts_per_edge = 30;
  p.storage_per_core = 2;
  return p;
}

// --- fleet / fleet-sharded ---

constexpr int kFleetSimSeconds = 8;

scenario::WorkloadParams FleetParams(uint64_t seed) {
  scenario::WorkloadParams w;
  w.seed = seed;
  w.arrivals_per_sec = 400.0;
  w.mean_holding_sec = 5.0;
  w.data_session_fraction = 0.02;
  w.broadcast_weight = 0.15;
  w.enable_qos_monitor = true;
  return w;
}

// One fleet round. `shards` 0 runs the unsharded engine; `threads` is
// ShardGroup::Options::threads (0 = auto).
uint64_t FleetRound(Run* run, uint64_t draw, int shards, int threads) {
  Tracer* tr = &run->tracer;
  Round round;
  round.traced = tr->on();
  const double cal0 = CalibrationRate();
  ScopedSpan round_span(tr, "round");
  const int64_t t0 = NowNs();
  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  std::unique_ptr<sim::ShardGroup> group;
  if (shards > 0) {
    group = std::make_unique<sim::ShardGroup>(&sim, sim::ShardGroup::Options{shards, threads});
  }
  scenario::MetroTopology topo;
  {
    ScopedSpan s(tr, "scenario.BuildMetroTopology");
    topo = scenario::BuildMetroTopology(system, MetroLarge(), group.get());
  }
  const int64_t t1 = NowNs();
  std::unique_ptr<scenario::ScenarioEngine> engine;
  {
    ScopedSpan s(tr, "scenario.ScenarioEngine");
    engine = std::make_unique<scenario::ScenarioEngine>(&system, &topo, FleetParams(draw));
  }
  const int64_t t2 = NowNs();
  scenario::FleetMetrics m;
  {
    ScopedSpan s(tr, "scenario.ScenarioEngine::Run");
    m = engine->Run(sim::Seconds(kFleetSimSeconds));
  }
  const int64_t t3 = NowNs();
  round_span.End();
  round.rss_kb = ResidentKb();
  round.cal = (cal0 + CalibrationRate()) / 2;

  round.build_s = SecondsBetween(t0, t1);
  round.init_s = SecondsBetween(t1, t2);
  round.setup_s = SecondsBetween(t0, t2);
  round.wall_s = SecondsBetween(t2, t3);
  round.sim_s = kFleetSimSeconds;
  round.ops = m.arrivals + m.departed + m.renegotiations;
  round.work = static_cast<int64_t>(m.link_cells_sent);
  round.admit_wall_ns = m.admit_wall_ns_total;
  round.admit_calls = m.admit_calls;
  run->rounds.push_back(round);
  run->setups.emplace_back(round.setup_s, round.cal);

  // The fleet's books must balance: every arrival is admitted or blocked
  // for exactly one cause, and the fleet did admit sessions and move cells.
  run->Check(m.arrivals == m.admitted + m.blocked && m.admitted > 0 && m.link_cells_sent > 0,
             "draw " + std::to_string(draw) + ": arrivals " + std::to_string(m.arrivals) +
                 " != admitted " + std::to_string(m.admitted) + " + blocked " +
                 std::to_string(m.blocked) + ", or nothing admitted or moved");
  run->Check(m.blocked == m.blocked_network + m.blocked_disk + m.blocked_content_busy +
                              m.blocked_other,
             "draw " + std::to_string(draw) + ": blocking causes do not sum to blocked");
  uint64_t events = sim.executed();
  std::map<std::string, int64_t> c;
  if (group != nullptr) {
    for (int i = 0; i < group->shard_count(); ++i) {
      events += group->shard(i)->executed();
    }
    const sim::ShardGroup::Stats& st = group->stats();
    c["shard.windows"] = static_cast<int64_t>(st.windows);
    c["shard.sync_points"] = static_cast<int64_t>(st.sync_points);
    c["shard.messages"] = static_cast<int64_t>(st.messages);
    c["shard.handoffs"] = static_cast<int64_t>(st.handoffs);
    c["shard.merges"] = static_cast<int64_t>(st.merges);
  }
  int64_t checkpoints = 0;
  int64_t segments = 0;
  int64_t blocks = 0;
  for (core::StorageNode* node : topo.storage) {
    checkpoints += node->server()->checkpoint_count();
    segments += node->server()->segments_written();
    blocks += node->server()->blocks_written_to_disk();
  }
  c["pfs.checkpoints"] = checkpoints;
  c["pfs.segments_written"] = segments;
  c["pfs.blocks_to_disk"] = blocks;
  c["sim.events"] = static_cast<int64_t>(events);
  c["atm.cell_hops"] = static_cast<int64_t>(m.link_cells_sent);
  c["atm.cells_dropped"] = static_cast<int64_t>(m.link_cells_dropped);
  c["atm.admission_rejections"] = m.net_rejections_bandwidth + m.net_rejections_no_path;
  c["core.adaptation_events"] = m.adaptation_events;
  c["scenario.arrivals"] = m.arrivals;
  c["scenario.admitted"] = m.admitted;
  c["scenario.blocked"] = m.blocked;
  c["scenario.mcast_grafts"] = m.mcast_grafts;
  c["scenario.records_played"] = m.records_played;
  c["scenario.records_recorded"] = m.records_recorded;
  c["scenario.peak_concurrent"] = m.peak_concurrent;
  if (!round.traced) {
    run->AddCounters(c);
  }
  return m.Fingerprint();
}

// Host seconds one round takes on the reference host (README.md). A run
// performs a fixed number of rounds, seconds / nominal, so two commits always
// measure the same inputs however fast each is.
constexpr double kFleetNominalRoundSeconds = 1.25;
constexpr double kChurnNominalFabricSeconds = 0.45;
constexpr double kPfsNominalRoundSeconds = 0.8;

int RoundsFor(double seconds, double nominal) {
  return std::max(1, static_cast<int>(seconds / nominal + 0.5));
}

// Round i of run seed s simulates the fleet drawn from seed s * 1000 + i, so
// a run averages over many independent fleets and runs with different seeds
// share none.
uint64_t DrawSeed(uint64_t seed, int round) { return seed * 1000 + static_cast<uint64_t>(round); }

void RunFleet(Run* run, double seconds, bool trace, int shards, int threads) {
  // Traced runs measure every draw twice, traced then untraced, in the same
  // total time.
  const int rounds = RoundsFor(seconds, kFleetNominalRoundSeconds);
  const int draws = trace ? std::max(1, rounds / 2) : rounds;
  for (int i = 0; i < draws; ++i) {
    const uint64_t draw = DrawSeed(run->seed, i);
    std::string reference;
    if (shards > 0) {
      // The unsharded engine is the golden reference: every sharded round
      // must reproduce its fingerprint bit for bit.
      Run unsharded;
      reference = Hex(FleetRound(&unsharded, draw, 0, 0));
      malloc_trim(0);
    }
    for (int pass = trace ? 0 : 1; pass < 2; ++pass) {
      run->tracer.set_on(pass == 0);
      const std::string fp = Hex(FleetRound(run, draw, shards, threads));
      malloc_trim(0);
      if (pass == 1) {
        run->fingerprints.push_back(fp);
      } else {
        run->traced_fingerprints.push_back(fp);
      }
      if (!reference.empty()) {
        run->Check(fp == reference, "draw " + std::to_string(draw) + ": sharded fingerprint " +
                                        fp + " != unsharded " + reference);
      }
    }
  }
  run->tracer.set_on(false);
  for (size_t i = 0; i < run->traced_fingerprints.size(); ++i) {
    run->Check(run->traced_fingerprints[i] == run->fingerprints[i],
               "tracing changed the fingerprint of draw " + std::to_string(i));
  }
}

// --- churn ---

constexpr int kChurnRoundsPerFabric = 8;
constexpr int kChurnChannels = 4;
constexpr int kChurnGrafts = 100;

struct Fabric {
  sim::Simulator sim;
  core::PegasusSystem system{&sim};
  scenario::MetroTopology topo;
};

std::map<std::string, int64_t> ChurnRound(Run* run, Fabric* f, sim::Rng* rng) {
  Tracer* tr = &run->tracer;
  atm::Network& net = f->system.network();
  const std::vector<core::Workstation*>& hosts = f->topo.hosts;
  const int n = static_cast<int>(hosts.size());
  const int64_t base_vcs = net.open_vc_count();
  const int64_t base_rejections = net.admission_rejections();
  int64_t ops = 0;
  int64_t opened = 0;
  int64_t grafted = 0;
  int64_t pruned = 0;
  int64_t renegotiated = 0;
  int64_t closed = 0;

  Round round;
  round.traced = tr->on();
  ScopedSpan round_span(tr, "round");
  const int64_t t0 = NowNs();

  // Open one phone-class unicast contract per host between random pairs.
  std::vector<core::StreamSession*> unicast;
  unicast.reserve(static_cast<size_t>(n));
  {
    ScopedSpan phase(tr, "phase.open");
    for (int k = 0; k < n; ++k) {
      const int a = static_cast<int>(rng->UniformInt(0, n - 1));
      int b = static_cast<int>(rng->UniformInt(0, n - 2));
      if (b >= a) {
        ++b;
      }
      core::Workstation* src = hosts[static_cast<size_t>(a)];
      core::Workstation* dst = hosts[static_cast<size_t>(b)];
      if (tr->on()) {
        // A cold resolve, timed apart from the admission that follows it.
        ScopedSpan s(tr, "atm.Network::ResolveRoute");
        run->Check(net.ResolveRoute(src->host(), dst->host()).has_value(), "route unresolved");
      }
      core::StreamBuilder builder = f->system.BuildStream();
      builder.FromEndpoint(src, src->host()).ToEndpoint(dst, dst->host());
      builder.WithSpec(core::StreamSpec::Video(25.0, 2'000'000));
      const int64_t s0 = NowNs();
      core::StreamResult r;
      {
        ScopedSpan s(tr, "core.StreamBuilder::Open");
        r = builder.Open();
      }
      run->Sample("open", NowNs() - s0);
      ++ops;
      run->Check(r.report.ok(), "unicast open refused: " + r.report.detail);
      if (r.report.ok()) {
        unicast.push_back(r.session);
        ++opened;
      }
    }
  }

  // Broadcast channels: open a one-leaf tree, graft viewers, prune half.
  std::vector<core::StreamSession*> trees;
  {
    ScopedSpan phase(tr, "phase.broadcast");
    std::vector<char> in_tree(static_cast<size_t>(n));
    for (int c = 0; c < kChurnChannels; ++c) {
      std::fill(in_tree.begin(), in_tree.end(), 0);
      const int head = static_cast<int>(rng->UniformInt(0, n - 1));
      in_tree[static_cast<size_t>(head)] = 1;
      auto pick_viewer = [&]() {
        int v = 0;
        do {
          v = static_cast<int>(rng->UniformInt(0, n - 1));
        } while (in_tree[static_cast<size_t>(v)] != 0);
        in_tree[static_cast<size_t>(v)] = 1;
        return hosts[static_cast<size_t>(v)];
      };
      core::Workstation* first = pick_viewer();
      core::StreamBuilder builder = f->system.BuildStream();
      builder.FromEndpoint(hosts[static_cast<size_t>(head)], hosts[static_cast<size_t>(head)]->host())
          .ToMany({core::MulticastSink{first, first->host()}})
          .WithSpec(core::StreamSpec::Video(25.0, 3'000'000));
      core::StreamResult r;
      {
        ScopedSpan s(tr, "core.StreamBuilder::Open");
        r = builder.Open();
      }
      ++ops;
      run->Check(r.report.ok(), "broadcast tree open refused: " + r.report.detail);
      if (!r.report.ok()) {
        continue;
      }
      trees.push_back(r.session);
      std::vector<core::Workstation*> viewers;
      for (int g = 0; g < kChurnGrafts; ++g) {
        core::Workstation* v = pick_viewer();
        const int64_t s0 = NowNs();
        core::AdmissionReport report;
        {
          ScopedSpan s(tr, "core.StreamSession::AddSink");
          report = r.session->AddSink(core::MulticastSink{v, v->host()});
        }
        run->Sample("graft", NowNs() - s0);
        ++ops;
        run->Check(report.ok(), "graft refused: " + report.detail);
        if (report.ok()) {
          viewers.push_back(v);
          ++grafted;
        }
      }
      rng->Shuffle(viewers);
      for (size_t i = 0; i < viewers.size() / 2; ++i) {
        const int64_t s0 = NowNs();
        bool ok = false;
        {
          ScopedSpan s(tr, "core.StreamSession::RemoveSink");
          ok = r.session->RemoveSink(viewers[i]->host());
        }
        run->Sample("remove_sink", NowNs() - s0);
        ++ops;
        run->Check(ok, "prune refused");
        pruned += ok ? 1 : 0;
      }
    }
  }
  const int64_t peak_vcs = net.open_vc_count() - base_vcs;
  round.rss_kb = ResidentKb();

  // Renegotiate every unicast contract down to 60%.
  {
    ScopedSpan phase(tr, "phase.renegotiate");
    for (core::StreamSession* s : unicast) {
      core::StreamSpec spec = s->contract().granted;
      spec.bandwidth_bps = spec.bandwidth_bps * 6 / 10;
      const int64_t s0 = NowNs();
      core::AdmissionReport report;
      {
        ScopedSpan span(tr, "core.StreamSession::Renegotiate");
        report = s->Renegotiate(spec);
      }
      run->Sample("renegotiate", NowNs() - s0);
      ++ops;
      run->Check(report.ok(), "renegotiation down refused: " + report.detail);
      renegotiated += report.ok() ? 1 : 0;
    }
  }

  // Close everything.
  {
    ScopedSpan phase(tr, "phase.close");
    for (auto* list : {&unicast, &trees}) {
      for (core::StreamSession* s : *list) {
        const int64_t s0 = NowNs();
        {
          ScopedSpan span(tr, "core.StreamSession::Close");
          s->Close();
        }
        run->Sample("close", NowNs() - s0);
        ++ops;
        ++closed;
      }
    }
  }
  const int64_t t1 = NowNs();
  round_span.End();

  // The books must drain exactly: every VC closed, every link's ledger zero.
  run->Check(net.open_vc_count() == base_vcs,
             "open_vc_count " + std::to_string(net.open_vc_count()) + " != base " +
                 std::to_string(base_vcs) + " after a churn round");
  int64_t undrained = 0;
  for (const auto& link : net.links()) {
    undrained += net.ReservedBandwidth(link.get()) != 0 ? 1 : 0;
  }
  run->Check(undrained == 0, std::to_string(undrained) + " links keep a reservation after close");

  round.wall_s = SecondsBetween(t0, t1);
  round.ops = ops;
  round.work = ops;
  run->rounds.push_back(round);

  return {{"core.opens", opened},
          {"core.grafts", grafted},
          {"core.prunes", pruned},
          {"core.renegotiations", renegotiated},
          {"core.closes", closed},
          {"atm.open_vcs_peak", peak_vcs},
          {"atm.admission_rejections", net.admission_rejections() - base_rejections},
          {"sim.events", static_cast<int64_t>(f->sim.executed())}};
}

void RunChurn(Run* run, double seconds, bool trace) {
  int traced = 0;
  int untraced = 0;
  std::vector<std::map<std::string, int64_t>> reference;  // per round index
  const int fabrics = RoundsFor(seconds, kChurnNominalFabricSeconds);
  for (int fabric_index = 0; fabric_index < fabrics; ++fabric_index) {
    // Each batch of rounds runs on a freshly built fabric with the same
    // inputs, so round k of every batch must reproduce the same counters.
    const double cal0 = CalibrationRate();
    const int64_t b0 = NowNs();
    auto fabric = std::make_unique<Fabric>();
    {
      run->tracer.set_on(trace && traced <= untraced);
      ScopedSpan s(&run->tracer, "scenario.BuildMetroTopology");
      fabric->topo = scenario::BuildMetroTopology(fabric->system, MetroLarge());
    }
    const double setup_s = SecondsBetween(b0, NowNs());
    double cal = CalibrationRate();
    run->setups.emplace_back(setup_s, (cal0 + cal) / 2);
    sim::Rng rng(run->seed);
    for (int k = 0; k < kChurnRoundsPerFabric; ++k) {
      const bool traced_round = trace && traced <= untraced;
      run->tracer.set_on(traced_round);
      std::map<std::string, int64_t> c = ChurnRound(run, fabric.get(), &rng);
      (traced_round ? traced : untraced) += 1;
      Round& r = run->rounds.back();
      const double next_cal = CalibrationRate();
      r.cal = (cal + next_cal) / 2;
      cal = next_cal;
      r.setup_s = setup_s;
      r.build_s = setup_s;
      if (static_cast<size_t>(k) >= reference.size()) {
        reference.push_back(c);
        run->Check(true, "");
      } else {
        bool same = c == reference[static_cast<size_t>(k)];
        run->Check(same, "churn round " + std::to_string(k) + " counters differ across fabrics");
      }
    }
    fabric.reset();
    malloc_trim(0);
  }
  run->tracer.set_on(false);
  run->counters = reference.front();
}

// --- pfs-log ---

// Baker et al.'s file lifetimes (E11): files are created steadily, 70% die
// young (exponential, mean 12 s), the rest live long (mean 600 s); half are
// overwritten once at mid-life. Write-through, so every write goes to the
// log and triggers a metadata checkpoint.
constexpr int kPfsFiles = 1200;
constexpr int kPfsBaseFiles = 300;
constexpr int64_t kPfsSimSeconds = 120;
constexpr int kPfsCrashes = 10;
constexpr int64_t kBlock = 8 << 10;

// Deterministic content of one block version.
std::vector<uint8_t> BlockBytes(pfs::FileId file, int64_t block, int version) {
  std::vector<uint8_t> out(static_cast<size_t>(kBlock));
  uint64_t x = (static_cast<uint64_t>(file) << 32) ^ (static_cast<uint64_t>(block) << 8) ^
               static_cast<uint64_t>(version) ^ 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < out.size(); i += 8) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const uint64_t v = x * 0x2545f4914f6cdd1dULL;
    std::memcpy(out.data() + i, &v, 8);
  }
  return out;
}

struct PfsVolume {
  struct File {
    pfs::FileId id = -1;
    int blocks = 0;
    bool live = false;  // created and not deleted or lost
    std::vector<int> acked;        // latest acknowledged version per block
    std::vector<int> durable;      // latest version reported durable per block
    std::vector<int> in_flight;    // acknowledged writes not yet reported durable
  };

  sim::Simulator sim;
  std::unique_ptr<pfs::PegasusFileServer> server;
  std::vector<File> files;
  std::map<pfs::FileId, size_t> index;
  bool paused = false;
  int64_t refused = 0;
  int64_t false_durable = 0;

  PfsVolume() {
    pfs::PfsConfig cfg;
    cfg.segment_size = 64 << 10;
    cfg.block_size = kBlock;
    cfg.geometry.capacity_bytes = 512 << 20;
    cfg.write_back_delay = 0;
    server = std::make_unique<pfs::PegasusFileServer>(&sim, cfg);
    server->SetDurableCallback([this](pfs::FileId file, int64_t offset, int64_t length) {
      auto it = index.find(file);
      if (it == index.end()) {
        return;
      }
      File& f = files[it->second];
      if (server->crashed()) {
        ++false_durable;  // the server lost this data; it must not report it
        return;
      }
      for (int64_t b = offset / kBlock; b * kBlock < offset + length && b < f.blocks; ++b) {
        int& pending = f.in_flight[static_cast<size_t>(b)];
        pending = std::max(0, pending - 1);
        if (pending == 0) {
          f.durable[static_cast<size_t>(b)] = f.acked[static_cast<size_t>(b)];
        }
      }
    });
  }

  // Client actions defer while the server is down or being read back, the
  // way a client agent waits for a crashed server to come back.
  template <typename Fn>
  void Act(Fn fn) {
    if (paused) {
      sim.ScheduleAfter(sim::Milliseconds(5), [this, fn]() { Act(fn); });
      return;
    }
    fn();
  }

  void Create(size_t slot, int blocks) {
    File& f = files[slot];
    f.id = server->CreateFile(pfs::FileType::kNormal);
    f.blocks = blocks;
    f.live = f.id >= 0;
    f.acked.assign(static_cast<size_t>(blocks), 0);
    f.durable.assign(static_cast<size_t>(blocks), 0);
    f.in_flight.assign(static_cast<size_t>(blocks), 0);
    if (f.live) {
      index[f.id] = slot;
      Write(slot, 1);
    }
  }

  void Write(size_t slot, int version) {
    File& f = files[slot];
    if (!f.live) {
      return;
    }
    std::vector<uint8_t> data;
    data.reserve(static_cast<size_t>(f.blocks * kBlock));
    for (int b = 0; b < f.blocks; ++b) {
      std::vector<uint8_t> bytes = BlockBytes(f.id, b, version);
      data.insert(data.end(), bytes.begin(), bytes.end());
    }
    server->Write(f.id, 0, std::move(data), [this, slot, version](bool ok) {
      File& g = files[slot];
      if (!ok) {
        ++refused;
        return;
      }
      for (int b = 0; b < g.blocks; ++b) {
        g.acked[static_cast<size_t>(b)] = version;
        ++g.in_flight[static_cast<size_t>(b)];
      }
    });
  }

  void Delete(size_t slot) {
    File& f = files[slot];
    if (f.live) {
      f.live = false;
      index.erase(f.id);
      if (!server->Delete(f.id)) {
        ++refused;
      }
    }
  }
};

// One pfs-log round: populate a volume (set-up), then run the Baker churn in
// 1-simulated-second slices, crashing and recovering the server at fixed
// instants and reading back every block it reported durable.
std::map<std::string, int64_t> PfsRound(Run* run) {
  Tracer* tr = &run->tracer;
  Round round;
  round.traced = tr->on();
  const double cal0 = CalibrationRate();
  ScopedSpan round_span(tr, "round");
  const int64_t t0 = NowNs();
  auto vol = std::make_unique<PfsVolume>();
  sim::Simulator& sim = vol->sim;
  sim::Rng rng(run->seed);
  vol->files.resize(static_cast<size_t>(kPfsBaseFiles + kPfsFiles));

  // Set-up: a volume that already holds long-lived files, made durable.
  {
    ScopedSpan s(tr, "pfs.populate");
    for (int i = 0; i < kPfsBaseFiles; ++i) {
      vol->Create(static_cast<size_t>(i), static_cast<int>(rng.UniformInt(1, 4)));
    }
    bool synced = false;
    vol->server->Sync([&synced]() { synced = true; });
    sim.RunUntilPredicate([&synced]() { return synced; });
  }
  const int64_t t1 = NowNs();

  const sim::TimeNs origin = sim.now();
  for (int i = kPfsBaseFiles; i < kPfsBaseFiles + kPfsFiles; ++i) {
    const auto slot = static_cast<size_t>(i);
    const auto created = origin + static_cast<sim::TimeNs>(
                                      rng.UniformDouble() *
                                      static_cast<double>(sim::Seconds(kPfsSimSeconds)));
    const bool short_lived = rng.Bernoulli(0.7);
    const auto lifetime = static_cast<sim::DurationNs>(
        rng.Exponential(static_cast<double>(sim::Seconds(short_lived ? 12 : 600))));
    const int blocks = static_cast<int>(rng.UniformInt(1, 4));
    const bool overwrite = rng.Bernoulli(0.5);
    PfsVolume* v = vol.get();
    sim.ScheduleAt(created, [v, slot, blocks, overwrite, lifetime]() {
      v->Act([v, slot, blocks, overwrite, lifetime]() {
        v->Create(slot, blocks);
        if (overwrite) {
          v->sim.ScheduleAfter(lifetime / 2, [v, slot]() {
            v->Act([v, slot]() { v->Write(slot, 2); });
          });
        }
        v->sim.ScheduleAfter(lifetime, [v, slot]() { v->Act([v, slot]() { v->Delete(slot); }); });
      });
    });
  }

  int64_t crashes = 0;
  int64_t blocks_checked = 0;
  const int64_t every = kPfsSimSeconds / kPfsCrashes;
  for (int64_t sec = 1; sec <= kPfsSimSeconds; ++sec) {
    {
      const int64_t s0 = NowNs();
      ScopedSpan s(tr, "sim.Simulator::RunUntil");
      sim.RunUntil(origin + sim::Seconds(sec));
      s.End();
      run->Sample("pfs_step", NowNs() - s0);
    }
    if (sec % every != 0) {
      continue;
    }
    // Crash and recover at a fixed instant, then read back what was durable.
    ++crashes;
    vol->paused = true;
    const int64_t r0 = NowNs();
    bool recovered = false;
    bool recover_ok = false;
    {
      ScopedSpan s(tr, "pfs.PegasusFileServer::Crash+Recover");
      vol->server->Crash();
      vol->server->Recover([&](bool ok) {
        recovered = true;
        recover_ok = ok;
      });
      sim.RunUntilPredicate([&recovered]() { return recovered; });
    }
    run->Sample("recover", NowNs() - r0);
    run->Check(recovered && recover_ok, "recovery failed");

    // Acknowledged writes that never became durable died with the server.
    for (PfsVolume::File& f : vol->files) {
      if (!f.live) {
        continue;
      }
      std::fill(f.in_flight.begin(), f.in_flight.end(), 0);
      f.acked = f.durable;
      const bool any_durable =
          std::any_of(f.durable.begin(), f.durable.end(), [](int v) { return v > 0; });
      if (vol->server->FileSize(f.id) < 0) {
        run->Check(!any_durable, "file reported durable is gone after recovery");
        f.live = false;
        vol->index.erase(f.id);
      }
    }
    for (PfsVolume::File& f : vol->files) {
      if (!f.live) {
        continue;
      }
      for (int b = 0; b < f.blocks; ++b) {
        const int version = f.durable[static_cast<size_t>(b)];
        if (version == 0) {
          continue;
        }
        bool done = false;
        bool same = false;
        const int64_t q0 = NowNs();
        {
          ScopedSpan s(tr, "pfs.PegasusFileServer::Read");
          vol->server->Read(f.id, b * kBlock, kBlock,
                            [&, id = f.id, b, version](bool ok, std::vector<uint8_t> data) {
                              done = true;
                              same = ok && data == BlockBytes(id, b, version);
                            });
          sim.RunUntilPredicate([&done]() { return done; });
        }
        run->Sample("pfs_read", NowNs() - q0);
        ++blocks_checked;
        run->Check(same, "durable block differs after recovery");
      }
    }
    vol->paused = false;
  }
  const int64_t t2 = NowNs();
  round_span.End();
  round.rss_kb = ResidentKb();
  round.cal = (cal0 + CalibrationRate()) / 2;
  run->Check(vol->false_durable == 0,
             std::to_string(vol->false_durable) + " blocks reported durable after a crash");

  round.setup_s = SecondsBetween(t0, t1);
  round.wall_s = SecondsBetween(t1, t2);
  round.sim_s = static_cast<double>(kPfsSimSeconds);
  round.work = vol->server->blocks_written_to_disk();
  run->rounds.push_back(round);
  run->setups.emplace_back(round.setup_s, round.cal);
  return {{"pfs.checkpoints", vol->server->checkpoint_count()},
          {"pfs.segments_written", vol->server->segments_written()},
          {"pfs.blocks_to_disk", vol->server->blocks_written_to_disk()},
          {"pfs.crashes", crashes},
          {"pfs.blocks_checked", blocks_checked},
          {"pfs.refused", vol->refused},
          {"sim.events", static_cast<int64_t>(sim.executed())}};
}

void RunPfs(Run* run, double seconds, bool trace) {
  const int rounds = std::max(trace ? 2 : 1, RoundsFor(seconds, kPfsNominalRoundSeconds));
  for (int i = 0; i < rounds; ++i) {
    run->tracer.set_on(trace && i % 2 == 0);
    run->CheckCounters(PfsRound(run));
    malloc_trim(0);
  }
  run->tracer.set_on(false);
}

// --- output ---

void WriteJson(const Run& run, const char* path) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror(path);
    std::exit(2);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu,\n", run.workload.c_str(),
               static_cast<unsigned long long>(run.seed));
  std::fprintf(out,
               "\"host\": {\"hardware_concurrency\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"ndebug\": %s},\n",
               std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
               ndebug ? "true" : "false");
  std::fprintf(out, "\"peak_rss_kb\": %ld,\n", usage.ru_maxrss);
  std::fprintf(out, "\"fingerprints\": [");
  for (size_t k = 0; k < run.fingerprints.size(); ++k) {
    std::fprintf(out, "%s\"%s\"", k ? ", " : "", run.fingerprints[k].c_str());
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "\"attempted\": %lld, \"failed\": %lld, \"failures\": [",
               static_cast<long long>(run.attempted), static_cast<long long>(run.failed));
  for (size_t i = 0; i < run.failures.size(); ++i) {
    std::string s = run.failures[i];
    std::replace(s.begin(), s.end(), '"', '\'');
    std::replace(s.begin(), s.end(), '\\', '/');
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", s.c_str());
  }
  std::fprintf(out, "],\n\"setups\": [");
  for (size_t i = 0; i < run.setups.size(); ++i) {
    std::fprintf(out, "%s[%.9f, %.3f]", i ? ", " : "", run.setups[i].first, run.setups[i].second);
  }
  std::fprintf(out, "],\n\"rounds\": [\n");
  for (size_t i = 0; i < run.rounds.size(); ++i) {
    const Round& r = run.rounds[i];
    std::fprintf(out,
                 "{\"traced\": %s, \"setup_s\": %.9f, \"build_s\": %.9f, \"init_s\": %.9f, "
                 "\"wall_s\": %.9f, \"sim_s\": %.3f, \"ops\": %lld, \"admit_wall_ns\": %.1f, "
                 "\"admit_calls\": %lld, \"cal\": %.3f, \"rss_kb\": %lld, \"work\": %lld}%s\n",
                 r.traced ? "true" : "false", r.setup_s, r.build_s, r.init_s, r.wall_s, r.sim_s,
                 static_cast<long long>(r.ops), r.admit_wall_ns,
                 static_cast<long long>(r.admit_calls), r.cal, static_cast<long long>(r.rss_kb),
                 static_cast<long long>(r.work), i + 1 < run.rounds.size() ? "," : "");
  }
  std::fprintf(out, "],\n\"counters\": {");
  size_t i = 0;
  for (const auto& [name, value] : run.counters) {
    std::fprintf(out, "%s\"%s\": %lld", i++ ? ", " : "", name.c_str(),
                 static_cast<long long>(value));
  }
  std::fprintf(out, "},\n\"samples\": {");
  i = 0;
  for (const auto& [name, values] : run.samples) {
    std::fprintf(out, "%s\n\"%s\": [", i++ ? "," : "", name.c_str());
    for (size_t k = 0; k < values.size(); ++k) {
      std::fprintf(out, "%s%lld", k ? "," : "", static_cast<long long>(values[k]));
    }
    std::fprintf(out, "]");
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);

  // Spans as tab-separated lines: id, parent, name, start ns, end ns.
  const std::string spans_path = std::string(path) + ".spans";
  FILE* sp = std::fopen(spans_path.c_str(), "w");
  if (sp == nullptr) {
    std::perror(spans_path.c_str());
    std::exit(2);
  }
  const auto& spans = run.tracer.spans();
  for (size_t k = 0; k < spans.size(); ++k) {
    std::fprintf(sp, "%zu\t%d\t%s\t%lld\t%lld\n", k, spans[k].parent, spans[k].name,
                 static_cast<long long>(spans[k].start_ns),
                 static_cast<long long>(spans[k].end_ns));
  }
  std::fclose(sp);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "usage: %s <workload> <seed> <seconds> <trace 0|1> <out.json>\n",
                 argv[0]);
    return 2;
  }
  Run run;
  run.workload = argv[1];
  run.seed = std::strtoull(argv[2], nullptr, 10);
  const double seconds = std::atof(argv[3]);
  const bool trace = std::atoi(argv[4]) != 0;
  if (run.workload == "fleet") {
    RunFleet(&run, seconds, trace, 0, 0);
  } else if (run.workload == "fleet-sharded") {
    RunFleet(&run, seconds, trace, 2, 0);
  } else if (run.workload == "fleet-sharded-serial") {
    RunFleet(&run, seconds, trace, 2, 1);
  } else if (run.workload == "churn") {
    RunChurn(&run, seconds, trace);
  } else if (run.workload == "pfs-log") {
    RunPfs(&run, seconds, trace);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", argv[1]);
    return 2;
  }
  WriteJson(run, argv[5]);
  return 0;
}
