// Microbenchmarks of the hot paths (google-benchmark).
//
// These measure the *implementation's* wall-clock costs — useful when
// changing the codec, CRC, AAL5 or event-queue internals — as opposed to the
// E01..E15 harnesses, which measure simulated-time behaviour.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/atm/aal5.h"
#include "src/atm/crc32.h"
#include "src/atm/link.h"
#include "src/atm/network.h"
#include "src/atm/switch.h"
#include "src/core/qos_monitor.h"
#include "src/devices/compression.h"
#include "src/devices/frame_source.h"
#include "src/naming/name_space.h"
#include "src/pfs/server.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/shard.h"

using namespace pegasus;

namespace {

// Swallows delivered cells; only counts them so delivery cannot be elided.
class CountingSink : public atm::CellSink {
 public:
  void DeliverCell(const atm::Cell& cell) override {
    ++count_;
    benchmark::DoNotOptimize(cell.seq);
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// The per-cell data-plane hot path: bursts of back-to-back cells offered to
// one link, simulator drained between bursts. Before the cell-train data
// plane this cost 2 heap-allocated events per cell; with trains a whole
// burst rides O(1) events. range(0) is the burst size.
void BM_LinkCellHotPath(benchmark::State& state) {
  const int kBurst = static_cast<int>(state.range(0));
  sim::Simulator sim;
  atm::Link link(&sim, "l", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  CountingSink sink;
  link.set_sink(&sink);
  atm::Cell cell;
  cell.vci = 42;
  uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      cell.seq = seq++;
      link.SendCell(cell);
    }
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(seq), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinkCellHotPath)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// Whole trains offered through SendBurst, the path switches and endpoints
// use (BM_LinkCellHotPath offers cell by cell): one frame per train, its
// last cell end-of-frame, simulator drained between trains. range(0) is the
// train size.
void BM_LinkSendBurst(benchmark::State& state) {
  const size_t kTrain = static_cast<size_t>(state.range(0));
  sim::Simulator sim;
  atm::Link link(&sim, "l", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  CountingSink sink;
  link.set_sink(&sink);
  std::vector<atm::Cell> train(kTrain);
  for (size_t i = 0; i < kTrain; ++i) {
    train[i].vci = 42;
    train[i].seq = i;
  }
  train.back().end_of_frame = true;
  uint64_t cells = 0;
  for (auto _ : state) {
    cells += link.SendBurst(train.data(), train.size());
    sim.Run();
  }
  benchmark::DoNotOptimize(sink.count());
  state.SetItemsProcessed(static_cast<int64_t>(cells));
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinkSendBurst)->Arg(64);

// A full switch transit: ingress link -> VCI lookup + relabel -> fabric ->
// egress link -> sink. Exercises the whole forwarding path the way media
// traffic crosses a Fairisle port controller. range(0) is the burst size.
void BM_SwitchForward(benchmark::State& state) {
  const int kBurst = static_cast<int>(state.range(0));
  sim::Simulator sim;
  atm::Link ingress(&sim, "in", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  atm::Link egress(&sim, "out", 622'000'000, sim::Microseconds(1), /*queue_limit=*/8192);
  atm::Switch sw(&sim, "sw", 4, sim::Microseconds(1));
  ingress.set_sink(sw.input(0));
  sw.AttachOutput(1, &egress);
  sw.AddRoute(0, 42, 1, 77);
  CountingSink sink;
  egress.set_sink(&sink);
  atm::Cell cell;
  cell.vci = 42;
  uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      cell.seq = seq++;
      ingress.SendCell(cell);
    }
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(seq));
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(seq), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchForward)->Arg(1)->Arg(64)->Arg(256);

// The admission layer's unit of work: open a reserved unicast VC (a
// one-leaf tree) across a chain of range(0) switches, then close it. Each
// iteration resolves the warm route tree, admits and charges every link,
// installs one route entry per switch and releases it all again.
void BM_NetworkOpenCloseVc(benchmark::State& state) {
  const int kSwitches = static_cast<int>(state.range(0));
  sim::Simulator sim;
  atm::Network net(&sim);
  std::vector<atm::Switch*> chain;
  for (int i = 0; i < kSwitches; ++i) {
    chain.push_back(net.AddSwitch("sw" + std::to_string(i), 4));
    if (i > 0) {
      net.ConnectSwitches(chain[static_cast<size_t>(i) - 1], 1, chain.back(), 2, 622'000'000);
    }
  }
  atm::Endpoint* src = net.AddEndpoint("src", chain.front(), 0, 155'000'000);
  atm::Endpoint* dst = net.AddEndpoint("dst", chain.back(), 0, 155'000'000);
  for (auto _ : state) {
    auto vc = net.OpenVc(src, dst, atm::QosSpec{2'000'000});
    benchmark::DoNotOptimize(vc);
    net.CloseVc(vc->id);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkOpenCloseVc)->Arg(2)->Arg(8);

// Late join and leave on a broadcast tree: a root switch fans out to 16
// edge switches of 8 hosts each; the tree already reaches range(0) hosts
// spread over the edges. Each iteration grafts one more host (a new branch
// on an edge the tree already crosses) and prunes it again.
void BM_NetworkGraftPrune(benchmark::State& state) {
  constexpr int kEdges = 16;
  constexpr int kHostsPerEdge = 8;
  const int kLeaves = static_cast<int>(state.range(0));
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* root = net.AddSwitch("root", kEdges + 1);
  atm::Endpoint* head = net.AddEndpoint("head", root, kEdges, 622'000'000);
  std::vector<atm::Endpoint*> hosts;
  for (int e = 0; e < kEdges; ++e) {
    atm::Switch* edge = net.AddSwitch("edge" + std::to_string(e), kHostsPerEdge + 1);
    net.ConnectSwitches(root, e, edge, kHostsPerEdge, 622'000'000);
    for (int h = 0; h < kHostsPerEdge; ++h) {
      hosts.push_back(net.AddEndpoint("h" + std::to_string(e) + "." + std::to_string(h), edge,
                                      h, 155'000'000));
    }
  }
  // Leaves take the first hosts of every edge in turn; the joiner is the
  // last host of the last edge, which the tree never otherwise reaches.
  std::vector<atm::Endpoint*> leaves;
  for (int i = 0; i < kLeaves; ++i) {
    const int edge = i % kEdges;
    const int host = i / kEdges;
    leaves.push_back(hosts[static_cast<size_t>(edge * kHostsPerEdge + host)]);
  }
  atm::Endpoint* joiner = hosts.back();
  auto tree = net.OpenMulticastVc(head, leaves, atm::QosSpec{2'000'000});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.AddLeaf(tree->id, joiner));
    net.RemoveLeaf(tree->id, joiner);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkGraftPrune)->Arg(1)->Arg(64);

// One QosMonitor tick over a fabric of range(0) links (one switch, an
// endpoint per port pair of links), range(1) of which each carried a cell
// since the previous tick, spread evenly over the link ids. A tick reads
// only the links the network's activity log names, so its cost should
// track range(1), not range(0). Each iteration is the sends plus one
// monitor period: the tick and the cells' delivery events.
void BM_QosMonitorTick(benchmark::State& state) {
  const int kLinks = static_cast<int>(state.range(0));
  const int kActive = static_cast<int>(state.range(1));
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* sw = net.AddSwitch("sw", kLinks / 2);
  for (int i = 0; i < kLinks / 2; ++i) {
    net.AddEndpoint("h" + std::to_string(i), sw, i, 155'000'000);
  }
  // Switch-to-endpoint links (odd ids), whose cells land in an endpoint.
  std::vector<atm::Link*> active;
  for (int i = 0; i < kActive; ++i) {
    active.push_back(net.links()[static_cast<size_t>(i) * kLinks / kActive | 1].get());
  }
  core::QosMonitor monitor(&sim, &net);
  monitor.Start();
  const sim::DurationNs period = monitor.config().period;
  sim.RunUntil(period);  // the priming tick
  const int64_t visits0 = monitor.link_visits();
  atm::Cell cell;
  for (auto _ : state) {
    for (atm::Link* link : active) {
      link->SendCell(cell);
    }
    sim.RunUntil(sim.now() + period);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["visits/tick"] = benchmark::Counter(
      static_cast<double>(monitor.link_visits() - visits0) /
      static_cast<double>(std::max<int64_t>(1, static_cast<int64_t>(state.iterations()))));
}
BENCHMARK(BM_QosMonitorTick)->Args({4096, 16})->Args({4096, 1024});

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  sim::Rng rng(1);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(48)->Arg(1024)->Arg(65536);

void BM_Aal5SegmentReassemble(benchmark::State& state) {
  std::vector<uint8_t> sdu(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    auto cells = atm::Aal5Segment(42, sdu);
    atm::Aal5Reassembler r;
    std::optional<std::vector<uint8_t>> out;
    for (const atm::Cell& c : cells) {
      out = r.Push(c);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Aal5SegmentReassemble)->Arg(48)->Arg(1024)->Arg(16384);

void BM_TileCompress(benchmark::State& state) {
  dev::FrameSource source(64, 64, 0.2);
  dev::Frame frame = source.Render(0);
  dev::Tile tile = frame.ExtractTile(16, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev::CompressTile(tile.data, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_TileCompress)->Arg(30)->Arg(60)->Arg(90);

void BM_TileRoundTrip(benchmark::State& state) {
  dev::FrameSource source(64, 64, 0.2);
  dev::Frame frame = source.Render(0);
  dev::Tile tile = frame.ExtractTile(16, 16);
  for (auto _ : state) {
    auto c = dev::CompressTile(tile.data, 60);
    benchmark::DoNotOptimize(dev::DecompressTile(c));
  }
}
BENCHMARK(BM_TileRoundTrip);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int64_t count = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.ScheduleAt(i * 10, [&count]() { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SimulatorEventChurn)->Arg(1000)->Arg(100000);

// The lane-head queue under a fleet's shape: 8 lanes hand events round a
// ring, each a few ns after the last, while range(0) control timers wait
// far ahead (a metro-large fleet keeps about 1,000 pending). Reports lane
// events/s; the timers never run, so they should cost the lanes nothing.
void BM_SimulatorLaneChurn(benchmark::State& state) {
  constexpr uint32_t kLanes = 8;
  constexpr int64_t kHops = 100'000;
  struct Ring {
    sim::Simulator* sim;
    sim::Simulator::LaneId lanes[kLanes] = {};
    int64_t hops_left = 0;
    static void Hop(void* ctx, uint32_t lane, uint32_t /*unused*/) {
      Ring* r = static_cast<Ring*>(ctx);
      if (r->hops_left-- > 0) {
        // Each lane's delay is its own, so every lane's pushes stay monotone.
        const uint32_t next = (lane + 1) % kLanes;
        r->sim->PushLane(&r->lanes[next], r->sim->now() + 3 + lane % 3, &Ring::Hop, r, next);
      }
    }
  };
  sim::Simulator sim;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sim.ScheduleAt(sim::Seconds(1'000'000) + i, []() {});
  }
  Ring ring{&sim};
  for (auto _ : state) {
    ring.hops_left = kHops;
    for (uint32_t k = 0; k < kLanes; ++k) {
      sim.PushLane(&ring.lanes[k], sim.now() + k, &Ring::Hop, &ring, k);
    }
    sim.RunUntil(sim.now() + sim::Seconds(1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(sim.lane_events()));
}
BENCHMARK(BM_SimulatorLaneChurn)->Arg(0)->Arg(1024);

// The PFS write path for one VOD catalog title as the metro fleet seeds it
// (64 records of a 12-byte header and 4,096 bytes): Write, the commit into
// blocks, the flush into a segment and the striped disk writes. One server
// serves every iteration; deleting the title and cleaning its segment, and
// copying the next title, are not timed. The 64 MB disks hold 256 segments,
// which the server reuses round robin.
void BM_PfsSeedTitle(benchmark::State& state) {
  constexpr int64_t kTitleBytes = 64 * (12 + 4096);
  const std::vector<uint8_t> title(static_cast<size_t>(kTitleBytes), 0x5A);
  sim::Simulator sim;
  pfs::PfsConfig config;
  config.geometry.capacity_bytes = 64 << 20;
  pfs::PegasusFileServer server(&sim, config);
  std::vector<uint8_t> data = title;
  for (auto _ : state) {
    const pfs::FileId file = server.CreateFile(pfs::FileType::kContinuous);
    server.Write(file, 0, std::move(data), [](bool) {});
    server.Sync([]() {});
    sim.Run();
    state.PauseTiming();
    server.Delete(file);
    server.Clean([](pfs::CleanStats) {});
    sim.Run();
    data = title;
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kTitleBytes);
}
BENCHMARK(BM_PfsSeedTitle);

void BM_NameResolution(benchmark::State& state) {
  sim::Simulator sim;
  naming::EchoObject obj;
  naming::NameSpace ns("bench");
  const int depth = static_cast<int>(state.range(0));
  std::string path;
  for (int i = 0; i < depth; ++i) {
    path += (i > 0 ? "/" : "");
    path += "d" + std::to_string(i);
  }
  ns.Bind(path, naming::ObjectHandle(naming::ObjectRef{1}, [&](naming::ObjectRef) {
            return std::make_shared<naming::LocalPath>(&sim, &obj);
          }));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns.ResolveLocal(path));
  }
}
BENCHMARK(BM_NameResolution)->Arg(1)->Arg(4)->Arg(16);

// The conservative-window machinery of the region-sharded engine: K shards
// in a boundary ring (5 us lookahead), each carrying a steady 1 MHz local
// event load that occasionally crosses to its neighbour. Measures sharded
// event throughput as the shard count grows: the window overhead curve
// against the 1-shard engine.
void BM_ShardRingWindows(benchmark::State& state) {
  const int kShards = static_cast<int>(state.range(0));
  sim::Simulator control;
  sim::ShardGroup group(&control, {kShards});
  std::vector<sim::BoundaryChannel*> ring;
  if (kShards > 1) {
    for (int i = 0; i < kShards; ++i) {
      ring.push_back(group.RegisterBoundary(group.shard(i), group.shard((i + 1) % kShards),
                                            sim::Microseconds(5)));
    }
  }
  uint64_t events = 0;
  struct Node {
    sim::Simulator* s;
    sim::BoundaryChannel* out;
    uint64_t* events;
    uint64_t n = 0;
    void Fire() {
      ++*events;
      if (out != nullptr && (++n & 7) == 0) {
        out->Post(s->now() + sim::Microseconds(5), []() {});
      }
      s->ScheduleAfter(sim::Microseconds(1), [this]() { Fire(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < kShards; ++i) {
    nodes.push_back(std::make_unique<Node>(
        Node{group.shard(i), ring.empty() ? nullptr : ring[static_cast<size_t>(i)], &events}));
    nodes.back()->s->ScheduleAt(1, [node = nodes.back().get()]() { node->Fire(); });
  }
  sim::TimeNs t = 0;
  for (auto _ : state) {
    t += sim::Milliseconds(1);
    group.RunUntil(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardRingWindows)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The same ring with ONE tight hop: the channel closing the ring has a 1 us
// lookahead, the rest keep 5 us. Under a global-min horizon every shard
// would crawl at the tight hop's pace; per-channel lookahead confines the
// narrow windows to the shard the tight channel feeds, so windows per
// simulated second stay near the symmetric ring's, not 5x it. The bench
// aborts — loudly — if the window rate regresses past the guard, so a
// lookahead regression fails the perf job instead of shifting a number
// nobody reads.
void BM_ShardRingWindowsAsym(benchmark::State& state) {
  const int kShards = static_cast<int>(state.range(0));
  sim::Simulator control;
  sim::ShardGroup group(&control, {kShards});
  std::vector<sim::BoundaryChannel*> ring;
  for (int i = 0; i < kShards; ++i) {
    const sim::DurationNs lookahead =
        i == kShards - 1 ? sim::Microseconds(1) : sim::Microseconds(5);
    ring.push_back(group.RegisterBoundary(group.shard(i), group.shard((i + 1) % kShards),
                                          lookahead));
  }
  uint64_t events = 0;
  struct Node {
    sim::Simulator* s;
    sim::BoundaryChannel* out;
    sim::DurationNs lookahead;
    uint64_t* events;
    uint64_t n = 0;
    void Fire() {
      ++*events;
      if ((++n & 7) == 0) {
        out->Post(s->now() + lookahead, []() {});
      }
      s->ScheduleAfter(sim::Microseconds(1), [this]() { Fire(); });
    }
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < kShards; ++i) {
    const sim::DurationNs lookahead =
        i == kShards - 1 ? sim::Microseconds(1) : sim::Microseconds(5);
    nodes.push_back(std::make_unique<Node>(
        Node{group.shard(i), ring[static_cast<size_t>(i)], lookahead, &events}));
    nodes.back()->s->ScheduleAt(1, [node = nodes.back().get()]() { node->Fire(); });
  }
  sim::TimeNs t = 0;
  for (auto _ : state) {
    t += sim::Milliseconds(1);
    group.RunUntil(t);
  }
  const double sim_seconds = static_cast<double>(t) / 1e9;
  const double windows_per_sim_sec =
      static_cast<double>(group.stats().windows) / sim_seconds;
  // Per-channel lookahead keeps the asymmetric ring near one window per
  // MEAN lookahead step (measured 3.3e5/s at 2 shards down to 2.2e5/s at
  // 8). One window per tight-hop step — the global-min behaviour — is
  // ~1e6/s; fail the run before anyone mistakes that for a benchmark
  // number.
  if (kShards > 1 && windows_per_sim_sec > 600e3) {
    std::fprintf(stderr,
                 "FATAL: BM_ShardRingWindowsAsym/%d: %.0f windows per simulated second "
                 "(guard 600e3) — per-channel lookahead has regressed toward the "
                 "global-min horizon\n",
                 kShards, windows_per_sim_sec);
    std::abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["windows/simsec"] = benchmark::Counter(windows_per_sim_sec);
}
BENCHMARK(BM_ShardRingWindowsAsym)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
