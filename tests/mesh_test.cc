// Mesh and dual-homed topologies: per-link admission accounting when VCs —
// and legs of ONE pipeline contract — share a directed link. The hub
// topologies of PegasusSystem never produce shared links; a triangle mesh
// and a pipeline that revisits a workstation uplink do, which is exactly
// what Network::ResolveRoute's link sets + the joint per-link admission pass
// exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "src/atm/network.h"
#include "src/core/compute_node.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"

namespace pegasus {
namespace {

using sim::Milliseconds;

// --- raw Network mesh: a triangle of switches, endpoints on each corner,
// plus a dual-homed storage front-end (one NIC on sw2, one on sw3) ---
class MeshFixture : public ::testing::Test {
 protected:
  MeshFixture() : network_(&sim_) {
    sw1_ = network_.AddSwitch("sw1", 8);
    sw2_ = network_.AddSwitch("sw2", 8);
    sw3_ = network_.AddSwitch("sw3", 8);
    network_.ConnectSwitches(sw1_, 0, sw2_, 0, 155'000'000);
    network_.ConnectSwitches(sw2_, 1, sw3_, 0, 155'000'000);
    network_.ConnectSwitches(sw1_, 1, sw3_, 1, 155'000'000);
    a_ = network_.AddEndpoint("a", sw1_, 2, 155'000'000);
    b_ = network_.AddEndpoint("b", sw1_, 3, 155'000'000);
    c_ = network_.AddEndpoint("c", sw2_, 2, 155'000'000);
    // The dual-homed storage front-end: two NICs of one node.
    store_nic1_ = network_.AddEndpoint("store-nic1", sw2_, 3, 155'000'000);
    store_nic2_ = network_.AddEndpoint("store-nic2", sw3_, 2, 155'000'000);
  }

  // The directed inter-switch link sw1 -> sw2 (second hop of a -> c).
  atm::Link* Sw1ToSw2() {
    auto route = network_.ResolveRoute(a_, c_);
    EXPECT_TRUE(route.has_value());
    return route->links[1];
  }

  // The largest reservation src -> dst can still admit: the least headroom
  // over the links of its route.
  int64_t PathHeadroom(const atm::Endpoint* src, const atm::Endpoint* dst) {
    auto route = network_.ResolveRoute(src, dst);
    EXPECT_TRUE(route.has_value());
    int64_t available = INT64_MAX;
    for (const atm::Link* l : route->links) {
      available = std::min(available, network_.AvailableBandwidth(l));
    }
    return available;
  }

  sim::Simulator sim_;
  atm::Network network_;
  atm::Switch* sw1_;
  atm::Switch* sw2_;
  atm::Switch* sw3_;
  atm::Endpoint* a_;
  atm::Endpoint* b_;
  atm::Endpoint* c_;
  atm::Endpoint* store_nic1_;
  atm::Endpoint* store_nic2_;
};

TEST_F(MeshFixture, RoutesTakeTheDirectMeshEdge) {
  // a(sw1) -> c(sw2): uplink, the direct sw1->sw2 edge, downlink — BFS does
  // not detour through sw3.
  auto route = network_.ResolveRoute(a_, c_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links.size(), 3u);
  // Both a and b reach c over the same directed middle link.
  auto route_b = network_.ResolveRoute(b_, c_);
  ASSERT_TRUE(route_b.has_value());
  EXPECT_EQ(route->links[1], route_b->links[1]);
  // The reverse direction is a different link (directed accounting).
  auto reverse = network_.ResolveRoute(c_, a_);
  ASSERT_TRUE(reverse.has_value());
  EXPECT_NE(route->links[1], reverse->links[1]);
}

TEST_F(MeshFixture, SharedDirectedLinkAdmitsAndRejectsJointly) {
  atm::Link* shared = Sw1ToSw2();
  const int64_t rejections_before = network_.admission_rejections();

  auto vc1 = network_.OpenVc(a_, c_, atm::QosSpec{100'000'000});
  ASSERT_TRUE(vc1.has_value());
  EXPECT_EQ(network_.ReservedBandwidth(shared), 100'000'000);

  // A second VC from a different endpoint crosses the same directed link:
  // joint accounting rejects what no longer fits...
  auto vc2 = network_.OpenVc(b_, c_, atm::QosSpec{100'000'000});
  EXPECT_FALSE(vc2.has_value());
  EXPECT_EQ(network_.admission_rejections(), rejections_before + 1);
  // ...and admits exactly the remainder.
  EXPECT_EQ(PathHeadroom(b_, c_), 55'000'000);
  auto vc3 = network_.OpenVc(b_, c_, atm::QosSpec{55'000'000});
  ASSERT_TRUE(vc3.has_value());
  EXPECT_EQ(network_.AvailableBandwidth(shared), 0);

  // Raising either reservation in place is refused; freeing one re-opens
  // headroom for the other.
  EXPECT_FALSE(network_.UpdateVcQos(vc3->id, atm::QosSpec{56'000'000}));
  ASSERT_TRUE(network_.CloseVc(vc1->id));
  EXPECT_TRUE(network_.UpdateVcQos(vc3->id, atm::QosSpec{155'000'000}));
  EXPECT_EQ(network_.AvailableBandwidth(shared), 0);
}

TEST_F(MeshFixture, DualHomedPathsAccountPerLink) {
  // Another workstation saturates the sw1->sw2 edge toward the storage
  // node's first NIC; a's path to that home now has nothing left.
  auto vc1 = network_.OpenVc(b_, store_nic1_, atm::QosSpec{155'000'000});
  ASSERT_TRUE(vc1.has_value());
  EXPECT_EQ(PathHeadroom(a_, store_nic1_), 0);

  // The second home rides sw1->sw3: per-link (not per-node) accounting
  // leaves that path untouched, so the dual-homed node stays reachable at
  // full rate.
  EXPECT_EQ(PathHeadroom(a_, store_nic2_), 155'000'000);
  auto vc2 = network_.OpenVc(a_, store_nic2_, atm::QosSpec{155'000'000});
  ASSERT_TRUE(vc2.has_value());

  // Releasing both reservations restores both homes in full (a's own
  // uplink was the remaining constraint once vc2 held it).
  ASSERT_TRUE(network_.CloseVc(vc1->id));
  EXPECT_EQ(PathHeadroom(a_, store_nic1_), 0);  // vc2 holds a's uplink
  ASSERT_TRUE(network_.CloseVc(vc2->id));
  EXPECT_EQ(PathHeadroom(a_, store_nic1_), 155'000'000);
  EXPECT_EQ(PathHeadroom(a_, store_nic2_), 155'000'000);
}

// --- system-level: two legs of ONE pipeline contract share a directed
// uplink (camera -> backbone compute -> desk-side compute -> remote
// display revisits the desk's uplink), exercising the joint per-link
// admission pass end to end ---
class SharedLegFixture : public ::testing::Test {
 protected:
  SharedLegFixture() : system_(&sim_) {
    desk_ = system_.AddWorkstation("desk");
    viewer_ = system_.AddWorkstation("viewer");
    hub_compute_ = system_.AddComputeServer("hub-fx");
    edge_compute_ = system_.AddComputeServer("edge-fx", desk_);
    dev::AtmCamera::Config cfg;
    camera_ = desk_->AddCamera(cfg);
    display_ = viewer_->AddDisplay(640, 480);
  }

  core::StreamResult OpenChain(const core::StreamSpec& spec) {
    dev::TileProcessor::Config stage;
    stage.transform = dev::InvertTransform();
    return system_.BuildStream("revisit")
        .From(desk_, camera_)
        .Via(hub_compute_, stage)
        .Via(edge_compute_, stage)
        .To(viewer_, display_)
        .WithSpec(spec)
        .Open();
  }

  // The directed desk -> backbone uplink, shared by legs 0 and 2.
  atm::Link* DeskUplink(core::StreamSession* session) {
    const std::vector<atm::Link*>* leg0 = system_.network().VcLinks(session->legs()[0].vc);
    EXPECT_NE(leg0, nullptr);
    return (*leg0)[1];
  }

  sim::Simulator sim_;
  core::PegasusSystem system_;
  core::Workstation* desk_;
  core::Workstation* viewer_;
  core::ComputeNode* hub_compute_;
  core::ComputeNode* edge_compute_;
  dev::AtmCamera* camera_;
  dev::AtmDisplay* display_;
};

TEST_F(SharedLegFixture, LegsSharingAnUplinkAreChargedJointly) {
  // 70 Mb/s per leg: legs 0 and 2 both cross the desk uplink, so it must
  // carry 140 Mb/s of this ONE contract.
  core::StreamSpec spec = core::StreamSpec::Video(25, 70'000'000);
  auto r = OpenChain(spec);
  ASSERT_TRUE(r.report.ok());
  ASSERT_EQ(r.session->leg_count(), 3);

  atm::Link* uplink = DeskUplink(r.session);
  const std::vector<atm::Link*>* leg2 = system_.network().VcLinks(r.session->legs()[2].vc);
  ASSERT_NE(leg2, nullptr);
  ASSERT_NE(std::find(leg2->begin(), leg2->end(), uplink), leg2->end())
      << "topology regression: legs 0 and 2 no longer share the desk uplink";
  EXPECT_EQ(system_.network().ReservedBandwidth(uplink), 140'000'000);

  // Close releases both legs' shares of the shared link.
  r.session->Close();
  EXPECT_EQ(system_.network().ReservedBandwidth(uplink), 0);
}

TEST_F(SharedLegFixture, OverSharedLinkCountersScaleBothLegsJointly) {
  // 100 Mb/s per leg fits every link individually but puts 200 Mb/s on the
  // shared 155 Mb/s uplink: the chain is refused with BOTH crossing legs
  // scaled to their joint share, leg 1 untouched.
  core::StreamSpec spec = core::StreamSpec::Video(25, 100'000'000);
  auto r = OpenChain(spec);
  EXPECT_FALSE(r.report.ok());
  ASSERT_EQ(r.report.verdict, core::AdmitVerdict::kCounterOffer);
  EXPECT_EQ(r.report.failure, core::AdmitFailure::kNetworkBandwidth);
  EXPECT_EQ(std::count(r.report.failures.begin(), r.report.failures.end(),
                       core::AdmitFailure::kNetworkBandwidth),
            2);
  ASSERT_TRUE(r.report.counter_offer.has_value());
  const core::StreamSpec& counter = *r.report.counter_offer;
  EXPECT_EQ(counter.LegBandwidthBps(0), 77'500'000);
  EXPECT_EQ(counter.LegBandwidthBps(1), 100'000'000);
  EXPECT_EQ(counter.LegBandwidthBps(2), 77'500'000);
  // Nothing was left allocated by the refusal.
  for (const auto& link : system_.network().links()) {
    EXPECT_EQ(system_.network().ReservedBandwidth(link.get()), 0);
  }

  // The joint counter-offer is admissible verbatim.
  auto accepted = OpenChain(counter);
  ASSERT_TRUE(accepted.report.ok());
  EXPECT_EQ(system_.network().ReservedBandwidth(DeskUplink(accepted.session)), 155'000'000);
}

TEST_F(SharedLegFixture, RenegotiationHonoursSharedLinkJointly) {
  core::StreamSpec spec = core::StreamSpec::Video(25, 70'000'000);
  auto r = OpenChain(spec);
  ASSERT_TRUE(r.report.ok());

  // Raising both crossing legs to 80 Mb/s would put 160 Mb/s on the shared
  // uplink: the joint pre-check refuses and leaves the contract intact.
  core::StreamSpec more = r.session->contract().granted;
  more.legs[0].bandwidth_bps = 80'000'000;
  more.legs[2].bandwidth_bps = 80'000'000;
  auto refused = r.session->Renegotiate(more);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.failure, core::AdmitFailure::kNetworkBandwidth);
  EXPECT_EQ(r.session->legs()[0].granted_bps, 70'000'000);
  EXPECT_EQ(r.session->legs()[2].granted_bps, 70'000'000);
  EXPECT_EQ(system_.network().ReservedBandwidth(DeskUplink(r.session)), 140'000'000);

  // 77/77 fits (154 <= 155) and rebinds in place.
  core::StreamSpec fits = r.session->contract().granted;
  fits.legs[0].bandwidth_bps = 77'000'000;
  fits.legs[2].bandwidth_bps = 77'000'000;
  EXPECT_TRUE(r.session->Renegotiate(fits).ok());
  EXPECT_EQ(system_.network().ReservedBandwidth(DeskUplink(r.session)), 154'000'000);
}

// --- deterministic path selection: equal-length paths must tie-break by
// switch insertion order, never by heap address ---

// A diamond with two equal-length routes: hub -> {mid1, mid2} -> sink. The
// BFS expands neighbours in switch-id (insertion) order, so the route via
// mid1 is the pinned golden route; a pointer-ordered expansion would pick
// whichever middle switch the allocator happened to place lower.
TEST(DeterministicRouting, EqualCostDiamondPicksInsertionOrderGoldenRoute) {
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* hub = net.AddSwitch("hub", 8);
  atm::Switch* mid1 = net.AddSwitch("mid1", 8);
  atm::Switch* mid2 = net.AddSwitch("mid2", 8);
  atm::Switch* sink = net.AddSwitch("sink", 8);
  // Wire mid2 BEFORE mid1 so map-insertion order differs from id order too.
  net.ConnectSwitches(hub, 0, mid2, 0, 155'000'000);
  net.ConnectSwitches(hub, 1, mid1, 0, 155'000'000);
  net.ConnectSwitches(mid1, 1, sink, 0, 155'000'000);
  net.ConnectSwitches(mid2, 1, sink, 1, 155'000'000);
  atm::Endpoint* a = net.AddEndpoint("a", hub, 2, 155'000'000);
  atm::Endpoint* d = net.AddEndpoint("d", sink, 2, 155'000'000);

  auto route = net.ResolveRoute(a, d);
  ASSERT_TRUE(route.has_value());
  const std::vector<atm::Link*>* links = &route->links;
  ASSERT_EQ(links->size(), 4u);
  // Golden route: through mid1 (lower switch id), regardless of the order
  // the mesh edges were wired or where the switches live on the heap.
  EXPECT_EQ((*links)[1]->name(), "hub->mid1");
  EXPECT_EQ((*links)[2]->name(), "mid1->sink");

  // A warmed cache returns the same resolution: cached routes inherit the
  // deterministic tie-break (the cache only memoises the BFS result).
  auto again = net.ResolveRoute(a, d);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->links, *links);

  // And the installed VC rides the same golden links.
  auto vc = net.OpenVc(a, d, atm::QosSpec{1'000'000});
  ASSERT_TRUE(vc.has_value());
  const auto* vc_links = net.VcLinks(vc->id);
  ASSERT_NE(vc_links, nullptr);
  EXPECT_EQ(*vc_links, *links);
}

// --- route-cache coherence across topology mutation ---
TEST(RouteCache, TopologyMutationInvalidatesWarmRoutes) {
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* sw1 = net.AddSwitch("sw1", 8);
  atm::Switch* sw2 = net.AddSwitch("sw2", 8);
  atm::Switch* sw3 = net.AddSwitch("sw3", 8);
  net.ConnectSwitches(sw1, 0, sw2, 0, 155'000'000);
  net.ConnectSwitches(sw2, 1, sw3, 0, 155'000'000);
  atm::Endpoint* a = net.AddEndpoint("a", sw1, 2, 155'000'000);
  atm::Endpoint* d = net.AddEndpoint("d", sw3, 2, 155'000'000);

  // Warm the cache over the 2-inter-switch-hop chain.
  auto before = net.ResolveRoute(a, d);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->links.size(), 4u);
  const sim::DurationNs latency_before = before->latency_ns;

  // A shortcut appears: sw1 -- sw3 directly. The warm entry must not be
  // served stale.
  net.ConnectSwitches(sw1, 1, sw3, 1, 155'000'000);
  auto after = net.ResolveRoute(a, d);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->links.size(), 3u);
  EXPECT_EQ(after->links[1]->name(), "sw1->sw3");
  EXPECT_LT(after->latency_ns, latency_before);

  // A VC opened after the mutation installs over the NEW (shorter) path.
  auto vc = net.OpenVc(a, d, atm::QosSpec{1'000'000});
  ASSERT_TRUE(vc.has_value());
  const auto* vc_links = net.VcLinks(vc->id);
  ASSERT_NE(vc_links, nullptr);
  EXPECT_EQ(vc_links->size(), 3u);
  EXPECT_EQ((*vc_links)[1]->name(), "sw1->sw3");
  EXPECT_EQ(vc->hop_count, 2);
}

// --- per-source route trees: one BFS serves every resolve from a switch
// until the topology changes ---
TEST(RouteCache, OneTreePerSourceUntilTopologyMutates) {
  sim::Simulator sim;
  atm::Network net(&sim);
  std::vector<atm::Switch*> sw;
  std::vector<atm::Endpoint*> ep;
  for (int i = 0; i < 4; ++i) {
    sw.push_back(net.AddSwitch("sw" + std::to_string(i), 8));
    ep.push_back(net.AddEndpoint("h" + std::to_string(i), sw.back(), 0, 155'000'000));
  }
  for (int i = 0; i + 1 < 4; ++i) {
    net.ConnectSwitches(sw[i], 1, sw[i + 1], 2, 155'000'000);
  }
  EXPECT_EQ(net.route_trees_built(), 0);

  // Every resolve from sw0 — to any destination, repeated — walks one tree.
  for (int round = 0; round < 5; ++round) {
    for (int d = 1; d < 4; ++d) {
      ASSERT_TRUE(net.ResolveRoute(ep[0], ep[d]).has_value());
    }
  }
  EXPECT_EQ(net.route_resolves(), 15);
  EXPECT_EQ(net.route_trees_built(), 1);
  // A second source gets its own tree; the first stays warm.
  ASSERT_TRUE(net.ResolveRoute(ep[3], ep[0]).has_value());
  ASSERT_TRUE(net.ResolveRoute(ep[0], ep[3]).has_value());
  EXPECT_EQ(net.route_trees_built(), 2);

  // Each kind of topology mutation forces the next resolve to rebuild.
  int64_t built = net.route_trees_built();
  atm::Switch* extra = net.AddSwitch("extra", 8);
  ASSERT_TRUE(net.ResolveRoute(ep[0], ep[2]).has_value());
  EXPECT_EQ(net.route_trees_built(), ++built);
  net.ConnectSwitches(sw[3], 3, extra, 1, 155'000'000);
  ASSERT_TRUE(net.ResolveRoute(ep[0], ep[2]).has_value());
  EXPECT_EQ(net.route_trees_built(), ++built);
  atm::Endpoint* far = net.AddEndpoint("far", extra, 0, 155'000'000);
  auto route = net.ResolveRoute(ep[0], far);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links.size(), 6u);
  EXPECT_EQ(net.route_trees_built(), ++built);
  // OpenVc and multicast grafts resolve from the same warm trees.
  ASSERT_TRUE(net.OpenVc(ep[0], ep[1]).has_value());
  ASSERT_TRUE(net.OpenMulticastVc(ep[0], {ep[2], ep[3], far}).has_value());
  EXPECT_EQ(net.route_trees_built(), built);
}

// --- route equivalence: per-source trees against an early-exit BFS written
// here, over random meshes full of equal-cost ties ---

// One directed wire as the test wired it: the far switch, the port it
// leaves by and the port it lands on.
struct Wire {
  int to;
  int out_port;
  int in_port;
};
using Wiring = std::vector<std::vector<Wire>>;

// Switch ids from `from` to `to` by a BFS that stops at `to` and expands
// neighbours in switch-id order; empty when unreachable.
std::vector<int> ReferenceRoute(const Wiring& wiring, int from, int to) {
  std::vector<int> parent(wiring.size(), -1);
  std::vector<int> queue{from};
  parent[static_cast<size_t>(from)] = from;
  for (size_t head = 0; head < queue.size() && queue[head] != to; ++head) {
    std::vector<Wire> row = wiring[static_cast<size_t>(queue[head])];
    std::sort(row.begin(), row.end(), [](const Wire& a, const Wire& b) { return a.to < b.to; });
    for (const Wire& w : row) {
      if (parent[static_cast<size_t>(w.to)] < 0) {
        parent[static_cast<size_t>(w.to)] = queue[head];
        queue.push_back(w.to);
      }
    }
  }
  if (parent[static_cast<size_t>(to)] < 0) {
    return {};
  }
  std::vector<int> route{to};
  while (route.back() != from) {
    route.push_back(parent[static_cast<size_t>(route.back())]);
  }
  std::reverse(route.begin(), route.end());
  return route;
}

class RandomMesh {
 public:
  RandomMesh() : net_(&sim_) {}

  void AddSwitch() {
    const int i = static_cast<int>(sw_.size());
    sw_.push_back(net_.AddSwitch("sw" + std::to_string(i), 16));
    ep_.push_back(net_.AddEndpoint("h" + std::to_string(i), sw_.back(), 0, 155'000'000));
    next_port_.push_back(1);
    wiring_.emplace_back();
  }
  // Wires a -- b on each side's next free port; false for a repeated pair or
  // a full switch.
  bool Connect(int a, int b) {
    const auto key = std::minmax(a, b);
    if (a == b || next_port_[a] == 16 || next_port_[b] == 16 || !pairs_.insert(key).second) {
      return false;
    }
    const int pa = next_port_[a]++;
    const int pb = next_port_[b]++;
    net_.ConnectSwitches(sw_[a], pa, sw_[b], pb, 155'000'000);
    wiring_[a].push_back(Wire{b, pa, pb});
    wiring_[b].push_back(Wire{a, pb, pa});
    return true;
  }

  // Every ordered switch pair resolves exactly as the reference BFS routes
  // it: the same switches, leaving by the same out ports over the same
  // links and landing on the same input ports. A VC installed over each
  // route then carries one cell end to end, which it only does when every
  // hop's route entry sits on the input port the wire really lands on.
  void ExpectAllPairsMatchReference() {
    const int n = static_cast<int>(sw_.size());
    std::vector<atm::VcId> vcs;
    std::vector<uint64_t> expected_cells(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      expected_cells[static_cast<size_t>(i)] = ep_[i]->cells_received();
    }
    for (int from = 0; from < n; ++from) {
      for (int to = 0; to < n; ++to) {
        SCOPED_TRACE("sw" + std::to_string(from) + " -> sw" + std::to_string(to));
        const std::vector<int> expected = ReferenceRoute(wiring_, from, to);
        const auto route = net_.ResolveRoute(ep_[from], ep_[to]);
        if (expected.empty()) {
          EXPECT_FALSE(route.has_value());
          continue;
        }
        ASSERT_TRUE(route.has_value());
        ASSERT_EQ(route->links.size(), expected.size() + 1);
        for (size_t i = 0; i + 1 < expected.size(); ++i) {
          const int u = expected[i];
          const int v = expected[i + 1];
          const auto& row = wiring_[static_cast<size_t>(u)];
          const auto wire = std::find_if(row.begin(), row.end(),
                                         [v](const Wire& w) { return w.to == v; });
          ASSERT_NE(wire, row.end());
          const atm::Link* link = route->links[i + 1];
          EXPECT_EQ(link, sw_[u]->output(wire->out_port));
          EXPECT_EQ(link->sink(), sw_[v]->input(wire->in_port));
        }
        const auto vc = net_.OpenVc(ep_[from], ep_[to]);
        ASSERT_TRUE(vc.has_value());
        EXPECT_EQ(*net_.VcLinks(vc->id), route->links);
        EXPECT_EQ(vc->hop_count, static_cast<int>(expected.size()));
        atm::Cell cell;
        cell.vci = vc->source_vci;
        ASSERT_TRUE(ep_[from]->SendCell(cell));
        ++expected_cells[static_cast<size_t>(to)];
        vcs.push_back(vc->id);
      }
    }
    sim_.RunUntil(sim_.now() + Milliseconds(100));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ep_[i]->cells_received(), expected_cells[static_cast<size_t>(i)]) << "h" << i;
      EXPECT_EQ(sw_[i]->cells_unroutable(), 0u) << "sw" << i;
    }
    for (atm::VcId id : vcs) {
      net_.CloseVc(id);
    }
  }

  int size() const { return static_cast<int>(sw_.size()); }
  const atm::Network& net() const { return net_; }

 private:
  sim::Simulator sim_;
  atm::Network net_;
  std::vector<atm::Switch*> sw_;
  std::vector<atm::Endpoint*> ep_;
  std::vector<int> next_port_;
  Wiring wiring_;
  std::set<std::pair<int, int>> pairs_;
};

TEST(RouteCache, PerSourceTreesMatchEarlyExitBfsOnRandomMeshes) {
  constexpr int kMain = 24;
  constexpr int kIsland = 5;
  for (uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    RandomMesh mesh;
    for (int i = 0; i < kMain + kIsland; ++i) {
      mesh.AddSwitch();
    }
    // A sparse random main component (three wires per switch on average)
    // wired in random order: equal-length alternatives abound, and wiring
    // order never matches switch-id order.
    std::uniform_int_distribution<int> pick(0, kMain - 1);
    for (int wired = 0; wired < kMain * 3 / 2;) {
      wired += mesh.Connect(pick(rng), pick(rng)) ? 1 : 0;
    }
    // A ring of switches no main-component switch can reach.
    for (int i = 0; i < kIsland; ++i) {
      mesh.Connect(kMain + i, kMain + (i + 1) % kIsland);
    }
    mesh.ExpectAllPairsMatchReference();
    EXPECT_EQ(mesh.net().route_trees_built(), mesh.size());
    // Warm: the same pairs again build nothing.
    mesh.ExpectAllPairsMatchReference();
    EXPECT_EQ(mesh.net().route_trees_built(), mesh.size());

    // Join the island: every warm tree is rebuilt and still matches.
    ASSERT_TRUE(mesh.Connect(pick(rng), kMain + 2));
    mesh.ExpectAllPairsMatchReference();
    EXPECT_EQ(mesh.net().route_trees_built(), 2 * mesh.size());
  }
}

// --- rejection-cause accounting: no-path and unattached-endpoint failures
// count (split from bandwidth), instead of silently returning nullopt ---
TEST(RejectionAccounting, NoPathAndUnattachedFailuresAreCounted) {
  sim::Simulator sim;
  atm::Network net(&sim);
  atm::Switch* sw1 = net.AddSwitch("sw1", 8);
  atm::Switch* island = net.AddSwitch("island", 8);  // never connected
  atm::Endpoint* a = net.AddEndpoint("a", sw1, 0, 155'000'000);
  atm::Endpoint* b = net.AddEndpoint("b", sw1, 1, 10'000'000);
  atm::Endpoint* far = net.AddEndpoint("far", island, 0, 155'000'000);

  EXPECT_EQ(net.admission_rejections(), 0);

  // Unreachable destination: counted as no_path.
  EXPECT_FALSE(net.OpenVc(a, far, atm::QosSpec{1'000'000}).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 1);
  EXPECT_EQ(net.admission_rejections_bandwidth(), 0);

  // An endpoint this network never attached: also no_path.
  atm::Endpoint stray(&sim, "stray");
  EXPECT_FALSE(net.OpenVc(a, &stray).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 2);

  // OpenDuplex across the partition counts the failing direction too.
  EXPECT_FALSE(net.OpenDuplex(far, a).has_value());
  EXPECT_EQ(net.admission_rejections_no_path(), 3);

  // A bandwidth refusal lands in the other bucket, and the historical
  // total keeps counting both causes.
  EXPECT_FALSE(net.OpenVc(a, b, atm::QosSpec{20'000'000}).has_value());
  EXPECT_EQ(net.admission_rejections_bandwidth(), 1);
  EXPECT_EQ(net.admission_rejections(), 4);
}

}  // namespace
}  // namespace pegasus
