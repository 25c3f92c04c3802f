// Network assembly and signalling.
//
// A Network owns switches, links and endpoints, and implements the control
// plane the paper calls "the normal mechanism of ATM signalling" (§2.2):
// virtual circuits are established hop-by-hop with per-link admission
// control, and the routing-table updates are exactly the operations a
// device-managing workstation performs on its local switch.
//
// Every VC is a delivery tree rooted at the source's switch: a unicast VC is
// the one-leaf case, so open, graft, prune, close, re-negotiation and
// congestion fan-out each have exactly one body. A tree is built from the
// source switch's cached BFS tree (one parent per switch), so the union of
// its leaves' routes is itself a tree and every switch on it holds exactly
// one route entry, branching once per distinct output port.
//
// Admission-plane fast path: routes come from one cached shortest-path tree
// per source switch, invalidated by a topology epoch; the reservation ledger
// is a flat vector indexed by dense link id, and a per-link -> VC index makes
// congestion fan-out O(affected VCs). The first resolve from a switch in an
// epoch runs one full BFS and keeps an int32 parent per switch (4 bytes x
// switches, allocated only for switches that resolve); later resolves walk
// the parent chain. The BFS expands neighbours in switch-id (insertion)
// order and fixes a parent when a switch is first discovered, so the chain
// to any destination is exactly the path an early-exit BFS to it returns:
// equal-length paths tie-break identically across runs, heap layouts and
// cache states.
#ifndef PEGASUS_SRC_ATM_NETWORK_H_
#define PEGASUS_SRC_ATM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/atm/cell.h"
#include "src/atm/endpoint.h"
#include "src/atm/link.h"
#include "src/atm/switch.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard.h"

namespace pegasus::atm {

// Quality-of-service request for a virtual circuit. `peak_bps == 0` means
// best-effort (no reservation, never rejected by admission control).
struct QosSpec {
  int64_t peak_bps = 0;
};

// Identifier of an established VC, valid until CloseVc.
using VcId = int64_t;

// Where a VC enters and leaves the network, as seen by the two endpoints.
struct VcDescriptor {
  VcId id = -1;
  Endpoint* source = nullptr;
  Endpoint* destination = nullptr;
  // VCI the source must stamp on outgoing cells.
  Vci source_vci = kVciUnassigned;
  // VCI the destination will observe on delivered cells.
  Vci destination_vci = kVciUnassigned;
  QosSpec qos;
  int hop_count = 0;
};

// A resolved src->dst route: the ordered links a VC would traverse plus the
// one-way latency floor, stamped with the topology epoch it was computed
// under. One ResolveRoute serves both the bandwidth and the latency check of
// an admission pass.
struct ResolvedRoute {
  std::vector<Link*> links;
  sim::DurationNs latency_ns = 0;
  uint64_t epoch = 0;
};

class Network {
 public:
  explicit Network(sim::Simulator* sim);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator* simulator() const { return sim_; }

  // --- Region sharding (src/sim/shard.h) ---
  // Opts the network into sharded construction. Must be called before any
  // sharded topology is built. Thereafter SetBuildShard directs where new
  // switches live, endpoints are always co-located with their attachment
  // switch, and a ConnectSwitches spanning two shards automatically turns
  // both directed links into boundary channels with the link propagation
  // delay as lookahead. With no shard group (the default) everything lives
  // on the control simulator and behaviour is exactly the classic one.
  void EnableSharding(sim::ShardGroup* group) { shard_group_ = group; }
  sim::ShardGroup* shard_group() const { return shard_group_; }
  // Directs subsequent AddSwitch calls onto `shard` (nullptr = the control
  // simulator). Signalling, admission and route caches stay centralised on
  // the control simulator regardless.
  void SetBuildShard(sim::Simulator* shard) { build_sim_ = shard; }
  sim::Simulator* build_simulator() const { return build_sim_ != nullptr ? build_sim_ : sim_; }

  // --- Topology construction ---
  Switch* AddSwitch(const std::string& name, int num_ports,
                    sim::DurationNs fabric_delay = sim::Microseconds(1));
  // Creates an endpoint attached to `port` of `sw` by a full-duplex link pair.
  Endpoint* AddEndpoint(const std::string& name, Switch* sw, int port, int64_t link_bps,
                        sim::DurationNs propagation = sim::Microseconds(1));
  // Wires two switches together with a full-duplex link pair.
  void ConnectSwitches(Switch* a, int port_a, Switch* b, int port_b, int64_t link_bps,
                       sim::DurationNs propagation = sim::Microseconds(5));

  // Monotone counter bumped by every topology mutation; cached route trees
  // carry the epoch they were built under and are rebuilt on mismatch.
  uint64_t topology_epoch() const { return topology_epoch_; }
  // Switch-to-switch route resolutions served, and the BFS route trees built
  // to serve them (at most one per source switch per epoch). Deterministic;
  // 1 - trees/resolves is the route-cache hit rate.
  int64_t route_resolves() const { return route_resolves_; }
  int64_t route_trees_built() const { return route_trees_built_; }

  // --- Signalling ---
  // Establishes a unidirectional VC from `src` to `dst`: a one-leaf tree.
  // Returns nullopt when no path exists or admission control rejects the
  // reservation. `dst` may be `src` itself (a loopback through its switch).
  std::optional<VcDescriptor> OpenVc(Endpoint* src, Endpoint* dst, QosSpec qos = {});
  // Establishes a data VC plus a reverse control VC, as every Pegasus device
  // does (§2.2). first = forward/data, second = reverse/control.
  std::optional<std::pair<VcDescriptor, VcDescriptor>> OpenDuplex(Endpoint* src, Endpoint* dst,
                                                                  QosSpec data_qos = {},
                                                                  QosSpec control_qos = {});
  bool CloseVc(VcId id);
  const VcDescriptor* GetVc(VcId id) const;

  // --- point-to-multipoint signalling ---
  // Establishes a one-to-many VC by grafting each sink in turn onto one
  // tree. Cells the source stamps with `source_vci` are replicated once per
  // tree BRANCH at each switch; the reservation is charged once per tree
  // edge, however many leaves share it. All-or-nothing: an unattached,
  // unreachable or duplicate sink, or a link without headroom, rolls the
  // grafts made so far back and rejects the whole open. The returned
  // descriptor's destination/destination_vci are the FIRST sink's (use
  // McastLeafVci for the others).
  std::optional<VcDescriptor> OpenMulticastVc(Endpoint* src, const std::vector<Endpoint*>& sinks,
                                              QosSpec qos = {});
  // Grafts a further leaf onto an open VC: admission is checked on (and the
  // reservation charged for) only the links the graft newly adds. Returns the
  // leaf's incoming VCI, or nullopt on reject (unknown id, duplicate leaf,
  // no path, or insufficient bandwidth on the graft path).
  std::optional<Vci> AddLeaf(VcId id, Endpoint* leaf);
  // Prunes a leaf: branches no other leaf depends on are removed bottom-up,
  // their reservations released. Refuses to remove the LAST leaf — close the
  // VC with CloseVc instead (a leafless tree would strand the source VCI).
  bool RemoveLeaf(VcId id, Endpoint* leaf);
  int McastLeafCount(VcId id) const;
  // The incoming VCI `leaf` observes on an open VC, nullopt when the
  // endpoint is not currently a leaf.
  std::optional<Vci> McastLeafVci(VcId id, const Endpoint* leaf) const;

  // --- congestion signalling ---
  // Observer for congestion on any link the VC traverses. `severity` is the
  // fraction of the link's deliverable capacity that is gone, in (0, 1]:
  // reservations riding the link can only count on (1 - severity) of their
  // rate until the condition clears (severity 0 announces the clear for
  // that link). The link is handed through so observers spanning several
  // links can track each one's condition independently.
  using CongestionCallback =
      std::function<void(VcId vc, const Link* link, double severity)>;
  // At most one handler per VC; replaced on re-set, dropped on CloseVc.
  void SetCongestionHandler(VcId id, CongestionCallback callback);
  void ClearCongestionHandler(VcId id);
  // Announces congestion on `link` (an operator/driver event: a flapping
  // port, a policer kicking in). Every open VC traversing the link that has
  // a handler is notified. Returns the number of VCs notified.
  int SignalCongestion(const Link* link, double severity);
  // Re-negotiates the reservation of an open VC in place — the routes stay,
  // only the admission-control books change. An increase is checked against
  // the headroom of every traversed link; on failure the old reservation
  // stays and an admission rejection is counted.
  bool UpdateVcQos(VcId id, QosSpec qos);

  // Reserved bandwidth currently admitted on `link`, in bits per second.
  int64_t ReservedBps(const Link* link) const {
    const int id = link->id();
    return (id >= 0 && static_cast<size_t>(id) < reserved_bps_.size()) ? reserved_bps_[id] : 0;
  }
  // Alias of ReservedBps under the name admission-control clients use.
  int64_t ReservedBandwidth(const Link* link) const { return ReservedBps(link); }
  // Unreserved capacity remaining on `link`, in bits per second.
  int64_t AvailableBandwidth(const Link* link) const {
    return link->bits_per_second() - ReservedBps(link);
  }
  // Resolves the route a VC from `src` to `dst` would take: ordered links
  // plus the one-way latency floor (propagation + one cell serialisation per
  // link, queueing excluded), in one cached path lookup. Multi-leg admission
  // does joint per-link accounting over these link sets, because two legs of
  // one pipeline may share a directed link. nullopt when either endpoint is
  // unattached or no path exists.
  std::optional<ResolvedRoute> ResolveRoute(const Endpoint* src, const Endpoint* dst) const;
  // The links an established VC traverses (its reservation applies to each,
  // once), in the order its tree edges were added, or nullptr for an unknown
  // id. Valid until the VC is next changed or closed.
  const std::vector<Link*>* VcLinks(VcId id) const;

  int64_t open_vc_count() const { return static_cast<int64_t>(vcs_.size()); }
  // Admission refusals, split by cause: a reservation that did not fit
  // (bandwidth) vs an unattached endpoint or unreachable destination
  // (no_path). admission_rejections() keeps the historical all-causes total.
  int64_t admission_rejections() const { return rejections_bandwidth_ + rejections_no_path_; }
  int64_t admission_rejections_bandwidth() const { return rejections_bandwidth_; }
  int64_t admission_rejections_no_path() const { return rejections_no_path_; }

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  // The activity log (see the atm::Link class comment): moves into `out` the
  // ids of the links whose SendCell/SendBurst ran since the previous drain,
  // each once, in first-send order, and re-arms those links. A link absent
  // from a drain shows the counters it showed at the previous drain, and a
  // queue no longer than then. Between drains the log holds at most one id
  // per link. It has one reader, the QosMonitor: a second drainer would
  // take ids the first never sees.
  void DrainActiveLinks(std::vector<int>* out);

  // The ids of open VCs traversing `link`, ascending (open order). Congestion
  // fan-out and monitors iterate this instead of scanning every VC's hops.
  const std::vector<VcId>& VcsOnLink(const Link* link) const;

 private:
  // One vertex of a VC's delivery tree: a switch holding the tree's route
  // entry there, or a leaf endpoint. Every vertex but the root is fed by
  // exactly one tree edge, `link`, out of its parent's switch; the root's
  // `link` is the source's uplink. Each edge is charged once.
  struct TreeNode {
    Switch* sw = nullptr;      // null for a leaf
    Endpoint* leaf = nullptr;  // null for a switch
    Link* link = nullptr;
    int parent = -1;    // index into VcState::nodes; -1 at the root
    int out_port = -1;  // port on the parent's switch feeding this vertex
    int in_port = -1;   // switch: input port of its route entry
    Vci vci = kVciUnassigned;  // switch: entry's input VCI; leaf: incoming VCI
  };
  struct VcState {
    VcDescriptor desc;
    // Graft order, parents before children; [0] is the root switch. A
    // one-leaf VC is its path's switches followed by the leaf.
    std::vector<TreeNode> nodes;
    // Every link the VC traverses, in the order its edges were added;
    // reservation bookkeeping applies desc.qos.peak_bps to each (nothing
    // when best-effort).
    std::vector<Link*> hop_links;
    // (switch id, node index) for every switch node, sorted by id. Built by
    // the first graft onto a grown tree; a one-leaf VC never needs it.
    std::vector<std::pair<int, int>> switch_index;
  };
  // Either a switch-to-switch edge or an endpoint attachment.
  struct Attachment {
    Switch* sw = nullptr;
    int port = -1;
    Link* to_switch = nullptr;    // carries cells toward the switch
    Link* from_switch = nullptr;  // carries cells away from the switch
  };
  // One directed switch-to-switch wire, as seen from its source switch. It
  // is a whole route hop: VC installation reads both ports from this entry.
  struct Edge {
    int to_id = -1;
    Switch* to = nullptr;
    int out_port = -1;  // on the source switch
    int in_port = -1;   // on `to`, where the wire lands
    Link* link = nullptr;
  };
  // BFS tree from one source switch: parent switch id per switch (-1 when
  // unreached, the source is its own parent), valid while `epoch` matches.
  struct RouteTree {
    uint64_t epoch = 0;
    std::vector<int32_t> parent;
  };

  // The edges from `from` to `to` in order (empty when from == to), walked
  // from from's route tree, which is (re)built first when its epoch is stale.
  // nullptr when unreachable. Points at scratch storage valid until the next
  // call.
  const std::vector<const Edge*>* SwitchPath(const Switch* from, const Switch* to) const;
  // Registers a freshly created link: assigns its dense id, attaches the
  // activity log and grows the flat ledgers.
  Link* RegisterLink(std::unique_ptr<Link> link);
  // The one tree open: a fresh VC grafted with each sink in turn, rolled
  // back whole if any graft is refused.
  std::optional<VcDescriptor> OpenTree(Endpoint* src, Endpoint* const* sinks, size_t count,
                                       QosSpec qos);
  // Grafts `leaf` onto `state` (an empty tree grows its root at `src` first).
  // A check pass over the one resolved path finds where it leaves the tree
  // and admits the new edges; only then does a commit pass allocate VCIs,
  // add route branches and charge the reservation. False (with the refusal
  // counted) leaves everything untouched: unattached or unreachable leaf, a
  // duplicate leaf, a fresh path reaching a tree switch over a second
  // incoming edge (only possible after a topology change), or no headroom.
  bool Graft(VcState& state, const Attachment& src, Endpoint* leaf);
  // Index of the switch node for `switch_id` in a grown tree, or -1.
  static int FindSwitchNode(VcState& state, int switch_id);
  // Books one tree edge: reservation, per-link VC index (sorted insert — a
  // graft can add an old id after younger VCs reached the link), hop_links.
  void ChargeTreeLink(VcState& state, Link* link);
  // Releases one edge's reservation and VC-index entry (not hop_links).
  void UnchargeTreeLink(const VcState& state, const Link* link);
  // Retires every route entry, leaf VCI and edge charge of `state`.
  void TearDown(VcState& state);

  // Wires `link` as a shard-boundary channel when its two sides live on
  // different shards (no-op otherwise).
  void MaybeMakeBoundary(Link* link, sim::Simulator* src, sim::Simulator* dst);

  sim::Simulator* sim_;
  sim::ShardGroup* shard_group_ = nullptr;
  sim::Simulator* build_sim_ = nullptr;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> links_;
  // Ids of links that sent since the last DrainActiveLinks.
  std::vector<int> active_links_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::map<const Endpoint*, Attachment> endpoint_attachments_;
  // Adjacency indexed by switch id; each row sorted by neighbour id so BFS
  // expansion order is the insertion order of switches, not heap addresses.
  std::vector<std::vector<Edge>> adjacency_;
  // Route trees indexed by source switch id, grown on first resolve.
  mutable std::vector<RouteTree> route_trees_;
  mutable std::vector<const Edge*> path_scratch_;
  mutable int64_t route_resolves_ = 0;
  mutable int64_t route_trees_built_ = 0;
  uint64_t topology_epoch_ = 0;
  std::map<VcId, VcState> vcs_;
  std::map<VcId, CongestionCallback> congestion_handlers_;
  // Reserved bits/s per link, indexed by link id — AvailableBandwidth on the
  // admission walk is a load, not a map lookup.
  std::vector<int64_t> reserved_bps_;
  // Open VCs traversing each link, indexed by link id, ascending VcId (ids
  // are monotone and never reused, so append keeps the order sorted).
  std::vector<std::vector<VcId>> link_vcs_;
  VcId next_vc_id_ = 1;
  int64_t rejections_bandwidth_ = 0;
  int64_t rejections_no_path_ = 0;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_NETWORK_H_
