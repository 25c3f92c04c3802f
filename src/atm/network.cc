#include "src/atm/network.h"

#include <algorithm>
#include <cassert>

namespace pegasus::atm {

Network::Network(sim::Simulator* sim) : sim_(sim) {}

Network::~Network() = default;

void Network::MaybeMakeBoundary(Link* link, sim::Simulator* src, sim::Simulator* dst) {
  if (src == dst) {
    return;
  }
  // Two sides on different simulators only happens under sharded
  // construction; anything else is a wiring bug.
  assert(shard_group_ != nullptr);
  link->SetBoundary(shard_group_->RegisterBoundary(src, dst, link->propagation_delay()));
}

Switch* Network::AddSwitch(const std::string& name, int num_ports, sim::DurationNs fabric_delay) {
  switches_.push_back(std::make_unique<Switch>(build_simulator(), name, num_ports, fabric_delay));
  Switch* sw = switches_.back().get();
  sw->set_id(static_cast<int>(switches_.size()) - 1);
  adjacency_.emplace_back();
  ++topology_epoch_;
  return sw;
}

Link* Network::RegisterLink(std::unique_ptr<Link> link) {
  link->set_id(static_cast<int>(links_.size()));
  link->set_activity_log(&active_links_);
  links_.push_back(std::move(link));
  reserved_bps_.push_back(0);
  link_vcs_.emplace_back();
  return links_.back().get();
}

void Network::DrainActiveLinks(std::vector<int>* out) {
  out->clear();
  out->swap(active_links_);
  for (int id : *out) {
    links_[static_cast<size_t>(id)]->set_activity_log(&active_links_);
  }
}

Endpoint* Network::AddEndpoint(const std::string& name, Switch* sw, int port, int64_t link_bps,
                               sim::DurationNs propagation) {
  // Endpoints are co-located with their attachment switch: a host NIC, a
  // device or a storage server always lives on the shard owning its local
  // switch, so the attachment link pair is never a shard boundary.
  sim::Simulator* shard = sw->simulator();
  endpoints_.push_back(std::make_unique<Endpoint>(shard, name));
  Endpoint* ep = endpoints_.back().get();

  Link* up = RegisterLink(
      std::make_unique<Link>(shard, name + "->" + sw->name(), link_bps, propagation));
  Link* down = RegisterLink(
      std::make_unique<Link>(shard, sw->name() + "->" + name, link_bps, propagation));

  up->set_sink(sw->input(port));
  down->set_sink(ep);
  ep->AttachUplink(up);
  ep->AttachSwitch(sw, port);
  sw->AttachOutput(port, down);

  endpoint_attachments_[ep] = Attachment{sw, port, up, down};
  ++topology_epoch_;
  return ep;
}

void Network::ConnectSwitches(Switch* a, int port_a, Switch* b, int port_b, int64_t link_bps,
                              sim::DurationNs propagation) {
  // Each directed link serialises on its SOURCE switch's shard; when the
  // two switches live on different shards the pair becomes a boundary
  // channel with the propagation delay as its lookahead.
  Link* ab = RegisterLink(
      std::make_unique<Link>(a->simulator(), a->name() + "->" + b->name(), link_bps, propagation));
  Link* ba = RegisterLink(
      std::make_unique<Link>(b->simulator(), b->name() + "->" + a->name(), link_bps, propagation));

  ab->set_sink(b->input(port_b));
  ba->set_sink(a->input(port_a));
  MaybeMakeBoundary(ab, a->simulator(), b->simulator());
  MaybeMakeBoundary(ba, b->simulator(), a->simulator());
  a->AttachOutput(port_a, ab);
  b->AttachOutput(port_b, ba);

  auto insert_edge = [this](Switch* s, Switch* t, int out_port, int in_port, Link* l) {
    auto& row = adjacency_[static_cast<size_t>(s->id())];
    const Edge edge{t->id(), t, out_port, in_port, l};
    auto it = std::lower_bound(row.begin(), row.end(), edge.to_id,
                               [](const Edge& e, int id) { return e.to_id < id; });
    if (it != row.end() && it->to_id == edge.to_id) {
      *it = edge;  // re-wiring two already-adjacent switches replaces the edge
    } else {
      row.insert(it, edge);
    }
  };
  insert_edge(a, b, port_a, port_b, ab);
  insert_edge(b, a, port_b, port_a, ba);
  ++topology_epoch_;
}

const std::vector<const Network::Edge*>* Network::SwitchPath(const Switch* from,
                                                             const Switch* to) const {
  ++route_resolves_;
  const int n = static_cast<int>(adjacency_.size());
  const int from_id = from->id();
  const int to_id = to->id();
  if (from_id < 0 || from_id >= n || to_id < 0 || to_id >= n) {
    return nullptr;
  }
  path_scratch_.clear();
  if (from_id == to_id) {
    return &path_scratch_;
  }
  if (route_trees_.size() <= static_cast<size_t>(from_id)) {
    route_trees_.resize(static_cast<size_t>(n));
  }
  RouteTree& tree = route_trees_[static_cast<size_t>(from_id)];
  if (tree.epoch != topology_epoch_) {
    // One full BFS over switch ids. Each adjacency row is sorted by
    // neighbour id, so equal-length paths tie-break by insertion order —
    // never by heap address — and a parent, once set, never changes: every
    // destination's chain is the one an early-exit BFS to it would find.
    ++route_trees_built_;
    tree.epoch = topology_epoch_;
    tree.parent.assign(static_cast<size_t>(n), -1);
    tree.parent[static_cast<size_t>(from_id)] = from_id;
    std::vector<int32_t> frontier;
    frontier.reserve(static_cast<size_t>(n));
    frontier.push_back(from_id);
    for (size_t head = 0; head < frontier.size(); ++head) {
      const int32_t cur = frontier[head];
      for (const Edge& e : adjacency_[static_cast<size_t>(cur)]) {
        if (tree.parent[static_cast<size_t>(e.to_id)] < 0) {
          tree.parent[static_cast<size_t>(e.to_id)] = cur;
          frontier.push_back(e.to_id);
        }
      }
    }
  }
  if (tree.parent[static_cast<size_t>(to_id)] < 0) {
    return nullptr;
  }
  // Walk dst -> src, taking each hop's edge from the parent's sorted row,
  // then emit the hops in src -> dst order.
  for (int v = to_id; v != from_id;) {
    const int u = tree.parent[static_cast<size_t>(v)];
    const auto& row = adjacency_[static_cast<size_t>(u)];
    path_scratch_.push_back(&*std::lower_bound(
        row.begin(), row.end(), v, [](const Edge& e, int id) { return e.to_id < id; }));
    v = u;
  }
  std::reverse(path_scratch_.begin(), path_scratch_.end());
  return &path_scratch_;
}

std::optional<ResolvedRoute> Network::ResolveRoute(const Endpoint* src,
                                                   const Endpoint* dst) const {
  auto src_it = endpoint_attachments_.find(src);
  auto dst_it = endpoint_attachments_.find(dst);
  if (src_it == endpoint_attachments_.end() || dst_it == endpoint_attachments_.end()) {
    return std::nullopt;
  }
  const Attachment& src_at = src_it->second;
  const Attachment& dst_at = dst_it->second;
  const auto* hops = SwitchPath(src_at.sw, dst_at.sw);
  if (hops == nullptr) {
    return std::nullopt;
  }
  ResolvedRoute route;
  route.links.reserve(hops->size() + 2);
  route.links.push_back(src_at.to_switch);
  for (const Edge* hop : *hops) {
    route.links.push_back(hop->link);
  }
  route.links.push_back(dst_at.from_switch);
  for (const Link* l : route.links) {
    route.latency_ns += l->propagation_delay() + l->cell_time();
  }
  route.epoch = topology_epoch_;
  return route;
}

const std::vector<Link*>* Network::VcLinks(VcId id) const {
  auto it = vcs_.find(id);
  return it == vcs_.end() ? nullptr : &it->second.hop_links;
}

const std::vector<VcId>& Network::VcsOnLink(const Link* link) const {
  static const std::vector<VcId> kEmpty;
  const int id = link->id();
  if (id < 0 || static_cast<size_t>(id) >= link_vcs_.size()) {
    return kEmpty;
  }
  return link_vcs_[static_cast<size_t>(id)];
}

std::optional<VcDescriptor> Network::OpenVc(Endpoint* src, Endpoint* dst, QosSpec qos) {
  return OpenTree(src, &dst, 1, qos);
}

std::optional<VcDescriptor> Network::OpenMulticastVc(Endpoint* src,
                                                     const std::vector<Endpoint*>& sinks,
                                                     QosSpec qos) {
  return OpenTree(src, sinks.data(), sinks.size(), qos);
}

std::optional<std::pair<VcDescriptor, VcDescriptor>> Network::OpenDuplex(Endpoint* src,
                                                                         Endpoint* dst,
                                                                         QosSpec data_qos,
                                                                         QosSpec control_qos) {
  auto data = OpenVc(src, dst, data_qos);
  if (!data.has_value()) {
    return std::nullopt;
  }
  auto control = OpenVc(dst, src, control_qos);
  if (!control.has_value()) {
    CloseVc(data->id);
    return std::nullopt;
  }
  return std::make_pair(*data, *control);
}

std::optional<VcDescriptor> Network::OpenTree(Endpoint* src, Endpoint* const* sinks,
                                              size_t count, QosSpec qos) {
  auto src_it = endpoint_attachments_.find(src);
  if (count == 0 || src_it == endpoint_attachments_.end()) {
    ++rejections_no_path_;
    return std::nullopt;
  }
  VcState state;
  // The id is claimed only once every graft succeeded, so a refused open
  // leaves the id sequence as it found it.
  state.desc.id = next_vc_id_;
  state.desc.source = src;
  state.desc.qos = qos;
  for (size_t i = 0; i < count; ++i) {
    if (!Graft(state, src_it->second, sinks[i])) {
      TearDown(state);
      return std::nullopt;
    }
    if (i == 0) {
      state.desc.destination = sinks[0];
      state.desc.destination_vci = state.nodes.back().vci;
    }
  }
  ++next_vc_id_;
  const VcDescriptor desc = state.desc;
  vcs_.emplace_hint(vcs_.end(), desc.id, std::move(state));
  return desc;
}

int Network::FindSwitchNode(VcState& state, int switch_id) {
  auto& index = state.switch_index;
  if (index.empty()) {
    for (size_t i = 0; i < state.nodes.size(); ++i) {
      if (state.nodes[i].sw != nullptr) {
        index.emplace_back(state.nodes[i].sw->id(), static_cast<int>(i));
      }
    }
    std::sort(index.begin(), index.end());
  }
  auto it = std::lower_bound(index.begin(), index.end(), switch_id,
                             [](const std::pair<int, int>& e, int id) { return e.first < id; });
  return it != index.end() && it->first == switch_id ? it->second : -1;
}

bool Network::Graft(VcState& state, const Attachment& src, Endpoint* leaf) {
  auto leaf_it = endpoint_attachments_.find(leaf);
  const bool fresh = state.nodes.empty();
  const auto* hops =
      leaf_it == endpoint_attachments_.end()
          ? nullptr
          : SwitchPath(fresh ? src.sw : state.nodes.front().sw, leaf_it->second.sw);
  if (hops == nullptr) {
    ++rejections_no_path_;
    return false;
  }
  const Attachment& leaf_at = leaf_it->second;

  // Check pass. The path runs down the tree to `attach`, the last tree
  // switch on it; hops from `first_new` on are new edges. On a fresh tree
  // every hop is new — a BFS path never revisits a switch — so the lookups
  // are skipped.
  int attach = 0;
  size_t first_new = 0;
  if (!fresh) {
    auto refuse = [this]() {
      ++rejections_no_path_;
      return false;
    };
    for (; first_new < hops->size(); ++first_new) {
      const Edge* hop = (*hops)[first_new];
      const int n = FindSwitchNode(state, hop->to_id);
      if (n < 0) {
        break;
      }
      if (state.nodes[static_cast<size_t>(n)].parent != attach ||
          state.nodes[static_cast<size_t>(n)].in_port != hop->in_port) {
        return refuse();  // reached over a second incoming edge
      }
      attach = n;
    }
    for (size_t j = first_new + 1; j < hops->size(); ++j) {
      if (FindSwitchNode(state, (*hops)[j]->to_id) >= 0) {
        return refuse();  // re-enters the tree over a second incoming edge
      }
    }
    // A leaf hanging off an existing tree switch must not reuse a port that
    // switch already branches to; a new switch has no branches yet.
    const int leaf_parent = first_new == hops->size() ? attach : -1;
    for (const TreeNode& node : state.nodes) {
      if (node.leaf == leaf || (node.parent == leaf_parent && node.out_port == leaf_at.port)) {
        return refuse();  // duplicate leaf, or its port already branches
      }
    }
  }
  // Admission on the new edges only: everything above `attach` is already
  // reserved, and each edge carries ONE copy of the stream.
  const int64_t bps = state.desc.qos.peak_bps;
  if (bps > 0) {
    auto fits = [this, bps](const Link* l) {
      return ReservedBps(l) + bps <= l->bits_per_second();
    };
    bool ok = (!fresh || fits(src.to_switch)) && fits(leaf_at.from_switch);
    for (size_t j = first_new; ok && j < hops->size(); ++j) {
      ok = fits((*hops)[j]->link);
    }
    if (!ok) {
      ++rejections_bandwidth_;
      return false;
    }
  }

  // Commit pass: allocate VCIs, add route branches, charge the new edges.
  auto add_branch = [&state](int parent, int out_port, Vci out_vci) {
    const TreeNode& up = state.nodes[static_cast<size_t>(parent)];
    if (up.sw->HasRoute(up.in_port, up.vci)) {
      up.sw->AddRouteTarget(up.in_port, up.vci, out_port, out_vci);
    } else {
      up.sw->AddRoute(up.in_port, up.vci, out_port, out_vci);
    }
  };
  if (fresh) {
    state.desc.source_vci = src.sw->AllocateVci(src.port);
    state.nodes.reserve(hops->size() + 2);
    state.hop_links.reserve(hops->size() + 2);
    state.nodes.push_back(
        TreeNode{src.sw, nullptr, src.to_switch, -1, -1, src.port, state.desc.source_vci});
    ChargeTreeLink(state, src.to_switch);
    state.desc.hop_count = 1;
  }
  for (size_t j = first_new; j < hops->size(); ++j) {
    const Edge* hop = (*hops)[j];
    // The VCI on the inter-switch link is whatever is free on the next
    // switch's input port.
    const Vci vci = hop->to->AllocateVci(hop->in_port);
    add_branch(attach, hop->out_port, vci);
    state.nodes.push_back(
        TreeNode{hop->to, nullptr, hop->link, attach, hop->out_port, hop->in_port, vci});
    attach = static_cast<int>(state.nodes.size()) - 1;
    ChargeTreeLink(state, hop->link);
    if (!state.switch_index.empty()) {
      const std::pair<int, int> entry{hop->to_id, attach};
      auto& index = state.switch_index;
      index.insert(std::lower_bound(index.begin(), index.end(), entry), entry);
    }
  }
  state.desc.hop_count += static_cast<int>(hops->size() - first_new);
  const Vci leaf_vci = leaf->AllocateIncomingVci();
  add_branch(attach, leaf_at.port, leaf_vci);
  state.nodes.push_back(
      TreeNode{nullptr, leaf, leaf_at.from_switch, attach, leaf_at.port, -1, leaf_vci});
  ChargeTreeLink(state, leaf_at.from_switch);
  return true;
}

void Network::ChargeTreeLink(VcState& state, Link* link) {
  if (state.desc.qos.peak_bps > 0) {
    reserved_bps_[static_cast<size_t>(link->id())] += state.desc.qos.peak_bps;
  }
  auto& on_link = link_vcs_[static_cast<size_t>(link->id())];
  on_link.insert(std::lower_bound(on_link.begin(), on_link.end(), state.desc.id), state.desc.id);
  state.hop_links.push_back(link);
}

void Network::UnchargeTreeLink(const VcState& state, const Link* link) {
  if (state.desc.qos.peak_bps > 0) {
    reserved_bps_[static_cast<size_t>(link->id())] -= state.desc.qos.peak_bps;
  }
  auto& on_link = link_vcs_[static_cast<size_t>(link->id())];
  on_link.erase(std::lower_bound(on_link.begin(), on_link.end(), state.desc.id));
}

void Network::TearDown(VcState& state) {
  // Each switch's whole entry goes at once (RemoveRoute drops every branch),
  // and every leaf's incoming VCI is released.
  for (const TreeNode& node : state.nodes) {
    if (node.sw != nullptr) {
      node.sw->RemoveRoute(node.in_port, node.vci);
    } else {
      node.leaf->ReleaseIncomingVci(node.vci);
    }
  }
  for (const Link* l : state.hop_links) {
    UnchargeTreeLink(state, l);
  }
}

bool Network::CloseVc(VcId id) {
  auto it = vcs_.find(id);
  if (it == vcs_.end()) {
    return false;
  }
  TearDown(it->second);
  congestion_handlers_.erase(id);
  vcs_.erase(it);
  return true;
}

std::optional<Vci> Network::AddLeaf(VcId id, Endpoint* leaf) {
  auto it = vcs_.find(id);
  if (it == vcs_.end()) {
    return std::nullopt;
  }
  VcState& state = it->second;
  if (!Graft(state, endpoint_attachments_.at(state.desc.source), leaf)) {
    return std::nullopt;
  }
  return state.nodes.back().vci;
}

bool Network::RemoveLeaf(VcId id, Endpoint* leaf) {
  auto it = vcs_.find(id);
  if (it == vcs_.end()) {
    return false;
  }
  VcState& state = it->second;
  std::vector<TreeNode>& nodes = state.nodes;
  if (static_cast<int>(nodes.size()) - state.desc.hop_count <= 1) {
    return false;  // the last leaf comes off via CloseVc
  }
  auto leaf_it = std::find_if(nodes.begin(), nodes.end(),
                              [leaf](const TreeNode& n) { return n.leaf == leaf; });
  if (leaf_it == nodes.end()) {
    return false;
  }
  leaf->ReleaseIncomingVci(leaf_it->vci);
  // Prune bottom-up along the parent links: the leaf's edge always goes,
  // and each switch above it goes too once its entry has no branch left.
  size_t n = static_cast<size_t>(leaf_it - nodes.begin());
  do {
    TreeNode& child = nodes[n];
    const TreeNode& up = nodes[static_cast<size_t>(child.parent)];
    up.sw->RemoveRouteTarget(up.in_port, up.vci, child.out_port);
    UnchargeTreeLink(state, child.link);
    state.hop_links.erase(std::find(state.hop_links.begin(), state.hop_links.end(), child.link));
    child.link = nullptr;  // marks the vertex pruned
    state.desc.hop_count -= child.sw != nullptr ? 1 : 0;
    n = static_cast<size_t>(child.parent);
  } while (!nodes[n].sw->HasRoute(nodes[n].in_port, nodes[n].vci));

  // Compact the survivors in order; parents precede children, so each
  // parent's new index is known when its children move.
  std::vector<int> remap(nodes.size(), -1);
  size_t kept = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].link == nullptr) {
      continue;
    }
    remap[i] = static_cast<int>(kept);
    TreeNode node = nodes[i];
    if (node.parent >= 0) {
      node.parent = remap[static_cast<size_t>(node.parent)];
    }
    nodes[kept++] = node;
  }
  nodes.resize(kept);
  auto& index = state.switch_index;
  index.erase(std::remove_if(index.begin(), index.end(),
                             [&remap](const std::pair<int, int>& e) {
                               return remap[static_cast<size_t>(e.second)] < 0;
                             }),
              index.end());
  for (auto& entry : index) {
    entry.second = remap[static_cast<size_t>(entry.second)];
  }
  return true;
}

int Network::McastLeafCount(VcId id) const {
  auto it = vcs_.find(id);
  return it == vcs_.end()
             ? 0
             : static_cast<int>(it->second.nodes.size()) - it->second.desc.hop_count;
}

std::optional<Vci> Network::McastLeafVci(VcId id, const Endpoint* leaf) const {
  auto it = vcs_.find(id);
  if (it == vcs_.end()) {
    return std::nullopt;
  }
  for (const TreeNode& node : it->second.nodes) {
    if (node.leaf == leaf) {
      return node.vci;
    }
  }
  return std::nullopt;
}

void Network::SetCongestionHandler(VcId id, CongestionCallback callback) {
  if (vcs_.count(id) == 0) {
    return;
  }
  congestion_handlers_[id] = std::move(callback);
}

void Network::ClearCongestionHandler(VcId id) { congestion_handlers_.erase(id); }

int Network::SignalCongestion(const Link* link, double severity) {
  // Collect ids first: a handler may renegotiate or close VCs, mutating
  // the per-link index and the handler map mid-iteration. The index is
  // ascending VcId — the same order the historical all-VCs scan produced.
  std::vector<VcId> to_notify;
  for (VcId id : VcsOnLink(link)) {
    if (congestion_handlers_.count(id) > 0) {
      to_notify.push_back(id);
    }
  }
  int notified = 0;
  for (VcId id : to_notify) {
    // Re-validate right before the call: an earlier callback may have
    // closed this VC, re-established it off the link, or dropped its
    // handler — a stale notification would report congestion for a link
    // the VC no longer traverses.
    auto vc = vcs_.find(id);
    if (vc == vcs_.end() ||
        std::find(vc->second.hop_links.begin(), vc->second.hop_links.end(), link) ==
            vc->second.hop_links.end()) {
      continue;
    }
    auto handler = congestion_handlers_.find(id);
    if (handler == congestion_handlers_.end()) {
      continue;
    }
    // Copy the callback: the handler may replace itself mid-call.
    CongestionCallback callback = handler->second;
    callback(id, link, severity);
    ++notified;
  }
  return notified;
}

bool Network::UpdateVcQos(VcId id, QosSpec qos) {
  auto it = vcs_.find(id);
  if (it == vcs_.end()) {
    return false;
  }
  VcState& state = it->second;
  const int64_t old_bps = state.desc.qos.peak_bps;
  const int64_t new_bps = qos.peak_bps;
  if (new_bps > old_bps) {
    for (Link* l : state.hop_links) {
      if (ReservedBps(l) - old_bps + new_bps > l->bits_per_second()) {
        ++rejections_bandwidth_;
        return false;
      }
    }
  }
  for (Link* l : state.hop_links) {
    reserved_bps_[static_cast<size_t>(l->id())] += new_bps - old_bps;
  }
  state.desc.qos = qos;
  return true;
}

const VcDescriptor* Network::GetVc(VcId id) const {
  auto it = vcs_.find(id);
  return it == vcs_.end() ? nullptr : &it->second.desc;
}

}  // namespace pegasus::atm
