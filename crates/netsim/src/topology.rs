//! Network topology: users, switches, servers, and dual-channel optical
//! fibers (paper Sec. IV-A).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Index of a node in a [`Network`].
pub type NodeId = usize;
/// Index of a fiber in a [`Network`].
pub type FiberId = usize;

/// The role of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Generates communication requests; encodes messages into surface
    /// codes. Cannot relay traffic or run error correction.
    User,
    /// Intermediate station: relays Support photons and generates entangled
    /// pairs for the Core channel.
    Switch,
    /// A switch with larger quantum memory that can additionally perform
    /// surface-code error correction when a complete code is present.
    Server,
}

impl NodeKind {
    /// Whether this node relays traffic (the paper's set `R`: switches
    /// including servers).
    pub fn is_relay(self) -> bool {
        matches!(self, NodeKind::Switch | NodeKind::Server)
    }
}

/// One network node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's role.
    pub kind: NodeKind,
    /// Quantum memory capacity `η_r`: how many data qubits the node can
    /// hold per scheduling round. Users hold their own messages; their
    /// capacity is not a routing constraint.
    pub capacity: u32,
}

/// A bidirectional optical fiber with its two channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Fiber {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Fidelity `γ ∈ [0, 1]` of one traversal (Fig. 4's labels).
    pub fidelity: f64,
    /// Number of entangled pairs `η_e` prepared across this fiber per
    /// scheduling round (the entanglement-based channel's budget).
    pub entanglement_capacity: u32,
    /// Per-traversal photon-loss probability on the plain channel
    /// (erasure source for Support qubits).
    pub loss_prob: f64,
}

impl Fiber {
    /// The endpoint opposite `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint.
    #[expect(clippy::panic, reason = "routes only hand it fibers incident to v")]
    pub fn other(&self, v: NodeId) -> NodeId {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            panic!("node {v} is not an endpoint of this fiber")
        }
    }

    /// The noise of one traversal, `μ = ln(1/γ)` (paper Sec. V-A).
    pub fn noise(&self) -> f64 {
        noise_of_fidelity(self.fidelity)
    }
}

/// The paper's fidelity-to-noise translation `μ = ln(1/γ)`, which turns
/// fidelity products into noise sums.
///
/// # Panics
///
/// Panics if `gamma` is outside `(0, 1]`.
pub fn noise_of_fidelity(gamma: f64) -> f64 {
    assert!(
        gamma > 0.0 && gamma <= 1.0,
        "fidelity {gamma} outside (0, 1]"
    );
    (1.0 / gamma).ln()
}

/// Inverse of [`noise_of_fidelity`].
pub fn fidelity_of_noise(mu: f64) -> f64 {
    (-mu).exp()
}

/// A connected quantum network.
///
/// # Examples
///
/// ```
/// use surfnet_netsim::{Network, NodeKind};
///
/// let mut net = Network::new();
/// let alice = net.add_node(NodeKind::User, 8);
/// let sw = net.add_node(NodeKind::Switch, 32);
/// let bob = net.add_node(NodeKind::User, 8);
/// net.add_fiber(alice, sw, 0.9, 4, 0.05)?;
/// net.add_fiber(sw, bob, 0.85, 4, 0.05)?;
/// assert!(net.is_connected());
/// # Ok::<(), surfnet_netsim::NetError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    nodes: Vec<Node>,
    fibers: Vec<Fiber>,
    adj: Vec<Vec<FiberId>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, capacity: u32) -> NodeId {
        self.nodes.push(Node { kind, capacity });
        self.adj.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a bidirectional fiber.
    ///
    /// # Errors
    ///
    /// [`crate::NetError::InvalidFiber`] on self-loops, unknown endpoints,
    /// or fidelity/loss outside range.
    pub fn add_fiber(
        &mut self,
        a: NodeId,
        b: NodeId,
        fidelity: f64,
        entanglement_capacity: u32,
        loss_prob: f64,
    ) -> Result<FiberId, crate::NetError> {
        if a == b || a >= self.nodes.len() || b >= self.nodes.len() {
            return Err(crate::NetError::InvalidFiber);
        }
        if fidelity <= 0.0 || fidelity > 1.0 || !(0.0..=1.0).contains(&loss_prob) {
            return Err(crate::NetError::InvalidFiber);
        }
        let id = self.fibers.len();
        self.fibers.push(Fiber {
            a,
            b,
            fidelity,
            entanglement_capacity,
            loss_prob,
        });
        self.adj[a].push(id);
        self.adj[b].push(id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of fibers.
    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }

    /// Node `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node(&self, v: NodeId) -> &Node {
        &self.nodes[v]
    }

    /// Mutable access to node `v` (used by scenario sweeps to scale
    /// capacities).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node_mut(&mut self, v: NodeId) -> &mut Node {
        &mut self.nodes[v]
    }

    /// Fiber `f`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn fiber(&self, f: FiberId) -> &Fiber {
        &self.fibers[f]
    }

    /// Mutable access to fiber `f`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn fiber_mut(&mut self, f: FiberId) -> &mut Fiber {
        &mut self.fibers[f]
    }

    /// All fibers.
    pub fn fibers(&self) -> &[Fiber] {
        &self.fibers
    }

    /// Fibers incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn incident(&self, v: NodeId) -> &[FiberId] {
        &self.adj[v]
    }

    /// Ids of all user nodes.
    pub fn users(&self) -> Vec<NodeId> {
        self.ids_of(|k| k == NodeKind::User)
    }

    /// Ids of all relay nodes (`R`: switches and servers).
    pub fn relays(&self) -> Vec<NodeId> {
        self.ids_of(NodeKind::is_relay)
    }

    /// Ids of server nodes (`RR`).
    pub fn servers(&self) -> Vec<NodeId> {
        self.ids_of(|k| k == NodeKind::Server)
    }

    fn ids_of(&self, pred: impl Fn(NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| pred(n.kind))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &f in &self.adj[v] {
                let u = self.fibers[f].other(v);
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Minimum-noise path from `src` to `dst` (Dijkstra over `μ` weights).
    /// Returns the fiber sequence, or `None` if unreachable.
    pub fn min_noise_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        self.shortest_path_by(src, dst, |f| self.fibers[f].noise())
    }

    /// Minimum-hop path from `src` to `dst`.
    pub fn min_hop_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        self.shortest_path_by(src, dst, |_| 1.0)
    }

    /// Dijkstra with a custom non-negative cost per fiber id, so a caller
    /// can read costs from its own table or tell parallel fibers apart.
    ///
    /// This is the search for per-call cost closures:
    /// [`Network::min_hop_path`] (whose integer costs tie),
    /// [`Network::min_noise_path`], fiber-failure recovery's detours
    /// ([`crate::execution`]), and the capacity-aware routes of the routing
    /// scheduler and Purification-N (an infinite cost bars a fiber). The
    /// streaming planner's repeated minimum-noise queries go through
    /// [`RouteSearch`]; this search is its reference in tests and `SURFNET_CHECK`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn shortest_path_by(
        &self,
        src: NodeId,
        dst: NodeId,
        cost: impl Fn(FiberId) -> f64,
    ) -> Option<Vec<FiberId>> {
        assert!(src < self.num_nodes() && dst < self.num_nodes());
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut via = vec![usize::MAX; n];
        let mut heap: BinaryHeap<(Reverse<u64>, NodeId)> = BinaryHeap::new();
        // Order keys as bit-converted floats: all costs non-negative/finite.
        let key = |d: f64| Reverse(d.to_bits());
        dist[src] = 0.0;
        heap.push((key(0.0), src));
        while let Some((Reverse(bits), v)) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[v] {
                continue;
            }
            if v == dst {
                break;
            }
            for &f in &self.adj[v] {
                let u = self.fibers[f].other(v);
                let c = cost(f);
                debug_assert!(c >= 0.0, "negative fiber cost");
                let nd = d + c;
                if nd < dist[u] {
                    dist[u] = nd;
                    via[u] = f;
                    heap.push((key(nd), u));
                }
            }
        }
        if dist[dst].is_infinite() {
            return None;
        }
        let mut path = Vec::new();
        let mut v = dst;
        while v != src {
            let f = via[v];
            path.push(f);
            v = self.fibers[f].other(v);
        }
        path.reverse();
        Some(path)
    }

    /// The end-to-end fidelity of traversing `path` once: `Π γᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if a fiber id is out of range.
    pub fn path_fidelity(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|&f| self.fibers[f].fidelity).product()
    }

    /// The accumulated noise of `path`: `Σ μᵢ`.
    pub fn path_noise(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|&f| self.fibers[f].noise()).sum()
    }

    /// The node sequence visited when walking `path` from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the path is not a connected walk starting at `src`.
    pub fn walk(&self, src: NodeId, path: &[FiberId]) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut cur = src;
        for &f in path {
            cur = self.fibers[f].other(cur);
            nodes.push(cur);
        }
        nodes
    }
}

/// One arc of the flat adjacency that [`RouteSearch::new`] labels over: the
/// far end of an incident fiber, the fiber, and its noise `μ`.
#[derive(Debug)]
struct Hop {
    to: u32,
    fiber: u32,
    noise: f64,
}

/// A flat adjacency, in [`Network::incident`] order: node `v`'s arcs are
/// `hops[first[v]..first[v + 1]]`.
#[derive(Debug)]
struct Arcs {
    first: Vec<u32>,
    hops: Vec<Hop>,
}

impl Arcs {
    /// Reads each fiber's noise once, into one arc per fiber end.
    fn new(net: &Network) -> Arcs {
        let mut first = Vec::with_capacity(net.num_nodes() + 1);
        let mut hops = Vec::with_capacity(2 * net.num_fibers());
        first.push(0);
        for v in 0..net.num_nodes() {
            for &f in net.incident(v) {
                let fiber = net.fiber(f);
                hops.push(Hop {
                    to: fiber.other(v) as u32,
                    fiber: f as u32,
                    noise: fiber.noise(),
                });
            }
            first.push(hops.len() as u32);
        }
        Arcs { first, hops }
    }

    fn of(&self, v: NodeId) -> &[Hop] {
        &self.hops[self.first[v] as usize..self.first[v + 1] as usize]
    }
}

/// The `fiber` of a hub's own [`LabelEntry`]: a hub reaches itself by none.
pub(crate) const NO_FIBER: u32 = u32::MAX;

/// One entry of a node's hub label: the node's noise distance to the hub of
/// rank `hub`, and the fiber by which the hub's shortest-path tree reaches
/// the node. The fiber's far end is the node's parent in that tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LabelEntry {
    pub(crate) dist: f64,
    pub(crate) hub: u32,
    pub(crate) fiber: u32,
}

/// Ranks the nodes of `net` and labels every one of them: returns `order`,
/// where `order[rank]` is the node of that rank, and each node's label,
/// sorted by hub rank.
///
/// Nodes rank by degree, highest first, ties to the lower id: the key
/// [`crate::generate::barabasi_albert`] assigns kinds by, so relays rank
/// first. For each root in rank order, a Dijkstra over the noises runs from
/// it, pruned against the labels built so far. When a node `u` pops at
/// noise `d`, the earlier hubs reach it from the root within
/// `q = min(d(u, h) + d(h, root))` over its label. If `q ≤ d` the node is
/// skipped: no label and no expansion. Otherwise it gets the entry
/// `(root, d, fiber it was reached by)` and its arcs are relaxed. The
/// scratch is reused across roots, and only the nodes a root touched are
/// reset.
pub(crate) fn hub_labels(net: &Network) -> (Vec<u32>, Vec<Vec<LabelEntry>>) {
    let n = net.num_nodes();
    let arcs = Arcs::new(net);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (Reverse(net.incident(v as NodeId).len()), v));
    let mut labels: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    let mut dist = vec![f64::INFINITY; n];
    let mut via = vec![NO_FIBER; n];
    let mut heap = BinaryHeap::new();
    let mut touched = Vec::new();
    // The root's noise to each hub rank, from its label.
    let mut to_root = vec![f64::INFINITY; n];
    for (rank, &root) in order.iter().enumerate() {
        let root = root as NodeId;
        for entry in &labels[root] {
            to_root[entry.hub as usize] = entry.dist;
        }
        dist[root] = 0.0;
        touched.push(root);
        heap.push((Reverse(0.0f64.to_bits()), root));
        while let Some((Reverse(bits), v)) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[v] {
                continue;
            }
            let covered = labels[v].iter().fold(f64::INFINITY, |q, e| {
                q.min(e.dist + to_root[e.hub as usize])
            });
            if covered <= d {
                continue;
            }
            labels[v].push(LabelEntry {
                dist: d,
                hub: rank as u32,
                fiber: via[v],
            });
            for hop in arcs.of(v) {
                let u = hop.to as usize;
                let nd = d + hop.noise;
                if nd < dist[u] {
                    if dist[u] == f64::INFINITY {
                        touched.push(u);
                    }
                    dist[u] = nd;
                    via[u] = hop.fiber;
                    heap.push((Reverse(nd.to_bits()), u));
                }
            }
        }
        for v in touched.drain(..) {
            dist[v] = f64::INFINITY;
            via[v] = NO_FIBER;
        }
        for entry in &labels[root] {
            to_root[entry.hub as usize] = f64::INFINITY;
        }
    }
    (order, labels)
}

/// A minimum-noise route oracle over one network: the streaming planner's
/// Dijkstra (paper Sec. V-A/B), answered from hub labels built once.
///
/// [`new`](Self::new) runs pruned landmark labeling (Akiba, Iwata and
/// Yoshida, SIGMOD 2013) over every fiber's noise `μ = ln(1/γ)`. It ranks
/// the nodes by degree and runs one Dijkstra from each in rank order. A
/// node that earlier hubs already reach within its noise from the root is
/// neither labelled nor expanded; every other node records the root as a
/// hub, with its noise and the fiber the root's shortest-path tree reaches
/// it by. On Barabási–Albert graphs the high-degree hubs lie on almost every
/// minimum-noise route, so on the 1,200-node stream graphs the labels
/// average 11 to 18 entries per node.
/// [`path`](Self::path) merges the two endpoints' labels by hub rank, takes
/// the common hub `h` with the least `d(src, h) + d(h, dst)` (the first in
/// rank order on a tie), and walks the tree fibers from `src` up to `h` and
/// from `h` down to `dst`. Endpoints in different components share no hub.
///
/// Where the minimum-noise route is unique, it is the route
/// [`Network::shortest_path_by`] returns over the same noise: its
/// highest-ranked node labels every node on it. On exact ties the two may
/// return different minimum-noise routes, because the label sum rounds
/// differently from a forward fold.
///
/// # Examples
///
/// ```
/// use surfnet_netsim::{Network, NodeKind, RouteSearch};
///
/// let mut net = Network::new();
/// let a = net.add_node(NodeKind::User, 8);
/// let s = net.add_node(NodeKind::Switch, 32);
/// let b = net.add_node(NodeKind::User, 8);
/// net.add_fiber(a, s, 0.9, 4, 0.05)?;
/// net.add_fiber(s, b, 0.85, 4, 0.05)?;
/// net.add_fiber(a, b, 0.6, 4, 0.05)?;
/// let search = RouteSearch::new(&net);
/// assert_eq!(search.path(a, b), Some(vec![0, 1]));
/// assert_eq!(search.path(b, a), Some(vec![1, 0]));
/// # Ok::<(), surfnet_netsim::NetError>(())
/// ```
#[derive(Debug)]
pub struct RouteSearch<'a> {
    net: &'a Network,
    /// Each node's hub label, sorted by hub rank.
    labels: Vec<Vec<LabelEntry>>,
}

impl<'a> RouteSearch<'a> {
    /// Builds the hub labels of `net`: one pruned Dijkstra per node, over a
    /// flat adjacency that reads each fiber's noise once and is dropped
    /// before this returns.
    ///
    /// # Panics
    ///
    /// Panics if `net` has `u32::MAX` or more nodes or arcs.
    pub fn new(net: &'a Network) -> RouteSearch<'a> {
        assert!(
            net.num_nodes() < u32::MAX as usize && 2 * net.num_fibers() < u32::MAX as usize,
            "network too large for 32-bit search indices"
        );
        let (order, labels) = hub_labels(net);
        if crate::check::enabled() {
            crate::check::assert_ok(
                crate::check::check_labels(net, &order, &labels),
                "hub-labels",
            );
        }
        RouteSearch { net, labels }
    }

    /// Label entries built, summed over every node: the search's
    /// deterministic work count. Queries add none.
    pub fn labels(&self) -> u64 {
        self.labels.iter().map(|label| label.len() as u64).sum()
    }

    /// Minimum-noise route from `src` to `dst` as a fiber sequence (empty
    /// when `src == dst`), or `None` if `dst` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        let n = self.net.num_nodes();
        assert!(src < n && dst < n);
        let route = self.route(src, dst);
        if crate::check::enabled() {
            crate::check::assert_ok(
                crate::check::check_route(self.net, src, dst, route.as_deref()),
                "route-search",
            );
        }
        route
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let (hub, _) = self.common_hub(src, dst)?;
        let mut route = self.up_to(src, hub);
        route.extend(self.up_to(dst, hub).iter().rev());
        Some(route)
    }

    /// The common hub of `src` and `dst` with the least summed noise, the
    /// first in rank order on a tie, and that noise; `None` if they share
    /// no hub.
    fn common_hub(&self, src: NodeId, dst: NodeId) -> Option<(u32, f64)> {
        let (a, b) = (&self.labels[src], &self.labels[dst]);
        let (mut i, mut j) = (0, 0);
        let mut best: Option<(u32, f64)> = None;
        while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
            match x.hub.cmp(&y.hub) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let through = x.dist + y.dist;
                    if best.is_none_or(|(_, d)| through < d) {
                        best = Some((x.hub, through));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// The fibers from `v` up `hub`'s shortest-path tree to the hub; `v`
    /// must carry `hub` in its label.
    fn up_to(&self, mut v: NodeId, hub: u32) -> Vec<FiberId> {
        let mut fibers = Vec::new();
        loop {
            let label = &self.labels[v];
            let fiber = label[label.partition_point(|e| e.hub < hub)].fiber;
            if fiber == NO_FIBER {
                return fibers;
            }
            fibers.push(fiber as FiberId);
            v = self.net.fiber(fiber as FiberId).other(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Network {
        // A(u) - S1 - S2(server) - B(u), plus shortcut A - S2 (low fidelity).
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 8);
        let s1 = net.add_node(NodeKind::Switch, 16);
        let s2 = net.add_node(NodeKind::Server, 32);
        let b = net.add_node(NodeKind::User, 8);
        net.add_fiber(a, s1, 0.95, 4, 0.02).unwrap();
        net.add_fiber(s1, s2, 0.95, 4, 0.02).unwrap();
        net.add_fiber(s2, b, 0.95, 4, 0.02).unwrap();
        net.add_fiber(a, s2, 0.70, 4, 0.02).unwrap();
        net
    }

    #[test]
    fn kinds_and_sets() {
        let net = sample();
        assert_eq!(net.users(), vec![0, 3]);
        assert_eq!(net.relays(), vec![1, 2]);
        assert_eq!(net.servers(), vec![2]);
        assert!(NodeKind::Server.is_relay());
        assert!(!NodeKind::User.is_relay());
    }

    #[test]
    fn fiber_validation() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 1);
        let b = net.add_node(NodeKind::User, 1);
        assert!(net.add_fiber(a, a, 0.9, 1, 0.0).is_err());
        assert!(net.add_fiber(a, 7, 0.9, 1, 0.0).is_err());
        assert!(net.add_fiber(a, b, 0.0, 1, 0.0).is_err());
        assert!(net.add_fiber(a, b, 1.1, 1, 0.0).is_err());
        assert!(net.add_fiber(a, b, 0.9, 1, 1.5).is_err());
        assert!(net.add_fiber(a, b, 0.9, 1, 0.1).is_ok());
    }

    #[test]
    fn noise_translation_roundtrip() {
        for gamma in [0.5, 0.75, 0.9, 1.0] {
            let mu = noise_of_fidelity(gamma);
            assert!((fidelity_of_noise(mu) - gamma).abs() < 1e-12);
        }
        assert_eq!(noise_of_fidelity(1.0), 0.0);
    }

    #[test]
    fn min_noise_path_avoids_bad_shortcut() {
        let net = sample();
        // Direct A-S2 has noise ln(1/0.7) ≈ 0.357; two-hop has
        // 2*ln(1/0.95) ≈ 0.103. Dijkstra must take the two-hop route.
        let path = net.min_noise_path(0, 2).unwrap();
        assert_eq!(path, vec![0, 1]);
        // Min-hop takes the shortcut.
        let hops = net.min_hop_path(0, 2).unwrap();
        assert_eq!(hops, vec![3]);
    }

    #[test]
    fn path_fidelity_and_noise_agree() {
        let net = sample();
        let path = net.min_noise_path(0, 3).unwrap();
        let f = net.path_fidelity(&path);
        let mu = net.path_noise(&path);
        assert!((fidelity_of_noise(mu) - f).abs() < 1e-12);
        assert!((f - 0.95f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn walk_reconstructs_node_sequence() {
        let net = sample();
        let path = net.min_noise_path(0, 3).unwrap();
        assert_eq!(net.walk(0, &path), vec![0, 1, 2, 3]);
    }

    #[test]
    fn hub_labels_give_reference_distances() {
        use rand::{Rng, SeedableRng};
        let mut nets = Vec::new();
        for num_nodes in [300, 1_200] {
            let config = crate::NetworkConfig {
                num_nodes,
                attachment: 2,
                num_servers: num_nodes / 30,
                num_switches: num_nodes * 2 / 15,
                ..crate::NetworkConfig::default()
            };
            let mut rng = rand::rngs::SmallRng::seed_from_u64(96_000 + num_nodes as u64);
            nets.push(crate::generate::barabasi_albert(&config, &mut rng).unwrap());
        }
        // Zero-noise fibers tie routes and put hubs at distance 0 from
        // later roots, which prunes those roots' whole searches. Nodes 6
        // and 7 form a second component.
        let mut lossless = sample();
        let c = lossless.add_node(NodeKind::Switch, 16);
        let d = lossless.add_node(NodeKind::User, 8);
        lossless.add_fiber(2, c, 1.0, 4, 0.02).unwrap();
        lossless.add_fiber(c, d, 1.0, 4, 0.02).unwrap();
        lossless.add_fiber(1, d, 1.0, 4, 0.02).unwrap();
        lossless.add_fiber(0, d, 0.9, 4, 0.02).unwrap();
        let e = lossless.add_node(NodeKind::User, 8);
        let f = lossless.add_node(NodeKind::User, 8);
        lossless.add_fiber(e, f, 1.0, 4, 0.02).unwrap();
        nets.push(lossless);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(96_001);
        for net in &nets {
            let n = net.num_nodes();
            let search = RouteSearch::new(net);
            for _ in 0..400 {
                let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let reference = net.shortest_path_by(s, t, |f| net.fiber(f).noise());
                let merged = search.common_hub(s, t);
                let Some(reference) = reference else {
                    assert_eq!(merged, None, "{n} nodes: {s} and {t} share a hub");
                    continue;
                };
                let Some((_, through)) = merged else {
                    panic!("{n} nodes: {s} and {t} are connected but share no hub");
                };
                let best = net.path_noise(&reference);
                assert!(
                    (through - best).abs() <= 1e-12 * best,
                    "{n} nodes, {s}->{t}: labels give {through:e}, the reference {best:e}"
                );
            }
        }
    }

    #[test]
    fn connectivity_detection() {
        let mut net = sample();
        assert!(net.is_connected());
        let lonely = net.add_node(NodeKind::User, 1);
        assert!(!net.is_connected());
        net.add_fiber(lonely, 0, 0.9, 1, 0.0).unwrap();
        assert!(net.is_connected());
    }
}
