//! Network topology: users, switches, servers, and dual-channel optical
//! fibers (paper Sec. IV-A).

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a node in a [`Network`].
pub type NodeId = usize;
/// Index of a fiber in a [`Network`].
pub type FiberId = usize;

/// The role of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's role.
    pub kind: NodeKind,
    /// Quantum memory capacity `η_r`: how many data qubits the node can
    /// hold per scheduling round. Users hold their own messages; their
    /// capacity is not a routing constraint.
    pub capacity: u32,
}

/// A bidirectional optical fiber with its two channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

/// One arc of [`RouteSearch`]'s flat adjacency: the far end of an incident
/// fiber, the fiber, and its noise `μ`.
#[derive(Debug)]
struct Hop {
    to: u32,
    fiber: u32,
    noise: f64,
}

/// One side's label of a node: its distance and tree fiber, valid only
/// while `stamp` equals the search's current query stamp.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: f64,
    via: u32,
    stamp: u32,
}

/// One direction of the bidirectional search: per-node labels and a lazy
/// heap keyed on the bits of non-negative distances (which order like the
/// distances).
#[derive(Debug, Clone)]
struct Side {
    labels: Vec<Label>,
    heap: BinaryHeap<(Reverse<u64>, NodeId)>,
}

impl Side {
    fn start(&mut self, root: NodeId, stamp: u32) {
        self.heap.clear();
        self.labels[root] = Label {
            dist: 0.0,
            via: u32::MAX,
            stamp,
        };
        self.heap.push((Reverse(0.0f64.to_bits()), root));
    }

    fn dist(&self, v: NodeId, stamp: u32) -> f64 {
        let label = self.labels[v];
        if label.stamp == stamp {
            label.dist
        } else {
            f64::INFINITY
        }
    }

    /// The smallest live key, dropping stale entries (superseded by a
    /// shorter label) off the top; `∞` once the heap is empty. Every entry
    /// was pushed during the current query, so its node's label is current.
    fn top(&mut self) -> f64 {
        while let Some(&(Reverse(bits), v)) = self.heap.peek() {
            let d = f64::from_bits(bits);
            if d > self.labels[v].dist {
                self.heap.pop();
            } else {
                return d;
            }
        }
        f64::INFINITY
    }
}

/// A reusable minimum-noise route search over one network: the streaming
/// planner's Dijkstra (paper Sec. V-A/B), run from both ends at once.
///
/// Built once per network, it holds every fiber's noise `μ = ln(1/γ)` in a
/// flat adjacency (in [`Network::incident`] order) and answers
/// [`path`](Self::path) queries by bidirectional Dijkstra: a forward search
/// from `src` and a backward one from `dst` each expand their smaller
/// frontier, and the search stops once no meeting can beat the best route
/// found. On Barabási–Albert graphs the two frontiers meet at the hubs,
/// long before one-sided Dijkstra would settle `dst`. Labels carry a
/// per-query stamp, so a query neither allocates nor clears per-node state.
///
/// Where the minimum-noise route is unique, it is the route
/// [`Network::shortest_path_by`] returns over the same noise. On exact ties
/// the two may return different minimum-noise routes, because the meeting
/// sum `(d(v) + μ) + d'(u)` rounds differently from a forward fold.
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
/// let mut search = RouteSearch::new(&net);
/// assert_eq!(search.path(a, b), Some(vec![0, 1]));
/// assert_eq!(search.path(b, a), Some(vec![1, 0]));
/// # Ok::<(), surfnet_netsim::NetError>(())
/// ```
#[derive(Debug)]
pub struct RouteSearch<'a> {
    net: &'a Network,
    /// Node `v`'s arcs are `hops[first[v]..first[v + 1]]`.
    first: Vec<u32>,
    hops: Vec<Hop>,
    /// Forward (from `src`) and backward (from `dst`) sides.
    sides: [Side; 2],
    /// The current query's stamp; labels with another stamp are unset.
    stamp: u32,
    settled: u64,
}

impl<'a> RouteSearch<'a> {
    /// Builds the search for `net`, reading each fiber's noise once.
    ///
    /// # Panics
    ///
    /// Panics if `net` has `u32::MAX` or more nodes or arcs.
    pub fn new(net: &'a Network) -> RouteSearch<'a> {
        let n = net.num_nodes();
        assert!(
            n < u32::MAX as usize && 2 * net.num_fibers() < u32::MAX as usize,
            "network too large for 32-bit search indices"
        );
        let mut first = Vec::with_capacity(n + 1);
        let mut hops = Vec::with_capacity(2 * net.num_fibers());
        first.push(0);
        for v in 0..n {
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
        let unset = Label {
            dist: f64::INFINITY,
            via: u32::MAX,
            stamp: 0,
        };
        let side = Side {
            labels: vec![unset; n],
            heap: BinaryHeap::new(),
        };
        RouteSearch {
            net,
            first,
            hops,
            sides: [side.clone(), side],
            stamp: 0,
            settled: 0,
        }
    }

    /// The network this search routes over.
    pub(crate) fn network(&self) -> &'a Network {
        self.net
    }

    /// Nodes settled so far, summed over both sides and every query: the
    /// search's deterministic work count.
    pub fn settled(&self) -> u64 {
        self.settled
    }

    /// Minimum-noise route from `src` to `dst` as a fiber sequence (empty
    /// when `src == dst`), or `None` if `dst` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn path(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        let n = self.net.num_nodes();
        assert!(src < n && dst < n);
        let route = self.search(src, dst);
        if crate::check::enabled() {
            crate::check::assert_ok(
                crate::check::check_route(self.net, src, dst, route.as_deref()),
                "route-search",
            );
        }
        route
    }

    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            for side in &mut self.sides {
                for label in &mut side.labels {
                    label.stamp = 0;
                }
            }
            self.stamp = 1;
        }
        self.stamp
    }

    fn search(&mut self, src: NodeId, dst: NodeId) -> Option<Vec<FiberId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let stamp = self.next_stamp();
        let [fwd, bwd] = &mut self.sides;
        fwd.start(src, stamp);
        bwd.start(dst, stamp);
        let mut best = f64::INFINITY;
        // The best route's forward-tree end, meeting fiber and
        // backward-tree end.
        let mut meet = None;
        loop {
            let (top_f, top_b) = (fwd.top(), bwd.top());
            // Also stops once either side runs dry: its key is then ∞.
            if top_f + top_b >= best {
                break;
            }
            let forward = top_f <= top_b;
            let (this, other) = if forward {
                (&mut *fwd, &*bwd)
            } else {
                (&mut *bwd, &*fwd)
            };
            let Some((Reverse(bits), v)) = this.heap.pop() else {
                break;
            };
            self.settled += 1;
            let d = f64::from_bits(bits);
            for hop in &self.hops[self.first[v] as usize..self.first[v + 1] as usize] {
                let u = hop.to as usize;
                let nd = d + hop.noise;
                let label = &mut this.labels[u];
                if label.stamp != stamp || nd < label.dist {
                    *label = Label {
                        dist: nd,
                        via: hop.fiber,
                        stamp,
                    };
                    this.heap.push((Reverse(nd.to_bits()), u));
                }
                let through = nd + other.dist(u, stamp);
                if through < best {
                    best = through;
                    meet = Some(if forward {
                        (v, hop.fiber as FiberId, u)
                    } else {
                        (u, hop.fiber as FiberId, v)
                    });
                }
            }
        }
        let (x, meeting, y) = meet?;
        let mut route = Vec::new();
        let mut v = x;
        while v != src {
            let f = fwd.labels[v].via as FiberId;
            route.push(f);
            v = self.net.fiber(f).other(v);
        }
        route.reverse();
        route.push(meeting);
        let mut v = y;
        while v != dst {
            let f = bwd.labels[v].via as FiberId;
            route.push(f);
            v = self.net.fiber(f).other(v);
        }
        Some(route)
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
    fn route_search_survives_the_stamp_wrap() {
        use rand::SeedableRng;
        let config = crate::NetworkConfig {
            num_nodes: 60,
            ..crate::NetworkConfig::default()
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let net = crate::generate::barabasi_albert(&config, &mut rng).unwrap();
        let reference = |s, d| net.shortest_path_by(s, d, |f| net.fiber(f).noise());
        let mut search = RouteSearch::new(&net);
        // Leave labels stamped 1 behind, then cross the wrap: the query
        // after it must not read them as its own.
        assert_eq!(search.path(0, 59), reference(0, 59));
        search.stamp = u32::MAX - 1;
        for (s, d) in [(59, 0), (1, 58), (58, 1)] {
            assert_eq!(search.path(s, d), reference(s, d));
        }
        assert_eq!(search.stamp, 2);
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
