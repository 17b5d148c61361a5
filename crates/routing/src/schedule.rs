//! Schedules: the output of the routing protocol, plus the shared
//! machinery every scheduler uses — residual capacity tracking and greedy
//! error-correction placement along a route.

use crate::noise::{core_noise, total_noise};
use crate::params::RoutingParams;
use surfnet_netsim::execution::{PlannedSegment, TransferPlan};
use surfnet_netsim::topology::{FiberId, Network, NodeId, NodeKind};

/// One scheduled surface-code transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCode {
    /// Index of the request this code belongs to.
    pub request: usize,
    /// The executable plan (segments split at error-correcting servers).
    pub plan: TransferPlan,
    /// Number of scheduled error corrections (the `x` of Eq. 6).
    pub corrections: u32,
}

/// The outcome of one scheduling round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// All scheduled codes across requests.
    pub codes: Vec<ScheduledCode>,
    /// Codes scheduled per request (the integerized `Y_k`).
    pub scheduled_per_request: Vec<u32>,
    /// Codes requested per request (`i_k`).
    pub requested_per_request: Vec<u32>,
}

impl Schedule {
    /// Throughput as the paper computes it: executed communications over
    /// requested communications.
    pub fn throughput(&self) -> f64 {
        let requested: u32 = self.requested_per_request.iter().sum();
        if requested == 0 {
            return 0.0;
        }
        let scheduled: u32 = self.scheduled_per_request.iter().sum();
        scheduled as f64 / requested as f64
    }

    /// Total scheduled codes.
    pub fn total_scheduled(&self) -> u32 {
        self.scheduled_per_request.iter().sum()
    }
}

/// Mutable residual capacities consumed while assigning codes to routes.
#[derive(Debug, Clone)]
pub struct Residual {
    /// Remaining quantum memory per node (`η_r` minus consumption).
    pub node_capacity: Vec<f64>,
    /// Remaining prepared pairs per fiber (`η_e` minus consumption).
    pub entanglement: Vec<f64>,
}

impl Residual {
    /// Full capacities of `net`, with node capacity optionally scaled (the
    /// Raw baseline grants switches extra memory since they no longer
    /// prepare entanglement).
    pub fn new(net: &Network, capacity_factor: f64) -> Residual {
        Residual {
            node_capacity: (0..net.num_nodes())
                .map(|v| net.node(v).capacity as f64 * capacity_factor)
                .collect(),
            entanglement: net
                .fibers()
                .iter()
                .map(|f| f.entanglement_capacity as f64)
                .collect(),
        }
    }

    /// Whether one code (Core `n`, Support `m`, entanglement channel used
    /// iff `dual`) fits along `route`.
    pub fn fits(
        &self,
        net: &Network,
        src: NodeId,
        route: &[FiberId],
        n: u32,
        m: u32,
        dual: bool,
    ) -> bool {
        let qubits = (n + m) as f64;
        for &node in net.walk(src, route).iter() {
            if net.node(node).kind.is_relay() && self.node_capacity[node] < qubits {
                return false;
            }
        }
        if dual {
            for &f in route {
                if self.entanglement[f] < n as f64 {
                    return false;
                }
            }
        }
        true
    }

    /// Consumes the resources of one code along `route`.
    ///
    /// # Panics
    ///
    /// Debug-panics if called without a prior successful [`Residual::fits`].
    pub fn consume(
        &mut self,
        net: &Network,
        src: NodeId,
        route: &[FiberId],
        n: u32,
        m: u32,
        dual: bool,
    ) {
        let qubits = (n + m) as f64;
        for &node in net.walk(src, route).iter() {
            if net.node(node).kind.is_relay() {
                debug_assert!(self.node_capacity[node] >= qubits);
                self.node_capacity[node] -= qubits;
            }
        }
        if dual {
            for &f in route {
                debug_assert!(self.entanglement[f] >= n as f64);
                self.entanglement[f] -= n as f64;
            }
        }
    }
}

/// How a scheduler treats the two channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelMode {
    /// SurfNet: Core over the entanglement channel (noise halved), Support
    /// over the plain channel, both subject to Eq. 6.
    DualChannel,
    /// Raw baseline: everything over the plain channel; only the
    /// whole-code noise constraint applies, with no purification credit.
    PlainOnly,
}

/// Places error corrections along `route` and splits it into an
/// executable [`TransferPlan`].
///
/// Per the server-coupling constraints of Eq. 4, **every server a code
/// passes through corrects it** (servers hold the complete code and run an
/// EC cycle). The walk additionally verifies the noise constraints of
/// Eq. 6 for every segment between corrections; a segment that would
/// breach a threshold before reaching the next server rejects the code.
/// Returns the plan and the number of corrections.
pub fn plan_route(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    route: &[FiberId],
    params: &RoutingParams,
    mode: ChannelMode,
) -> Option<(TransferPlan, u32)> {
    if route.is_empty() {
        return None;
    }
    let nodes = net.walk(src, route);
    debug_assert_eq!(*nodes.last().unwrap(), dst);

    // Segment accumulation state: fibers since the last EC.
    let mut segments: Vec<PlannedSegment> = Vec::new();
    let mut seg_fibers: Vec<FiberId> = Vec::new();
    // Noise accumulated since the last error correction.
    let mut acc = 0.0f64;
    let mut corrections = 0u32;

    let hop_noise = |f: FiberId| net.fiber(f).noise();
    // Per-hop contribution to the *binding* noise expression. For the dual
    // channel both constraints accumulate the same route (core and support
    // share the route in this scheduler), so we track route noise and
    // evaluate both expressions from it.
    let seg_ok = |route_noise: f64| match mode {
        ChannelMode::DualChannel => {
            // One EC credit applies at most once per segment; within a
            // segment x = 0 relative to the segment's own accumulation.
            core_noise(route_noise, 0, params) <= params.w_core
                && total_noise(route_noise, route_noise, 0, params) <= params.w_total
        }
        ChannelMode::PlainOnly => route_noise <= params.w_total,
    };

    for (i, &f) in route.iter().enumerate() {
        if !seg_ok(acc + hop_noise(f)) {
            // The segment since the last correction is too noisy to
            // extend, and no server arrived in time to cut it.
            return None;
        }
        acc += hop_noise(f);
        seg_fibers.push(f);
        // Every server along the route corrects the complete code (Eq. 4
        // couples server inflow to x_r), resetting the accumulators.
        let node_after = nodes[i + 1];
        if net.node(node_after).kind == NodeKind::Server {
            segments.push(make_segment(&seg_fibers, mode, true));
            corrections += 1;
            seg_fibers = Vec::new();
            acc = 0.0;
        }
    }
    if !seg_fibers.is_empty() {
        segments.push(make_segment(&seg_fibers, mode, false));
    }
    Some((TransferPlan { src, dst, segments }, corrections))
}

fn make_segment(fibers: &[FiberId], mode: ChannelMode, correct_at_end: bool) -> PlannedSegment {
    PlannedSegment {
        core_route: match mode {
            ChannelMode::DualChannel => Some(fibers.to_vec()),
            ChannelMode::PlainOnly => None,
        },
        support_route: fibers.to_vec(),
        correct_at_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// u0 -(γ)- s1 -(γ)- S2(server) -(γ)- s3 -(γ)- u4
    fn line_net(gamma: f64) -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 100);
        let s2 = net.add_node(NodeKind::Server, 100);
        let s3 = net.add_node(NodeKind::Switch, 100);
        let u4 = net.add_node(NodeKind::User, 0);
        for (a, b) in [(u0, s1), (s1, s2), (s2, s3), (s3, u4)] {
            net.add_fiber(a, b, gamma, 30, 0.02).unwrap();
        }
        net
    }

    fn params(w_core: f64, w_total: f64) -> RoutingParams {
        RoutingParams {
            n_core: 7,
            m_support: 18,
            omega: 0.3,
            w_core,
            w_total,
        }
    }

    #[test]
    fn every_server_on_route_corrects() {
        // The route u0→u4 passes the single server S2: per Eq. 4 the code
        // is corrected there even with loose thresholds.
        let net = line_net(0.95);
        let route = net.min_noise_path(0, 4).unwrap();
        let p = params(10.0, 10.0);
        let (plan, x) = plan_route(&net, 0, 4, &route, &p, ChannelMode::DualChannel).unwrap();
        assert_eq!(x, 1);
        assert_eq!(plan.segments.len(), 2);
        assert!(plan.segments[0].core_route.is_some());
        assert!(plan.segments[0].correct_at_end);
        assert!(!plan.segments[1].correct_at_end);
    }

    #[test]
    fn serverless_route_needs_no_correction() {
        // u0 - s1(switch) - u2: no server, one segment, no EC.
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 100);
        let u2 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.95, 30, 0.02).unwrap();
        net.add_fiber(s1, u2, 0.95, 30, 0.02).unwrap();
        let route = net.min_noise_path(0, 2).unwrap();
        let p = params(10.0, 10.0);
        let (plan, x) = plan_route(&net, 0, 2, &route, &p, ChannelMode::DualChannel).unwrap();
        assert_eq!(x, 0);
        assert_eq!(plan.segments.len(), 1);
        assert!(!plan.segments[0].correct_at_end);
    }

    #[test]
    fn tight_threshold_forces_correction_at_server() {
        // Each hop has noise ln(1/0.9) ≈ 0.105; four hops ≈ 0.42. A core
        // threshold of 0.25 forces a cut, available only at the server
        // (after hop 2).
        let net = line_net(0.9);
        let route = net.min_noise_path(0, 4).unwrap();
        let p = params(0.25, 10.0);
        let (plan, x) = plan_route(&net, 0, 4, &route, &p, ChannelMode::DualChannel).unwrap();
        assert_eq!(x, 1);
        assert_eq!(plan.segments.len(), 2);
        assert!(plan.segments[0].correct_at_end);
        assert_eq!(plan.segments[0].support_route.len(), 2);
        assert_eq!(plan.segments[1].support_route.len(), 2);
    }

    #[test]
    fn infeasible_when_no_server_before_breach() {
        // Threshold below a single hop's noise: no cut can help.
        let net = line_net(0.7);
        let route = net.min_noise_path(0, 4).unwrap();
        let p = params(0.1, 10.0);
        assert!(plan_route(&net, 0, 4, &route, &p, ChannelMode::DualChannel).is_none());
    }

    #[test]
    fn plain_mode_ignores_core_threshold() {
        let net = line_net(0.9);
        let route = net.min_noise_path(0, 4).unwrap();
        // w_core tiny but PlainOnly only checks w_total. The route still
        // crosses the server, which corrects once.
        let p = params(1e-6, 10.0);
        let (plan, x) = plan_route(&net, 0, 4, &route, &p, ChannelMode::PlainOnly).unwrap();
        assert_eq!(x, 1);
        assert!(plan.segments.iter().all(|s| s.core_route.is_none()));
    }

    #[test]
    fn plain_mode_has_no_purification_credit() {
        // Total-noise for the dual channel halves the core term, so a
        // threshold can pass DualChannel but fail PlainOnly.
        let net = line_net(0.9);
        let route = net.min_noise_path(0, 2).unwrap(); // 2 hops, no server before end? dst=2 is the server — use 0→4 instead
        let _ = route;
        let route = net.min_noise_path(0, 4).unwrap();
        let hop = (1.0f64 / 0.9).ln();
        let p_total = 4.0 * hop; // full plain noise
                                 // Dual-channel total: (7/25)*0.5*4h + (18/25)*4h = 4h*(0.14+0.72) = 3.44h
        let p = RoutingParams {
            n_core: 7,
            m_support: 18,
            omega: 0.3,
            w_core: 10.0,
            w_total: p_total * 0.9, // between dual (0.86·total) and plain (1.0·total)
        };
        assert!(plan_route(&net, 0, 4, &route, &p, ChannelMode::DualChannel).is_some());
        // PlainOnly must cut at the server to survive: 2 hops then 2 hops.
        let (plan, x) = plan_route(&net, 0, 4, &route, &p, ChannelMode::PlainOnly).unwrap();
        assert_eq!(x, 1);
        assert_eq!(plan.segments.len(), 2);
    }

    #[test]
    fn residual_tracks_consumption() {
        let net = line_net(0.9);
        let route = net.min_noise_path(0, 4).unwrap();
        let mut res = Residual::new(&net, 1.0);
        assert!(res.fits(&net, 0, &route, 7, 18, true));
        res.consume(&net, 0, &route, 7, 18, true);
        // Each relay lost 25 capacity; each fiber lost 7 pairs.
        assert_eq!(res.node_capacity[1], 75.0);
        assert_eq!(res.entanglement[0], 23.0);
        // Three more codes exhaust node capacity (100/25 = 4).
        for _ in 0..3 {
            assert!(res.fits(&net, 0, &route, 7, 18, true));
            res.consume(&net, 0, &route, 7, 18, true);
        }
        assert!(!res.fits(&net, 0, &route, 7, 18, true));
    }

    #[test]
    fn raw_capacity_factor_extends_room() {
        let net = line_net(0.9);
        let route = net.min_noise_path(0, 4).unwrap();
        let mut res = Residual::new(&net, 1.5);
        for _ in 0..6 {
            assert!(res.fits(&net, 0, &route, 7, 18, false));
            res.consume(&net, 0, &route, 7, 18, false);
        }
        assert!(!res.fits(&net, 0, &route, 7, 18, false));
    }

    #[test]
    fn throughput_math() {
        let s = Schedule {
            codes: Vec::new(),
            scheduled_per_request: vec![2, 0, 1],
            requested_per_request: vec![2, 2, 2],
        };
        assert!((s.throughput() - 0.5).abs() < 1e-12);
        assert_eq!(s.total_scheduled(), 3);
        assert_eq!(Schedule::default().throughput(), 0.0);
    }
}
