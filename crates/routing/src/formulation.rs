//! The integer-programming routing formulation (paper Sec. V-A, Eqs. 1–6),
//! built as an LP relaxation over [`surfnet_lp`].
//!
//! Variables per request `k`: `Y_k` (codes scheduled), directed edge flows
//! `a_e^k` (Core qubits) and `b_e^k` (Support qubits), and per-server
//! correction counts `x_r^k`. The objective (Eq. 1) maximizes `Σ Y_k`.
//! Constraints: initialization/termination (Eq. 3), conservation and
//! server coupling (Eq. 4), node and entanglement capacity (Eq. 5), and
//! the two noise constraints (Eq. 6) — normalized per code as in the
//! paper's worked example.

use crate::params::RoutingParams;
use crate::schedule::ChannelMode;
use surfnet_lp::{ConstraintOp, LinearProgram, Variable};
use surfnet_netsim::request::Request;
use surfnet_netsim::topology::{Network, NodeId, NodeKind};

/// A built LP plus handles to its variables.
#[derive(Debug, Clone)]
pub struct Formulation {
    /// The relaxed linear program (maximize `Σ Y_k`).
    pub lp: LinearProgram,
    /// `Y_k` per request.
    pub y: Vec<Variable>,
    /// `a_e^k` per request per directed edge (empty in PlainOnly mode).
    pub a: Vec<Vec<Variable>>,
    /// `b_e^k` per request per directed edge.
    pub b: Vec<Vec<Variable>>,
    /// `x_r^k` per request per server (ordered as `net.servers()`).
    pub x: Vec<Vec<Variable>>,
}

/// Directed-edge helpers: fiber `f` yields directed edges `2f` (a→b) and
/// `2f + 1` (b→a).
pub fn directed_head(net: &Network, de: usize) -> NodeId {
    let fiber = net.fiber(de / 2);
    if de.is_multiple_of(2) {
        fiber.b
    } else {
        fiber.a
    }
}

/// Tail (origin) of directed edge `de`.
pub fn directed_tail(net: &Network, de: usize) -> NodeId {
    let fiber = net.fiber(de / 2);
    if de.is_multiple_of(2) {
        fiber.a
    } else {
        fiber.b
    }
}

/// Builds the LP relaxation of the routing problem.
///
/// In [`ChannelMode::PlainOnly`] (the Raw baseline) there are no `a`
/// variables: all `n + m` qubits of a code travel as Support flow, only
/// the whole-code noise constraint applies (no purification credit), and
/// entanglement capacity is not consumed.
///
/// # Panics
///
/// Panics if a request references a non-user node or `params` are invalid.
pub fn build(
    net: &Network,
    requests: &[Request],
    params: &RoutingParams,
    mode: ChannelMode,
) -> Formulation {
    params.validate().expect("invalid routing params");
    let num_de = 2 * net.num_fibers();
    let servers = net.servers();
    let n = params.n_core as f64;
    let m = params.m_support as f64;
    let size = params.code_size() as f64;
    // Raw: the whole code is Support flow.
    let support_qubits = match mode {
        ChannelMode::DualChannel => m,
        ChannelMode::PlainOnly => size,
    };
    let dual = mode == ChannelMode::DualChannel;
    let relays = net.relays();
    // Each node's incoming and outgoing directed edges, in increasing edge
    // order, and each directed edge's noise μ, computed once.
    let mut in_of: Vec<Vec<usize>> = vec![Vec::new(); net.num_nodes()];
    let mut out_of: Vec<Vec<usize>> = vec![Vec::new(); net.num_nodes()];
    for de in 0..num_de {
        in_of[directed_head(net, de)].push(de);
        out_of[directed_tail(net, de)].push(de);
    }
    let in_edges = |v: NodeId| in_of[v].iter().copied();
    let out_edges = |v: NodeId| out_of[v].iter().copied();
    let mu: Vec<f64> = (0..num_de).map(|de| net.fiber(de / 2).noise()).collect();

    let mut lp = LinearProgram::new();
    let mut y = Vec::with_capacity(requests.len());
    let mut a: Vec<Vec<Variable>> = Vec::with_capacity(requests.len());
    let mut b: Vec<Vec<Variable>> = Vec::with_capacity(requests.len());
    let mut x: Vec<Vec<Variable>> = Vec::with_capacity(requests.len());

    for req in requests {
        assert_eq!(net.node(req.src).kind, NodeKind::User, "src must be a user");
        assert_eq!(net.node(req.dst).kind, NodeKind::User, "dst must be a user");
        let ik = req.num_codes as f64;
        let yk = lp.add_var(1.0, 0.0, ik); // objective Eq. 1
        y.push(yk);

        // Edge-flow upper bounds encode the zero-flow rules of Eq. 3 and
        // keep flow away from third-party users: a directed edge is usable
        // only if its tail is the source or a relay, and its head is the
        // destination or a relay.
        let usable = |de: usize| {
            let tail = directed_tail(net, de);
            let head = directed_head(net, de);
            (tail == req.src || net.node(tail).kind.is_relay())
                && (head == req.dst || net.node(head).kind.is_relay())
        };
        let mut ak = Vec::with_capacity(if dual { num_de } else { 0 });
        if dual {
            for de in 0..num_de {
                let ub = if usable(de) { f64::INFINITY } else { 0.0 };
                ak.push(lp.add_var(0.0, 0.0, ub));
            }
        }
        let mut bk = Vec::with_capacity(num_de);
        for de in 0..num_de {
            let ub = if usable(de) { f64::INFINITY } else { 0.0 };
            bk.push(lp.add_var(0.0, 0.0, ub));
        }
        let xk: Vec<Variable> = servers.iter().map(|_| lp.add_var(0.0, 0.0, ik)).collect();

        // Eq. 3: initialization and termination.
        if dual {
            let terms: Vec<_> = in_edges(req.dst).map(|de| (ak[de], 1.0)).collect();
            let mut terms = terms;
            terms.push((yk, -n));
            lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
            let mut terms: Vec<_> = out_edges(req.src).map(|de| (ak[de], 1.0)).collect();
            terms.push((yk, -n));
            lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
        }
        let mut terms: Vec<_> = in_edges(req.dst).map(|de| (bk[de], 1.0)).collect();
        terms.push((yk, -support_qubits));
        lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
        let mut terms: Vec<_> = out_edges(req.src).map(|de| (bk[de], 1.0)).collect();
        terms.push((yk, -support_qubits));
        lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);

        // Eq. 4: conservation at every relay (except when it is an
        // endpoint, which cannot happen — endpoints are users), plus the
        // server coupling to x_r.
        for &r in &relays {
            if dual {
                let mut terms: Vec<_> = in_edges(r).map(|de| (ak[de], 1.0)).collect();
                terms.extend(out_edges(r).map(|de| (ak[de], -1.0)));
                lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
            }
            let mut terms: Vec<_> = in_edges(r).map(|de| (bk[de], 1.0)).collect();
            terms.extend(out_edges(r).map(|de| (bk[de], -1.0)));
            lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
        }
        for (si, &r) in servers.iter().enumerate() {
            if dual {
                let mut terms: Vec<_> = in_edges(r).map(|de| (ak[de], 1.0)).collect();
                terms.push((xk[si], -n));
                lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
            }
            let mut terms: Vec<_> = in_edges(r).map(|de| (bk[de], 1.0)).collect();
            terms.push((xk[si], -support_qubits));
            lp.add_constraint(&terms, ConstraintOp::Eq, 0.0);
        }

        // Eq. 6: noise constraints, normalized per code as in the worked
        // example of Sec. V-A.
        if dual {
            // 0 ≤ (1/n)·Σ μ_e a_e − ω Σ x_r ≤ W_c · Y_k
            let mut terms: Vec<(Variable, f64)> =
                (0..num_de).map(|de| (ak[de], mu[de] / n)).collect();
            for (si, _) in servers.iter().enumerate() {
                terms.push((xk[si], -params.omega));
            }
            let mut upper = terms.clone();
            upper.push((yk, -params.w_core));
            lp.add_constraint(&upper, ConstraintOp::Le, 0.0);
            lp.add_constraint(&terms, ConstraintOp::Ge, 0.0);
        }
        {
            // (1/(n+m))·Σ μ_e (a_e/2 + b_e) − ω Σ x_r ≤ W · Y_k
            let mut terms: Vec<(Variable, f64)> = Vec::new();
            for de in 0..num_de {
                if dual {
                    terms.push((ak[de], 0.5 * mu[de] / size));
                }
                terms.push((bk[de], mu[de] / size));
            }
            for (si, _) in servers.iter().enumerate() {
                terms.push((xk[si], -params.omega));
            }
            terms.push((yk, -params.w_total));
            lp.add_constraint(&terms, ConstraintOp::Le, 0.0);
        }

        a.push(ak);
        b.push(bk);
        x.push(xk);
    }

    // Eq. 5: capacities couple all requests.
    for &r in &relays {
        let mut terms: Vec<(Variable, f64)> = Vec::new();
        for k in 0..requests.len() {
            for de in in_edges(r) {
                if dual {
                    terms.push((a[k][de], 1.0));
                }
                terms.push((b[k][de], 1.0));
            }
        }
        lp.add_constraint(&terms, ConstraintOp::Le, net.node(r).capacity as f64);
    }
    if dual {
        for f in 0..net.num_fibers() {
            let mut terms: Vec<(Variable, f64)> = Vec::new();
            for k in 0..requests.len() {
                terms.push((a[k][2 * f], 1.0));
                terms.push((a[k][2 * f + 1], 1.0));
            }
            lp.add_constraint(
                &terms,
                ConstraintOp::Le,
                net.fiber(f).entanglement_capacity as f64,
            );
        }
    }

    Formulation { lp, y, a, b, x }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// u0 - s1 - S2(server) - s3 - u4, generous parameters.
    fn line_net() -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 100);
        let s2 = net.add_node(NodeKind::Server, 100);
        let s3 = net.add_node(NodeKind::Switch, 100);
        let u4 = net.add_node(NodeKind::User, 0);
        for (x, z) in [(u0, s1), (s1, s2), (s2, s3), (s3, u4)] {
            net.add_fiber(x, z, 0.95, 50, 0.02).unwrap();
        }
        net
    }

    fn loose_params() -> RoutingParams {
        // Note ω must not exceed the core-path noise ahead of a server:
        // Eq. 6's lower bound (which exists to stop consecutive servers
        // from wasting corrections) otherwise forbids routing through the
        // server at all. The line network's hops carry ln(1/0.95) ≈ 0.051
        // noise each, so ω = 0.1 is reachable after two hops.
        RoutingParams {
            n_core: 7,
            m_support: 18,
            omega: 0.1,
            w_core: 5.0,
            w_total: 5.0,
        }
    }

    #[test]
    fn single_request_schedules_fully_when_resources_allow() {
        let net = line_net();
        let requests = vec![Request::new(0, 4, 2)];
        let form = build(&net, &requests, &loose_params(), ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        // Capacity: relays hold 100 ≥ 2 codes × 25 qubits; fibers hold 50
        // ≥ 2 × 7 pairs. Both codes schedule.
        assert!(
            (sol.value(form.y[0]) - 2.0).abs() < 1e-6,
            "Y = {}",
            sol.value(form.y[0])
        );
    }

    #[test]
    fn capacity_limits_throughput() {
        let mut net = line_net();
        // Shrink switch s1 to hold only one code's 25 qubits.
        net.node_mut(1).capacity = 25;
        let requests = vec![Request::new(0, 4, 4)];
        let form = build(&net, &requests, &loose_params(), ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        assert!(sol.value(form.y[0]) <= 1.0 + 1e-6);
    }

    #[test]
    fn entanglement_limits_only_dual_channel() {
        let mut net = line_net();
        for f in 0..net.num_fibers() {
            net.fiber_mut(f).entanglement_capacity = 7; // one code's Core
        }
        let requests = vec![Request::new(0, 4, 4)];
        let dual = build(&net, &requests, &loose_params(), ChannelMode::DualChannel);
        let sol = dual.lp.maximize().unwrap();
        assert!(sol.value(dual.y[0]) <= 1.0 + 1e-6);
        // Raw mode ignores entanglement capacity entirely.
        let raw = build(&net, &requests, &loose_params(), ChannelMode::PlainOnly);
        let sol = raw.lp.maximize().unwrap();
        assert!(sol.value(raw.y[0]) >= 3.0);
    }

    #[test]
    fn noise_threshold_blocks_scheduling_without_server() {
        // Network with no server: u0 - s1 - u2, poor fiber.
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 100);
        let u2 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.6, 50, 0.02).unwrap();
        net.add_fiber(s1, u2, 0.6, 50, 0.02).unwrap();
        let requests = vec![Request::new(0, 2, 1)];
        let mut params = loose_params();
        // Two hops of noise ln(1/0.6) ≈ 0.51 each ≈ 1.02 total core noise.
        params.w_core = 0.5;
        let form = build(&net, &requests, &params, ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        assert!(sol.value(form.y[0]) < 1e-6, "Y = {}", sol.value(form.y[0]));
        // Loosening the threshold allows it.
        params.w_core = 2.0;
        params.w_total = 2.0;
        let form = build(&net, &requests, &params, ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        assert!(sol.value(form.y[0]) > 1.0 - 1e-6);
    }

    #[test]
    fn server_coupling_counts_corrections() {
        let net = line_net();
        let requests = vec![Request::new(0, 4, 1)];
        let params = loose_params();
        let form = build(&net, &requests, &params, ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        assert!(sol.value(form.y[0]) > 1.0 - 1e-6);
        // All flow passes the only server (it is a cut vertex), so Eq. 4
        // forces x = Y there.
        let x_total: f64 = form.x[0].iter().map(|&v| sol.value(v)).sum();
        assert!((x_total - 1.0).abs() < 1e-6, "x = {x_total}");
    }

    #[test]
    fn flow_conservation_holds_in_solution() {
        let net = line_net();
        let requests = vec![Request::new(0, 4, 2)];
        let params = loose_params();
        let form = build(&net, &requests, &params, ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        // At switch s1 (node 1): a-in == a-out.
        let num_de = 2 * net.num_fibers();
        let a_in: f64 = (0..num_de)
            .filter(|&de| directed_head(&net, de) == 1)
            .map(|de| sol.value(form.a[0][de]))
            .sum();
        let a_out: f64 = (0..num_de)
            .filter(|&de| directed_tail(&net, de) == 1)
            .map(|de| sol.value(form.a[0][de]))
            .sum();
        assert!((a_in - a_out).abs() < 1e-6);
    }

    #[test]
    fn multiple_requests_share_resources() {
        // Star: two user pairs sharing a single switch with capacity for
        // one code in flight at a time... capacity 25 means Σ over both
        // requests ≤ 1 code crossing.
        let mut net = Network::new();
        let u: Vec<_> = (0..4).map(|_| net.add_node(NodeKind::User, 0)).collect();
        let hub = net.add_node(NodeKind::Server, 25);
        for &uu in &u {
            net.add_fiber(uu, hub, 0.95, 50, 0.02).unwrap();
        }
        let requests = vec![Request::new(u[0], u[1], 2), Request::new(u[2], u[3], 2)];
        let form = build(&net, &requests, &loose_params(), ChannelMode::DualChannel);
        let sol = form.lp.maximize().unwrap();
        let total = sol.value(form.y[0]) + sol.value(form.y[1]);
        assert!(total <= 1.0 + 1e-6, "total Y = {total}");
    }
}
