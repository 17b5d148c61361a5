//! Schedulers: offline scheduling (Sec. V-A) for SurfNet and the Raw
//! baseline — LP relaxation with rounding, then capacity-aware path
//! assignment.

use crate::formulation::build;
use crate::params::RoutingParams;
use crate::schedule::{plan_route, ChannelMode, Residual, Schedule, ScheduledCode};
use crate::RoutingError;
use surfnet_netsim::request::Request;
#[cfg(test)]
use surfnet_netsim::topology::NodeKind;
use surfnet_netsim::topology::{FiberId, Network, NodeId};

/// Minimum-noise path that respects residual capacities for one code:
/// every relay entered must hold `n + m` qubits, every fiber crossed must
/// hold `n` entangled pairs when `dual`, and intermediate nodes must be
/// relays.
///
/// A fiber is crossable when both its endpoints are open (the source, the
/// destination, or a relay with room) and, in dual mode, it has the pairs
/// left; every other fiber costs `f64::INFINITY`, which never relaxes.
pub fn capacity_aware_path(
    net: &Network,
    residual: &Residual,
    src: NodeId,
    dst: NodeId,
    params: &RoutingParams,
    dual: bool,
) -> Option<Vec<FiberId>> {
    let qubits = params.code_size() as f64;
    let pairs = params.n_core as f64;
    let open = |v: NodeId| {
        v == src || v == dst || (net.node(v).kind.is_relay() && residual.node_capacity[v] >= qubits)
    };
    net.shortest_path_by(src, dst, |f| {
        let fiber = net.fiber(f);
        if open(fiber.a) && open(fiber.b) && (!dual || residual.entanglement[f] >= pairs) {
            fiber.noise()
        } else {
            f64::INFINITY
        }
    })
}

/// Finds a feasible (route, plan, corrections) for one code of `req`,
/// falling back to routes through each server when the min-noise route
/// cannot satisfy the noise constraints.
fn find_feasible_code(
    net: &Network,
    residual: &Residual,
    req: &Request,
    params: &RoutingParams,
    mode: ChannelMode,
) -> Option<(Vec<FiberId>, surfnet_netsim::execution::TransferPlan, u32)> {
    let dual = mode == ChannelMode::DualChannel;
    if let Some(route) = capacity_aware_path(net, residual, req.src, req.dst, params, dual) {
        if !residual.fits(net, req.src, &route, params.n_core, params.m_support, dual) {
            return None;
        }
        if let Some((plan, x)) = plan_route(net, req.src, req.dst, &route, params, mode) {
            return Some((route, plan, x));
        }
    }
    // Fallback: force the route through a server so error correction can
    // split the noise budget.
    let mut best: Option<(f64, Vec<FiberId>)> = None;
    for &s in &net.servers() {
        let Some(first) = capacity_aware_path(net, residual, req.src, s, params, dual) else {
            continue;
        };
        let Some(second) = capacity_aware_path(net, residual, s, req.dst, params, dual) else {
            continue;
        };
        let mut route = first;
        route.extend(second);
        // Reject routes that repeat a fiber (loops waste capacity and the
        // plan executor walks them poorly).
        let mut seen = route.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != route.len() {
            continue;
        }
        let noise = net.path_noise(&route);
        if best.as_ref().is_none_or(|(n, _)| noise < *n) {
            best = Some((noise, route));
        }
    }
    let (_, route) = best?;
    if !residual.fits(net, req.src, &route, params.n_core, params.m_support, dual) {
        return None;
    }
    let (plan, x) = plan_route(net, req.src, req.dst, &route, params, mode)?;
    Some((route, plan, x))
}

/// Assigns up to `quota[k]` codes per request onto the network, consuming
/// residual capacities round-robin (so concurrent requests share fairly).
pub fn assign_codes(
    net: &Network,
    requests: &[Request],
    quotas: &[u32],
    params: &RoutingParams,
    mode: ChannelMode,
    capacity_factor: f64,
) -> Schedule {
    assert_eq!(requests.len(), quotas.len());
    let _span = surfnet_telemetry::span!("routing.assign_codes");
    let dual = mode == ChannelMode::DualChannel;
    let mut residual = Residual::new(net, capacity_factor);
    let mut schedule = Schedule {
        codes: Vec::new(),
        scheduled_per_request: vec![0; requests.len()],
        requested_per_request: requests.iter().map(|r| r.num_codes).collect(),
    };
    loop {
        let mut progress = false;
        for (k, req) in requests.iter().enumerate() {
            if schedule.scheduled_per_request[k] >= quotas[k] {
                continue;
            }
            let Some((route, plan, x)) = find_feasible_code(net, &residual, req, params, mode)
            else {
                surfnet_telemetry::count!("routing.infeasible_attempts");
                continue;
            };
            surfnet_telemetry::count!("routing.codes_scheduled");
            residual.consume(net, req.src, &route, params.n_core, params.m_support, dual);
            schedule.codes.push(ScheduledCode {
                request: k,
                plan,
                corrections: x,
            });
            schedule.scheduled_per_request[k] += 1;
            progress = true;
        }
        if !progress {
            break;
        }
    }
    schedule
}

/// SurfNet's offline scheduler: solve the LP relaxation of Eqs. 1–6, round
/// the fractional `Y_k`, then assign concrete dual-channel routes.
#[derive(Debug, Clone)]
pub struct SurfNetScheduler {
    /// Routing-protocol parameters.
    pub params: RoutingParams,
}

impl SurfNetScheduler {
    /// Creates the scheduler.
    pub fn new(params: RoutingParams) -> SurfNetScheduler {
        SurfNetScheduler { params }
    }

    /// Schedules `requests` on `net`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation and LP failures.
    pub fn schedule(&self, net: &Network, requests: &[Request]) -> Result<Schedule, RoutingError> {
        let _span = surfnet_telemetry::span!("routing.schedule", Route);
        self.params.validate()?;
        if requests.is_empty() {
            return Ok(Schedule::default());
        }
        let form = build(net, requests, &self.params, ChannelMode::DualChannel);
        let sol = form.lp.maximize().map_err(RoutingError::Lp)?;
        let quotas: Vec<u32> = form
            .y
            .iter()
            .zip(requests)
            .map(|(&y, req)| {
                let y = sol.value(y).clamp(0.0, req.num_codes as f64);
                // Deterministic rounding to the nearest integer; the
                // capacity-aware assignment below re-checks feasibility of
                // every rounded-up code.
                (y + 0.5).floor() as u32
            })
            .collect();
        Ok(assign_codes(
            net,
            requests,
            &quotas,
            &self.params,
            ChannelMode::DualChannel,
            1.0,
        ))
    }
}

/// The Raw baseline (Sec. VI-B): no Core/Support split, everything over
/// plain channels, switches get a capacity bonus since they no longer
/// prepare entanglement.
#[derive(Debug, Clone)]
pub struct RawScheduler {
    /// Routing-protocol parameters (thresholds reuse `W`).
    pub params: RoutingParams,
    /// Capacity multiplier granted to relays (default 1.5).
    pub capacity_factor: f64,
}

impl RawScheduler {
    /// Creates the scheduler with the default capacity bonus.
    pub fn new(params: RoutingParams) -> RawScheduler {
        RawScheduler {
            params,
            capacity_factor: 1.5,
        }
    }

    /// Schedules `requests` on `net` over plain channels only.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation and LP failures.
    pub fn schedule(&self, net: &Network, requests: &[Request]) -> Result<Schedule, RoutingError> {
        let _span = surfnet_telemetry::span!("routing.schedule", Route);
        self.params.validate()?;
        if requests.is_empty() {
            return Ok(Schedule::default());
        }
        // The LP sees the bonus capacity through a scaled network clone.
        let mut scaled = net.clone();
        for v in 0..scaled.num_nodes() {
            let c = scaled.node(v).capacity;
            scaled.node_mut(v).capacity = (c as f64 * self.capacity_factor) as u32;
        }
        let form = build(&scaled, requests, &self.params, ChannelMode::PlainOnly);
        let sol = form.lp.maximize().map_err(RoutingError::Lp)?;
        let quotas: Vec<u32> = form
            .y
            .iter()
            .zip(requests)
            .map(|(&y, req)| {
                let y = sol.value(y).clamp(0.0, req.num_codes as f64);
                (y + 0.5).floor() as u32
            })
            .collect();
        Ok(assign_codes(
            net,
            requests,
            &quotas,
            &self.params,
            ChannelMode::PlainOnly,
            self.capacity_factor,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// u0 - s1 - S2(server) - s3 - u4 plus a second user pair sharing s1.
    fn net() -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 100);
        let s2 = net.add_node(NodeKind::Server, 200);
        let s3 = net.add_node(NodeKind::Switch, 100);
        let u4 = net.add_node(NodeKind::User, 0);
        let u5 = net.add_node(NodeKind::User, 0);
        let u6 = net.add_node(NodeKind::User, 0);
        for (a, b) in [(u0, s1), (s1, s2), (s2, s3), (s3, u4), (u5, s1), (s3, u6)] {
            net.add_fiber(a, b, 0.95, 60, 0.02).unwrap();
        }
        net
    }

    fn params() -> RoutingParams {
        RoutingParams {
            n_core: 7,
            m_support: 18,
            omega: 0.1,
            w_core: 5.0,
            w_total: 5.0,
        }
    }

    #[test]
    fn surfnet_scheduler_schedules_and_plans() {
        let net = net();
        let requests = vec![Request::new(0, 4, 2), Request::new(5, 6, 1)];
        let schedule = SurfNetScheduler::new(params())
            .schedule(&net, &requests)
            .unwrap();
        assert_eq!(schedule.total_scheduled(), 3);
        assert!((schedule.throughput() - 1.0).abs() < 1e-12);
        for code in &schedule.codes {
            let req = &requests[code.request];
            assert_eq!(code.plan.src, req.src);
            assert_eq!(code.plan.dst, req.dst);
            assert!(code.plan.segments.iter().all(|s| s.core_route.is_some()));
        }
    }

    #[test]
    fn raw_scheduler_uses_plain_channel() {
        let net = net();
        let requests = vec![Request::new(0, 4, 2)];
        let schedule = RawScheduler::new(params())
            .schedule(&net, &requests)
            .unwrap();
        assert!(schedule.total_scheduled() >= 2);
        for code in &schedule.codes {
            assert!(code.plan.segments.iter().all(|s| s.core_route.is_none()));
        }
    }

    #[test]
    fn capacity_constrains_schedule() {
        let mut net = net();
        net.node_mut(1).capacity = 25; // s1 fits one code at a time
        let requests = vec![Request::new(0, 4, 4)];
        let schedule = SurfNetScheduler::new(params())
            .schedule(&net, &requests)
            .unwrap();
        assert!(schedule.total_scheduled() <= 1);
    }

    #[test]
    fn entanglement_constrains_dual_but_not_raw() {
        let mut net = net();
        for f in 0..net.num_fibers() {
            net.fiber_mut(f).entanglement_capacity = 7;
        }
        let requests = vec![Request::new(0, 4, 3)];
        let dual = SurfNetScheduler::new(params())
            .schedule(&net, &requests)
            .unwrap();
        let raw = RawScheduler::new(params())
            .schedule(&net, &requests)
            .unwrap();
        assert!(dual.total_scheduled() <= 1);
        assert!(raw.total_scheduled() >= 2);
    }

    #[test]
    fn corrections_recorded_when_thresholds_bite() {
        // Four hops accumulate ≈ 0.205 core noise; with ω = 0.1 a single
        // correction brings the aggregate under W_c = 0.12 (Eq. 6), and the
        // per-segment planner splits 2+2 hops at the server.
        let mut p = params();
        p.w_core = 0.12;
        p.omega = 0.1;
        let net = net();
        let requests = vec![Request::new(0, 4, 1)];
        let schedule = SurfNetScheduler::new(p).schedule(&net, &requests).unwrap();
        assert_eq!(schedule.total_scheduled(), 1);
        assert_eq!(schedule.codes[0].corrections, 1);
        assert_eq!(schedule.codes[0].plan.segments.len(), 2);
    }

    #[test]
    fn infeasible_noise_yields_empty_schedule() {
        let mut p = params();
        p.w_core = 0.01;
        p.w_total = 0.01;
        let net = net();
        let requests = vec![Request::new(0, 4, 1)];
        let schedule = SurfNetScheduler::new(p).schedule(&net, &requests).unwrap();
        assert_eq!(schedule.total_scheduled(), 0);
        assert_eq!(schedule.throughput(), 0.0);
    }

    #[test]
    fn empty_requests_trivial_schedule() {
        let net = net();
        let s = SurfNetScheduler::new(params()).schedule(&net, &[]).unwrap();
        assert_eq!(s.total_scheduled(), 0);
    }

    #[test]
    fn capacity_aware_path_avoids_saturated_nodes() {
        let net = net();
        let mut residual = Residual::new(&net, 1.0);
        let p = params();
        // Saturate s1: no path u0→u4 anymore (s1 is a cut vertex).
        residual.node_capacity[1] = 0.0;
        assert!(capacity_aware_path(&net, &residual, 0, 4, &p, true).is_none());
    }
}
