//! The Purification-N baselines (paper Sec. VI-B): mainstream quantum
//! networks that teleport data qubits hop by hop, spending `N` extra
//! entangled pairs per fiber on purification.

use crate::RoutingError;
use surfnet_netsim::entanglement::purify_n;
use surfnet_netsim::request::Request;
use surfnet_netsim::topology::{FiberId, Network, NodeId};

/// One scheduled teleportation transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TeleportAssignment {
    /// Index of the request served.
    pub request: usize,
    /// Fiber route from source to destination.
    pub route: Vec<FiberId>,
    /// Expected delivered fidelity (product of purified pair fidelities).
    pub expected_fidelity: f64,
}

/// A purification-network schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PurificationSchedule {
    /// All scheduled transfers.
    pub assignments: Vec<TeleportAssignment>,
    /// Messages scheduled per request.
    pub scheduled_per_request: Vec<u32>,
    /// Messages requested per request.
    pub requested_per_request: Vec<u32>,
}

impl PurificationSchedule {
    /// Executed over requested communications.
    pub fn throughput(&self) -> f64 {
        let requested: u32 = self.requested_per_request.iter().sum();
        if requested == 0 {
            return 0.0;
        }
        self.scheduled_per_request.iter().sum::<u32>() as f64 / requested as f64
    }
}

/// Scheduler for a teleportation-only network with `N` purification rounds
/// per fiber.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PurificationScheduler {
    /// Extra pairs consumed per fiber per message (the paper's `N`).
    pub n_purify: u32,
}

impl PurificationScheduler {
    /// Creates a scheduler for `Purification N = n_purify`.
    pub fn new(n_purify: u32) -> PurificationScheduler {
        PurificationScheduler { n_purify }
    }

    /// The expected end-to-end fidelity over `route`: swapping the chain of
    /// per-fiber purified pairs multiplies their fidelities.
    pub fn route_fidelity(&self, net: &Network, route: &[FiberId]) -> f64 {
        route
            .iter()
            .map(|&f| purify_n(net.fiber(f).fidelity, self.n_purify))
            .product()
    }

    /// Schedules `requests`, consuming `N + 1` pairs per fiber per message
    /// from the entanglement budgets.
    ///
    /// # Errors
    ///
    /// Currently infallible but returns `Result` for interface symmetry
    /// with the other schedulers.
    pub fn schedule(
        &self,
        net: &Network,
        requests: &[Request],
    ) -> Result<PurificationSchedule, RoutingError> {
        let _span = surfnet_telemetry::span!("routing.schedule", Route);
        let mut remaining: Vec<f64> = net
            .fibers()
            .iter()
            .map(|f| f.entanglement_capacity as f64)
            .collect();
        let pairs_needed = (self.n_purify + 1) as f64;
        let mut schedule = PurificationSchedule {
            assignments: Vec::new(),
            scheduled_per_request: vec![0; requests.len()],
            requested_per_request: requests.iter().map(|r| r.num_codes).collect(),
        };
        loop {
            let mut progress = false;
            for (k, req) in requests.iter().enumerate() {
                if schedule.scheduled_per_request[k] >= req.num_codes {
                    continue;
                }
                let Some(route) = best_route(net, &remaining, req.src, req.dst, pairs_needed)
                else {
                    continue;
                };
                let expected_fidelity = self.route_fidelity(net, &route);
                for &f in &route {
                    remaining[f] -= pairs_needed;
                }
                schedule.assignments.push(TeleportAssignment {
                    request: k,
                    route,
                    expected_fidelity,
                });
                schedule.scheduled_per_request[k] += 1;
                progress = true;
            }
            if !progress {
                break;
            }
        }
        Ok(schedule)
    }
}

/// Min-noise route using only fibers with at least `pairs_needed` pairs
/// left. Teleportation networks relay at any node kind (pairs live at the
/// nodes), but we keep the paper's structure: intermediates must be relays.
/// As in [`crate::scheduler::capacity_aware_path`], a fiber is crossable
/// when both its endpoints are open (`src`, `dst` or a relay) and it has
/// the pairs left; every other fiber costs `f64::INFINITY`.
fn best_route(
    net: &Network,
    remaining: &[f64],
    src: NodeId,
    dst: NodeId,
    pairs_needed: f64,
) -> Option<Vec<FiberId>> {
    let open = |v: NodeId| v == src || v == dst || net.node(v).kind.is_relay();
    net.shortest_path_by(src, dst, |f| {
        let fiber = net.fiber(f);
        if open(fiber.a) && open(fiber.b) && remaining[f] >= pairs_needed {
            fiber.noise()
        } else {
            f64::INFINITY
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_netsim::topology::NodeKind;

    fn net(ent_capacity: u32) -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 100);
        let u2 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.8, ent_capacity, 0.0).unwrap();
        net.add_fiber(s1, u2, 0.8, ent_capacity, 0.0).unwrap();
        net
    }

    #[test]
    fn fidelity_improves_with_more_purification() {
        let net = net(100);
        let route = vec![0, 1];
        let f1 = PurificationScheduler::new(1).route_fidelity(&net, &route);
        let f2 = PurificationScheduler::new(2).route_fidelity(&net, &route);
        let f9 = PurificationScheduler::new(9).route_fidelity(&net, &route);
        assert!(f1 < f2 && f2 < f9);
        assert!((f1 - purify_n(0.8, 1).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn pair_budget_limits_throughput() {
        // 10 pairs per fiber: N=1 needs 2 pairs/message → 5 messages;
        // N=9 needs 10 → 1 message.
        let net = net(10);
        let requests = vec![Request::new(0, 2, 8)];
        let s1 = PurificationScheduler::new(1)
            .schedule(&net, &requests)
            .unwrap();
        assert_eq!(s1.scheduled_per_request[0], 5);
        let s9 = PurificationScheduler::new(9)
            .schedule(&net, &requests)
            .unwrap();
        assert_eq!(s9.scheduled_per_request[0], 1);
        assert!(s1.throughput() > s9.throughput());
    }

    #[test]
    fn exhausted_fibers_reroute_or_stop() {
        // Two disjoint routes u0→u2: direct... build a diamond.
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let a = net.add_node(NodeKind::Switch, 10);
        let b = net.add_node(NodeKind::Switch, 10);
        let u2 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, a, 0.9, 2, 0.0).unwrap();
        net.add_fiber(a, u2, 0.9, 2, 0.0).unwrap();
        net.add_fiber(u0, b, 0.8, 2, 0.0).unwrap();
        net.add_fiber(b, u2, 0.8, 2, 0.0).unwrap();
        let requests = vec![Request::new(0, 3, 4)];
        let s = PurificationScheduler::new(1)
            .schedule(&net, &requests)
            .unwrap();
        // Each route supports one message (2 pairs per fiber, 2 needed).
        assert_eq!(s.scheduled_per_request[0], 2);
        // First assignment took the better route, second the worse.
        assert!(s.assignments[0].expected_fidelity > s.assignments[1].expected_fidelity);
    }
}
