//! Property tests for the routing protocol: schedules produced on random
//! networks always satisfy the resource and structural invariants of
//! Eqs. 3–6. Each test runs `CASES` seeded cases; case `c` draws its
//! network and requests from `SmallRng::seed_from_u64(c)` and every
//! assertion names it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::request::{random_requests, Request};
use surfnet_netsim::Network;
use surfnet_routing::{
    PurificationScheduler, RawScheduler, RoutingParams, Schedule, SurfNetScheduler,
};

const CASES: u64 = 12;

fn params() -> RoutingParams {
    RoutingParams {
        n_core: 9,
        m_support: 32,
        omega: 0.15,
        w_core: 0.9,
        w_total: 0.7,
    }
}

/// Case `case`'s random BA network and `count` requests of at most
/// `max_codes` codes each, and the RNG that drew them.
fn random_case(case: u64, count: usize, max_codes: u32) -> (Network, Vec<Request>, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(case);
    let net = barabasi_albert(&NetworkConfig::default(), &mut rng)
        .unwrap_or_else(|e| panic!("case {case}: {e}"));
    let requests = random_requests(&net, count, max_codes, &mut rng);
    (net, requests, rng)
}

/// Audits case `case`'s schedule against the raw network capacities.
fn audit(case: u64, net: &Network, schedule: &Schedule, p: &RoutingParams, factor: f64) {
    let qubits = p.code_size() as f64;
    let mut node_load = vec![0.0f64; net.num_nodes()];
    let mut pairs = vec![0.0f64; net.num_fibers()];
    for code in &schedule.codes {
        let mut cursor = code.plan.src;
        for seg in &code.plan.segments {
            for &f in &seg.support_route {
                let next = net.fiber(f).other(cursor);
                if net.node(next).kind.is_relay() {
                    node_load[next] += qubits;
                }
                cursor = next;
            }
            for &f in seg.core_route.as_deref().unwrap_or(&[]) {
                pairs[f] += p.n_core as f64;
            }
        }
        assert_eq!(cursor, code.plan.dst, "case {case}: plan ends off its dst");
    }
    for v in 0..net.num_nodes() {
        assert!(
            node_load[v] <= net.node(v).capacity as f64 * factor + 1e-9,
            "case {case}: node {v} over capacity"
        );
    }
    for f in 0..net.num_fibers() {
        assert!(
            pairs[f] <= net.fiber(f).entanglement_capacity as f64 + 1e-9,
            "case {case}: fiber {f} over entanglement budget"
        );
    }
}

#[test]
fn surfnet_schedules_respect_capacities() {
    let p = params();
    for case in 0..CASES {
        let (net, requests, _) = random_case(case, 5, 3);
        let schedule = SurfNetScheduler::new(p)
            .schedule(&net, &requests)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        audit(case, &net, &schedule, &p, 1.0);
        assert!(schedule.throughput() <= 1.0 + 1e-9, "case {case}");
        for (s, r) in schedule.scheduled_per_request.iter().zip(&requests) {
            assert!(*s <= r.num_codes, "case {case}: {s} for {r:?}");
        }
    }
}

#[test]
fn purification_schedules_respect_pair_budgets() {
    for case in 0..CASES {
        let (net, requests, mut rng) = random_case(case, 5, 3);
        let n = rng.gen_range(0u32..10);
        let schedule = PurificationScheduler::new(n)
            .schedule(&net, &requests)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let mut pairs = vec![0.0f64; net.num_fibers()];
        for a in &schedule.assignments {
            for &f in &a.route {
                pairs[f] += (n + 1) as f64;
            }
            let fidelity = a.expected_fidelity;
            assert!((0.0..=1.0).contains(&fidelity), "case {case}: {fidelity}");
        }
        for f in 0..net.num_fibers() {
            assert!(
                pairs[f] <= net.fiber(f).entanglement_capacity as f64 + 1e-9,
                "case {case}: N = {n}, fiber {f} over its pair budget"
            );
        }
    }
}

#[test]
fn raw_schedules_use_no_core_routes() {
    let p = params();
    for case in 0..CASES {
        let (net, requests, _) = random_case(case, 4, 2);
        let schedule = RawScheduler::new(p)
            .schedule(&net, &requests)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        for code in &schedule.codes {
            for seg in &code.plan.segments {
                assert!(seg.core_route.is_none(), "case {case}: {seg:?}");
            }
        }
        audit(case, &net, &schedule, &p, 1.5);
    }
}
