//! Property tests for the routing protocol: schedules produced on random
//! networks always satisfy the resource and structural invariants of
//! Eqs. 3–6.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
use surfnet_netsim::request::random_requests;
use surfnet_routing::{
    PurificationScheduler, RawScheduler, RoutingParams, Schedule, SurfNetScheduler,
};

fn params() -> RoutingParams {
    RoutingParams {
        n_core: 9,
        m_support: 32,
        omega: 0.15,
        w_core: 0.9,
        w_total: 0.7,
    }
}

/// Audits a schedule against the raw network capacities.
fn audit(net: &surfnet_netsim::Network, schedule: &Schedule, p: &RoutingParams, factor: f64) {
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
        assert_eq!(cursor, code.plan.dst);
    }
    for v in 0..net.num_nodes() {
        assert!(
            node_load[v] <= net.node(v).capacity as f64 * factor + 1e-9,
            "node {v} over capacity"
        );
    }
    for f in 0..net.num_fibers() {
        assert!(
            pairs[f] <= net.fiber(f).entanglement_capacity as f64 + 1e-9,
            "fiber {f} over entanglement budget"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn surfnet_schedules_respect_capacities(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = barabasi_albert(&NetworkConfig::default(), &mut rng).unwrap();
        let requests = random_requests(&net, 5, 3, &mut rng);
        let p = params();
        let schedule = SurfNetScheduler::new(p).schedule(&net, &requests).unwrap();
        audit(&net, &schedule, &p, 1.0);
        prop_assert!(schedule.throughput() <= 1.0 + 1e-9);
        for (s, r) in schedule.scheduled_per_request.iter().zip(&requests) {
            prop_assert!(*s <= r.num_codes);
        }
    }

    #[test]
    fn purification_schedules_respect_pair_budgets(seed in any::<u64>(), n in 0u32..10) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = barabasi_albert(&NetworkConfig::default(), &mut rng).unwrap();
        let requests = random_requests(&net, 5, 3, &mut rng);
        let schedule = PurificationScheduler::new(n).schedule(&net, &requests).unwrap();
        let mut pairs = vec![0.0f64; net.num_fibers()];
        for a in &schedule.assignments {
            for &f in &a.route {
                pairs[f] += (n + 1) as f64;
            }
            prop_assert!((0.0..=1.0).contains(&a.expected_fidelity));
        }
        for f in 0..net.num_fibers() {
            prop_assert!(pairs[f] <= net.fiber(f).entanglement_capacity as f64 + 1e-9);
        }
    }

    #[test]
    fn raw_schedules_use_no_core_routes(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = barabasi_albert(&NetworkConfig::default(), &mut rng).unwrap();
        let requests = random_requests(&net, 4, 2, &mut rng);
        let p = params();
        let schedule = RawScheduler::new(p).schedule(&net, &requests).unwrap();
        for code in &schedule.codes {
            for seg in &code.plan.segments {
                prop_assert!(seg.core_route.is_none());
            }
        }
        audit(&net, &schedule, &p, 1.5);
    }
}
