//! Cross-engine agreement matrix: at `entanglement_rate: 1.0` all three
//! execution engines — the per-transfer tick engine (`execute_plan`), the
//! contended tick engine (`execute_concurrently`), and the streaming
//! event engine (`execute_plan_event`) — must produce identical
//! [`SegmentOutcome`] fidelity/erasure records and latencies for the same
//! plans. At rate 1.0 every fiber's first pair is ready at tick 1, so the
//! engines' different sampling strategies collapse to the same
//! deterministic walk; any divergence is a semantics bug, not noise.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_netsim::concurrent::execute_concurrently;
use surfnet_netsim::event::{execute_plan_event, plan_request};
use surfnet_netsim::execution::{execute_plan, execute_teleportation, ExecutionConfig};
use surfnet_netsim::request::Request;
use surfnet_netsim::topology::{Network, NodeKind};
use surfnet_netsim::{ExecutionOutcome, PlannedSegment, TransferPlan};

/// u0 - s1 - S2(server) - u3: the minimal dual-segment line.
fn line_net() -> Network {
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 0);
    let s1 = net.add_node(NodeKind::Switch, 50);
    let s2 = net.add_node(NodeKind::Server, 100);
    let u3 = net.add_node(NodeKind::User, 0);
    net.add_fiber(u0, s1, 0.92, 8, 0.08).unwrap();
    net.add_fiber(s1, s2, 0.88, 8, 0.04).unwrap();
    net.add_fiber(s2, u3, 0.95, 8, 0.06).unwrap();
    net
}

/// Square with a server corner and both users adjacent to it:
///
/// ```text
/// u0 — s1
///  |    |
/// S2 — u3   (S2 is a server)
/// ```
fn square_net() -> Network {
    let mut net = Network::new();
    let u0 = net.add_node(NodeKind::User, 0);
    let s1 = net.add_node(NodeKind::Switch, 40);
    let s2 = net.add_node(NodeKind::Server, 80);
    let u3 = net.add_node(NodeKind::User, 0);
    net.add_fiber(u0, s1, 0.90, 6, 0.05).unwrap();
    net.add_fiber(s1, u3, 0.85, 6, 0.05).unwrap();
    net.add_fiber(u0, s2, 0.93, 6, 0.02).unwrap();
    net.add_fiber(s2, u3, 0.91, 6, 0.03).unwrap();
    net
}

fn rate_one() -> ExecutionConfig {
    ExecutionConfig {
        entanglement_rate: 1.0,
        ..ExecutionConfig::default()
    }
}

/// Runs `plan` through all three engines with independent seeded RNGs and
/// asserts fidelity/erasure records and latencies agree exactly.
fn assert_engines_agree(net: &Network, plan: &TransferPlan, config: &ExecutionConfig, seed: u64) {
    let tick = {
        let mut rng = SmallRng::seed_from_u64(seed);
        execute_plan(net, plan, config, &mut rng)
    };
    let event = {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(1));
        execute_plan_event(net, plan, config, &mut rng)
    };
    let concurrent = {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(2));
        execute_concurrently(net, std::slice::from_ref(plan), config, &mut rng)
            .pop()
            .unwrap()
    };
    let check = |name: &str, got: &ExecutionOutcome| {
        assert_eq!(
            got.completed, tick.completed,
            "{name}: completion diverges from execute_plan"
        );
        assert_eq!(
            got.latency, tick.latency,
            "{name}: latency diverges from execute_plan"
        );
        assert_eq!(
            got.segments, tick.segments,
            "{name}: segment records diverge from execute_plan"
        );
    };
    check("event", &event);
    check("concurrent", &concurrent);
}

/// All user-pair plans of a network, as the event planner builds them.
fn planned_pairs(net: &Network) -> Vec<TransferPlan> {
    let users = net.users();
    let mut plans = Vec::new();
    for &src in &users {
        for &dst in &users {
            if src != dst {
                plans.push(plan_request(net, &Request::new(src, dst, 1)).unwrap());
            }
        }
    }
    plans
}

#[test]
fn engines_agree_on_line_topology() {
    let net = line_net();
    let config = rate_one();
    for (i, plan) in planned_pairs(&net).iter().enumerate() {
        for seed in 0..4u64 {
            assert_engines_agree(&net, plan, &config, 1000 + seed * 31 + i as u64);
        }
    }
}

#[test]
fn engines_agree_on_square_topology() {
    let net = square_net();
    let config = rate_one();
    for (i, plan) in planned_pairs(&net).iter().enumerate() {
        for seed in 0..4u64 {
            assert_engines_agree(&net, plan, &config, 2000 + seed * 37 + i as u64);
        }
    }
}

#[test]
fn engines_agree_on_manual_multi_segment_plans() {
    // Plans the planner would not build: Raw (no core route), asymmetric
    // core/support routes, EC at every segment.
    let net = line_net();
    let config = rate_one();
    let plans = [
        TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![PlannedSegment {
                core_route: None,
                support_route: vec![0, 1, 2],
                correct_at_end: false,
            }],
        },
        TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![
                PlannedSegment {
                    core_route: Some(vec![0, 1]),
                    support_route: vec![0, 1],
                    correct_at_end: true,
                },
                PlannedSegment {
                    core_route: Some(vec![2]),
                    support_route: vec![2],
                    correct_at_end: true,
                },
            ],
        },
    ];
    for (i, plan) in plans.iter().enumerate() {
        for seed in 0..4u64 {
            assert_engines_agree(&net, plan, &config, 3000 + seed * 41 + i as u64);
        }
    }
}

#[test]
fn engines_agree_on_timeout_latency_charging() {
    // Unified failure contract at rate 0: every engine burns exactly the
    // per-segment budget on the first segment and charges it. A rate too
    // small for `ln(1 - p)` to differ from 0 must time out the same way.
    // The teleportation executor's budget is per fiber, and its first
    // fiber burns it.
    let net = line_net();
    let plan = plan_request(&net, &Request::new(0, 3, 1)).unwrap();
    let config = |rate| ExecutionConfig {
        entanglement_rate: rate,
        max_ticks: 25,
        ..ExecutionConfig::default()
    };
    for rate in [0.0, 1e-17] {
        for seed in 0..4u64 {
            assert_engines_agree(&net, &plan, &config(rate), 4000 + seed);
        }
    }
    let mut rng = SmallRng::seed_from_u64(4100);
    let out = execute_plan(&net, &plan, &config(0.0), &mut rng);
    assert!(!out.completed);
    assert_eq!(out.latency, 25);
    let teleport = execute_teleportation(&net, &[0, 1, 2], 0, &config(0.0), &mut rng);
    assert!(!teleport.completed);
    assert_eq!(teleport.latency, 25);
}
