//! Concurrent online execution: every scheduled transfer runs in the same
//! tick loop and **contends for shared entanglement generation**.
//!
//! [`crate::execution::execute_plan`] executes one transfer against private
//! entanglement sources — adequate for fidelity statistics, optimistic for
//! latency. This module models the contention the paper's capacity
//! constraints anticipate: each fiber owns one pair source producing at the
//! configured rate into a bounded pool (`η_e` pairs), and all Core parts
//! crossing that fiber drain the same pool. Requests are served round-robin
//! with a rotating head so no transfer starves.
//!
//! The shared pools are what the other engines cannot model, so this
//! engine keeps its own tick loop; recovery and the segment records are
//! the shared ones of [`crate::execution`].

use crate::execution::{
    link_key, recover_plan, sample_failures, EffectivePlan, ExecutionConfig, ExecutionOutcome,
    SegmentOutcome, TransferPlan, MIN_ADVANCE,
};
use crate::topology::Network;
use rand::Rng;

/// Per-transfer progress through its plan.
#[derive(Debug)]
struct TransferState {
    /// Which segment is in flight.
    segment: usize,
    /// Fibers crossed by the Core part within the current segment's core
    /// route (`None` when the segment rides the plain channel only).
    core_pos: usize,
    /// Whether the Support part has finished the current segment
    /// (photon transit takes `route.len()` ticks from segment start).
    support_arrival: u64,
    /// Tick at which the current segment started.
    segment_start: u64,
    /// Accumulated per-segment records.
    segments_done: Vec<SegmentOutcome>,
    /// Completion/failure flags.
    finished: bool,
    failed: bool,
    /// Total latency when finished.
    total_ticks: u64,
}

/// Executes all `plans` concurrently; returns one outcome per plan, in
/// order.
///
/// Fiber pair pools start empty, are refilled by per-tick Bernoulli
/// generation (probability [`ExecutionConfig::entanglement_rate`]) up to
/// the fiber's `entanglement_capacity`, and are drained by Core parts
/// performing opportunistic hops of at least two fibers (the paper's
/// threshold), or every fiber left if fewer remain.
///
/// [`ExecutionConfig::max_ticks`] is a **per-segment** transport budget,
/// as in [`crate::execution::execute_plan`]: a transfer whose in-flight
/// segment has not completed within `max_ticks` ticks of the segment's
/// start fails, charging the full budget to its latency. The loop runs
/// until every transfer finishes or fails (bounded by
/// `segments × (max_ticks + 1)` ticks per transfer).
///
/// Nonzero [`ExecutionConfig::fiber_failure_prob`] samples per-transfer
/// fiber failures (persisting for that whole transfer) and detours them
/// via the same recovery paths `execute_plan` uses; a transfer reaching an
/// unroutable segment fails at that segment's planning time. Sampling is
/// skipped entirely at probability zero, keeping the RNG stream — and
/// thus every seeded failure-free baseline — unchanged.
///
/// # Panics
///
/// Panics if a plan references fibers outside `net` or has no segments.
pub fn execute_concurrently<R: Rng + ?Sized>(
    net: &Network,
    plans: &[TransferPlan],
    config: &ExecutionConfig,
    rng: &mut R,
) -> Vec<ExecutionOutcome> {
    let _span = surfnet_telemetry::span!("netsim.execute_concurrently", Entangle);
    let mut pools: Vec<u32> = vec![0; net.num_fibers()];
    let effective: Vec<EffectivePlan> = plans
        .iter()
        .map(|p| {
            let failed = sample_failures(net, config.fiber_failure_prob, rng);
            recover_plan(net, p, &failed)
        })
        .collect();
    let mut states: Vec<TransferState> = effective
        .iter()
        .map(|p| TransferState {
            segment: 0,
            core_pos: 0,
            support_arrival: p
                .segments
                .first()
                .map_or(0, |s| s.support_route.len() as u64),
            segment_start: 0,
            segments_done: Vec::new(),
            finished: false,
            // The very first segment may already be unroutable.
            failed: p.segments.is_empty(),
            total_ticks: 0,
        })
        .collect();

    // Per-fiber attempt/success tallies for the dim metric families,
    // accumulated across all ticks and emitted once after the loop. Sized
    // zero when telemetry is disabled so the hot loop skips the bookkeeping.
    let tally_len = if surfnet_telemetry::enabled() {
        net.num_fibers()
    } else {
        0
    };
    let mut fiber_attempts: Vec<u64> = vec![0; tally_len];
    let mut fiber_successes: Vec<u64> = vec![0; tally_len];

    let mut tick: u64 = 0;
    while states.iter().any(|s| !s.finished && !s.failed) {
        tick += 1;
        // Refill pair pools.
        let mut attempts = 0u64;
        for (f, pool) in pools.iter_mut().enumerate() {
            let cap = net.fiber(f).entanglement_capacity;
            if *pool < cap {
                attempts += 1;
                if let Some(a) = fiber_attempts.get_mut(f) {
                    *a += 1;
                }
                if rng.gen::<f64>() < config.entanglement_rate {
                    *pool += 1;
                    if let Some(s) = fiber_successes.get_mut(f) {
                        *s += 1;
                    }
                }
            }
        }
        surfnet_telemetry::count!("netsim.entanglement_attempts", attempts);
        // Rotating round-robin: the transfer served first changes each tick.
        let n = states.len();
        if n == 0 {
            break;
        }
        let head = (tick as usize) % n;
        for off in 0..n {
            let i = (head + off) % n;
            if states[i].finished || states[i].failed {
                continue;
            }
            step_transfer(net, &effective[i], &mut states[i], &mut pools, config, tick);
        }
    }

    if tally_len > 0 {
        let attempts_fam = surfnet_telemetry::family!("netsim.link.attempts");
        let successes_fam = surfnet_telemetry::family!("netsim.link.successes");
        for f in 0..tally_len {
            if fiber_attempts[f] == 0 {
                continue;
            }
            let key = link_key(net, f);
            attempts_fam.add(key, fiber_attempts[f]);
            successes_fam.add(key, fiber_successes[f]);
        }
    }

    states
        .into_iter()
        .map(|s| {
            let completed = s.finished && !s.failed;
            ExecutionOutcome {
                completed,
                // Unified failure-latency contract: failed transfers have
                // already charged completed segments plus the burned
                // budget of the failing segment into `total_ticks`.
                latency: s.total_ticks,
                segments: s.segments_done,
            }
        })
        .collect()
}

/// Advances one transfer by one tick.
fn step_transfer(
    net: &Network,
    plan: &EffectivePlan,
    state: &mut TransferState,
    pools: &mut [u32],
    config: &ExecutionConfig,
    tick: u64,
) {
    let seg = &plan.segments[state.segment];
    // Core part: opportunistic hops over pooled pairs.
    let core_done = match &seg.core_route {
        Some(route) => {
            if state.core_pos < route.len() {
                // Longest prefix of fibers ahead with available pairs,
                // claiming each pair as the run grows: a recovery detour
                // can cross one fiber twice, and then needs two pairs.
                let ahead = &route[state.core_pos..];
                let mut run = 0;
                while run < ahead.len() && pools[ahead[run]] > 0 {
                    pools[ahead[run]] -= 1;
                    run += 1;
                }
                if run >= MIN_ADVANCE.min(ahead.len()) {
                    state.core_pos += run;
                } else {
                    // Too short to jump: hand the pairs back.
                    for &f in &ahead[..run] {
                        pools[f] += 1;
                    }
                }
            }
            state.core_pos >= route.len()
        }
        None => true,
    };
    let support_done = tick >= state.segment_start + state.support_arrival;
    if !(core_done && support_done) {
        // Per-segment transport budget (see `ExecutionConfig::max_ticks`):
        // completing at exactly `max_ticks` elapsed is within budget (the
        // completion branch below), but an incomplete segment at that
        // point has exhausted it — charge the whole budget and fail.
        if tick - state.segment_start >= config.max_ticks {
            state.failed = true;
            state.total_ticks += config.max_ticks;
        }
        return;
    }
    // Segment complete (plus one tick for EC when scheduled).
    let ec_ticks = u64::from(seg.correct_at_end);
    let seg_ticks = (tick - state.segment_start) + ec_ticks;
    state
        .segments_done
        .push(SegmentOutcome::completed(net, seg, seg_ticks));
    state.total_ticks += seg_ticks;
    state.segment += 1;
    if state.segment == plan.segments.len() {
        // End of the routable prefix: done, unless fiber failures cut the
        // plan short — then the next segment is unroutable, detected at
        // its planning time (nothing further is charged).
        if plan.routable {
            state.finished = true;
        } else {
            state.failed = true;
        }
    } else {
        state.segment_start = tick + ec_ticks;
        state.core_pos = 0;
        state.support_arrival = plan.segments[state.segment].support_route.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{execute_plan, PlannedSegment};
    use crate::topology::NodeKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// u0 - s1 - S2(server) - u3, entanglement capacity `cap`.
    fn line_net(cap: u32) -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 50);
        let s2 = net.add_node(NodeKind::Server, 100);
        let u3 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.9, cap, 0.05).unwrap();
        net.add_fiber(s1, s2, 0.9, cap, 0.05).unwrap();
        net.add_fiber(s2, u3, 0.9, cap, 0.05).unwrap();
        net
    }

    fn plan() -> TransferPlan {
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
                    correct_at_end: false,
                },
            ],
        }
    }

    #[test]
    fn single_transfer_matches_independent_fidelities() {
        let net = line_net(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let concurrent = execute_concurrently(&net, &[plan()], &config, &mut rng);
        assert_eq!(concurrent.len(), 1);
        let c = &concurrent[0];
        assert!(c.completed);
        let mut rng = SmallRng::seed_from_u64(2);
        let independent = execute_plan(&net, &plan(), &config, &mut rng);
        // Fidelity records are route-determined: identical across engines.
        for (a, b) in c.segments.iter().zip(&independent.segments) {
            assert_eq!(a.core_fidelity, b.core_fidelity);
            assert_eq!(a.support_fidelity, b.support_fidelity);
            assert_eq!(a.support_erasure_prob, b.support_erasure_prob);
        }
    }

    #[test]
    fn contention_slows_transfers_down() {
        let net = line_net(1); // pools hold one pair at a time
        let config = ExecutionConfig {
            entanglement_rate: 0.5,
            ..ExecutionConfig::default()
        };
        let avg_latency = |count: usize, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let plans: Vec<_> = (0..count).map(|_| plan()).collect();
            let outs = execute_concurrently(&net, &plans, &config, &mut rng);
            assert!(outs.iter().all(|o| o.completed));
            outs.iter().map(|o| o.latency).sum::<u64>() as f64 / count as f64
        };
        let solo: f64 = (0..20).map(|s| avg_latency(1, 100 + s)).sum::<f64>() / 20.0;
        let crowded: f64 = (0..20).map(|s| avg_latency(6, 200 + s)).sum::<f64>() / 20.0;
        assert!(
            crowded > solo,
            "contention should raise latency: solo {solo}, crowded {crowded}"
        );
    }

    #[test]
    fn zero_rate_never_completes_core_transfers() {
        let net = line_net(4);
        let config = ExecutionConfig {
            entanglement_rate: 0.0,
            max_ticks: 100,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let outs = execute_concurrently(&net, &[plan()], &config, &mut rng);
        assert!(!outs[0].completed);
        // Unified failure-latency contract: the first segment burned its
        // whole per-segment transport budget.
        assert_eq!(outs[0].latency, 100);
    }

    #[test]
    fn second_segment_timeout_charges_completed_plus_budget() {
        // Segment 1 completes instantly at rate 1.0; segment 2's Support
        // transit (3 fibers) exceeds the 2-tick budget. The transfer must
        // charge segment 1's ticks plus the burned budget — not the
        // global tick counter the engine previously reported.
        let net = line_net(8);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            max_ticks: 2,
            ..ExecutionConfig::default()
        };
        let long_tail = TransferPlan {
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
                    support_route: vec![2, 2, 2],
                    correct_at_end: false,
                },
            ],
        };
        let mut rng = SmallRng::seed_from_u64(30);
        let outs = execute_concurrently(&net, &[long_tail], &config, &mut rng);
        assert!(!outs[0].completed);
        // Segment 1: Support 2 ticks, Core 1 tick → transport 2 (== the
        // budget, within it) + 1 EC tick = 3. Segment 2: budget burned.
        assert_eq!(outs[0].segments.len(), 1);
        assert_eq!(outs[0].segments[0].ticks, 3);
        assert_eq!(outs[0].latency, 3 + 2);
    }

    #[test]
    fn max_ticks_budget_is_per_segment_not_whole_run() {
        // The whole run takes 4 ticks (3 + 1 across two segments), which
        // exceeds a 3-tick budget — but each individual segment fits, so
        // the transfer completes: the budget restarts with each segment
        // (the engine previously cut the whole run off at `max_ticks`).
        let net = line_net(8);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            max_ticks: 3,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(31);
        let outs = execute_concurrently(&net, &[plan()], &config, &mut rng);
        assert!(outs[0].completed, "per-segment budgets must not compound");
        assert_eq!(outs[0].latency, 4, "whole run exceeds one budget");
    }

    #[test]
    fn fiber_failures_are_sampled_and_unroutable_plans_fail() {
        // Every fiber down on a tree topology: no recovery path exists, so
        // the transfer fails at segment-planning time with zero latency —
        // matching `execute_plan`'s contract.
        let net = line_net(8);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            fiber_failure_prob: 1.0,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(32);
        let outs = execute_concurrently(&net, &[plan()], &config, &mut rng);
        assert!(!outs[0].completed);
        assert_eq!(outs[0].latency, 0);
        assert!(outs[0].segments.is_empty());
    }

    #[test]
    fn fiber_failures_take_recovery_paths() {
        // Square 0-1-3 / 0-2-1: failing fiber 0 (0-1) leaves the detour
        // 0-2, 2-1, so a transfer routed over [f01, f13] still completes
        // with the recovered (longer) route's fidelity.
        let mut net = Network::new();
        let n0 = net.add_node(NodeKind::User, 0);
        let n1 = net.add_node(NodeKind::Switch, 10);
        let n2 = net.add_node(NodeKind::Switch, 10);
        let n3 = net.add_node(NodeKind::User, 0);
        let f01 = net.add_fiber(n0, n1, 0.99, 8, 0.0).unwrap();
        let f13 = net.add_fiber(n1, n3, 0.9, 8, 0.0).unwrap();
        let f02 = net.add_fiber(n0, n2, 0.9, 8, 0.0).unwrap();
        let f21 = net.add_fiber(n2, n1, 0.9, 8, 0.0).unwrap();
        let _ = (f02, f21);
        let direct = TransferPlan {
            src: n0,
            dst: n3,
            segments: vec![PlannedSegment {
                core_route: Some(vec![f01, f13]),
                support_route: vec![f01, f13],
                correct_at_end: false,
            }],
        };
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            // Per-transfer failure sampling draws one uniform per fiber;
            // pick a seed whose first four draws fail exactly fiber 0.
            fiber_failure_prob: 0.5,
            ..ExecutionConfig::default()
        };
        let mut found_recovery = false;
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let draws: Vec<bool> = (0..4).map(|_| rng.gen::<f64>() < 0.5).collect();
            if draws != [true, false, false, false] {
                continue;
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let outs = execute_concurrently(&net, std::slice::from_ref(&direct), &config, &mut rng);
            assert!(outs[0].completed, "recovery path should complete");
            // Detoured Support route 0-2, 2-1, 1-3: fidelity 0.9³, not the
            // direct route's 0.99 × 0.9.
            let got = outs[0].segments[0].support_fidelity;
            assert!((got - 0.9f64.powi(3)).abs() < 1e-12, "fidelity {got}");
            found_recovery = true;
            break;
        }
        assert!(found_recovery, "no seed produced the target failure set");
    }

    #[test]
    fn plain_only_transfers_ignore_pools() {
        let net = line_net(4);
        let raw_plan = TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![PlannedSegment {
                core_route: None,
                support_route: vec![0, 1, 2],
                correct_at_end: false,
            }],
        };
        let config = ExecutionConfig {
            entanglement_rate: 0.0, // no pairs ever
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let outs = execute_concurrently(&net, &[raw_plan], &config, &mut rng);
        assert!(outs[0].completed);
        assert_eq!(outs[0].latency, 3);
    }

    #[test]
    fn all_transfers_eventually_finish_under_fairness() {
        let net = line_net(2);
        let config = ExecutionConfig {
            entanglement_rate: 0.6,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let plans: Vec<_> = (0..8).map(|_| plan()).collect();
        let outs = execute_concurrently(&net, &plans, &config, &mut rng);
        assert!(outs.iter().all(|o| o.completed), "a transfer starved");
    }

    #[test]
    fn a_route_that_recrosses_a_fiber_claims_one_pair_per_crossing() {
        // Recovery detours can re-enter a fiber already on the route:
        // u0→s1→u0→s1→u2 crosses fiber 0 three times, so its first jump
        // needs two of fiber 0's pairs at once.
        let run = |cap| {
            let mut net = Network::new();
            let u0 = net.add_node(NodeKind::User, 0);
            let s1 = net.add_node(NodeKind::Switch, 10);
            let u2 = net.add_node(NodeKind::User, 0);
            net.add_fiber(u0, s1, 0.9, cap, 0.0).unwrap();
            net.add_fiber(s1, u2, 0.9, cap, 0.0).unwrap();
            let recrossing = TransferPlan {
                src: u0,
                dst: u2,
                segments: vec![PlannedSegment {
                    core_route: Some(vec![0, 0, 0, 1]),
                    support_route: vec![0, 0, 0, 1],
                    correct_at_end: false,
                }],
            };
            let config = ExecutionConfig {
                entanglement_rate: 1.0,
                max_ticks: 20,
                ..ExecutionConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(33);
            execute_concurrently(&net, &[recrossing], &config, &mut rng)
                .pop()
                .unwrap()
        };
        // Two pairs per pool: jump two crossings at tick 2, the last two
        // at tick 3, and the Support arrives at tick 4.
        let roomy = run(2);
        assert!(roomy.completed);
        assert_eq!(roomy.latency, 4);
        // One pair per pool can never feed a jump over fiber 0 twice.
        let tight = run(1);
        assert!(!tight.completed);
        assert_eq!(tight.latency, 20);
    }

    #[test]
    fn empty_plan_list_is_trivial() {
        let net = line_net(2);
        let mut rng = SmallRng::seed_from_u64(6);
        let outs = execute_concurrently(&net, &[], &ExecutionConfig::default(), &mut rng);
        assert!(outs.is_empty());
    }
}
