//! Online execution (paper Sec. V-B): tick-based simulation of one
//! scheduled communication — Support photons over plain channels, Core
//! qubits over the entanglement channel with opportunistic forwarding,
//! local recovery paths around failed fibers, and error correction at
//! scheduled servers.
//!
//! This module also holds the transfer contract all three engines run
//! (DESIGN §11.1): one recovery walk, one segment walk that applies the
//! per-segment budget and charges latency, and one segment-record
//! constructor. [`execute_plan`] samples each Core fiber's pair-ready tick
//! by per-tick Bernoulli draws and the event engine by one geometric draw,
//! and both fold those ticks through one forwarding walk; the contended
//! engine keeps its shared-pool tick loop and shares recovery and the
//! records.
//!
//! Execution is deliberately decoupled from the surface-code machinery: it
//! produces per-segment fidelity/erasure records ([`SegmentOutcome`]) that
//! the `surfnet-core` pipeline turns into error models, samples, and
//! decodes.

use crate::entanglement::{core_segment_fidelity, purify};
use crate::topology::{FiberId, Network, NodeId};
use rand::Rng;
use surfnet_telemetry::dim;

/// Labels a fiber's series in the per-link metric families by its
/// (normalized) endpoint pair.
pub(crate) fn link_key(net: &Network, f: FiberId) -> dim::LabelKey {
    let fiber = net.fiber(f);
    dim::LabelKey::Link(fiber.a as u16, fiber.b as u16)
}

/// Merges one execution's per-fiber attempt tallies and pair deliveries
/// into the `netsim.link.*` families. `per_fiber_attempts` is empty when
/// telemetry was off at tally time (nothing to record).
fn record_link_attempts(
    net: &Network,
    route: &[FiberId],
    per_fiber_attempts: &[u64],
    delivered: impl Fn(usize) -> u64,
) {
    if per_fiber_attempts.is_empty() {
        return;
    }
    let attempts = surfnet_telemetry::family!("netsim.link.attempts");
    let successes = surfnet_telemetry::family!("netsim.link.successes");
    for (i, (&f, &a)) in route.iter().zip(per_fiber_attempts).enumerate() {
        let key = link_key(net, f);
        attempts.add(key, a);
        successes.add(key, delivered(i));
    }
}

/// One leg of a planned transfer, ending either at a server that performs
/// error correction or at the destination user.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSegment {
    /// Route for the Core part over the entanglement-based channel.
    /// `None` means the Core travels with the Support over the plain
    /// channel (the Raw baseline has no dual channel).
    pub core_route: Option<Vec<FiberId>>,
    /// Route for the Support part over the plain channel. The two routes
    /// may differ (Fig. 4 routes them independently).
    pub support_route: Vec<FiberId>,
    /// Whether error correction runs when this segment completes.
    pub correct_at_end: bool,
}

/// A complete transfer plan for one surface code.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPlan {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Consecutive legs; segment `i+1` starts where segment `i` ended.
    pub segments: Vec<PlannedSegment>,
}

/// Opportunistic-forwarding threshold (Sec. V-B; the paper fixes 2): the
/// Core part moves as soon as this many consecutive fibers hold ready
/// pairs, or every fiber left if fewer remain.
pub(crate) const MIN_ADVANCE: usize = 2;

/// Tunables of the online execution engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionConfig {
    /// Per-tick success probability of one entanglement-generation attempt
    /// across one fiber (the scenario's entanglement generation rate).
    pub entanglement_rate: f64,
    /// Give-up horizon, in ticks. **Per-segment transport budget** in
    /// every execution engine ([`execute_plan`],
    /// [`crate::concurrent::execute_concurrently`], and the event engine):
    /// each segment's Support and Core parts must both complete within
    /// `max_ticks` ticks of the segment's start. Completing in *exactly*
    /// `max_ticks` is within budget, and the error-correction tick a
    /// server spends after transport does **not** consume budget (a
    /// segment whose transport finishes at tick `max_ticks` and then runs
    /// EC is accepted with `ticks = max_ticks + 1`). A transfer whose
    /// segment exhausts the budget fails, charging the full budget to its
    /// latency (see [`ExecutionOutcome::latency`]).
    pub max_ticks: u64,
    /// Probability that a fiber is down for the duration of one transfer,
    /// exercising the local recovery-path mechanism.
    pub fiber_failure_prob: f64,
    /// Per-tick fidelity decay of an **unencoded** qubit waiting in
    /// quantum memory. Surface-code transfers are immune: switches
    /// re-encode Support photons, DD refreshes stored qubits, and servers
    /// correct accumulated errors (Secs. IV-A, V-B); teleportation-only
    /// baselines carry bare data qubits that decohere while entanglement
    /// is distilled.
    pub memory_decoherence_rate: f64,
}

impl Default for ExecutionConfig {
    fn default() -> ExecutionConfig {
        ExecutionConfig {
            entanglement_rate: 0.4,
            max_ticks: 10_000,
            fiber_failure_prob: 0.0,
            memory_decoherence_rate: 0.015,
        }
    }
}

/// What one executed segment did to the surface code.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOutcome {
    /// Estimated fidelity `ρ` of each Core qubit over this segment
    /// (noise halved by purification on the entanglement channel).
    pub core_fidelity: f64,
    /// Estimated fidelity of each Support qubit (`Π γᵢ` over its route).
    pub support_fidelity: f64,
    /// Per-qubit erasure probability for Support qubits (photon loss).
    pub support_erasure_prob: f64,
    /// Per-qubit erasure probability for Core qubits: zero on the
    /// entanglement channel, equal to the Support value for Raw transfers.
    pub core_erasure_prob: f64,
    /// Ticks this segment took (both parts complete, plus EC if any).
    pub ticks: u64,
    /// Whether error correction ran at the end of this segment.
    pub corrected_at_end: bool,
}

impl SegmentOutcome {
    /// The record of `seg` completing in `ticks`, the only place a
    /// segment's fidelities and erasure rates are computed.
    pub(crate) fn completed(net: &Network, seg: &PlannedSegment, ticks: u64) -> SegmentOutcome {
        // Support photons: loss accumulates per hop.
        let support_fidelity = net.path_fidelity(&seg.support_route);
        let support_erasure_prob = 1.0
            - seg
                .support_route
                .iter()
                .map(|&f| 1.0 - net.fiber(f).loss_prob)
                .product::<f64>();
        let (core_fidelity, core_erasure_prob) = match &seg.core_route {
            Some(route) => (core_segment_fidelity(net.path_fidelity(route)), 0.0),
            // Raw transfer: the Core rides the plain channel with the
            // Support — same fidelity, same loss exposure.
            None => (support_fidelity, support_erasure_prob),
        };
        // Fidelities and erasure rates feed straight into the decoder's
        // Bernoulli error model, which rejects values outside [0, 1];
        // clamp here so extreme fiber parameters degrade gracefully
        // instead of panicking downstream.
        SegmentOutcome {
            core_fidelity: core_fidelity.clamp(0.0, 1.0),
            support_fidelity: support_fidelity.clamp(0.0, 1.0),
            support_erasure_prob: support_erasure_prob.clamp(0.0, 1.0),
            core_erasure_prob: core_erasure_prob.clamp(0.0, 1.0),
            ticks,
            corrected_at_end: seg.correct_at_end,
        }
    }
}

/// The result of executing one transfer plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// Whether every segment completed within its tick budget.
    pub completed: bool,
    /// Total ticks spent. For completed transfers: the sum of per-segment
    /// ticks. For failed transfers: the ticks elapsed until the failure
    /// was detected — completed segments' ticks, plus the full
    /// [`ExecutionConfig::max_ticks`] budget for a segment that timed out
    /// in transport, plus nothing for a route failure detected at segment
    /// planning time (before any transport tick elapses). Every execution
    /// engine charges failures identically under this contract.
    pub latency: u64,
    /// Per-segment records for downstream error modeling.
    pub segments: Vec<SegmentOutcome>,
}

/// Executes one transfer plan tick by tick.
///
/// # Panics
///
/// Panics if a route references a fiber outside `net` or the plan's
/// segments are empty.
pub fn execute_plan<R: Rng + ?Sized>(
    net: &Network,
    plan: &TransferPlan,
    config: &ExecutionConfig,
    rng: &mut R,
) -> ExecutionOutcome {
    let _span = surfnet_telemetry::span!("netsim.execute_plan", Entangle);
    // Unlike `sample_failures`, one uniform per fiber even at probability
    // zero: the seeded figure baselines were recorded on this RNG stream.
    let failed: Vec<bool> = (0..net.num_fibers())
        .map(|_| rng.gen::<f64>() < config.fiber_failure_prob)
        .collect();
    let plan = recover_plan(net, plan, &failed);
    walk_segments(net, &plan, config, |route| {
        advance_core(net, route, config, rng)
    })
}

/// Samples one transfer's fiber failures (a crash persists for the whole
/// transfer; Sec. V-B): one uniform per fiber, and none at all at
/// probability zero, so failure-free runs pay no RNG cost per transfer.
pub(crate) fn sample_failures<R: Rng + ?Sized>(net: &Network, p: f64, rng: &mut R) -> Vec<bool> {
    if p == 0.0 {
        return vec![false; net.num_fibers()];
    }
    (0..net.num_fibers())
        .map(|_| rng.gen::<f64>() < p)
        .collect()
}

/// A plan's routes after applying one transfer's fiber failures: the
/// recovered segments that remain routable, and whether the whole plan
/// survived. A `false` tail means the transfer fails upon reaching the
/// first unroutable segment, charging nothing for it: route failures are
/// detected at segment planning time.
pub(crate) struct EffectivePlan {
    pub(crate) segments: Vec<PlannedSegment>,
    pub(crate) routable: bool,
}

/// Detours the failed fibers of every segment of `plan` via recovery
/// paths, each segment starting where the previous recovered Support
/// route ended. Recovery draws no randomness, so recovering the whole
/// plan before walking it leaves every engine's RNG stream as it was.
pub(crate) fn recover_plan(net: &Network, plan: &TransferPlan, failed: &[bool]) -> EffectivePlan {
    assert!(!plan.segments.is_empty(), "plan has no segments");
    let mut segments = Vec::with_capacity(plan.segments.len());
    let mut cursor = plan.src;
    for seg in &plan.segments {
        let support_route = recover_route(net, cursor, &seg.support_route, failed);
        let core_route = match &seg.core_route {
            Some(route) => recover_route(net, cursor, route, failed).map(Some),
            None => Some(None), // Raw: no Core route to recover
        };
        let (Some(support_route), Some(core_route)) = (support_route, core_route) else {
            return EffectivePlan {
                segments,
                routable: false,
            };
        };
        cursor = support_route
            .iter()
            .fold(cursor, |v, &f| net.fiber(f).other(v));
        segments.push(PlannedSegment {
            core_route,
            support_route,
            correct_at_end: seg.correct_at_end,
        });
    }
    debug_assert_eq!(cursor, plan.dst, "plan segments do not reach dst");
    EffectivePlan {
        segments,
        routable: true,
    }
}

/// Walks `plan`'s segments in order under the transfer contract of
/// [`ExecutionConfig::max_ticks`] and [`ExecutionOutcome::latency`].
/// `core_ticks` samples the tick at which a Core walk over a route
/// completes, or `None` if it does not complete within `max_ticks`. A
/// segment's transport takes the longer of its Core walk and its Support
/// transit, one fiber per tick; a Raw segment's Core rides with the
/// Support.
pub(crate) fn walk_segments(
    net: &Network,
    plan: &EffectivePlan,
    config: &ExecutionConfig,
    mut core_ticks: impl FnMut(&[FiberId]) -> Option<u64>,
) -> ExecutionOutcome {
    let mut outcome = ExecutionOutcome {
        completed: plan.routable,
        latency: 0,
        segments: Vec::with_capacity(plan.segments.len()),
    };
    for seg in &plan.segments {
        let support_ticks = seg.support_route.len() as u64;
        let core = match &seg.core_route {
            Some(route) => core_ticks(route),
            None => Some(support_ticks),
        };
        // The budget bounds *transport* only: the Core sampler caps the
        // Core part, so the check catches Support transits longer than
        // `max_ticks`. The EC tick is deterministic processing and exempt
        // — a segment finishing transport in exactly `max_ticks` is within
        // budget even when EC follows.
        let transport = core.map(|t| t.max(support_ticks));
        let Some(transport) = transport.filter(|&t| t <= config.max_ticks) else {
            // Transport timeout: the whole per-segment budget was burned
            // waiting, so charge it.
            outcome.latency += config.max_ticks;
            outcome.completed = false;
            break;
        };
        let ticks = transport + u64::from(seg.correct_at_end);
        outcome.latency += ticks;
        outcome
            .segments
            .push(SegmentOutcome::completed(net, seg, ticks));
    }
    outcome
}

/// Samples the Core part's walk along `route` with opportunistic
/// forwarding (Sec. V-B) tick by tick: each tick every fiber still without
/// a pair attempts generation, in route order, until all hold one or
/// `max_ticks` pass, and [`core_completion`] walks the ready ticks.
/// Returns the completion tick, or `None` on timeout.
///
/// Only fibers ahead of the Core part attempt generation in the model;
/// letting every waiting fiber attempt changes no draw, because each fiber
/// behind the part holds its pair and the walk completes exactly at the
/// last fiber's ready tick.
fn advance_core<R: Rng + ?Sized>(
    net: &Network,
    route: &[FiberId],
    config: &ExecutionConfig,
    rng: &mut R,
) -> Option<u64> {
    let len = route.len();
    if len == 0 {
        return Some(0);
    }
    // Each fiber's pair-ready tick; `u64::MAX` until it holds a pair.
    let mut ready = vec![u64::MAX; len];
    let mut attempts = 0u64;
    // Per-fiber attempt tallies for the netsim.link.* families; empty (and
    // free) when telemetry is off.
    let mut per_fiber_attempts = vec![0u64; if surfnet_telemetry::enabled() { len } else { 0 }];
    for tick in 1..=config.max_ticks {
        for i in 0..len {
            if ready[i] == u64::MAX {
                attempts += 1;
                if let Some(tally) = per_fiber_attempts.get_mut(i) {
                    *tally += 1;
                }
                if rng.gen::<f64>() < config.entanglement_rate {
                    ready[i] = tick;
                }
            }
        }
        if !ready.contains(&u64::MAX) {
            break;
        }
    }
    surfnet_telemetry::count!("netsim.entanglement_attempts", attempts);
    record_link_attempts(net, route, &per_fiber_attempts, |i| {
        u64::from(ready[i] != u64::MAX)
    });
    core_completion(&ready, config.max_ticks)
}

/// Completion tick of the opportunistic-forwarding walk given each
/// fiber's pair-ready tick, or `None` past `max_ticks`. Both independent
/// engines fold their Core samples through it: [`advance_core`]'s
/// per-tick draws and the event engine's geometric ones.
///
/// The Core part advances over the longest ready run of at least
/// `min(MIN_ADVANCE, remaining)` fibers, one advancement per tick. After
/// a maximal jump the next fiber is by construction not yet ready, so
/// advancement times are exactly a subset of the ready times: the walk
/// is a deterministic function of them.
pub(crate) fn core_completion(ready: &[u64], max_ticks: u64) -> Option<u64> {
    let len = ready.len();
    if len == 0 {
        return Some(0);
    }
    let mut pos = 0usize;
    let mut t = 0u64;
    while pos < len {
        let needed = MIN_ADVANCE.min(len - pos);
        // The run from `pos` first reaches `needed` fibers when the
        // slowest of them is ready; the jump then consumes every fiber
        // ready by that tick.
        let t_jump = ready[pos..pos + needed].iter().fold(t, |m, &r| m.max(r));
        if t_jump > max_ticks {
            return None;
        }
        let mut run = 0;
        while pos + run < len && ready[pos + run] <= t_jump {
            run += 1;
        }
        pos += run;
        t = t_jump;
    }
    Some(t)
}

/// Replaces failed fibers on `route` with local detours: for each failed
/// fiber, the shortest working path between its endpoints (the paper's
/// recovery paths). Returns `None` when no detour exists.
fn recover_route(
    net: &Network,
    start: NodeId,
    route: &[FiberId],
    failed: &[bool],
) -> Option<Vec<FiberId>> {
    if route.iter().all(|&f| !failed[f]) {
        return Some(route.to_vec());
    }
    let mut out = Vec::with_capacity(route.len());
    let mut cur = start;
    for &f in route {
        let next = net.fiber(f).other(cur);
        if failed[f] {
            let detour = net.shortest_path_by(cur, next, |id| {
                if failed[id] {
                    f64::INFINITY
                } else {
                    net.fiber(id).noise() + 1e-6
                }
            })?;
            if detour.iter().any(|&d| failed[d]) {
                return None;
            }
            out.extend(detour);
        } else {
            out.push(f);
        }
        cur = next;
    }
    Some(out)
}

/// Outcome of one hop-by-hop teleportation transfer (the Purification-N
/// baselines: no surface codes, every data qubit teleported with `n`
/// purification rounds per fiber).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeleportOutcome {
    /// Whether the transfer finished within the tick budget.
    pub completed: bool,
    /// Ticks spent waiting for entanglement.
    pub latency: u64,
    /// Delivered fidelity: product over hops of the purified pair
    /// fidelities.
    pub fidelity: f64,
}

/// Executes a pure-teleportation transfer along `route` with `n_purify`
/// rounds of entanglement pumping per fiber.
///
/// Purification is **probabilistic** (BBPSSW-style): each round succeeds
/// with probability `ρ₁ρ₂ + (1−ρ₁)(1−ρ₂)`; a failed round destroys both
/// pairs and restarts the pump from a fresh raw pair (Briegel pumping).
/// The paper's scheduling model budgets the expected minimum of
/// `n_purify + 1` pairs per fiber; this executor additionally charges the
/// waiting time, during which the unencoded message qubit decoheres at
/// [`ExecutionConfig::memory_decoherence_rate`].
///
/// # Panics
///
/// Panics if a fiber id is out of range.
pub fn execute_teleportation<R: Rng + ?Sized>(
    net: &Network,
    route: &[FiberId],
    n_purify: u32,
    config: &ExecutionConfig,
    rng: &mut R,
) -> TeleportOutcome {
    let _span = surfnet_telemetry::span!("netsim.execute_teleportation", Purify);
    let mut latency = 0u64;
    let mut fidelity = 1.0f64;
    // Waits for one raw pair; returns false once the fiber's budget of
    // `max_ticks` attempts is spent. Every tick is one generation attempt;
    // `pairs` tallies the deliveries.
    let wait_for_pair = |ticks: &mut u64, pairs: &mut u64, rng: &mut R| -> bool {
        while *ticks < config.max_ticks {
            *ticks += 1;
            if rng.gen::<f64>() < config.entanglement_rate {
                *pairs += 1;
                return true;
            }
        }
        false
    };
    for &f in route {
        let fiber = net.fiber(f);
        let raw = fiber.fidelity;
        let mut ticks = 0u64;
        let mut pairs = 0u64;
        let mut rounds_done = 0u64;
        // The pump has several timeout exits; funneling them through one
        // closure gives a single telemetry point per fiber below.
        let mut pump = |rng: &mut R| -> Option<f64> {
            if !wait_for_pair(&mut ticks, &mut pairs, rng) {
                return None;
            }
            let mut rho = raw;
            let mut rounds = 0u32;
            while rounds < n_purify {
                if !wait_for_pair(&mut ticks, &mut pairs, rng) {
                    return None;
                }
                let success_prob = rho * raw + (1.0 - rho) * (1.0 - raw);
                if rng.gen::<f64>() < success_prob {
                    rho = purify(rho, raw);
                    rounds += 1;
                    rounds_done += 1;
                } else {
                    // Both pairs are destroyed; restart the pump.
                    if !wait_for_pair(&mut ticks, &mut pairs, rng) {
                        return None;
                    }
                    rho = raw;
                    rounds = 0;
                }
            }
            Some(rho)
        };
        let rho = pump(rng);
        // One tallied increment per fiber (each wait tick is one attempt),
        // not one per attempt — matching the other two execution paths.
        surfnet_telemetry::count!("netsim.entanglement_attempts", ticks);
        surfnet_telemetry::count!("netsim.purification_rounds", rounds_done);
        if surfnet_telemetry::enabled() {
            let key = link_key(net, f);
            surfnet_telemetry::family!("netsim.link.attempts").add(key, ticks);
            surfnet_telemetry::family!("netsim.link.successes").add(key, pairs);
            surfnet_telemetry::family!("netsim.link.purification_rounds").add(key, rounds_done);
        }
        let Some(rho) = rho else {
            return TeleportOutcome {
                completed: false,
                latency: latency + ticks,
                fidelity: 0.0,
            };
        };
        latency += ticks;
        fidelity *= rho;
    }
    // The bare message qubit decoheres in memory for the whole wait.
    fidelity *= (1.0 - config.memory_decoherence_rate).powf(latency as f64);
    TeleportOutcome {
        completed: true,
        latency,
        fidelity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entanglement::purify_n;
    use crate::topology::NodeKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// u0 - s1 - s2(server) - u3 with uniform fidelity 0.9, loss 0.1.
    fn line_net() -> Network {
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 50);
        let s2 = net.add_node(NodeKind::Server, 100);
        let u3 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.9, 8, 0.1).unwrap();
        net.add_fiber(s1, s2, 0.9, 8, 0.1).unwrap();
        net.add_fiber(s2, u3, 0.9, 8, 0.1).unwrap();
        net
    }

    fn two_segment_plan() -> TransferPlan {
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
        }
    }

    #[test]
    fn plan_executes_with_expected_fidelities() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(1);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &two_segment_plan(), &config, &mut rng);
        assert!(out.completed);
        assert_eq!(out.segments.len(), 2);
        let s0 = &out.segments[0];
        assert!((s0.support_fidelity - 0.81).abs() < 1e-12);
        assert!((s0.core_fidelity - 0.9).abs() < 1e-12); // sqrt(0.81)
        assert!((s0.support_erasure_prob - (1.0 - 0.81)).abs() < 1e-12);
        assert_eq!(s0.core_erasure_prob, 0.0);
        assert!(s0.corrected_at_end);
        assert!(out.latency >= 3);
    }

    #[test]
    fn raw_plan_shares_channel_and_loss() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(2);
        let plan = TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![PlannedSegment {
                core_route: None,
                support_route: vec![0, 1, 2],
                correct_at_end: false,
            }],
        };
        let out = execute_plan(&net, &plan, &ExecutionConfig::default(), &mut rng);
        assert!(out.completed);
        let s = &out.segments[0];
        assert_eq!(s.core_fidelity, s.support_fidelity);
        assert_eq!(s.core_erasure_prob, s.support_erasure_prob);
        // Plain-channel transfer is deterministic: one tick per fiber.
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn low_entanglement_rate_increases_latency() {
        let net = line_net();
        let config_fast = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let config_slow = ExecutionConfig {
            entanglement_rate: 0.1,
            ..ExecutionConfig::default()
        };
        let avg = |config: &ExecutionConfig, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut total = 0u64;
            for _ in 0..50 {
                let out = execute_plan(&net, &two_segment_plan(), config, &mut rng);
                assert!(out.completed);
                total += out.latency;
            }
            total as f64 / 50.0
        };
        assert!(avg(&config_slow, 3) > avg(&config_fast, 3));
    }

    #[test]
    fn zero_rate_times_out() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(4);
        let config = ExecutionConfig {
            entanglement_rate: 0.0,
            max_ticks: 50,
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &two_segment_plan(), &config, &mut rng);
        assert!(!out.completed);
        // Unified failure-latency contract: the first segment burned its
        // whole transport budget before the transfer gave up.
        assert_eq!(out.latency, 50);
    }

    #[test]
    fn timeout_in_second_segment_charges_completed_plus_budget() {
        // First segment completes (rate 1.0 would, so pick a plan where
        // segment 1 is trivially fast and segment 2 cannot finish): give
        // segment 2 an impossible Support transit.
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(40);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            max_ticks: 2,
            ..ExecutionConfig::default()
        };
        let plan = TransferPlan {
            src: 0,
            dst: 3,
            segments: vec![
                PlannedSegment {
                    core_route: Some(vec![0, 1]),
                    support_route: vec![0, 1],
                    correct_at_end: true,
                },
                PlannedSegment {
                    // Support wanders 2→3→2→3: 3 fibers > max_ticks = 2.
                    core_route: Some(vec![2]),
                    support_route: vec![2, 2, 2],
                    correct_at_end: true,
                },
            ],
        };
        let out = execute_plan(&net, &plan, &config, &mut rng);
        assert!(!out.completed);
        // Segment 1: transport max(2, 1) = 2 == max_ticks (within budget),
        // + 1 EC tick = 3. Segment 2: Support transit 3 > budget 2 →
        // failed, charging the full budget.
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].ticks, 3);
        assert_eq!(out.latency, 3 + 2);
    }

    #[test]
    fn ec_tick_does_not_consume_transport_budget() {
        // A segment whose transport finishes in exactly `max_ticks` and
        // then runs EC must be accepted with ticks = max_ticks + 1 (the
        // historical `ticks > max_ticks` post-EC check rejected it).
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(41);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            max_ticks: 2,
            ..ExecutionConfig::default()
        };
        let plan = TransferPlan {
            src: 0,
            dst: 2,
            segments: vec![PlannedSegment {
                core_route: Some(vec![0, 1]),
                support_route: vec![0, 1], // 2 ticks = max_ticks exactly
                correct_at_end: true,
            }],
        };
        let out = execute_plan(&net, &plan, &config, &mut rng);
        assert!(out.completed, "EC tick must not count against the budget");
        assert_eq!(out.segments[0].ticks, 3); // 2 transport + 1 EC
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn failed_fiber_takes_recovery_path() {
        // Square: 0-1, 1-3, 0-2, 2-3. Route via fiber 0 (0-1) and 1 (1-3);
        // failing fiber 0 must detour 0-2-3-1? No: detour replaces fiber 0
        // (0→1) by 0-2, 2-3, 3-1... but there is no 3-1 fiber; build one.
        let mut net = Network::new();
        let n0 = net.add_node(NodeKind::User, 0);
        let n1 = net.add_node(NodeKind::Switch, 10);
        let n2 = net.add_node(NodeKind::Switch, 10);
        let n3 = net.add_node(NodeKind::User, 0);
        let f01 = net.add_fiber(n0, n1, 0.9, 4, 0.0).unwrap();
        let f13 = net.add_fiber(n1, n3, 0.9, 4, 0.0).unwrap();
        let f02 = net.add_fiber(n0, n2, 0.9, 4, 0.0).unwrap();
        let f21 = net.add_fiber(n2, n1, 0.9, 4, 0.0).unwrap();
        let _ = (f02, f21);
        let failed = vec![true, false, false, false];
        let recovered = recover_route(&net, n0, &[f01, f13], &failed).unwrap();
        assert_eq!(recovered, vec![f02, f21, f13]);
    }

    #[test]
    fn failed_fiber_detours_over_its_parallel_twin() {
        // Two fibers join the same pair; the second is the less noisy one.
        // A detour must judge each twin by its own id, not by the first
        // fiber found between the endpoints.
        let mut net = Network::new();
        let a = net.add_node(NodeKind::User, 0);
        let b = net.add_node(NodeKind::User, 0);
        let f0 = net.add_fiber(a, b, 0.9, 4, 0.0).unwrap();
        let f1 = net.add_fiber(a, b, 0.95, 4, 0.0).unwrap();
        // First twin down: the detour is the second twin.
        assert_eq!(
            recover_route(&net, a, &[f0], &[true, false]),
            Some(vec![f1])
        );
        // Second twin down: the detour is the first twin, although the
        // failed one is cheaper.
        assert_eq!(
            recover_route(&net, a, &[f1], &[false, true]),
            Some(vec![f0])
        );
    }

    #[test]
    fn unrecoverable_failure_aborts() {
        let net = line_net(); // tree: no alternative routes
        let mut rng = SmallRng::seed_from_u64(5);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            fiber_failure_prob: 1.0, // everything down
            ..ExecutionConfig::default()
        };
        let out = execute_plan(&net, &two_segment_plan(), &config, &mut rng);
        assert!(!out.completed);
        // Route failures are detected at segment planning time, before
        // any transport tick elapses: nothing is charged.
        assert_eq!(out.latency, 0);
    }

    #[test]
    fn opportunistic_forwarding_uses_min_advance() {
        // With rate 1.0 all pairs are ready at tick 1: the core jumps the
        // whole 2-fiber route in one tick.
        let mut rng = SmallRng::seed_from_u64(6);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let net = line_net();
        assert_eq!(advance_core(&net, &[0, 1], &config, &mut rng), Some(1));
        // A single-fiber route is allowed to advance with one pair.
        assert_eq!(advance_core(&net, &[0], &config, &mut rng), Some(1));
        // Empty route: nothing to do.
        assert_eq!(advance_core(&net, &[], &config, &mut rng), Some(0));
    }

    #[test]
    fn teleportation_without_purification_is_deterministic() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(7);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            memory_decoherence_rate: 0.0,
            ..ExecutionConfig::default()
        };
        let out = execute_teleportation(&net, &[0, 1, 2], 0, &config, &mut rng);
        assert!(out.completed);
        // No purification: the delivered fidelity is the plain product and
        // one pair per hop arrives per tick at rate 1.0.
        assert!((out.fidelity - 0.9f64.powi(3)).abs() < 1e-12);
        assert_eq!(out.latency, 3);
    }

    #[test]
    fn teleportation_decoheres_while_waiting() {
        let net = line_net();
        let mut rng = SmallRng::seed_from_u64(7);
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            memory_decoherence_rate: 0.01,
            ..ExecutionConfig::default()
        };
        let out = execute_teleportation(&net, &[0, 1, 2], 0, &config, &mut rng);
        assert!(out.completed);
        let want = 0.9f64.powi(3) * 0.99f64.powi(3);
        assert!((out.fidelity - want).abs() < 1e-12);
    }

    #[test]
    fn purification_rounds_improve_pair_fidelity_on_average() {
        // Statistically, successful pumping must deliver at least the
        // plain product and at most the ideal purify_n bound.
        let net = line_net();
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            memory_decoherence_rate: 0.0,
            ..ExecutionConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(17);
        let mut total = 0.0;
        let trials = 300;
        for _ in 0..trials {
            let out = execute_teleportation(&net, &[0, 1, 2], 2, &config, &mut rng);
            assert!(out.completed);
            total += out.fidelity;
        }
        let mean = total / trials as f64;
        assert!(mean > 0.9f64.powi(3), "mean {mean} not above raw product");
        assert!(mean <= purify_n(0.9, 2).powi(3) + 1e-9);
    }

    #[test]
    fn heavy_purification_can_lose_to_decoherence() {
        // The trade-off the paper's Sec. I motivates: distilling more
        // pairs takes longer, and the unencoded message decoheres while it
        // waits. At slow generation rates N=9 ends up *worse* than N=1.
        let net = line_net();
        let config = ExecutionConfig {
            entanglement_rate: 0.3,
            memory_decoherence_rate: 0.01,
            ..ExecutionConfig::default()
        };
        let avg = |n: u32| {
            let mut rng = SmallRng::seed_from_u64(9);
            let mut total = 0.0;
            for _ in 0..200 {
                let out = execute_teleportation(&net, &[0, 1, 2], n, &config, &mut rng);
                assert!(out.completed);
                total += out.fidelity;
            }
            total / 200.0
        };
        assert!(avg(9) < avg(1));
    }

    #[test]
    fn teleportation_latency_grows_with_purification() {
        let net = line_net();
        let config = ExecutionConfig {
            entanglement_rate: 0.5,
            ..ExecutionConfig::default()
        };
        let avg = |n: u32| {
            let mut rng = SmallRng::seed_from_u64(8);
            let mut total = 0u64;
            for _ in 0..100 {
                let out = execute_teleportation(&net, &[0, 1, 2], n, &config, &mut rng);
                assert!(out.completed);
                total += out.latency;
            }
            total as f64 / 100.0
        };
        assert!(avg(9) > avg(1));
    }
}
