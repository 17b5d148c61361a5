//! Streaming discrete-event simulation engine.
//!
//! The tick engines ([`crate::execution::execute_plan`],
//! [`crate::concurrent::execute_concurrently`]) replay one static batch of
//! scheduled transfers, spending one RNG draw per fiber per tick. This
//! module scales the same execution semantics to open workloads on
//! network-scale topologies:
//!
//! * [`EventQueue`] — a binary-heap event queue with
//!   deterministic tie-breaking: events order by `(time, seq)`, where
//!   `seq` is the monotone schedule order, so same-tick events process
//!   FIFO and a seeded run replays byte-for-byte.
//! * [`ArrivalProcess`] — an open Poisson process (geometric inter-arrival
//!   gaps, the discrete-time analog of exponential gaps) or a supplied
//!   trace of timed [`Request`]s.
//! * **Per-link attempt batching** — instead of one Bernoulli draw per
//!   idle fiber per tick, each fiber's first-success time is one geometric
//!   draw ([`execute_plan_event`]); the opportunistic-forwarding walk is
//!   then a deterministic function of those ready times, reproducing the
//!   tick engine's dynamics exactly (and bit-identically at
//!   `entanglement_rate: 1.0`). This sampler is all the event engine adds
//!   to a transfer: recovery, the segment walk and the segment records are
//!   the ones [`crate::execution`] runs for every engine.
//! * **Admission control + backpressure** — a request whose route would
//!   oversubscribe a relay's memory ([`crate::topology::Node::capacity`])
//!   or a fiber's pair pool (`entanglement_capacity`) is deferred up to
//!   [`StreamConfig::max_defers`] times and then dropped, with drops
//!   counted per reason in the `netsim.stream.*` metrics and per blocking
//!   link in the `netsim.stream.link.dropped` family.
//! * **Plan once per request** — a request is routed on arrival by one
//!   [`RouteSearch`] built per run (a bidirectional minimum-noise search
//!   over a flat table of fiber noises, steered by landmark lower bounds
//!   measured once per run), and its deferred re-offers carry that plan
//!   and footprint instead of routing again.
//!
//! Latency and failure accounting follow the unified contract documented
//! on [`ExecutionConfig::max_ticks`] and
//! [`crate::execution::ExecutionOutcome::latency`].

use crate::execution::{
    core_completion, link_key, recover_plan, sample_failures, walk_segments, ExecutionConfig,
    ExecutionOutcome, PlannedSegment, TransferPlan,
};
use crate::request::Request;
use crate::topology::{FiberId, Network, NodeId, NodeKind, RouteSearch};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A binary min-heap of timed events with deterministic tie-breaking:
/// events at equal times pop in schedule (`seq`) order.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Pending events; [`Entry`]'s order makes the max-heap pop the
    /// earliest `(time, seq)` first.
    heap: BinaryHeap<Entry<T>>,
    /// Next sequence number; monotone over the queue's lifetime.
    next_seq: u64,
}

/// One pending event, ordered by *reversed* `(time, seq)`. The keys are
/// unique, so the payload never takes part in a comparison.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at `time`, after every event already scheduled
    /// at that time.
    pub fn push(&mut self, time: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event (ties broken by schedule
    /// order).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

/// How requests enter the open simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Open Poisson-like arrivals: inter-arrival gaps are geometric with
    /// per-tick success probability `rate` (which must lie in `(0, 1]`),
    /// the discrete-time analog of exponential gaps. Endpoints are drawn
    /// uniformly over distinct user pairs, code counts uniformly in
    /// `1..=max_codes_per_request`.
    Poisson {
        /// Expected arrivals per tick (0 < rate ≤ 1).
        rate: f64,
    },
    /// Trace-driven arrivals: explicit `(tick, request)` pairs. Entries
    /// after [`StreamConfig::horizon`] are ignored.
    Trace(Vec<(u64, Request)>),
}

/// Tunables of the streaming engine.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Last tick at which new requests arrive; admitted transfers drain
    /// past it.
    pub horizon: u64,
    /// How many times a blocked request is re-offered before being
    /// dropped.
    pub max_defers: u32,
    /// Ticks between re-offers of a blocked request.
    pub defer_ticks: u64,
    /// Per-transfer execution tunables (shared with the tick engines).
    pub exec: ExecutionConfig,
    /// Poisson arrivals draw code counts in `1..=max_codes_per_request`.
    pub max_codes_per_request: u32,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            arrival: ArrivalProcess::Poisson { rate: 0.2 },
            horizon: 10_000,
            max_defers: 3,
            defer_ticks: 8,
            exec: ExecutionConfig::default(),
            max_codes_per_request: 3,
        }
    }
}

/// Aggregate results of one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Requests that entered the system (deferred re-offers not
    /// recounted).
    pub arrivals: u64,
    /// Requests admitted into execution.
    pub admitted: u64,
    /// Admitted transfers that completed.
    pub completed: u64,
    /// Admitted transfers that timed out in execution.
    pub failed: u64,
    /// Blocked-request re-offers (each deferral counts once).
    pub deferred: u64,
    /// Drops: no route between the endpoints.
    pub dropped_unroutable: u64,
    /// Drops: relay memory saturated after all deferrals.
    pub dropped_capacity: u64,
    /// Drops: fiber pair pools saturated after all deferrals.
    pub dropped_pool: u64,
    /// Tick of the last processed event (the drain time).
    pub end_time: u64,
    /// Per-completed-transfer latencies, in ticks, in completion order.
    pub latencies: Vec<u64>,
}

impl StreamStats {
    /// Total drops across all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_unroutable + self.dropped_capacity + self.dropped_pool
    }

    /// Dropped fraction of all arrivals (0 when nothing arrived).
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.arrivals as f64
        }
    }

    /// Sustained completion rate in requests per second of simulated
    /// time, with one tick ≙ 1 ms (a typical entanglement-attempt cycle).
    /// Derived purely from simulated time, so it is seed-deterministic.
    pub fn requests_per_sec(&self) -> f64 {
        if self.end_time == 0 {
            0.0
        } else {
            self.completed as f64 * 1000.0 / self.end_time as f64
        }
    }

    /// Folds another run's statistics into this one: counters add,
    /// latencies pool, and `end_time` accumulates so that
    /// [`requests_per_sec`](Self::requests_per_sec) of the merged value is
    /// the completion rate over the trials' combined simulated time.
    pub fn merge(&mut self, other: &StreamStats) {
        self.arrivals += other.arrivals;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.deferred += other.deferred;
        self.dropped_unroutable += other.dropped_unroutable;
        self.dropped_capacity += other.dropped_capacity;
        self.dropped_pool += other.dropped_pool;
        self.end_time += other.end_time;
        self.latencies.extend_from_slice(&other.latencies);
    }
}

/// One geometric draw: the first-success tick (≥ 1) of per-tick Bernoulli
/// attempts at probability `p`. `p ≥ 1` succeeds at tick 1 without
/// consuming randomness; `p ≤ 0`, NaN, and any `p` too small for
/// `ln(1 − p)` to differ from 0 (below about 1.1e-16) never succeed
/// (`u64::MAX`).
fn geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    let denom = (1.0 - p).ln();
    if p <= 0.0 || denom.is_nan() || denom == 0.0 {
        return u64::MAX;
    }
    // Inversion on u ∈ (0, 1]: G = ceil(ln u / ln(1-p)), clamped to ≥ 1.
    let u = 1.0 - rng.gen::<f64>();
    let g = (u.ln() / denom).ceil();
    if g < 1.0 {
        1
    } else if g >= 1e18 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Executes one transfer plan with event-driven (batched) entanglement
/// sampling: one geometric draw per core-route fiber instead of one
/// Bernoulli per tick.
///
/// Semantically equivalent to [`crate::execution::execute_plan`] — same
/// per-segment `max_ticks` transport budget (EC ticks exempt), same
/// failure-latency charging, same fiber-failure recovery, as both engines
/// run the same recovery and segment walk — and *identical* in outcome at
/// `entanglement_rate: 1.0`, where both engines finish every Core walk at
/// tick 1 (the cross-engine agreement matrix pins this). At other rates
/// the latency distributions match but individual draws differ (the RNG
/// streams are consumed differently).
///
/// # Panics
///
/// Panics if a route references a fiber outside `net` or the plan's
/// segments are empty.
pub fn execute_plan_event<R: Rng + ?Sized>(
    net: &Network,
    plan: &TransferPlan,
    config: &ExecutionConfig,
    rng: &mut R,
) -> ExecutionOutcome {
    let failed = sample_failures(net, config.fiber_failure_prob, rng);
    let plan = recover_plan(net, plan, &failed);
    let mut attempts_proxy = 0u64;
    let outcome = walk_segments(net, &plan, config, |route| {
        // Batched link sampling: one geometric first-success draw per
        // fiber replaces per-tick Bernoulli attempts.
        let ready: Vec<u64> = route
            .iter()
            .map(|_| geometric(rng, config.entanglement_rate))
            .collect();
        attempts_proxy += ready.iter().map(|&g| g.min(config.max_ticks)).sum::<u64>();
        core_completion(&ready, config.max_ticks)
    });
    // Each geometric draw stands in for that many per-tick attempts on
    // one fiber, capped at the budget — the same quantity the tick
    // engines tally per attempt.
    surfnet_telemetry::count!("netsim.entanglement_attempts", attempts_proxy);
    outcome
}

/// Plans a request SurfNet-style: the minimum-noise route, split into
/// segments at each intermediate server (where error correction runs).
///
/// Returns `None` for unroutable endpoint pairs and for `src == dst`, which
/// [`Request::new`] rejects but a hand-built trace [`Request`] can carry;
/// [`simulate`] counts either under `dropped_unroutable`.
///
/// One call answers one query, so it routes on the reference
/// [`Network::min_noise_path`] and builds no [`RouteSearch`], whose landmark
/// passes pay off only over many queries. [`simulate`] builds one search per
/// run and splits each route it returns the same way. Where the
/// minimum-noise route is unique, as on graphs with continuous fidelities,
/// the two give the same plan.
pub fn plan_request(net: &Network, request: &Request) -> Option<TransferPlan> {
    plan_by(net, request, &net.min_noise_path(request.src, request.dst)?)
}

/// Splits `request`'s route into segments, each ending at a server or at
/// `request.dst`; `None` for the empty route, which only `src == dst` has.
fn plan_by(net: &Network, request: &Request, route: &[FiberId]) -> Option<TransferPlan> {
    if route.is_empty() {
        return None;
    }
    let mut segments = Vec::new();
    let mut seg_fibers: Vec<FiberId> = Vec::new();
    let mut reached = request.src;
    for (i, &f) in route.iter().enumerate() {
        seg_fibers.push(f);
        reached = net.fiber(f).other(reached);
        let last = i + 1 == route.len();
        let at_server = net.node(reached).kind == NodeKind::Server;
        if last || at_server {
            segments.push(PlannedSegment {
                core_route: Some(seg_fibers.clone()),
                support_route: seg_fibers.clone(),
                correct_at_end: at_server,
            });
            seg_fibers.clear();
        }
    }
    Some(TransferPlan {
        src: request.src,
        dst: request.dst,
        segments,
    })
}

/// The memory/pool footprint of an admitted transfer: `num_codes` slots
/// on each distinct relay its routes visit, and `num_codes` pairs of
/// headroom on each distinct core-route fiber, each list in order of first
/// visit (the first saturated fiber is the one a pool drop charges).
struct Footprint {
    nodes: Vec<NodeId>,
    fibers: Vec<FiberId>,
    weight: u32,
}

/// Walks each segment once. A route visits a handful of relays and fibers,
/// so a linear `contains` finds repeats without network-sized scratch.
fn footprint(net: &Network, plan: &TransferPlan, weight: u32) -> Footprint {
    fn push_new<T: PartialEq>(list: &mut Vec<T>, x: T) {
        if !list.contains(&x) {
            list.push(x);
        }
    }
    let mut nodes = Vec::new();
    let mut fibers = Vec::new();
    let mut cursor = plan.src;
    if net.node(cursor).kind.is_relay() {
        nodes.push(cursor);
    }
    for seg in &plan.segments {
        for &f in &seg.support_route {
            cursor = net.fiber(f).other(cursor);
            if net.node(cursor).kind.is_relay() {
                push_new(&mut nodes, cursor);
            }
        }
        for &f in seg.core_route.iter().flatten() {
            push_new(&mut fibers, f);
        }
    }
    Footprint {
        nodes,
        fibers,
        weight,
    }
}

/// A routed request awaiting admission. It is planned once, on arrival,
/// and every re-offer reuses the plan: the network cannot change during a
/// run and planning draws no randomness, so routing again would give the
/// same plan.
struct Planned {
    plan: TransferPlan,
    footprint: Footprint,
}

/// An event in the streaming simulation.
enum Ev {
    /// The next open-process arrival; the request is sampled on pop so
    /// RNG consumption follows event order.
    Arrival,
    /// A trace entry arriving.
    Trace(Request),
    /// A deferred re-offer of a blocked request.
    Offer {
        /// The request's plan and footprint from its arrival.
        planned: Planned,
        /// How many times it has been deferred already.
        defers: u32,
    },
    /// An admitted transfer leaving the network.
    Departure {
        /// Index into the active-transfer table.
        id: usize,
    },
}

/// An admitted transfer awaiting departure.
struct Active {
    footprint: Footprint,
    completed: bool,
    latency: u64,
}

/// The mutable state of one [`simulate`] run.
struct Run {
    queue: EventQueue<Ev>,
    /// Memory slots and pair-pool units held on each node and fiber.
    node_in_use: Vec<u32>,
    fiber_in_use: Vec<u32>,
    /// Per-link drop tallies for the dim family; sized zero with telemetry
    /// off so the admission path skips the bookkeeping.
    link_drops: Vec<u64>,
    active: Vec<Active>,
    stats: StreamStats,
}

impl Run {
    /// Handles one admission offer of a planned request: check capacity,
    /// defer/drop/admit.
    fn offer<R: Rng + ?Sized>(
        &mut self,
        net: &Network,
        config: &StreamConfig,
        rng: &mut R,
        now: u64,
        planned: Planned,
        defers: u32,
    ) {
        let fp = &planned.footprint;
        // First saturated resource decides the blocking reason: relay
        // memory before fiber pools (memory admits fewer concurrent codes
        // and is the paper's primary capacity constraint).
        let blocked_node = fp
            .nodes
            .iter()
            .copied()
            .find(|&v| self.node_in_use[v] + fp.weight > net.node(v).capacity);
        let blocked_fiber = fp
            .fibers
            .iter()
            .copied()
            .find(|&f| self.fiber_in_use[f] + fp.weight > net.fiber(f).entanglement_capacity);
        if blocked_node.is_some() || blocked_fiber.is_some() {
            if defers < config.max_defers {
                self.stats.deferred += 1;
                self.queue.push(
                    now + config.defer_ticks.max(1),
                    Ev::Offer {
                        planned,
                        defers: defers + 1,
                    },
                );
            } else if blocked_node.is_some() {
                self.stats.dropped_capacity += 1;
            } else {
                self.stats.dropped_pool += 1;
                if let Some(f) = blocked_fiber {
                    if !self.link_drops.is_empty() {
                        self.link_drops[f] += 1;
                    }
                }
            }
            return;
        }
        // Admit: reserve the footprint and execute event-analytically.
        for &v in &fp.nodes {
            self.node_in_use[v] += fp.weight;
        }
        for &f in &fp.fibers {
            self.fiber_in_use[f] += fp.weight;
        }
        self.stats.admitted += 1;
        let outcome = execute_plan_event(net, &planned.plan, &config.exec, rng);
        let id = self.active.len();
        self.active.push(Active {
            footprint: planned.footprint,
            completed: outcome.completed,
            latency: outcome.latency,
        });
        // Resources are held for the transfer's whole dwell time (failed
        // transfers still occupied the network while they tried).
        self.queue
            .push(now + outcome.latency.max(1), Ev::Departure { id });
    }

    /// Releases transfer `id`'s footprint and records its outcome.
    fn depart(&mut self, id: usize) {
        let t = &self.active[id];
        for &v in &t.footprint.nodes {
            self.node_in_use[v] -= t.footprint.weight;
        }
        for &f in &t.footprint.fibers {
            self.fiber_in_use[f] -= t.footprint.weight;
        }
        if t.completed {
            self.stats.completed += 1;
            self.stats.latencies.push(t.latency);
        } else {
            self.stats.failed += 1;
        }
    }
}

/// Runs the streaming simulation: arrivals from `config.arrival` until
/// [`StreamConfig::horizon`], admission control against relay memory and
/// fiber pools, per-transfer execution via [`execute_plan_event`], and a
/// drain phase until the last admitted transfer departs.
///
/// Every `netsim.stream.*` counter and the per-link drop family are
/// recorded once at the end of the run (cheap and deterministic).
///
/// # Panics
///
/// Panics if a Poisson process is configured on a network with fewer than
/// two users, or with a rate outside `(0, 1]` (NaN included).
pub fn simulate<R: Rng + ?Sized>(net: &Network, config: &StreamConfig, rng: &mut R) -> StreamStats {
    let _span = surfnet_telemetry::span!("netsim.stream.simulate");
    let users = net.users();
    let poisson_rate = match &config.arrival {
        ArrivalProcess::Poisson { rate } => {
            assert!(users.len() >= 2, "Poisson arrivals need at least two users");
            assert!(
                *rate > 0.0 && *rate <= 1.0,
                "Poisson arrival rate {rate} outside (0, 1]"
            );
            Some(*rate)
        }
        ArrivalProcess::Trace(_) => None,
    };

    let mut run = Run {
        queue: EventQueue::new(),
        node_in_use: vec![0; net.num_nodes()],
        fiber_in_use: vec![0; net.num_fibers()],
        link_drops: vec![
            0;
            if surfnet_telemetry::enabled() {
                net.num_fibers()
            } else {
                0
            }
        ],
        active: Vec::new(),
        stats: StreamStats {
            arrivals: 0,
            admitted: 0,
            completed: 0,
            failed: 0,
            deferred: 0,
            dropped_unroutable: 0,
            dropped_capacity: 0,
            dropped_pool: 0,
            end_time: 0,
            latencies: Vec::new(),
        },
    };
    if let Some(rate) = poisson_rate {
        let gap = geometric(rng, rate);
        if gap <= config.horizon {
            run.queue.push(gap, Ev::Arrival);
        }
    } else if let ArrivalProcess::Trace(entries) = &config.arrival {
        for (t, request) in entries {
            if *t <= config.horizon {
                run.queue.push(*t, Ev::Trace(*request));
            }
        }
    }
    // Built once per run: it reads each fiber's `μ = ln(1/γ)` once and
    // measures every node's distance to its landmarks.
    let mut search = RouteSearch::new(net);

    while let Some((now, ev)) = run.queue.pop() {
        run.stats.end_time = run.stats.end_time.max(now);
        let request = match ev {
            Ev::Arrival => {
                // Only the Poisson init path schedules `Arrival` events.
                let rate = poisson_rate.unwrap_or(1.0);
                let gap = geometric(rng, rate);
                if now.saturating_add(gap) <= config.horizon {
                    run.queue.push(now + gap, Ev::Arrival);
                }
                let src = users[rng.gen_range(0..users.len())];
                let dst = loop {
                    let d = users[rng.gen_range(0..users.len())];
                    if d != src {
                        break d;
                    }
                };
                Request::new(src, dst, rng.gen_range(1..=config.max_codes_per_request))
            }
            Ev::Trace(request) => request,
            Ev::Offer { planned, defers } => {
                run.offer(net, config, rng, now, planned, defers);
                continue;
            }
            Ev::Departure { id } => {
                run.depart(id);
                continue;
            }
        };
        run.stats.arrivals += 1;
        let Some(plan) = search
            .path(request.src, request.dst)
            .and_then(|route| plan_by(net, &request, &route))
        else {
            run.stats.dropped_unroutable += 1;
            continue;
        };
        let footprint = footprint(net, &plan, request.num_codes);
        run.offer(net, config, rng, now, Planned { plan, footprint }, 0);
    }

    let Run {
        link_drops, stats, ..
    } = run;
    surfnet_telemetry::count!("netsim.stream.arrivals", stats.arrivals);
    surfnet_telemetry::count!("netsim.stream.admitted", stats.admitted);
    surfnet_telemetry::count!("netsim.stream.completed", stats.completed);
    surfnet_telemetry::count!("netsim.stream.failed", stats.failed);
    surfnet_telemetry::count!("netsim.stream.deferred", stats.deferred);
    surfnet_telemetry::count!("netsim.stream.dropped.unroutable", stats.dropped_unroutable);
    surfnet_telemetry::count!("netsim.stream.dropped.capacity", stats.dropped_capacity);
    surfnet_telemetry::count!("netsim.stream.dropped.pool", stats.dropped_pool);
    surfnet_telemetry::count!("netsim.stream.plan.settled", search.settled());
    if !link_drops.is_empty() {
        let fam = surfnet_telemetry::family!("netsim.stream.link.dropped");
        for (f, &n) in link_drops.iter().enumerate() {
            if n > 0 {
                fam.add(link_key(net, f), n);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::execute_plan;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn queue_orders_by_time_then_schedule_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(5, "e");
        q.push(1, "a1");
        q.push(3, "c");
        q.push(1, "a2");
        q.push(2, "b");
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(1, "a1"), (1, "a2"), (2, "b"), (3, "c"), (5, "e")]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn geometric_is_deterministic_at_the_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(geometric(&mut rng, 1.0), 1);
        assert_eq!(geometric(&mut rng, 1.5), 1);
        assert_eq!(geometric(&mut rng, 0.0), u64::MAX);
        // ln(1 - p) rounds to 0 below about 1.1e-16, and is NaN for NaN:
        // neither may turn into the fastest gap or a gap of 0.
        for p in [1e-17, f64::MIN_POSITIVE, f64::NAN] {
            assert_eq!(geometric(&mut rng, p), u64::MAX, "p = {p:e}");
        }
        for _ in 0..100 {
            let g = geometric(&mut rng, 0.4);
            assert!(g >= 1);
        }
    }

    #[test]
    fn geometric_mean_matches_inverse_rate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 20_000;
        let p = 0.25;
        let total: u64 = (0..n).map(|_| geometric(&mut rng, p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.0 / p).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn core_completion_matches_tick_walk() {
        // MIN_ADVANCE 2: fibers ready at [1, 1] jump at tick 1.
        assert_eq!(core_completion(&[1, 1], 100), Some(1));
        // [1, 1, 5, 5]: jump 2 at tick 1, jump 2 at tick 5.
        assert_eq!(core_completion(&[1, 1, 5, 5], 100), Some(5));
        // [4, 2, 3]: first jump needs max(4, 2) = 4, run extends to all.
        assert_eq!(core_completion(&[4, 2, 3], 100), Some(4));
        // Last fiber alone needs only itself (remaining < MIN_ADVANCE).
        assert_eq!(core_completion(&[1, 1, 7], 100), Some(7));
        // Timeout.
        assert_eq!(core_completion(&[1, 101], 100), None);
        // Empty route: free.
        assert_eq!(core_completion(&[], 100), Some(0));
    }

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

    #[test]
    fn planner_splits_at_servers() {
        let net = line_net();
        let plan = plan_request(&net, &Request::new(0, 3, 1)).unwrap();
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0].support_route, vec![0, 1]);
        assert!(plan.segments[0].correct_at_end);
        assert_eq!(plan.segments[1].support_route, vec![2]);
        assert!(!plan.segments[1].correct_at_end);
        // A hand-built request to itself has no route to split.
        let to_itself = Request {
            src: 3,
            dst: 3,
            num_codes: 1,
        };
        assert_eq!(plan_request(&net, &to_itself), None);
    }

    #[test]
    fn event_executor_matches_tick_executor_at_rate_one() {
        let net = line_net();
        let plan = plan_request(&net, &Request::new(0, 3, 1)).unwrap();
        let config = ExecutionConfig {
            entanglement_rate: 1.0,
            ..ExecutionConfig::default()
        };
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(8);
        let tick = execute_plan(&net, &plan, &config, &mut rng_a);
        let event = execute_plan_event(&net, &plan, &config, &mut rng_b);
        assert_eq!(tick, event);
    }

    #[test]
    fn stream_run_is_deterministic_and_conserves_requests() {
        let net = line_net();
        let config = StreamConfig {
            arrival: ArrivalProcess::Poisson { rate: 0.5 },
            horizon: 500,
            max_codes_per_request: 2,
            ..StreamConfig::default()
        };
        let run = || {
            let mut rng = SmallRng::seed_from_u64(9);
            simulate(&net, &config, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded stream runs must replay identically");
        assert!(a.arrivals > 0);
        // Conservation: every arrival is admitted or dropped; every
        // admitted transfer completes or fails.
        assert_eq!(a.arrivals, a.admitted + a.dropped());
        assert_eq!(a.admitted, a.completed + a.failed);
        assert_eq!(a.completed as usize, a.latencies.len());
    }

    #[test]
    fn poisson_rate_outside_unit_interval_is_rejected() {
        // A rate above 1 cannot be a per-tick arrival probability, and 0 or
        // NaN would yield no arrivals: running any of them would report
        // results for a rate the run did not use.
        let net = line_net();
        for rate in [2.0, 1e300, 0.0, -1.0, f64::NAN] {
            let config = StreamConfig {
                arrival: ArrivalProcess::Poisson { rate },
                horizon: 10,
                ..StreamConfig::default()
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simulate(&net, &config, &mut SmallRng::seed_from_u64(13))
            }));
            assert!(run.is_err(), "rate {rate} was accepted");
        }
    }

    #[test]
    fn saturation_produces_pool_drops_and_backpressure() {
        // One-pair pools and zero deferral headroom: concurrent requests
        // over the same 3-fiber line must shed load.
        let mut net = Network::new();
        let u0 = net.add_node(NodeKind::User, 0);
        let s1 = net.add_node(NodeKind::Switch, 1);
        let u2 = net.add_node(NodeKind::User, 0);
        net.add_fiber(u0, s1, 0.95, 1, 0.0).unwrap();
        net.add_fiber(s1, u2, 0.95, 1, 0.0).unwrap();
        let config = StreamConfig {
            arrival: ArrivalProcess::Poisson { rate: 1.0 },
            horizon: 400,
            max_defers: 1,
            defer_ticks: 2,
            exec: ExecutionConfig {
                entanglement_rate: 0.05, // slow transfers hog the pools
                ..ExecutionConfig::default()
            },
            max_codes_per_request: 1,
        };
        let mut rng = SmallRng::seed_from_u64(10);
        let stats = simulate(&net, &config, &mut rng);
        assert!(stats.admitted > 0, "some requests must get through");
        assert!(
            stats.dropped_capacity + stats.dropped_pool > 0,
            "saturated network must drop: {stats:?}"
        );
        assert!(stats.deferred > 0, "backpressure must defer first");
    }

    #[test]
    fn trace_arrivals_replay_exactly() {
        let net = line_net();
        let trace = vec![
            (5, Request::new(0, 3, 1)),
            (5, Request::new(3, 0, 1)),
            (900, Request::new(0, 3, 2)),
        ];
        let config = StreamConfig {
            arrival: ArrivalProcess::Trace(trace),
            horizon: 1000,
            ..StreamConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let stats = simulate(&net, &config, &mut rng);
        assert_eq!(stats.arrivals, 3);
        assert_eq!(stats.admitted + stats.dropped(), 3);
    }

    #[test]
    fn trace_request_to_itself_is_dropped_as_unroutable() {
        // `Request::new` rejects equal endpoints, but a trace entry built
        // from the public fields gets through.
        let net = line_net();
        let config = StreamConfig {
            arrival: ArrivalProcess::Trace(vec![(
                1,
                Request {
                    src: 0,
                    dst: 0,
                    num_codes: 1,
                },
            )]),
            horizon: 10,
            ..StreamConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(12);
        let stats = simulate(&net, &config, &mut rng);
        assert_eq!(stats.arrivals, 1);
        assert_eq!(stats.dropped_unroutable, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn percentiles_interpolate_inclusively() {
        let stats = StreamStats {
            arrivals: 4,
            admitted: 4,
            completed: 4,
            failed: 0,
            deferred: 0,
            dropped_unroutable: 0,
            dropped_capacity: 0,
            dropped_pool: 0,
            end_time: 100,
            latencies: vec![10, 20, 30, 40],
        };
        assert_eq!(stats.requests_per_sec(), 40.0);
        assert_eq!(stats.drop_rate(), 0.0);
    }
}
