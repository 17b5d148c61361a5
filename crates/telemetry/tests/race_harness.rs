//! Deterministic interleaving race harness for the telemetry shard
//! pipeline.
//!
//! The aggregate layer's correctness argument is "thread-local shards
//! merge into the global atomics exactly once, no matter how recording,
//! explicit [`surfnet_telemetry::flush`] calls, and thread exits
//! interleave". Losing that argument is silent — counters just come out
//! low — so this harness *drives* the interleavings instead of hoping a
//! stress test stumbles into them:
//!
//! * [`interleaved_schedules_preserve_exact_totals`] steps four workers
//!   through a seeded permutation schedule (a turnstile: exactly one
//!   worker acts per step, in schedule order), mixing shard records with
//!   mid-stream flushes, and demands the post-join snapshot equal the sum
//!   computed in plain code. Every seed exercises `WORKERS * ROUNDS`
//!   scheduled interleaving points.
//! * [`interleaved_schedules_preserve_exact_labeled_totals`] drives the
//!   same turnstile through a `dim` labeled counter family (one label per
//!   worker), so the label-shard merge path obeys the identical
//!   conservation bar: per-label totals exact, snapshot order stable,
//!   same seed → byte-identical labeled snapshot.
//! * [`missing_scoped_flush_loses_shards_deterministically`] reproduces
//!   the historical scoped-thread shard-loss bug on purpose:
//!   `std::thread::scope` unblocks when the closures return, *before* TLS
//!   destructors merge the shards. The harness parks every destructor
//!   merge on a gate (via `set_shard_drop_hook`), so the snapshot taken
//!   "after the scope joined" deterministically misses exactly the
//!   contributions of workers spawned raw instead of through
//!   `surfnet_telemetry::spawn_scoped` — and finds them again
//!   (conservation) once the gate releases. If a future refactor
//!   re-introduces the bug in the helper, the guarded twin
//!   [`scoped_flush_guard_restores_exact_totals`] fails.
//!
//! Every guarded worker spawns through `spawn_scoped`, the production
//! helper, so the harness tests the flush it performs. Each schedule test
//! drives [`SEEDS`] seeds. Telemetry state is process-global, so every
//! test here runs under one lock.

use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use surfnet_telemetry::dim::LabelKey;
use surfnet_telemetry::{self as telemetry, Telemetry};

/// The catalog counter every flat-counter run records into.
const COUNTER: &str = "lp.pivots";
/// The catalog family the labeled runs record into.
const FAMILY: &str = "netsim.link.attempts";

/// Worker threads per schedule.
const WORKERS: usize = 4;
/// Scheduled steps per worker per seed (so `WORKERS * ROUNDS` = 256
/// interleaving points per seed).
const ROUNDS: usize = 64;
/// Seeds each schedule test drives (about 0.1 s for the whole harness on
/// 2 cores).
const SEEDS: u64 = 12;
/// Hard deadline on any wait inside the harness: a scheduling bug must
/// fail the test, not hang CI.
const DEADLINE: Duration = Duration::from_secs(30);

/// Serializes harness tests: telemetry state is process-global.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Seeding.

/// The seeds every schedule test drives.
fn seeds() -> Vec<u64> {
    // Spread the seeds out by a prime stride.
    (0..SEEDS).map(|i| 0x5EED_0001 + i * 7919).collect()
}

/// `xorshift64*`-style mixer: deterministic, dependency-free, and good
/// enough to decorrelate (seed, round, worker) triples.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        XorShift64(mix(seed).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

// ---------------------------------------------------------------------------
// Turnstile schedules.

/// One scheduled action: `worker` records `amount`, then (maybe) flushes
/// its shard mid-stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Step {
    worker: usize,
    amount: u64,
    flush: bool,
}

/// Builds the per-seed schedule: `ROUNDS` seeded permutations of the
/// workers, each step carrying a seeded amount and a seeded mid-stream
/// flush decision. Pure function of the seed.
fn build_schedule(seed: u64) -> Vec<Step> {
    let mut rng = XorShift64::new(seed);
    let mut steps = Vec::with_capacity(WORKERS * ROUNDS);
    for _ in 0..ROUNDS {
        // Fisher-Yates permutation of the workers for this round.
        let mut order: Vec<usize> = (0..WORKERS).collect();
        for i in (1..WORKERS).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for worker in order {
            steps.push(Step {
                worker,
                amount: rng.next() % 7 + 1,
                flush: rng.next().is_multiple_of(3),
            });
        }
    }
    steps
}

/// Executes the steps in schedule order: exactly one worker acts at a
/// time, and which one is the schedule's choice, not the OS scheduler's.
struct Turnstile {
    steps: Vec<Step>,
    /// (cursor into `steps`, log of worker ids in execution order).
    state: Mutex<(usize, Vec<usize>)>,
    turn: Condvar,
}

impl Turnstile {
    fn new(steps: Vec<Step>) -> Turnstile {
        Turnstile {
            state: Mutex::new((0, Vec::new())),
            steps,
            turn: Condvar::new(),
        }
    }

    /// Blocks until the schedule points at `worker`, returning the step
    /// index to execute — or `None` once the schedule is exhausted.
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline bounds the wait; no total depends on the clock"
    )]
    fn claim(&self, worker: usize) -> Option<usize> {
        let deadline = Instant::now() + DEADLINE;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let cursor = state.0;
            if cursor == self.steps.len() {
                return None;
            }
            if self.steps[cursor].worker == worker {
                return Some(cursor);
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            assert!(!timeout.is_zero(), "turnstile stalled at step {cursor}");
            let (next, _) = self
                .turn
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    /// Marks the current step done and hands the turnstile to the next
    /// scheduled worker.
    fn advance(&self, worker: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.1.push(worker);
        state.0 += 1;
        self.turn.notify_all();
    }

    fn executed(&self) -> Vec<usize> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1
            .clone()
    }
}

/// Runs one seeded schedule to completion and returns
/// `(observed_total, executed_worker_order)`. Every worker spawns through
/// the flushing helper, so the total must be exact for *every* seed.
fn run_schedule(seed: u64) -> (u64, Vec<usize>) {
    telemetry::reset();
    let _t = Telemetry::enabled();
    let turnstile = Arc::new(Turnstile::new(build_schedule(seed)));
    std::thread::scope(|s| {
        for worker in 0..WORKERS {
            let turnstile = Arc::clone(&turnstile);
            telemetry::spawn_scoped(s, move || {
                while let Some(i) = turnstile.claim(worker) {
                    let step = &turnstile.steps[i];
                    telemetry::count!(COUNTER, step.amount);
                    if step.flush {
                        telemetry::flush();
                    }
                    turnstile.advance(worker);
                }
            });
        }
    });
    let total = telemetry::snapshot().counter(COUNTER).unwrap_or(0);
    let _t = Telemetry::disabled();
    (total, turnstile.executed())
}

/// The labeled twin of [`run_schedule`]: every step records into a `dim`
/// counter family under the acting worker's `Node` label, so per-label
/// conservation is checked through the same scheduled interleavings.
/// Returns `(labeled_snapshot, executed_worker_order)`.
fn run_labeled_schedule(seed: u64) -> (Vec<(String, u64)>, Vec<usize>) {
    telemetry::reset();
    let _t = Telemetry::enabled();
    let turnstile = Arc::new(Turnstile::new(build_schedule(seed)));
    std::thread::scope(|s| {
        for worker in 0..WORKERS {
            let turnstile = Arc::clone(&turnstile);
            telemetry::spawn_scoped(s, move || {
                let fam = telemetry::family!(FAMILY);
                while let Some(i) = turnstile.claim(worker) {
                    let step = &turnstile.steps[i];
                    fam.add(LabelKey::Node(worker as u32), step.amount);
                    if step.flush {
                        telemetry::flush();
                    }
                    turnstile.advance(worker);
                }
            });
        }
    });
    let snap = telemetry::snapshot();
    let labels = snap
        .group(FAMILY)
        .map(|f| {
            f.labels
                .iter()
                .map(|l| (l.label.clone(), l.value))
                .collect()
        })
        .unwrap_or_default();
    let _t = Telemetry::disabled();
    (labels, turnstile.executed())
}

// ---------------------------------------------------------------------------
// The scoped-thread loss window.

/// Gate parking TLS-destructor shard merges at a deterministic point.
struct Gate {
    /// (threads currently parked, released flag).
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    /// Called from the shard-drop hook: registers as parked, then blocks
    /// until [`Gate::release`].
    fn hold(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.0 += 1;
        self.cv.notify_all();
        while !state.1 {
            state = self
                .cv
                .wait_timeout(state, DEADLINE)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Blocks until `n` threads are parked on the gate.
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline bounds the wait; no total depends on the clock"
    )]
    fn await_parked(&self, n: usize) {
        let deadline = Instant::now() + DEADLINE;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.0 < n {
            let timeout = deadline.saturating_duration_since(Instant::now());
            assert!(
                !timeout.is_zero(),
                "only {} of {n} shard drops reached the gate",
                state.0
            );
            state = self
                .cv
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.1 = true;
        self.cv.notify_all();
    }
}

/// The seeded set of workers that spawn through the flushing helper.
/// Always a strict, non-empty subset in loss mode, so both the
/// observed-at-join value and the loss are nonzero and seed-dependent.
fn flushers_for(seed: u64) -> BTreeSet<usize> {
    let mut flushers: BTreeSet<usize> = (0..WORKERS)
        .filter(|&w| mix(seed ^ (w as u64) << 32) % 2 == 1)
        .collect();
    if flushers.is_empty() {
        flushers.insert((mix(seed) % WORKERS as u64) as usize);
    }
    if flushers.len() == WORKERS {
        let evict = (mix(seed ^ 0xF00D) % WORKERS as u64) as usize;
        flushers.remove(&evict);
    }
    flushers
}

/// Per-worker contribution for the loss-window run: seed-dependent and
/// distinct per worker, so a wrong merge shows up as a wrong sum.
fn contribution(seed: u64, worker: usize) -> u64 {
    mix(seed ^ worker as u64) % 1000 + (worker as u64 + 1) * 1000
}

/// What the loss-window run saw.
struct LossReport {
    /// Counter value visible right after `thread::scope` returned, with
    /// every TLS-destructor merge provably parked.
    observed_at_join: u64,
    /// Sum every worker recorded.
    expected: u64,
    /// Counter value after the gate released and all merges landed.
    after_release: u64,
}

/// Runs the scoped-thread loss window: workers record under
/// `thread::scope`, only `flushers` spawn through the flushing helper, and
/// every TLS-destructor merge is parked on a gate so the post-join
/// snapshot is taken at a deterministic point inside the historical race
/// window.
fn run_loss_window(seed: u64, flushers: &BTreeSet<usize>) -> LossReport {
    telemetry::reset();
    let _t = Telemetry::enabled();
    let gate = Arc::new(Gate::new());
    let hook_gate = Arc::clone(&gate);
    telemetry::set_shard_drop_hook(Some(Arc::new(move || hook_gate.hold())));

    let expected: u64 = (0..WORKERS).map(|w| contribution(seed, w)).sum();
    std::thread::scope(|s| {
        for worker in 0..WORKERS {
            let record = move || telemetry::count!(COUNTER, contribution(seed, worker));
            if flushers.contains(&worker) {
                telemetry::spawn_scoped(s, record);
            } else {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "deliberately unflushed: reproduces the shard-loss window the test asserts"
                )]
                s.spawn(record);
            }
        }
    });
    // The scope has joined, yet all four destructor merges are parked:
    // this is exactly the window the flushing helper exists to close.
    gate.await_parked(WORKERS);
    let observed_at_join = telemetry::snapshot().counter(COUNTER).unwrap_or(0);

    gate.release();
    #[expect(
        clippy::disallowed_methods,
        reason = "a deadline bounds the wait for released merges; no total depends on the clock"
    )]
    let after_release = {
        let deadline = Instant::now() + DEADLINE;
        loop {
            let total = telemetry::snapshot().counter(COUNTER).unwrap_or(0);
            if total == expected || Instant::now() > deadline {
                break total;
            }
            std::thread::yield_now();
        }
    };
    telemetry::set_shard_drop_hook(None);
    let _t = Telemetry::disabled();
    LossReport {
        observed_at_join,
        expected,
        after_release,
    }
}

// ---------------------------------------------------------------------------
// Tests.

#[test]
fn interleaved_schedules_preserve_exact_totals() {
    let _guard = guard();
    for seed in seeds() {
        let schedule = build_schedule(seed);
        let expected: u64 = schedule.iter().map(|s| s.amount).sum();
        let scheduled: Vec<usize> = schedule.iter().map(|s| s.worker).collect();
        let (total, executed) = run_schedule(seed);
        assert_eq!(
            total, expected,
            "seed {seed:#x}: shard pipeline lost or duplicated counts"
        );
        assert_eq!(
            executed, scheduled,
            "seed {seed:#x}: turnstile deviated from its schedule"
        );
    }
}

#[test]
fn same_seed_reproduces_identical_interleaving() {
    let _guard = guard();
    let seed = 0x5EED_CAFE;
    assert_eq!(build_schedule(seed), build_schedule(seed));
    assert_ne!(
        build_schedule(seed),
        build_schedule(seed + 1),
        "adjacent seeds should drive different schedules"
    );
    let first = run_schedule(seed);
    let second = run_schedule(seed);
    assert_eq!(first, second, "one seed must replay one interleaving");
}

#[test]
fn interleaved_schedules_preserve_exact_labeled_totals() {
    let _guard = guard();
    for seed in seeds() {
        let schedule = build_schedule(seed);
        let mut per_worker = [0u64; WORKERS];
        for s in &schedule {
            per_worker[s.worker] += s.amount;
        }
        // Labels come out sorted by encoded key — `n0..n3` — independent
        // of which worker's shard merged first.
        let want: Vec<(String, u64)> = per_worker
            .iter()
            .enumerate()
            .map(|(w, &v)| (format!("n{w}"), v))
            .collect();
        let scheduled: Vec<usize> = schedule.iter().map(|s| s.worker).collect();
        let (labels, executed) = run_labeled_schedule(seed);
        assert_eq!(
            labels, want,
            "seed {seed:#x}: label-shard merge lost, duplicated, or misattributed counts"
        );
        assert_eq!(
            executed, scheduled,
            "seed {seed:#x}: turnstile deviated from its schedule"
        );
    }
}

#[test]
fn same_seed_replays_identical_labeled_snapshot() {
    let _guard = guard();
    let seed = 0x5EED_D1E5;
    let first = run_labeled_schedule(seed);
    let second = run_labeled_schedule(seed);
    assert_eq!(
        first, second,
        "one seed must replay one labeled interleaving, byte for byte"
    );
}

#[test]
fn missing_scoped_flush_loses_shards_deterministically() {
    let _guard = guard();
    for seed in seeds() {
        let flushers = flushers_for(seed);
        let predicted: u64 = flushers.iter().map(|&w| contribution(seed, w)).sum();
        let report = run_loss_window(seed, &flushers);
        // Only the guarded workers' contributions are visible at the join
        // point — the exact historical symptom, reproduced on demand.
        assert_eq!(
            report.observed_at_join, predicted,
            "seed {seed:#x}: join-point snapshot disagrees with the flusher set {flushers:?}"
        );
        let loss = report.expected - report.observed_at_join;
        assert!(
            loss > 0,
            "seed {seed:#x}: removing the flush guard must lose counts in the window"
        );
        // Conservation: the window delays merges, it never destroys them.
        assert_eq!(
            report.after_release, report.expected,
            "seed {seed:#x}: counts were permanently lost, not just delayed"
        );
    }
}

#[test]
fn scoped_flush_guard_restores_exact_totals() {
    let _guard = guard();
    for seed in seeds() {
        // Same machinery, every worker spawned through the flushing
        // helper: the join-point snapshot is already exact. This is the
        // regression guard for the flush `spawn_scoped` performs.
        let all: BTreeSet<usize> = (0..WORKERS).collect();
        let report = run_loss_window(seed, &all);
        assert_eq!(
            report.observed_at_join, report.expected,
            "seed {seed:#x}: guarded workers must be fully merged at scope join"
        );
        assert_eq!(report.after_release, report.expected);
    }
}
