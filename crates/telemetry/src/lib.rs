//! `surfnet-telemetry`: structured tracing for the SurfNet stack.
//!
//! Dependency-free instrumentation used across the decoder, LP, netsim,
//! routing, and pipeline crates:
//!
//! * **Named counters** — monotonically increasing `u64`s (simplex pivots,
//!   entanglement attempts, cluster-growth rounds, …);
//! * **Span timers** — wall-time accumulators with a log-scale latency
//!   histogram per timer, reporting count / total / mean / p50 / p95 / p99;
//! * **Exporters** — a machine-readable JSON dump and an aligned table,
//!   selected with the `SURFNET_TELEMETRY=json|table` environment switch.
//!
//! # Architecture
//!
//! Recording is **thread-local**: each thread owns a plain-`u64` shard,
//! so instrumented hot loops in `parallel_trials` workers and Fig. 8's
//! shot helpers never contend on shared cache lines and never take a lock.
//! When a thread exits (or [`flush`] is called) its shard merges into the
//! global shard with relaxed atomic adds — a lock-free merge that keeps
//! the aggregate exact regardless of scheduling order, so parallel runs
//! stay deterministic.
//!
//! When telemetry is disabled (the default, [`Telemetry::disabled`]) every
//! recording macro reduces to one relaxed atomic load and a branch, so a
//! plain run pays next to nothing; `perf` reports the enabled cost as
//! `trace_overhead_frac`.
//!
//! # Examples
//!
//! ```
//! use surfnet_telemetry::{self as telemetry, Telemetry};
//!
//! let _t = Telemetry::enabled();
//! for _ in 0..3 {
//!     let _span = telemetry::span!("demo.phase");
//!     telemetry::count!("demo.items", 2);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(6));
//! assert_eq!(snap.timer("demo.phase").unwrap().count, 3);
//! telemetry::reset();
//! let _t = Telemetry::disabled();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dim;
pub mod envreg;
pub mod hist;
pub mod journal;
pub mod json;
pub mod stage;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Cap on distinct metrics. Registrations beyond the budget are dropped
/// (not panicked on — see [`dropped_metrics`]): the extra series records
/// nowhere and the `telemetry.dropped` counter reports how many call sites
/// were shed. Generous: the workspace registers a few dozen.
pub const MAX_METRICS: usize = 512;

static ENABLED: AtomicBool = AtomicBool::new(false);
static MODE: AtomicU8 = AtomicU8::new(0);

/// Output mode selected by [`Telemetry::init_from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry off (no recording, no report).
    Off,
    /// Record and render [`render_json`] after a run.
    Json,
    /// Record and render [`render_table`] after a run.
    Table,
}

/// Returns whether recording is currently enabled.
///
/// This is the only check on disabled hot paths: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    // analyzer:allow(atomic-ordering): on/off gate; recording goes to
    // thread-local shards, nothing is published through this flag
    ENABLED.load(Ordering::Relaxed)
}

/// Returns whether *any* recording layer wants span guards: aggregate
/// telemetry ([`enabled`]) or the event journal ([`journal::enabled`]).
/// Two relaxed loads when both are off.
#[inline(always)]
pub fn recording() -> bool {
    enabled() || journal::enabled()
}

/// Global configuration handle.
///
/// The constructors are process-global switches (telemetry state is global
/// by design — instrumentation points live deep inside worker threads); the
/// returned value is just a witness for readable call sites.
#[derive(Debug, Clone, Copy)]
pub struct Telemetry;

impl Telemetry {
    /// Disables recording. Hot paths reduce to a load + branch.
    pub fn disabled() -> Telemetry {
        // analyzer:allow(atomic-ordering): gate flip; a racing recorder
        // at worst records one extra shard-local event
        ENABLED.store(false, Ordering::Relaxed);
        Telemetry
    }

    /// Enables recording.
    pub fn enabled() -> Telemetry {
        // analyzer:allow(atomic-ordering): gate flip; see disabled()
        ENABLED.store(true, Ordering::Relaxed);
        Telemetry
    }

    /// Reads `SURFNET_TELEMETRY` (`json`, `table`, or an off form), enables
    /// recording accordingly, and returns the selected mode.
    ///
    /// An unrecognized value prints the accepted forms to stderr and
    /// **exits with status 2**, like every other `SURFNET_*` knob: a
    /// typo'd mode would otherwise silently record nothing.
    pub fn init_from_env() -> Mode {
        let raw = std::env::var("SURFNET_TELEMETRY").unwrap_or_default();
        let mode = envreg::or_exit(parse_mode(&raw));
        let tag = match mode {
            Mode::Off => 0,
            Mode::Json => 1,
            Mode::Table => 2,
        };
        // analyzer:allow(atomic-ordering): init runs before workers spawn;
        // both flags are independent gates, neither publishes data
        MODE.store(tag, Ordering::Relaxed);
        // analyzer:allow(atomic-ordering): same single-threaded init gate
        ENABLED.store(mode != Mode::Off, Ordering::Relaxed);
        mode
    }

    /// The mode selected by the last [`Telemetry::init_from_env`] call.
    pub fn mode() -> Mode {
        // analyzer:allow(atomic-ordering): mode selector read standalone;
        // no other memory access depends on it
        match MODE.load(Ordering::Relaxed) {
            1 => Mode::Json,
            2 => Mode::Table,
            _ => Mode::Off,
        }
    }
}

/// Parses a `SURFNET_TELEMETRY` value: `json`, `table`, or an off form
/// ([`envreg::is_off`]), case-insensitive with surrounding whitespace
/// ignored.
///
/// # Errors
///
/// Anything else is rejected with a message naming the bad value and the
/// accepted ones — [`Telemetry::init_from_env`] prints it and exits 2
/// rather than silently running with telemetry off.
pub fn parse_mode(raw: &str) -> Result<Mode, String> {
    if envreg::is_off(raw) {
        return Ok(Mode::Off);
    }
    match raw.trim().to_ascii_lowercase().as_str() {
        "json" => Ok(Mode::Json),
        "table" => Ok(Mode::Table),
        other => Err(format!(
            "unrecognized SURFNET_TELEMETRY value {other:?}; expected \"json\" or \
             \"table\", or unset, {} to disable",
            envreg::OFF_FORMS
        )),
    }
}

/// Renders the current snapshot in the mode chosen via the environment
/// (`None` when telemetry is off) — the one-liner experiment binaries call
/// after a figure run.
pub fn env_report() -> Option<String> {
    match Telemetry::mode() {
        Mode::Off => None,
        Mode::Json => Some(render_json(&snapshot())),
        Mode::Table => Some(render_table(&snapshot())),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Timer,
}

struct Meta {
    name: &'static str,
    kind: Kind,
}

/// Global shard: atomics accumulated into by thread-shard merges.
struct Registry {
    names: Mutex<Vec<Meta>>,
    counts: Vec<AtomicU64>,
    sums: Vec<AtomicU64>,
    hists: Vec<OnceLock<Box<[AtomicU64]>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        names: Mutex::new(Vec::new()),
        counts: (0..MAX_METRICS).map(|_| AtomicU64::new(0)).collect(),
        sums: (0..MAX_METRICS).map(|_| AtomicU64::new(0)).collect(),
        hists: (0..MAX_METRICS).map(|_| OnceLock::new()).collect(),
    })
}

/// Sentinel id for a metric dropped by the budget check: recording into it
/// is a no-op.
const DROPPED_ID: u32 = u32::MAX;

static DROPPED: AtomicU64 = AtomicU64::new(0);
static BUDGET: AtomicUsize = AtomicUsize::new(MAX_METRICS);

/// How many metric registrations have been dropped because the budget
/// ([`MAX_METRICS`]) was exhausted. Also exported by [`snapshot`] as the
/// `telemetry.dropped` counter.
pub fn dropped_metrics() -> u64 {
    // analyzer:allow(atomic-ordering): monotonic tally read for reporting;
    // no other memory is inferred from the value
    DROPPED.load(Ordering::Relaxed)
}

/// Overrides the metric budget (test support — lets the exhaustion path be
/// exercised without filling all [`MAX_METRICS`] slots of the process-wide
/// registry). Values above [`MAX_METRICS`] are clamped: the backing arrays
/// are fixed-size.
#[doc(hidden)]
pub fn set_metric_budget(budget: usize) {
    // analyzer:allow(atomic-ordering): test-support knob; registration
    // reads it standalone under the names lock
    BUDGET.store(budget.min(MAX_METRICS), Ordering::Relaxed);
}

fn register(name: &'static str, kind: Kind) -> u32 {
    let reg = registry();
    let mut names = reg.names.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(id) = names.iter().position(|m| m.name == name) {
        assert!(
            names[id].kind == kind,
            "metric {name:?} registered as both counter and timer"
        );
        return id as u32;
    }
    // analyzer:allow(atomic-ordering): budget threshold read under the
    // names lock; an off-by-one-registration race is harmless shedding
    if names.len() >= BUDGET.load(Ordering::Relaxed) {
        // Budget exhausted: a recording layer must not panic mid-run. Shed
        // the metric, count the loss, and say so once.
        // analyzer:allow(atomic-ordering): commutative tally
        DROPPED.fetch_add(1, Ordering::Relaxed);
        static WARNED: AtomicBool = AtomicBool::new(false);
        // analyzer:allow(atomic-ordering): once-flag for a warning; a
        // duplicate eprintln on a race would be cosmetic
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "surfnet-telemetry: metric budget exhausted ({} metrics); \
                 dropping {name:?} and any further registrations \
                 (see the telemetry.dropped counter)",
                names.len()
            );
        }
        return DROPPED_ID;
    }
    names.push(Meta { name, kind });
    (names.len() - 1) as u32
}

/// Handle to a named counter. Cheap to copy; resolve once with
/// [`counter`] (the [`count!`] macro caches the handle per call site).
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    id: u32,
}

/// Registers (or finds) the counter `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter {
        id: register(name, Kind::Counter),
    }
}

impl Counter {
    /// Adds `n` if telemetry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.add_unconditional(n);
        }
    }

    /// Adds 1 if telemetry is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds without the enabled check (the macro does the check first).
    #[doc(hidden)]
    #[inline]
    pub fn add_unconditional(&self, n: u64) {
        if self.id == DROPPED_ID {
            return;
        }
        let id = self.id as usize;
        SHARD.with(|s| s.borrow_mut().counts[id] += n);
    }
}

/// Handle to a named span timer. Cheap to copy; resolve once with
/// [`timer`] (the [`span!`] macro caches the handle per call site).
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    id: u32,
    name: &'static str,
}

/// Registers (or finds) the timer `name`.
pub fn timer(name: &'static str) -> Timer {
    Timer {
        id: register(name, Kind::Timer),
        name,
    }
}

impl Timer {
    /// Starts a span; the elapsed wall time records when the guard drops.
    /// When the [`journal`] is enabled the guard also emits a
    /// `Begin`/`End` pair, so span timers appear as nested durations in
    /// exported traces.
    #[inline]
    pub fn start(&self) -> Span {
        self.start_in(None)
    }

    /// Starts a span that also holds `stage` open on this thread's
    /// self-time stack ([`stage`]) until the guard drops. The journal sees
    /// the span's `Begin`, then the stage's, and the two `End`s in reverse.
    /// [`span!`] calls this only while [`recording`].
    #[doc(hidden)]
    #[inline]
    pub fn start_in(&self, stage: Option<stage::Stage>) -> Span {
        let in_journal = journal::enabled();
        if in_journal {
            journal::record(self.name, journal::Phase::Begin, None);
        }
        if let Some(stage) = stage {
            stage::enter(stage);
        }
        Span {
            id: self.id,
            name: self.name,
            start: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
            in_journal,
            stage,
        }
    }

    /// Records an externally measured duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if enabled() && self.id != DROPPED_ID {
            let id = self.id as usize;
            SHARD.with(|s| {
                let mut shard = s.borrow_mut();
                shard.counts[id] += 1;
                shard.sums[id] += ns;
                let h = shard.hists[id].get_or_insert_with(|| vec![0u64; hist::BUCKETS].into());
                h[hist::bucket_index(ns)] += 1;
            });
        }
    }

    /// Times one closure invocation.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = self.start();
        f()
    }
}

/// RAII guard recording elapsed wall time into its [`Timer`] on drop, and
/// closing the stage it holds, if any.
/// Inert (records nothing) when telemetry was disabled at start.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    id: u32,
    name: &'static str,
    start: Option<Instant>,
    in_journal: bool,
    stage: Option<stage::Stage>,
}

impl Span {
    /// A guard that records nothing (disabled mode).
    #[inline]
    pub fn inert() -> Span {
        Span {
            id: DROPPED_ID,
            name: "",
            start: None,
            in_journal: false,
            stage: None,
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(stage) = self.stage {
            stage::exit(stage);
        }
        if self.in_journal {
            journal::record(self.name, journal::Phase::End, None);
        }
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            Timer {
                id: self.id,
                name: self.name,
            }
            .record_ns(ns);
        }
    }
}

/// Per-call-site counter increment: `count!("lp.pivots")` or
/// `count!("netsim.attempts", n)`. The handle is resolved once per call
/// site and only after the enabled check, so disabled cost is one load.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static __SURFNET_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
                ::std::sync::OnceLock::new();
            __SURFNET_COUNTER
                .get_or_init(|| $crate::counter($name))
                .add_unconditional($n as u64);
        }
    };
}

/// Per-call-site span timer: `let _span = span!("decoder.mwpm.decode");`.
/// Returns an inert guard when disabled. Active whenever *either* the
/// aggregate layer or the event journal is recording — in the latter case
/// the guard emits `Begin`/`End` journal records instead of (or as well
/// as) histogram samples.
///
/// `span!("lp.solve", Lp)` also charges the guarded region to a
/// [`stage::Stage`]: one guard feeds the timer, the per-trial self-time
/// accounting and the journal.
#[macro_export]
macro_rules! span {
    (@start $name:expr, $stage:expr) => {
        if $crate::recording() {
            static __SURFNET_TIMER: ::std::sync::OnceLock<$crate::Timer> =
                ::std::sync::OnceLock::new();
            __SURFNET_TIMER
                .get_or_init(|| $crate::timer($name))
                .start_in($stage)
        } else {
            $crate::Span::inert()
        }
    };
    ($name:expr) => {
        $crate::span!(@start $name, ::core::option::Option::None)
    };
    ($name:expr, $stage:ident) => {
        $crate::span!(
            @start $name,
            ::core::option::Option::Some($crate::stage::Stage::$stage)
        )
    };
}

/// Per-call-site journal instant. Records nothing unless the event journal
/// is enabled (`SURFNET_TRACE`); disabled cost is one relaxed load.
/// Durations are [`span!`]s.
///
/// * `event!("name")` — point-in-time marker;
/// * `event!("name", arg)` — marker with a `u64` payload.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        if $crate::journal::enabled() {
            $crate::journal::record(
                $name,
                $crate::journal::Phase::Instant,
                ::core::option::Option::None,
            );
        }
    };
    ($name:expr, $arg:expr) => {
        if $crate::journal::enabled() {
            $crate::journal::record(
                $name,
                $crate::journal::Phase::Instant,
                ::core::option::Option::Some($arg as u64),
            );
        }
    };
}

// ---------------------------------------------------------------------------
// Thread-local shard + lock-free merge.

struct LocalShard {
    counts: Vec<u64>,
    sums: Vec<u64>,
    hists: Vec<Option<Box<[u64]>>>,
    /// Per-family label maps ([`dim`]), indexed by family id. Merged and
    /// flushed on exactly the same schedule as the flat metrics above, so
    /// labeled data obeys the same scoped-flush discipline.
    dim: Vec<dim::FamilyShard>,
}

impl LocalShard {
    fn new() -> LocalShard {
        LocalShard {
            counts: vec![0; MAX_METRICS],
            sums: vec![0; MAX_METRICS],
            hists: (0..MAX_METRICS).map(|_| None).collect(),
            dim: Vec::new(),
        }
    }

    /// Merges this shard into the global atomics and zeroes it. Lock-free:
    /// nothing but relaxed `fetch_add`s on the global shard.
    fn merge_into_global(&mut self) {
        let reg = registry();
        for (id, c) in self.counts.iter_mut().enumerate() {
            if *c != 0 {
                // analyzer:allow(atomic-ordering): shard merges are
                // commutative fetch_adds — exactness needs atomicity only,
                // and readers synchronize via thread join / scoped flush
                reg.counts[id].fetch_add(*c, Ordering::Relaxed);
                *c = 0;
            }
        }
        for (id, s) in self.sums.iter_mut().enumerate() {
            if *s != 0 {
                // analyzer:allow(atomic-ordering): same commutative merge
                reg.sums[id].fetch_add(*s, Ordering::Relaxed);
                *s = 0;
            }
        }
        for (id, h) in self.hists.iter_mut().enumerate() {
            if let Some(local) = h.take() {
                let global = reg.hists[id].get_or_init(|| {
                    (0..hist::BUCKETS)
                        .map(|_| AtomicU64::new(0))
                        .collect::<Vec<_>>()
                        .into()
                });
                for (bucket, &v) in global.iter().zip(local.iter()) {
                    if v != 0 {
                        // analyzer:allow(atomic-ordering): same commutative
                        // merge, per histogram bucket
                        bucket.fetch_add(v, Ordering::Relaxed);
                    }
                }
            }
        }
        dim::merge_local(&mut self.dim);
    }
}

/// Gives [`dim`] access to the calling thread's label shards; recording
/// stays inside the same thread-local the flat metrics use.
pub(crate) fn with_dim_shard<R>(f: impl FnOnce(&mut Vec<dim::FamilyShard>) -> R) -> R {
    SHARD.with(|s| f(&mut s.borrow_mut().dim))
}

/// Armed flag for the shard-drop test hook; one relaxed load per shard
/// drop when inactive.
static DROP_HOOK_ARMED: AtomicBool = AtomicBool::new(false);

/// A shard-drop hook: `Arc` (not `Box`) so it is cloned out and invoked
/// without holding the slot lock — hooks are allowed to block.
pub type ShardDropHook = std::sync::Arc<dyn Fn() + Send + Sync>;

/// The hook itself, behind a lock so arming/disarming is race-free.
fn drop_hook_slot() -> &'static Mutex<Option<ShardDropHook>> {
    static SLOT: OnceLock<Mutex<Option<ShardDropHook>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Test hook: runs at the start of every implicit shard merge — the TLS
/// destructor on thread exit — but **not** on explicit [`flush`] calls.
///
/// The race harness uses this to hold selected threads' destructor merges
/// at a deterministic point, reproducing the scoped-thread shard-loss
/// window (`std::thread::scope` unblocks when the closure returns, before
/// TLS destructors run). Pass `None` to disarm.
#[doc(hidden)]
pub fn set_shard_drop_hook(hook: Option<ShardDropHook>) {
    let mut slot = drop_hook_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // analyzer:allow(atomic-ordering): the slot mutex orders the flag with
    // the hook contents; the flag alone gates a fast path.
    DROP_HOOK_ARMED.store(hook.is_some(), Ordering::Relaxed);
    *slot = hook;
}

impl Drop for LocalShard {
    fn drop(&mut self) {
        // analyzer:allow(atomic-ordering): fast-path gate only; the slot
        // mutex below is the synchronization point.
        if DROP_HOOK_ARMED.load(Ordering::Relaxed) {
            let hook = drop_hook_slot()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            if let Some(hook) = hook {
                hook();
            }
        }
        self.merge_into_global();
    }
}

thread_local! {
    static SHARD: RefCell<LocalShard> = RefCell::new(LocalShard::new());
}

/// Merges the calling thread's shard into the global aggregate.
///
/// Worker threads merge automatically when they exit; long-lived threads
/// (e.g. the main thread, before rendering a report) call this explicitly.
/// [`snapshot`] flushes the calling thread itself.
pub fn flush() {
    SHARD.with(|s| s.borrow_mut().merge_into_global());
}

// ---------------------------------------------------------------------------
// Snapshot + rendering.

/// Aggregated statistics of one timer.
#[derive(Debug, Clone, PartialEq)]
pub struct TimerStats {
    /// Timer name.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub total_ns: u64,
    /// Mean nanoseconds per span.
    pub mean_ns: f64,
    /// Median (p50) nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile nanoseconds.
    pub p99_ns: u64,
}

/// Point-in-time aggregate of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, registration order.
    pub counters: Vec<(String, u64)>,
    /// Stats for every timer, registration order.
    pub timers: Vec<TimerStats>,
    /// Labeled metric families ([`dim`]), sorted by name with labels in
    /// deterministic key order.
    pub groups: Vec<dim::FamilySnapshot>,
}

impl Snapshot {
    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Stats of the timer `name`, if registered.
    pub fn timer(&self, name: &str) -> Option<&TimerStats> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Snapshot of the metric family `name`, if registered.
    pub fn group(&self, name: &str) -> Option<&dim::FamilySnapshot> {
        self.groups.iter().find(|f| f.name == name)
    }

    /// The snapshot as one JSON object:
    /// `{"counters":{..},"timers":{name:{count,total_ns,mean_ns,p50_ns,p95_ns,p99_ns},..},"groups":{"name{label}":value,..}}`.
    pub fn to_json(&self) -> json::Value {
        use json::Value;
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(name, v)| (name.clone(), Value::from(*v)))
                .collect(),
        );
        let timers = Value::Obj(
            self.timers
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        json::obj(vec![
                            ("count", Value::from(t.count)),
                            ("total_ns", Value::from(t.total_ns)),
                            ("mean_ns", Value::Num(t.mean_ns)),
                            ("p50_ns", Value::from(t.p50_ns)),
                            ("p95_ns", Value::from(t.p95_ns)),
                            ("p99_ns", Value::from(t.p99_ns)),
                        ]),
                    )
                })
                .collect(),
        );
        // Metric families flatten to `name{label}` keys. Every family counts
        // events, so grouped sections diff at zero tolerance across reruns.
        let groups = Value::Obj(
            self.groups
                .iter()
                .flat_map(|fam| {
                    fam.labels
                        .iter()
                        .map(|l| (format!("{}{{{}}}", fam.name, l.label), Value::from(l.value)))
                })
                .collect(),
        );
        json::obj(vec![
            ("counters", counters),
            ("timers", timers),
            ("groups", groups),
        ])
    }
}

/// Takes a snapshot of the global aggregate (flushing the calling thread's
/// shard first). Threads still running keep unmerged local data; in the
/// pipeline all workers are joined before reporting.
pub fn snapshot() -> Snapshot {
    flush();
    let reg = registry();
    let names = reg.names.lock().unwrap_or_else(PoisonError::into_inner);
    let mut snap = Snapshot::default();
    for (id, meta) in names.iter().enumerate() {
        match meta.kind {
            Kind::Counter => {
                snap.counters.push((
                    meta.name.to_string(),
                    // analyzer:allow(atomic-ordering): snapshot reads are
                    // exact because contributing threads were joined (or
                    // flushed) first; the load itself publishes nothing
                    reg.counts[id].load(Ordering::Relaxed),
                ));
            }
            Kind::Timer => {
                // analyzer:allow(atomic-ordering): same joined-first read
                let count = reg.counts[id].load(Ordering::Relaxed);
                // analyzer:allow(atomic-ordering): same joined-first read
                let total_ns = reg.sums[id].load(Ordering::Relaxed);
                let buckets: Vec<u64> = match reg.hists[id].get() {
                    // analyzer:allow(atomic-ordering): same joined-first read
                    Some(h) => h.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    None => vec![0; hist::BUCKETS],
                };
                snap.timers.push(TimerStats {
                    name: meta.name.to_string(),
                    count,
                    total_ns,
                    mean_ns: if count == 0 {
                        0.0
                    } else {
                        total_ns as f64 / count as f64
                    },
                    p50_ns: hist::quantile(&buckets, count, 0.50),
                    p95_ns: hist::quantile(&buckets, count, 0.95),
                    p99_ns: hist::quantile(&buckets, count, 0.99),
                });
            }
        }
    }
    // Surface losses in every export, even though no call site registers
    // these names: dropped series and evicted journal events are invisible
    // by definition.
    snap.counters
        .push(("journal.dropped".to_string(), journal::dropped_events()));
    snap.counters
        .push(("telemetry.dropped".to_string(), dropped_metrics()));
    snap.counters.push((
        "telemetry.dim.dropped_labels".to_string(),
        dim::dropped_labels(),
    ));
    snap.groups = dim::snapshot_families();
    snap
}

/// Zeroes every metric (global shard and the calling thread's shard),
/// including the dropped-registration count. Registered names and
/// call-site handles stay valid.
pub fn reset() {
    // analyzer:allow(atomic-ordering): reset is a quiescent-state (test
    // support) operation; callers serialize it against recorders
    DROPPED.store(0, Ordering::Relaxed);
    SHARD.with(|s| {
        let mut shard = s.borrow_mut();
        shard.counts.iter_mut().for_each(|c| *c = 0);
        shard.sums.iter_mut().for_each(|c| *c = 0);
        shard.hists.iter_mut().for_each(|h| *h = None);
        shard.dim.clear();
    });
    dim::reset();
    let reg = registry();
    for c in &reg.counts {
        // analyzer:allow(atomic-ordering): quiescent-state zeroing
        c.store(0, Ordering::Relaxed);
    }
    for s in &reg.sums {
        // analyzer:allow(atomic-ordering): quiescent-state zeroing
        s.store(0, Ordering::Relaxed);
    }
    for h in &reg.hists {
        if let Some(h) = h.get() {
            for b in h.iter() {
                // analyzer:allow(atomic-ordering): quiescent-state zeroing
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

/// Renders a snapshot as two aligned text tables (timers, then counters).
pub fn render_table(snap: &Snapshot) -> String {
    let mut out = String::from("telemetry: per-stage timers\n");
    let headers = ["span", "count", "total", "mean", "p50", "p95", "p99"];
    let mut rows: Vec<[String; 7]> = Vec::with_capacity(snap.timers.len());
    for t in &snap.timers {
        rows.push([
            t.name.clone(),
            t.count.to_string(),
            fmt_ns(t.total_ns as f64),
            fmt_ns(t.mean_ns),
            fmt_ns(t.p50_ns as f64),
            fmt_ns(t.p95_ns as f64),
            fmt_ns(t.p99_ns as f64),
        ]);
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let push_row = |out: &mut String, cells: &[&str]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', w.saturating_sub(cell.len())));
        }
        out.push('\n');
    };
    push_row(&mut out, &headers);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    push_row(
        &mut out,
        &rule.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for row in &rows {
        push_row(
            &mut out,
            &row.iter().map(String::as_str).collect::<Vec<_>>(),
        );
    }
    out.push_str("telemetry: counters\n");
    let name_w = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(7)
        .max("counter".len());
    out.push_str(&format!("{:<name_w$}  value\n", "counter"));
    out.push_str(&format!("{}  -----\n", "-".repeat(name_w)));
    for (name, value) in &snap.counters {
        out.push_str(&format!("{name:<name_w$}  {value}\n"));
    }
    if snap.groups.iter().any(|f| !f.labels.is_empty()) {
        out.push_str("telemetry: metric families\n");
        let series_w = snap
            .groups
            .iter()
            .flat_map(|f| f.labels.iter().map(|l| f.name.len() + l.label.len() + 2))
            .max()
            .unwrap_or(6)
            .max("series".len());
        out.push_str(&format!("{:<series_w$}  value\n", "series"));
        out.push_str(&format!("{}  -----\n", "-".repeat(series_w)));
        for fam in &snap.groups {
            for l in &fam.labels {
                let series = format!("{}{{{}}}", fam.name, l.label);
                out.push_str(&format!("{series:<series_w$}  {}\n", l.value));
            }
        }
    }
    out
}

/// Renders a snapshot as the single-line JSON object of
/// [`Snapshot::to_json`].
pub fn render_json(snap: &Snapshot) -> String {
    snap.to_json().to_string()
}

/// Serializes tests (across this crate's modules) that flip the
/// process-global telemetry or journal state. It is the crate's only test
/// guard.
#[cfg(test)]
pub(crate) fn telemetry_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Telemetry state is process-global, so every test here runs under one
    // lock to avoid cross-test interference.
    fn with_isolated<R>(f: impl FnOnce() -> R) -> R {
        let _g = telemetry_test_guard();
        reset();
        let _t = Telemetry::enabled();
        let r = f();
        let _t = Telemetry::disabled();
        reset();
        r
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        with_isolated(|| {
            let c = counter("test.counter");
            c.add(3);
            c.incr();
            assert_eq!(snapshot().counter("test.counter"), Some(4));
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_isolated(|| {
            let _t = Telemetry::disabled();
            count!("test.disabled");
            let _span = span!("test.disabled-span");
            drop(_span);
            let _t = Telemetry::enabled();
            assert_eq!(snapshot().counter("test.disabled").unwrap_or(0), 0);
            assert!(snapshot()
                .timer("test.disabled-span")
                .is_none_or(|t| t.count == 0));
        });
    }

    #[test]
    fn spans_record_durations_with_percentiles() {
        with_isolated(|| {
            let t = timer("test.span");
            for ns in [1_000u64, 2_000, 3_000, 100_000] {
                t.record_ns(ns);
            }
            let snap = snapshot();
            let stats = snap.timer("test.span").unwrap();
            assert_eq!(stats.count, 4);
            assert_eq!(stats.total_ns, 106_000);
            assert!(stats.p50_ns >= 1_800 && stats.p50_ns <= 2_200, "{stats:?}");
            assert!(stats.p99_ns >= 90_000, "{stats:?}");
        });
    }

    #[test]
    fn cross_thread_merge_is_exact() {
        with_isolated(|| {
            let c = counter("test.threads");
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            c.add(1);
                        }
                        // Scope join does not wait for TLS destructors
                        // (see journal::flush_thread), so merge the shard
                        // explicitly before the closure returns.
                        flush();
                    });
                }
            });
            assert_eq!(snapshot().counter("test.threads"), Some(8000));
        });
    }

    #[test]
    fn macros_cache_handles_per_call_site() {
        with_isolated(|| {
            for _ in 0..10 {
                count!("test.macro", 2);
                let _span = span!("test.macro-span");
            }
            let snap = snapshot();
            assert_eq!(snap.counter("test.macro"), Some(20));
            assert_eq!(snap.timer("test.macro-span").unwrap().count, 10);
        });
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        with_isolated(|| {
            count!("test.reset", 5);
            assert_eq!(snapshot().counter("test.reset"), Some(5));
            reset();
            assert_eq!(snapshot().counter("test.reset"), Some(0));
        });
    }

    #[test]
    fn renderers_cover_all_metrics() {
        with_isolated(|| {
            count!("test.render-counter", 7);
            timer("test.render-timer").record_ns(1_500);
            let snap = snapshot();
            let table = render_table(&snap);
            assert!(table.contains("test.render-counter"));
            assert!(table.contains("test.render-timer"));
            assert!(table.contains("p99"));
            let json = render_json(&snap);
            assert!(json.contains("\"test.render-counter\":7"));
            assert!(json.contains("\"count\":1"));
            assert!(json.starts_with('{') && json.ends_with('}'));
        });
    }

    #[test]
    fn env_mode_parsing() {
        // `init_from_env` stores the global switch, so it runs under the
        // guard. Do not set the env var (tests run in parallel); exercise
        // the default path only.
        let _g = telemetry_test_guard();
        std::env::remove_var("SURFNET_TELEMETRY");
        assert_eq!(Telemetry::init_from_env(), Mode::Off);
        assert!(!enabled());
        assert!(env_report().is_none());
    }

    #[test]
    fn parse_mode_accepts_known_and_rejects_unknown() {
        assert_eq!(parse_mode(""), Ok(Mode::Off));
        assert_eq!(parse_mode("  "), Ok(Mode::Off));
        assert_eq!(parse_mode("json"), Ok(Mode::Json));
        assert_eq!(parse_mode(" TABLE "), Ok(Mode::Table));
        assert_eq!(parse_mode("off"), Ok(Mode::Off));
        assert_eq!(parse_mode(" 0 "), Ok(Mode::Off));
        assert_eq!(parse_mode("OFF"), Ok(Mode::Off));
        for bad in ["jsonl", "yes", "1", "tables", "off-by-one"] {
            let err = parse_mode(bad).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("SURFNET_TELEMETRY"), "{err}");
        }
    }

    #[test]
    fn exhausted_budget_drops_metrics_instead_of_panicking() {
        with_isolated(|| {
            // Shrink the budget to the metrics registered so far, so the
            // next registration is over quota.
            let registered = {
                let reg = registry();
                let names = reg.names.lock().unwrap_or_else(PoisonError::into_inner);
                names.len()
            };
            set_metric_budget(registered);
            let c = counter("test.over-budget-counter");
            c.add(5);
            let t = timer("test.over-budget-timer");
            t.record_ns(1_000);
            drop(t.start());
            set_metric_budget(MAX_METRICS);

            let snap = snapshot();
            assert_eq!(snap.counter("test.over-budget-counter"), None);
            assert!(snap.timer("test.over-budget-timer").is_none());
            assert_eq!(snap.counter("telemetry.dropped"), Some(2));
            assert!(render_json(&snap).contains("\"telemetry.dropped\":2"));
            // An existing metric still works while over budget.
            count!("test.still-works");
            assert_eq!(snapshot().counter("test.still-works"), Some(1));
        });
    }

    #[test]
    fn spans_emit_journal_begin_end_pairs() {
        with_isolated(|| {
            journal::reset();
            journal::set_enabled(true);
            {
                let _span = span!("test.journal-span");
                event!("test.journal-mark", 9);
            }
            journal::set_enabled(false);
            let events = journal::collect();
            let kinds: Vec<(&str, journal::Phase)> =
                events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
            assert_eq!(
                kinds,
                [
                    ("test.journal-span", journal::Phase::Begin),
                    ("test.journal-mark", journal::Phase::Instant),
                    ("test.journal-span", journal::Phase::End),
                ]
            );
            assert_eq!(events[1].arg, Some(9));
            journal::reset();
        });
    }

    #[test]
    fn journal_only_mode_skips_aggregates_but_records_events() {
        with_isolated(|| {
            let _t = Telemetry::disabled();
            journal::reset();
            journal::set_enabled(true);
            assert!(recording());
            {
                let _span = span!("test.journal-only");
            }
            journal::set_enabled(false);
            let _t = Telemetry::enabled();
            // The journal saw the span...
            let events = journal::collect();
            assert_eq!(events.len(), 2);
            // ...but the aggregate layer recorded nothing.
            assert!(snapshot()
                .timer("test.journal-only")
                .is_none_or(|t| t.count == 0));
            journal::reset();
        });
    }
}
