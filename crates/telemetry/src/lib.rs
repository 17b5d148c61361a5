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
//! Every metric name lives in [`catalog::CATALOG`], and its index there is
//! its slot in fixed, catalog-sized tables. The recording macros
//! ([`count!`], [`span!`], [`event!`], [`family!`]) resolve their name to
//! a slot at compile time, so an unregistered or wrong-kind name does not
//! compile. The [`journal`] records by slot as well, so every trace
//! record carries a catalog name.
//!
//! Recording is **thread-local**: each thread owns a plain-`u64` shard,
//! so instrumented hot loops in `parallel_trials` workers and Fig. 8's
//! shot helpers never contend on shared cache lines and never take a lock.
//! When a thread exits (or [`flush`] is called) its shard merges into the
//! global shard with relaxed atomic adds — a lock-free merge that keeps
//! the aggregate exact regardless of scheduling order, so parallel runs
//! stay deterministic. Scoped workers spawn through [`spawn_scoped`],
//! which flushes before the worker returns. Every atomic access states
//! why its ordering publishes enough, in the reason of an
//! `#[expect(clippy::disallowed_methods, ..)]` (the root `clippy.toml`
//! lists the atomic methods), and the `SURFNET_*` knobs are read only
//! through [`envreg::Knob`].
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
//!     let _span = telemetry::span!("lp.solve");
//!     telemetry::count!("lp.pivots", 2);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("lp.pivots"), Some(6));
//! assert_eq!(snap.timer("lp.solve").unwrap().count, 3);
//! telemetry::reset();
//! let _t = Telemetry::disabled();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod check;
pub mod dim;
pub mod envreg;
pub mod hist;
pub mod journal;
pub mod json;
pub mod stage;

use catalog::{MetricKind, CATALOG};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

/// Number of catalog slots; every metric table has one entry per slot.
const SLOTS: usize = CATALOG.len();

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
#[expect(
    clippy::disallowed_methods,
    reason = "on/off gate; recording goes to thread-local shards, nothing is published through this flag"
)]
pub fn enabled() -> bool {
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
        #[expect(
            clippy::disallowed_methods,
            reason = "gate flip; a racing recorder at worst records one extra shard-local event"
        )]
        ENABLED.store(false, Ordering::Relaxed);
        Telemetry
    }

    /// Enables recording.
    pub fn enabled() -> Telemetry {
        #[expect(clippy::disallowed_methods, reason = "gate flip; see disabled()")]
        ENABLED.store(true, Ordering::Relaxed);
        Telemetry
    }

    /// Reads `SURFNET_TELEMETRY` (`json`, `table`, or an off form), enables
    /// recording accordingly, and returns the selected mode.
    ///
    /// An unrecognized value prints the accepted forms to stderr and
    /// **exits with status 2**, like every other `SURFNET_*` knob: a
    /// typo'd mode would otherwise silently record nothing.
    #[expect(
        clippy::disallowed_methods,
        reason = "init runs before workers spawn; both flags are independent gates, neither publishes data"
    )]
    pub fn init_from_env() -> Mode {
        let raw = envreg::Knob::Telemetry.raw().unwrap_or_default();
        let mode = envreg::or_exit(parse_mode(&raw));
        let tag = match mode {
            Mode::Off => 0,
            Mode::Json => 1,
            Mode::Table => 2,
        };
        MODE.store(tag, Ordering::Relaxed);
        ENABLED.store(mode != Mode::Off, Ordering::Relaxed);
        mode
    }

    /// The mode selected by the last [`Telemetry::init_from_env`] call.
    #[expect(
        clippy::disallowed_methods,
        reason = "mode selector read standalone; no other memory access depends on it"
    )]
    pub fn mode() -> Mode {
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
            "unrecognized {} value {other:?}; expected \"json\" or \"table\", or \
             unset, {} to disable",
            envreg::Knob::Telemetry.name(),
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

/// Global shard: one atomic per catalog slot, accumulated into by
/// thread-shard merges. Histograms are allocated on a timer's first merge.
static COUNTS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static SUMS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static HISTS: [OnceLock<Box<[AtomicU64]>>; SLOTS] = [const { OnceLock::new() }; SLOTS];

/// Whether a call site has reached the slot while its layer recorded.
/// [`snapshot`] lists exactly these metrics, and [`reset`] keeps them.
static SEEN: [AtomicBool; SLOTS] = [const { AtomicBool::new(false) }; SLOTS];

/// Lists `slot` in every later [`snapshot`].
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "set-once listing flag; it publishes no data, and the load keeps the hot path free of shared writes"
)]
pub(crate) fn mark_seen(slot: usize) {
    let seen = &SEEN[slot];
    if !seen.load(Ordering::Relaxed) {
        seen.store(true, Ordering::Relaxed);
    }
}

/// Adds `n` to the counter in catalog slot `slot`. [`count!`] calls this
/// once telemetry is [`enabled`], with a slot resolved at compile time.
#[doc(hidden)]
#[inline]
pub fn add_count(slot: usize, n: u64) {
    mark_seen(slot);
    SHARD.with(|s| s.borrow_mut().counts[slot] += n);
}

/// Starts a span of the timer in catalog slot `slot`; the elapsed wall
/// time records when the guard drops. [`span!`] calls this only while
/// [`recording`], with a slot resolved at compile time.
///
/// When the [`journal`] is enabled the guard also emits a `Begin`/`End`
/// pair, so span timers appear as nested durations in exported traces.
/// A `stage` is held open on this thread's self-time stack ([`stage`])
/// until the guard drops.
#[doc(hidden)]
#[inline]
pub fn start_span(slot: usize, stage: Option<stage::Stage>) -> Span {
    mark_seen(slot);
    let in_journal = journal::enabled();
    if in_journal {
        journal::record(slot, journal::Phase::Begin, None);
    }
    if let Some(stage) = stage {
        stage::enter(stage);
    }
    Span {
        slot,
        start: enabled().then(clock),
        in_journal,
        stage,
    }
}

/// Records a journal instant of the event in catalog slot `slot`.
/// [`event!`] calls this once the journal is [`journal::enabled`], with a
/// slot resolved at compile time.
#[doc(hidden)]
#[inline]
pub fn record_event(slot: usize, arg: Option<u64>) {
    journal::record(slot, journal::Phase::Instant, arg);
}

/// The crate's one wall-clock read: span starts, stage transitions and
/// the journal epoch. None of them feeds a result.
#[expect(
    clippy::disallowed_methods,
    reason = "telemetry times work; the time never feeds a result"
)]
pub(crate) fn clock() -> Instant {
    Instant::now()
}

/// Records a measured duration of `ns` nanoseconds into the timer in
/// catalog slot `slot`, if telemetry is enabled.
#[inline]
pub(crate) fn record_ns(slot: usize, ns: u64) {
    if enabled() {
        SHARD.with(|s| {
            let mut shard = s.borrow_mut();
            shard.counts[slot] += 1;
            shard.sums[slot] += ns;
            let h = shard.hists[slot].get_or_insert_with(|| vec![0u64; hist::BUCKETS].into());
            h[hist::bucket_index(ns)] += 1;
        });
    }
}

/// RAII guard recording elapsed wall time into its timer on drop, and
/// closing the stage it holds, if any.
/// Inert (records nothing) when telemetry was disabled at start.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    slot: usize,
    start: Option<Instant>,
    in_journal: bool,
    stage: Option<stage::Stage>,
}

impl Span {
    /// A guard that records nothing (disabled mode).
    #[inline]
    pub fn inert() -> Span {
        Span {
            slot: 0,
            start: None,
            in_journal: false,
            stage: None,
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.stage.is_some() {
            stage::exit();
        }
        if self.in_journal {
            journal::record(self.slot, journal::Phase::End, None);
        }
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            record_ns(self.slot, ns);
        }
    }
}

/// Per-call-site counter increment: `count!("lp.pivots")` or
/// `count!("netsim.entanglement_attempts", n)`. The name must be a
/// [`catalog`] counter; the slot is resolved at compile time, so the
/// disabled cost is one load and a branch.
///
/// A name missing from the catalog, or registered as another kind, does
/// not compile:
///
/// ```compile_fail,E0080
/// surfnet_telemetry::count!("lp.pivot");
/// ```
///
/// ```compile_fail,E0080
/// surfnet_telemetry::count!("lp.solve");
/// ```
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            const __SURFNET_SLOT: usize =
                $crate::catalog::slot($name, $crate::catalog::MetricKind::Counter);
            $crate::add_count(__SURFNET_SLOT, $n as u64);
        }
    };
}

/// Per-call-site span timer: `let _span = span!("decoder.mwpm.decode");`.
/// The name must be a [`catalog`] timer. Returns an inert guard when
/// disabled. Active whenever *either* the aggregate layer or the event
/// journal is recording — in the latter case the guard emits `Begin`/`End`
/// journal records instead of (or as well as) histogram samples.
///
/// `span!("lp.solve", Lp)` also charges the guarded region to a
/// [`stage::Stage`]: one guard feeds the timer, the per-trial self-time
/// accounting and the journal.
///
/// A name missing from the catalog, or registered as another kind, does
/// not compile:
///
/// ```compile_fail,E0080
/// let _span = surfnet_telemetry::span!("lp.solv");
/// ```
///
/// ```compile_fail,E0080
/// let _span = surfnet_telemetry::span!("lp.pivots");
/// ```
#[macro_export]
macro_rules! span {
    (@start $name:expr, $stage:expr) => {
        if $crate::recording() {
            const __SURFNET_SLOT: usize =
                $crate::catalog::slot($name, $crate::catalog::MetricKind::Timer);
            $crate::start_span(__SURFNET_SLOT, $stage)
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
/// Durations are [`span!`]s. The name must be a [`catalog`] event.
///
/// * `event!("name")` — point-in-time marker;
/// * `event!("name", arg)` — marker with a `u64` payload.
///
/// A name missing from the catalog, or registered as another kind, does
/// not compile:
///
/// ```compile_fail,E0080
/// surfnet_telemetry::event!("evaluate.shot_fail", 3);
/// ```
///
/// ```compile_fail,E0080
/// surfnet_telemetry::event!("lp.solves");
/// ```
#[macro_export]
macro_rules! event {
    (@record $name:expr, $arg:expr) => {
        if $crate::journal::enabled() {
            const __SURFNET_SLOT: usize =
                $crate::catalog::slot($name, $crate::catalog::MetricKind::Event);
            $crate::record_event(__SURFNET_SLOT, $arg);
        }
    };
    ($name:expr) => {
        $crate::event!(@record $name, ::core::option::Option::None)
    };
    ($name:expr, $arg:expr) => {
        $crate::event!(@record $name, ::core::option::Option::Some($arg as u64))
    };
}

/// The labeled counter family `name` ([`dim`]), as a
/// [`dim::CounterFamily`] handle: `family!("netsim.link.attempts")`. The
/// name must be a [`catalog`] family; the slot is resolved at compile
/// time, so building the handle costs nothing.
///
/// A name missing from the catalog, or registered as another kind, does
/// not compile:
///
/// ```compile_fail,E0080
/// let _f = surfnet_telemetry::family!("netsim.link.attempt");
/// ```
///
/// ```compile_fail,E0080
/// let _f = surfnet_telemetry::family!("netsim.entanglement_attempts");
/// ```
#[macro_export]
macro_rules! family {
    ($name:expr) => {{
        const __SURFNET_SLOT: usize =
            $crate::catalog::slot($name, $crate::catalog::MetricKind::Family);
        $crate::dim::CounterFamily::at(__SURFNET_SLOT)
    }};
}

/// Spawns `f` as a worker of `scope`, and flushes the worker's telemetry
/// shard ([`flush`], if [`enabled`]) and journal ring
/// ([`journal::flush_thread`], if [`journal::enabled`]) after `f`
/// returns. `std::thread::scope` joins a worker when its closure returns,
/// before the thread's TLS destructors merge its shard, so a snapshot or
/// trace taken right after the scope could otherwise miss the worker's
/// records (DESIGN §8.1). A layer that is off recorded nothing, and not
/// flushing it spares a short-lived thread the buffers a flush would
/// allocate.
///
/// This is the workspace's one scoped spawn: the root `clippy.toml`
/// disallows `std::thread::Scope::spawn` everywhere else.
#[expect(
    clippy::disallowed_methods,
    reason = "the one scoped spawn; it flushes both layers before the worker returns"
)]
pub fn spawn_scoped<'scope, 'env, T, F>(
    scope: &'scope Scope<'scope, 'env>,
    f: F,
) -> ScopedJoinHandle<'scope, T>
where
    F: FnOnce() -> T + Send + 'scope,
    T: Send + 'scope,
{
    scope.spawn(move || {
        let out = f();
        if enabled() {
            flush();
        }
        if journal::enabled() {
            journal::flush_thread();
        }
        out
    })
}

// ---------------------------------------------------------------------------
// Thread-local shard + lock-free merge.

struct LocalShard {
    counts: [u64; SLOTS],
    sums: [u64; SLOTS],
    hists: [Option<Box<[u64]>>; SLOTS],
    /// Per-family label maps ([`dim`]), indexed by slot. Merged and
    /// flushed on exactly the same schedule as the flat metrics above, so
    /// labeled data obeys the same flush discipline.
    dim: [dim::FamilyShard; SLOTS],
}

impl LocalShard {
    fn new() -> LocalShard {
        LocalShard {
            counts: [0; SLOTS],
            sums: [0; SLOTS],
            hists: [const { None }; SLOTS],
            dim: [const { dim::FamilyShard::new() }; SLOTS],
        }
    }

    /// Merges this shard into the global atomics and zeroes it. Lock-free:
    /// nothing but relaxed `fetch_add`s on the global shard.
    #[expect(
        clippy::disallowed_methods,
        reason = "shard merges are commutative fetch_adds (counts, sums, histogram buckets); exactness needs atomicity only, and readers synchronize via thread join / scoped flush"
    )]
    fn merge_into_global(&mut self) {
        for (global, c) in COUNTS.iter().zip(&mut self.counts) {
            if *c != 0 {
                global.fetch_add(*c, Ordering::Relaxed);
                *c = 0;
            }
        }
        for (global, s) in SUMS.iter().zip(&mut self.sums) {
            if *s != 0 {
                global.fetch_add(*s, Ordering::Relaxed);
                *s = 0;
            }
        }
        for (global, h) in HISTS.iter().zip(&mut self.hists) {
            if let Some(local) = h.take() {
                let global = global.get_or_init(|| {
                    (0..hist::BUCKETS)
                        .map(|_| AtomicU64::new(0))
                        .collect::<Vec<_>>()
                        .into()
                });
                for (bucket, &v) in global.iter().zip(local.iter()) {
                    if v != 0 {
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
pub(crate) fn with_dim_shard<R>(f: impl FnOnce(&mut [dim::FamilyShard; SLOTS]) -> R) -> R {
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the slot mutex orders the flag with the hook contents; the flag alone gates a fast path"
    )]
    DROP_HOOK_ARMED.store(hook.is_some(), Ordering::Relaxed);
    *slot = hook;
}

impl Drop for LocalShard {
    #[expect(
        clippy::disallowed_methods,
        reason = "fast-path gate only; the slot mutex below is the synchronization point"
    )]
    fn drop(&mut self) {
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

/// Point-in-time aggregate of every listed metric: each counter and timer
/// that a call site has reached while its layer recorded, and every
/// family.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` for every listed counter, in catalog order, then
    /// the `journal.dropped` and `telemetry.dim.dropped_labels` tallies.
    pub counters: Vec<(String, u64)>,
    /// Stats for every listed timer, in catalog order.
    pub timers: Vec<TimerStats>,
    /// Every catalog family ([`dim`]), sorted by name with labels in
    /// deterministic key order.
    pub groups: Vec<dim::FamilySnapshot>,
}

impl Snapshot {
    /// Value of the counter `name`, if listed.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Stats of the timer `name`, if listed.
    pub fn timer(&self, name: &str) -> Option<&TimerStats> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Snapshot of the metric family `name`, if it is a catalog family.
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
#[expect(
    clippy::disallowed_methods,
    reason = "the set-once listing flag is read standalone; count, sum and bucket reads are exact because contributing threads were joined (or flushed) first, and the loads themselves publish nothing"
)]
pub fn snapshot() -> Snapshot {
    flush();
    let mut snap = Snapshot::default();
    for (slot, &(name, kind)) in CATALOG.iter().enumerate() {
        if !SEEN[slot].load(Ordering::Relaxed) {
            continue;
        }
        let count = COUNTS[slot].load(Ordering::Relaxed);
        match kind {
            MetricKind::Counter => snap.counters.push((name.to_string(), count)),
            MetricKind::Timer => {
                let total_ns = SUMS[slot].load(Ordering::Relaxed);
                let buckets: Vec<u64> = match HISTS[slot].get() {
                    Some(h) => h.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    None => vec![0; hist::BUCKETS],
                };
                snap.timers.push(TimerStats {
                    name: name.to_string(),
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
            MetricKind::Event | MetricKind::Family => {}
        }
    }
    // Surface losses in every export, even though no call site records
    // these names: evicted journal events and shed labels are invisible by
    // definition.
    snap.counters
        .push(("journal.dropped".to_string(), journal::dropped_events()));
    snap.counters.push((
        "telemetry.dim.dropped_labels".to_string(),
        dim::dropped_labels(),
    ));
    snap.groups = dim::snapshot_families();
    snap
}

/// Zeroes every metric (global shard and the calling thread's shard).
/// Every listed metric stays listed.
#[expect(
    clippy::disallowed_methods,
    reason = "quiescent-state zeroing (test support and between figures); callers serialize it against recorders"
)]
pub fn reset() {
    SHARD.with(|s| {
        let mut shard = s.borrow_mut();
        shard.counts = [0; SLOTS];
        shard.sums = [0; SLOTS];
        shard.hists.iter_mut().for_each(|h| *h = None);
        shard.dim.iter_mut().for_each(dim::FamilyShard::clear);
    });
    dim::reset();
    for c in COUNTS.iter().chain(&SUMS) {
        c.store(0, Ordering::Relaxed);
    }
    for h in HISTS.iter().filter_map(OnceLock::get) {
        for b in h.iter() {
            b.store(0, Ordering::Relaxed);
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
            count!("lp.pivots", 3);
            count!("lp.pivots");
            assert_eq!(snapshot().counter("lp.pivots"), Some(4));
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_isolated(|| {
            let _t = Telemetry::disabled();
            count!("lp.iterations");
            let _span = span!("lp.solve");
            drop(_span);
            let _t = Telemetry::enabled();
            assert_eq!(snapshot().counter("lp.iterations").unwrap_or(0), 0);
            assert!(snapshot().timer("lp.solve").is_none_or(|t| t.count == 0));
        });
    }

    #[test]
    fn spans_record_durations_with_percentiles() {
        with_isolated(|| {
            let slot = catalog::slot("lp.solve", MetricKind::Timer);
            mark_seen(slot);
            for ns in [1_000u64, 2_000, 3_000, 100_000] {
                record_ns(slot, ns);
            }
            let snap = snapshot();
            let stats = snap.timer("lp.solve").unwrap();
            assert_eq!(stats.count, 4);
            assert_eq!(stats.total_ns, 106_000);
            assert!(stats.p50_ns >= 1_800 && stats.p50_ns <= 2_200, "{stats:?}");
            assert!(stats.p99_ns >= 90_000, "{stats:?}");
        });
    }

    #[test]
    fn cross_thread_merge_is_exact() {
        with_isolated(|| {
            std::thread::scope(|s| {
                for _ in 0..8 {
                    // Scope join does not wait for TLS destructors (see
                    // journal::flush_thread); the helper merges the shard
                    // before the closure returns.
                    spawn_scoped(s, || {
                        for _ in 0..1000 {
                            count!("lp.pivots");
                        }
                    });
                }
            });
            assert_eq!(snapshot().counter("lp.pivots"), Some(8000));
        });
    }

    #[test]
    fn macros_cache_handles_per_call_site() {
        with_isolated(|| {
            for _ in 0..10 {
                count!("lp.pivots", 2);
                let _span = span!("lp.solve");
            }
            let snap = snapshot();
            assert_eq!(snap.counter("lp.pivots"), Some(20));
            assert_eq!(snap.timer("lp.solve").unwrap().count, 10);
        });
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        with_isolated(|| {
            count!("lp.solves", 5);
            assert_eq!(snapshot().counter("lp.solves"), Some(5));
            reset();
            assert_eq!(snapshot().counter("lp.solves"), Some(0));
        });
    }

    #[test]
    fn renderers_cover_all_metrics() {
        with_isolated(|| {
            count!("lp.pivots", 7);
            let slot = catalog::slot("lp.solve", MetricKind::Timer);
            mark_seen(slot);
            record_ns(slot, 1_500);
            let snap = snapshot();
            let table = render_table(&snap);
            assert!(table.contains("lp.pivots"));
            assert!(table.contains("lp.solve"));
            assert!(table.contains("p99"));
            let json = render_json(&snap);
            assert!(json.contains("\"lp.pivots\":7"));
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
        #[expect(
            clippy::disallowed_methods,
            reason = "the test clears its knob to read the unset path; no test sets it"
        )]
        std::env::remove_var(envreg::Knob::Telemetry.name());
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
    fn spans_emit_journal_begin_end_pairs() {
        with_isolated(|| {
            journal::reset();
            journal::set_enabled(true);
            {
                let _span = span!("lp.solve");
                event!("evaluate.shot_failed", 9);
            }
            journal::set_enabled(false);
            let events = journal::collect();
            let kinds: Vec<(&str, journal::Phase)> =
                events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
            assert_eq!(
                kinds,
                [
                    ("lp.solve", journal::Phase::Begin),
                    ("evaluate.shot_failed", journal::Phase::Instant),
                    ("lp.solve", journal::Phase::End),
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
                let _span = span!("lp.solve");
            }
            journal::set_enabled(false);
            let _t = Telemetry::enabled();
            // The journal saw the span...
            let events = journal::collect();
            assert_eq!(events.len(), 2);
            // ...but the aggregate layer recorded nothing.
            assert!(snapshot().timer("lp.solve").is_none_or(|t| t.count == 0));
            journal::reset();
        });
    }
}
