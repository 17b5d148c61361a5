//! The event journal: a bounded, thread-sharded timeline of begin / end /
//! instant records.
//!
//! Counters and span timers (the aggregate layer in the crate root) answer
//! *how much* and *how long on average*; the journal answers *when*. Each
//! thread appends `Event`s into its own fixed-capacity ring (no locks, no
//! shared cache lines on the hot path), oldest records are overwritten when
//! the ring fills, and rings drain into a bounded global buffer when their
//! thread exits or [`flush_thread`] runs. The result exports as:
//!
//! * **Chrome trace format** ([`export_chrome`]) — a `traceEvents` array
//!   with one track per thread, loadable in [Perfetto](https://ui.perfetto.dev)
//!   or `chrome://tracing`;
//! * **JSONL** ([`export_jsonl`]) — one event object per line, the format
//!   the flight recorder embeds and [`parse_jsonl`] reads back.
//!
//! Recording is off by default; [`init_from_env`] enables it when
//! `SURFNET_TRACE=<path>` is set (extension `.jsonl` selects JSONL,
//! anything else Chrome trace). When disabled, every journal call is one
//! relaxed atomic load.

use crate::json::{obj, JsonError, Value};
use crate::trace::{self, TraceCtx};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Capacity of each per-thread ring; older events are overwritten.
pub const THREAD_RING_CAPACITY: usize = 16_384;

/// Capacity of the global drained-events buffer; oldest drop first.
pub const GLOBAL_CAPACITY: usize = 262_144;

static JOURNAL: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static DROPPED_EVENTS: AtomicU64 = AtomicU64::new(0);

/// How many recorded events have been evicted unread — overwritten in a
/// full thread ring, or drained past [`GLOBAL_CAPACITY`]. Exported by
/// [`crate::snapshot`] as the `journal.dropped` counter so a truncated
/// trace is visible instead of silently reading as "captured everything".
pub fn dropped_events() -> u64 {
    // analyzer:allow(atomic-ordering): monotonic tally read for reporting;
    // no other memory is inferred from the value
    DROPPED_EVENTS.load(Ordering::Relaxed)
}

/// Returns whether journal recording is enabled (one relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    // analyzer:allow(atomic-ordering): on/off gate; events live in
    // thread-local rings, nothing is published through this flag
    JOURNAL.load(Ordering::Relaxed)
}

/// Turns journal recording on or off (process-global).
pub fn set_enabled(on: bool) {
    // analyzer:allow(atomic-ordering): gate flip; drains synchronize on
    // the global buffer mutex, not on this flag
    JOURNAL.store(on, Ordering::Relaxed);
}

/// The lifecycle phase of a journal `Event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A duration opens (Chrome `ph:"B"`).
    Begin,
    /// The matching duration closes (Chrome `ph:"E"`).
    End,
    /// A point-in-time marker (Chrome `ph:"i"`).
    Instant,
}

impl Phase {
    /// The Chrome trace-event phase code for this record kind.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }

    fn from_code(code: &str) -> Option<Phase> {
        match code {
            "B" => Some(Phase::Begin),
            "E" => Some(Phase::End),
            "i" => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// One journal record, as written on the hot path (name is static).
#[derive(Debug, Clone, Copy)]
struct Event {
    ts_ns: u64,
    tid: u32,
    name: &'static str,
    phase: Phase,
    arg: Option<u64>,
    ctx: TraceCtx,
}

/// One journal record with an owned name — the form exporters consume and
/// [`parse_jsonl`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Nanoseconds since the journal epoch (first record of the process).
    pub ts_ns: u64,
    /// Recording thread's journal id (dense, assigned in first-record order).
    pub tid: u32,
    /// Event name (must appear in [`crate::catalog`] with kind `Event`,
    /// or be a span timer name for `Begin`/`End` pairs emitted by spans).
    pub name: String,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Optional numeric payload.
    pub arg: Option<u64>,
    /// Trace context installed when the event was recorded (see
    /// [`crate::trace`]): which trial / request / segment it belongs to.
    pub ctx: TraceCtx,
}

impl Event {
    fn to_owned_event(self) -> OwnedEvent {
        OwnedEvent {
            ts_ns: self.ts_ns,
            tid: self.tid,
            name: self.name.to_string(),
            phase: self.phase,
            arg: self.arg,
            ctx: self.ctx,
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn global() -> &'static Mutex<Vec<Event>> {
    static GLOBAL: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Fixed-capacity overwrite-oldest ring, one per thread.
struct ThreadRing {
    tid: u32,
    buf: Vec<Event>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
}

impl ThreadRing {
    fn new() -> ThreadRing {
        ThreadRing {
            // analyzer:allow(atomic-ordering): unique-id allocation needs
            // only the fetch_add's atomicity
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            buf: Vec::new(),
            head: 0,
        }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < THREAD_RING_CAPACITY {
            self.buf.push(e);
        } else {
            // analyzer:allow(atomic-ordering): commutative tally; exactness
            // needs atomicity only
            DROPPED_EVENTS.fetch_add(1, Ordering::Relaxed);
            self.buf[self.head] = e;
            self.head = (self.head + 1) % THREAD_RING_CAPACITY;
        }
    }

    /// Records oldest-first.
    fn in_order(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    fn drain_into_global(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut global = global().lock().unwrap_or_else(PoisonError::into_inner);
        global.extend(self.in_order().copied());
        let excess = global.len().saturating_sub(GLOBAL_CAPACITY);
        if excess > 0 {
            // analyzer:allow(atomic-ordering): commutative tally, and the
            // global buffer mutex is already held here
            DROPPED_EVENTS.fetch_add(excess as u64, Ordering::Relaxed);
            global.drain(..excess);
        }
        self.buf.clear();
        self.head = 0;
    }
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        self.drain_into_global();
    }
}

thread_local! {
    static RING: RefCell<ThreadRing> = RefCell::new(ThreadRing::new());
}

/// Appends one record to the calling thread's ring (no-op when the journal
/// is disabled). The [`crate::event!`] macro and span guards call this.
#[inline]
pub fn record(name: &'static str, phase: Phase, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    let ts_ns = epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let ctx = trace::current();
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let tid = ring.tid;
        ring.push(Event {
            ts_ns,
            tid,
            name,
            phase,
            arg,
            ctx,
        });
    });
}

/// Drains the calling thread's ring into the global buffer. Worker threads
/// drain automatically on exit; the main thread calls this (via
/// [`collect`]) before exporting.
///
/// Scoped-thread caveat: `std::thread::scope` unblocks when a worker's
/// *closure* returns, which can be before the OS thread runs its TLS
/// destructors — so a collecting thread racing right behind a scope can
/// miss the automatic drain. Workers whose events must be visible
/// immediately after the scope call `flush_thread()` as their last act
/// (the pipeline's trial workers do).
pub fn flush_thread() {
    RING.with(|r| r.borrow_mut().drain_into_global());
}

/// Flushes the calling thread and returns every drained event, sorted by
/// `(tid, ts_ns)` so each thread's track is contiguous and in time order.
pub fn collect() -> Vec<OwnedEvent> {
    flush_thread();
    let global = global().lock().unwrap_or_else(PoisonError::into_inner);
    let mut events: Vec<OwnedEvent> = global.iter().map(|e| e.to_owned_event()).collect();
    drop(global);
    events.sort_by_key(|a| (a.tid, a.ts_ns));
    events
}

/// The last `max` events recorded by the *calling thread* that are still in
/// its ring — the "what just happened here" tail the flight recorder
/// attaches to failure artifacts. Does not drain the ring.
pub fn thread_tail(max: usize) -> Vec<OwnedEvent> {
    RING.with(|r| {
        let ring = r.borrow();
        let events: Vec<&Event> = ring.in_order().collect();
        let skip = events.len().saturating_sub(max);
        events[skip..].iter().map(|e| e.to_owned_event()).collect()
    })
}

/// Clears the global buffer, the calling thread's ring, and the dropped
/// tally (test support).
pub fn reset() {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        ring.buf.clear();
        ring.head = 0;
    });
    global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    // analyzer:allow(atomic-ordering): test-support tally reset; callers
    // serialize tests touching the journal
    DROPPED_EVENTS.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// SURFNET_TRACE configuration.

fn trace_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Reads `SURFNET_TRACE`; a non-empty value enables the journal and sets
/// the export path ([`write_trace`] writes there). `0`/`off` (or unset)
/// disables. Returns the configured path, if any.
pub fn init_from_env() -> Option<PathBuf> {
    let value = std::env::var("SURFNET_TRACE").unwrap_or_default();
    let value = value.trim();
    let path = match value {
        "" | "0" | "off" => None,
        p => Some(PathBuf::from(p)),
    };
    *trace_path().lock().unwrap_or_else(PoisonError::into_inner) = path.clone();
    set_enabled(path.is_some());
    if path.is_some() {
        epoch(); // pin t=0 at init, not at the first record
    }
    path
}

/// Exports the journal to the `SURFNET_TRACE` path configured by
/// [`init_from_env`]: `.jsonl` extension selects [`export_jsonl`], anything
/// else [`export_chrome`]. Returns the written path, `None` when no path is
/// configured.
///
/// # Errors
///
/// Propagates the filesystem write error.
pub fn write_trace() -> std::io::Result<Option<PathBuf>> {
    let path = trace_path()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let Some(path) = path else { return Ok(None) };
    let events = collect();
    let text = if path.extension().is_some_and(|e| e == "jsonl") {
        export_jsonl(&events)
    } else {
        export_chrome(&events)
    };
    std::fs::write(&path, text)?;
    Ok(Some(path))
}

// ---------------------------------------------------------------------------
// Exporters + loader.

/// Renders events as Chrome trace format (JSON object with a
/// `traceEvents` array; timestamps in microseconds, one `tid` track per
/// recording thread). Loadable in Perfetto and `chrome://tracing`.
///
/// Events carrying a trial id are grouped into one *process* track per
/// trial (`pid` = trial id, named by a `process_name` metadata record);
/// context-free events land on the default `pid` 1. Request / segment ids
/// surface in `args`.
pub fn export_chrome(events: &[OwnedEvent]) -> String {
    let mut trace_events: Vec<Value> = Vec::with_capacity(events.len());
    let mut named_trials: Vec<u64> = Vec::new();
    for e in events {
        let pid = e.ctx.trial.unwrap_or(1);
        if let Some(trial) = e.ctx.trial {
            if !named_trials.contains(&trial) {
                named_trials.push(trial);
                trace_events.push(obj(vec![
                    ("name", Value::from("process_name")),
                    ("ph", Value::from("M")),
                    ("pid", Value::from(trial)),
                    ("tid", Value::from(e.tid)),
                    (
                        "args",
                        obj(vec![("name", Value::Str(format!("trial {trial}")))]),
                    ),
                ]));
            }
        }
        let mut pairs = vec![
            ("name", Value::from(e.name.as_str())),
            ("ph", Value::from(e.phase.code())),
            // Integer-nanosecond precision: µs with fractional part.
            ("ts", Value::Num(e.ts_ns as f64 / 1_000.0)),
            ("pid", Value::from(pid)),
            ("tid", Value::from(e.tid)),
        ];
        if e.phase == Phase::Instant {
            pairs.push(("s", Value::from("t")));
        }
        let mut args = Vec::new();
        if let Some(arg) = e.arg {
            args.push(("arg", Value::from(arg)));
        }
        if let Some(request) = e.ctx.request {
            args.push(("req", Value::from(request)));
        }
        if let Some(segment) = e.ctx.segment {
            args.push(("seg", Value::from(segment)));
        }
        if !args.is_empty() {
            pairs.push(("args", obj(args)));
        }
        trace_events.push(obj(pairs));
    }
    obj(vec![
        ("traceEvents", Value::Arr(trace_events)),
        ("displayTimeUnit", Value::from("ns")),
    ])
    .to_string()
}

/// Renders events as JSONL: one
/// `{"ts_ns","tid","name","phase","arg"?,"trial"?,"req"?,"seg"?}` object
/// per line. [`parse_jsonl`] inverts this exactly.
pub fn export_jsonl(events: &[OwnedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let mut pairs = vec![
            ("ts_ns", Value::from(e.ts_ns)),
            ("tid", Value::from(e.tid)),
            ("name", Value::from(e.name.as_str())),
            ("phase", Value::from(e.phase.code())),
        ];
        if let Some(arg) = e.arg {
            pairs.push(("arg", Value::from(arg)));
        }
        if let Some(trial) = e.ctx.trial {
            pairs.push(("trial", Value::from(trial)));
        }
        if let Some(request) = e.ctx.request {
            pairs.push(("req", Value::from(request)));
        }
        if let Some(segment) = e.ctx.segment {
            pairs.push(("seg", Value::from(segment)));
        }
        obj(pairs).write(&mut out);
        out.push('\n');
    }
    out
}

/// Parses [`export_jsonl`] output (blank lines skipped) back into events.
///
/// # Errors
///
/// Reports the first malformed line (1-based) and what was wrong with it.
pub fn parse_jsonl(text: &str) -> Result<Vec<OwnedEvent>, JsonError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |message: String| JsonError {
            message,
            offset: i + 1,
        };
        let v = Value::parse(line).map_err(|e| bad(format!("line {}: {}", i + 1, e)))?;
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| bad(format!("line {}: missing {key:?}", i + 1)))
        };
        events.push(OwnedEvent {
            ts_ns: field("ts_ns")?
                .as_u64()
                .ok_or_else(|| bad(format!("line {}: ts_ns not a u64", i + 1)))?,
            tid: field("tid")?
                .as_u64()
                .ok_or_else(|| bad(format!("line {}: tid not a u64", i + 1)))?
                as u32,
            name: field("name")?
                .as_str()
                .ok_or_else(|| bad(format!("line {}: name not a string", i + 1)))?
                .to_string(),
            phase: field("phase")?
                .as_str()
                .and_then(Phase::from_code)
                .ok_or_else(|| bad(format!("line {}: bad phase", i + 1)))?,
            arg: v.get("arg").and_then(Value::as_u64),
            ctx: TraceCtx {
                trial: v.get("trial").and_then(Value::as_u64),
                request: v.get("req").and_then(Value::as_u64),
                segment: v.get("seg").and_then(Value::as_u64),
            },
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Journal state is process-global; serialize the tests that touch it.
    // They take the crate's one test guard, not a journal mutex of their
    // own: `crate::recording` reads the telemetry and the journal switch
    // together, so a second mutex would let a journal test flip a switch
    // under a telemetry test.
    fn with_journal<R>(f: impl FnOnce() -> R) -> R {
        let _g = crate::telemetry_test_guard();
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn records_and_collects_in_time_order() {
        with_journal(|| {
            record("test.a", Phase::Begin, None);
            record("test.b", Phase::Instant, Some(7));
            record("test.a", Phase::End, None);
            let events = collect();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names, ["test.a", "test.b", "test.a"]);
            assert_eq!(events[1].arg, Some(7));
            assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_journal(|| {
            set_enabled(false);
            record("test.silent", Phase::Instant, None);
            assert!(collect().is_empty());
        });
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        with_journal(|| {
            for _ in 0..THREAD_RING_CAPACITY + 10 {
                record("test.flood", Phase::Instant, None);
            }
            let tail = thread_tail(usize::MAX);
            assert_eq!(tail.len(), THREAD_RING_CAPACITY);
            // Oldest-first order maintained across the wrap.
            assert!(tail.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        });
    }

    #[test]
    fn thread_tail_returns_most_recent() {
        with_journal(|| {
            for i in 0..10u64 {
                record("test.tail", Phase::Instant, Some(i));
            }
            let tail = thread_tail(3);
            let args: Vec<u64> = tail.iter().filter_map(|e| e.arg).collect();
            assert_eq!(args, [7, 8, 9]);
        });
    }

    #[test]
    fn worker_threads_drain_on_exit_with_distinct_tids() {
        with_journal(|| {
            record("test.main", Phase::Instant, None);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        record("test.worker", Phase::Instant, None);
                        // Scope join does not wait for TLS destructors;
                        // drain explicitly so collect() below sees us.
                        flush_thread();
                    });
                }
            });
            let events = collect();
            assert_eq!(events.len(), 3, "{events:?}");
            let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
            tids.dedup();
            assert_eq!(tids.len(), 3, "each thread gets its own track: {tids:?}");
        });
    }

    #[test]
    fn chrome_export_is_valid_json_with_monotone_tracks() {
        with_journal(|| {
            record("test.span", Phase::Begin, None);
            record("test.mark", Phase::Instant, Some(3));
            record("test.span", Phase::End, None);
            let text = export_chrome(&collect());
            let v = Value::parse(&text).expect("chrome trace must be valid JSON");
            let events = v.get("traceEvents").unwrap().as_array().unwrap();
            assert_eq!(events.len(), 3);
            let mut last_ts_per_tid: Vec<(u64, f64)> = Vec::new();
            for e in events {
                let tid = e.get("tid").unwrap().as_u64().unwrap();
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                match last_ts_per_tid.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, last)) => {
                        assert!(ts >= *last, "ts must be monotone per track");
                        *last = ts;
                    }
                    None => last_ts_per_tid.push((tid, ts)),
                }
            }
            let instant = &events[1];
            assert_eq!(instant.get("ph").unwrap().as_str(), Some("i"));
            assert_eq!(instant.get("s").unwrap().as_str(), Some("t"));
            assert_eq!(
                instant.get("args").unwrap().get("arg").unwrap().as_u64(),
                Some(3)
            );
        });
    }

    #[test]
    fn jsonl_round_trips_through_loader() {
        with_journal(|| {
            record("test.rt", Phase::Begin, None);
            record("test.rt", Phase::End, Some(42));
            record("test.other", Phase::Instant, None);
            let events = collect();
            let text = export_jsonl(&events);
            let parsed = parse_jsonl(&text).unwrap();
            assert_eq!(parsed, events);
        });
    }

    #[test]
    fn jsonl_loader_reports_bad_lines() {
        assert!(parse_jsonl("{\"ts_ns\":1}\n").is_err());
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn dropped_counter_tracks_ring_eviction() {
        with_journal(|| {
            assert_eq!(dropped_events(), 0);
            for _ in 0..THREAD_RING_CAPACITY + 10 {
                record("test.flood", Phase::Instant, None);
            }
            assert_eq!(dropped_events(), 10);
            reset();
            assert_eq!(dropped_events(), 0);
        });
    }

    #[test]
    fn events_snapshot_the_installed_trace_context() {
        with_journal(|| {
            let _t = trace::trial_scope(70_001);
            {
                let _r = trace::request_scope(2);
                let _s = trace::segment_scope(1);
                record("test.ctx", Phase::Instant, Some(5));
            }
            record("test.trial-only", Phase::Instant, None);
            let events = collect();
            assert_eq!(events.len(), 2);
            assert_eq!(
                events[0].ctx,
                TraceCtx {
                    trial: Some(70_001),
                    request: Some(2),
                    segment: Some(1),
                }
            );
            assert_eq!(events[1].ctx.trial, Some(70_001));
            assert_eq!(events[1].ctx.request, None);
        });
    }

    #[test]
    fn jsonl_round_trips_context_fields() {
        with_journal(|| {
            {
                let _t = trace::trial_scope(9);
                let _r = trace::request_scope(0);
                record("test.ctx-rt", Phase::Begin, None);
                record("test.ctx-rt", Phase::End, Some(1));
            }
            record("test.bare", Phase::Instant, None);
            let events = collect();
            let text = export_jsonl(&events);
            assert!(text.contains("\"trial\":9"));
            assert!(text.contains("\"req\":0"));
            let parsed = parse_jsonl(&text).unwrap();
            assert_eq!(parsed, events);
        });
    }

    #[test]
    fn chrome_export_groups_tracks_per_trial() {
        with_journal(|| {
            record("test.outside", Phase::Instant, None);
            {
                let _t = trace::trial_scope(41);
                record("test.inside", Phase::Instant, None);
            }
            {
                let _t = trace::trial_scope(42);
                let _s = trace::segment_scope(3);
                record("test.inside", Phase::Instant, None);
            }
            let text = export_chrome(&collect());
            let v = Value::parse(&text).unwrap();
            let events = v.get("traceEvents").unwrap().as_array().unwrap();
            // 3 records + 2 process_name metadata records.
            assert_eq!(events.len(), 5);
            let pid_of = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.get("name").unwrap().as_str() == Some(name))
                    .map(|e| e.get("pid").unwrap().as_u64().unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(pid_of("test.outside"), [1]);
            assert_eq!(pid_of("test.inside"), [41, 42]);
            assert_eq!(pid_of("process_name"), [41, 42]);
            let seg = events
                .iter()
                .find(|e| {
                    e.get("name").unwrap().as_str() == Some("test.inside")
                        && e.get("pid").unwrap().as_u64() == Some(42)
                })
                .unwrap();
            assert_eq!(
                seg.get("args").unwrap().get("seg").and_then(Value::as_u64),
                Some(3)
            );
        });
    }
}
