//! The event journal: a bounded, thread-sharded timeline of begin / end /
//! instant records.
//!
//! Counters and span timers (the aggregate layer in the crate root) answer
//! *how much* and *how long on average*; the journal answers *when*, and
//! *in which trial*: a record belongs to the [`crate::stage::TRIAL_SPAN`]
//! open on its thread, whose `Begin` record carries the trial seed. Each
//! thread appends `Event`s into its own fixed-capacity ring (no locks, no
//! shared cache lines on the hot path), oldest records are overwritten when
//! the ring fills, and rings drain into a bounded global buffer when their
//! thread exits or [`flush_thread`] runs. The result exports as JSONL
//! ([`export_jsonl`]): one event object per line, the format the `report`
//! binary analyses and [`parse_jsonl`] reads back.
//!
//! Recording is off by default; [`init_from_env`] enables it when
//! `SURFNET_TRACE=<path>` is set. When disabled, every journal call is one
//! relaxed atomic load.

use crate::catalog::CATALOG;
use crate::envreg::{self, Knob};
use crate::json::{obj, Value};
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
#[expect(
    clippy::disallowed_methods,
    reason = "monotonic tally read for reporting; no other memory is inferred from the value"
)]
pub fn dropped_events() -> u64 {
    DROPPED_EVENTS.load(Ordering::Relaxed)
}

/// Returns whether journal recording is enabled (one relaxed load).
#[inline(always)]
#[expect(
    clippy::disallowed_methods,
    reason = "on/off gate; events live in thread-local rings, nothing is published through this flag"
)]
pub fn enabled() -> bool {
    JOURNAL.load(Ordering::Relaxed)
}

/// Turns journal recording on or off (process-global).
pub fn set_enabled(on: bool) {
    #[expect(
        clippy::disallowed_methods,
        reason = "gate flip; drains synchronize on the global buffer mutex, not on this flag"
    )]
    JOURNAL.store(on, Ordering::Relaxed);
}

/// The lifecycle phase of a journal `Event`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A duration opens (JSONL `"phase":"B"`).
    Begin,
    /// The matching duration closes (`"E"`).
    End,
    /// A point-in-time marker (`"i"`).
    Instant,
}

impl Phase {
    /// The JSONL `phase` code for this record kind.
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
}

/// One journal record with an owned name — the form exporters consume and
/// [`parse_jsonl`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Nanoseconds since the journal epoch (first record of the process).
    pub ts_ns: u64,
    /// Recording thread's journal id (dense, assigned in first-record order).
    pub tid: u32,
    /// Event name: a [`crate::catalog`] event, or a timer (a span's
    /// `Begin`/`End` pair, or a trial's per-stage self-time instants).
    pub name: String,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Optional numeric payload.
    pub arg: Option<u64>,
}

impl Event {
    fn to_owned_event(self) -> OwnedEvent {
        OwnedEvent {
            ts_ns: self.ts_ns,
            tid: self.tid,
            name: self.name.to_string(),
            phase: self.phase,
            arg: self.arg,
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(crate::clock)
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
    #[expect(
        clippy::disallowed_methods,
        reason = "unique-id allocation needs only the fetch_add's atomicity"
    )]
    fn new() -> ThreadRing {
        ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            buf: Vec::new(),
            head: 0,
        }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < THREAD_RING_CAPACITY {
            self.buf.push(e);
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "commutative tally; exactness needs atomicity only"
            )]
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
            #[expect(
                clippy::disallowed_methods,
                reason = "commutative tally, and the global buffer mutex is already held here"
            )]
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

/// Appends one record of the catalog name in `slot` to the calling
/// thread's ring (no-op when the journal is disabled). Span guards, the
/// trial scope ([`crate::stage::trial_scope`]) and the [`crate::event!`]
/// macro (through [`crate::record_event`]) call this, each
/// with a slot resolved at compile time, so every record carries a catalog
/// name.
#[inline]
pub(crate) fn record(slot: usize, phase: Phase, arg: Option<u64>) {
    if !enabled() {
        return;
    }
    let name = CATALOG[slot].0;
    let ts_ns = epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let tid = ring.tid;
        ring.push(Event {
            ts_ns,
            tid,
            name,
            phase,
            arg,
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
/// miss the automatic drain. Scoped workers therefore spawn through
/// [`crate::spawn_scoped`], which calls `flush_thread()` after the
/// worker's closure returns.
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
    #[expect(
        clippy::disallowed_methods,
        reason = "test-support tally reset; callers serialize tests touching the journal"
    )]
    DROPPED_EVENTS.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// SURFNET_TRACE configuration.

fn trace_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Reads `SURFNET_TRACE`; a path enables the journal and sets the export
/// path ([`write_trace`] writes there), and an off form
/// ([`envreg::is_off`]) disables. Returns the configured path, if any. An
/// on/off switch value (`1`, `on`, ...) exits 2 ([`envreg::parse_path`]).
pub fn init_from_env() -> Option<PathBuf> {
    let raw = Knob::Trace.raw().unwrap_or_default();
    let path = envreg::or_exit(envreg::parse_path(Knob::Trace, "trace file", &raw));
    *trace_path().lock().unwrap_or_else(PoisonError::into_inner) = path.clone();
    set_enabled(path.is_some());
    if path.is_some() {
        epoch(); // pin t=0 at init, not at the first record
    }
    path
}

/// Exports the journal as [`export_jsonl`] to the `SURFNET_TRACE` path
/// configured by [`init_from_env`], whatever its extension. Returns the
/// written path, `None` when no path is configured.
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
    std::fs::write(&path, export_jsonl(&collect()))?;
    Ok(Some(path))
}

// ---------------------------------------------------------------------------
// Exporter + loader.

/// Renders events as JSONL: one `{"ts_ns","tid","name","phase","arg"?}`
/// object per line. [`parse_jsonl`] inverts this exactly.
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
        obj(pairs).write(&mut out);
        out.push('\n');
    }
    out
}

/// Parses [`export_jsonl`] output (blank lines skipped) back into events.
///
/// # Errors
///
/// Names the first malformed line (1-based) and what was wrong with it:
/// a line that is not JSON, a missing field, or a field of the wrong type
/// (an `arg`, when present, must be a u64).
pub fn parse_jsonl(text: &str) -> Result<Vec<OwnedEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = Value::parse(line).map_err(|e| bad(&e.to_string()))?;
        let field = |key: &str| v.get(key).ok_or_else(|| bad(&format!("missing {key:?}")));
        events.push(OwnedEvent {
            ts_ns: field("ts_ns")?
                .as_u64()
                .ok_or_else(|| bad("ts_ns not a u64"))?,
            tid: field("tid")?
                .as_u64()
                .and_then(|tid| u32::try_from(tid).ok())
                .ok_or_else(|| bad("tid not a u32"))?,
            name: field("name")?
                .as_str()
                .ok_or_else(|| bad("name not a string"))?
                .to_string(),
            phase: field("phase")?
                .as_str()
                .and_then(Phase::from_code)
                .ok_or_else(|| bad("bad phase"))?,
            arg: v
                .get("arg")
                .map(|arg| arg.as_u64().ok_or_else(|| bad("arg not a u64")))
                .transpose()?,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{slot, MetricKind};

    /// A span timer's slot, for `Begin`/`End` records.
    const SPAN: usize = slot("lp.solve", MetricKind::Timer);
    /// A journal event's slot, for instants.
    const MARK: usize = slot("evaluate.shot_failed", MetricKind::Event);

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
            record(SPAN, Phase::Begin, None);
            record(MARK, Phase::Instant, Some(7));
            record(SPAN, Phase::End, None);
            let events = collect();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names, ["lp.solve", "evaluate.shot_failed", "lp.solve"]);
            assert_eq!(events[1].arg, Some(7));
            assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_journal(|| {
            set_enabled(false);
            record(MARK, Phase::Instant, None);
            assert!(collect().is_empty());
        });
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        with_journal(|| {
            for i in 0..THREAD_RING_CAPACITY as u64 + 10 {
                record(MARK, Phase::Instant, Some(i));
            }
            // The 10 oldest were overwritten; the rest come back oldest
            // first across the wrap.
            let args: Vec<u64> = collect().iter().filter_map(|e| e.arg).collect();
            assert_eq!(args.len(), THREAD_RING_CAPACITY);
            assert_eq!(args.first(), Some(&10));
            assert!(args.windows(2).all(|w| w[1] == w[0] + 1));
        });
    }

    #[test]
    fn worker_threads_drain_on_exit_with_distinct_tids() {
        with_journal(|| {
            record(MARK, Phase::Instant, None);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    // Scope join does not wait for TLS destructors; the
                    // helper drains the ring so collect() below sees us.
                    crate::spawn_scoped(s, || record(MARK, Phase::Instant, None));
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
    fn jsonl_round_trips_through_loader() {
        with_journal(|| {
            record(SPAN, Phase::Begin, None);
            record(SPAN, Phase::End, Some(42));
            record(MARK, Phase::Instant, None);
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
        // A tid past u32 is rejected, not truncated onto another thread.
        let line =
            |tid: u64| format!("{{\"ts_ns\":1,\"tid\":{tid},\"name\":\"x\",\"phase\":\"i\"}}");
        assert_eq!(
            parse_jsonl(&line(u32::MAX.into())).unwrap()[0].tid,
            u32::MAX
        );
        assert_eq!(
            parse_jsonl(&line(1 << 32)).unwrap_err(),
            "line 1: tid not a u32"
        );
        // The error names the line and claims no byte offset of its own.
        let good = line(1);
        let text = format!("{good}\n{good}\n{{\"ts_ns\":1,\"name\":\"x\",\"phase\":\"i\"}}\n");
        assert_eq!(parse_jsonl(&text).unwrap_err(), "line 3: missing \"tid\"");
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(
            parse_jsonl(&deep).unwrap_err(),
            "line 1: json error at byte 128: nesting deeper than 128 levels"
        );
        // A malformed arg fails like any other field; an absent one is None.
        for arg in ["-1", "\"x\"", "1.5"] {
            let text = format!(
                "{good}\n{}\n",
                good.replace('}', &format!(",\"arg\":{arg}}}"))
            );
            assert_eq!(
                parse_jsonl(&text).unwrap_err(),
                "line 2: arg not a u64",
                "{arg}"
            );
        }
        assert_eq!(parse_jsonl(&good).unwrap()[0].arg, None);
    }

    #[test]
    fn dropped_counter_tracks_ring_eviction() {
        with_journal(|| {
            assert_eq!(dropped_events(), 0);
            for _ in 0..THREAD_RING_CAPACITY + 10 {
                record(MARK, Phase::Instant, None);
            }
            assert_eq!(dropped_events(), 10);
            reset();
            assert_eq!(dropped_events(), 0);
        });
    }
}
