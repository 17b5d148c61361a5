//! Labeled metric **families**: one catalog name, many small-integer labels.
//!
//! A family is registered once under a static catalog name (e.g.
//! `netsim.link.attempts`) and keyed at record time by a [`LabelKey`] — a
//! link endpoint pair, a node id, a segment index, or a code distance. This
//! is the "one bounded family per name" shape per-entity consumers (a
//! link-quality control plane, per-distance latency attribution) need,
//! without giving up the flat layer's discipline:
//!
//! * **Hot path is lock-free.** Recording appends to a thread-local label
//!   map inside the same shard the flat counters use; the global state is
//!   only touched when a shard merges — on [`crate::flush`] or thread exit,
//!   the exact discipline the race harness and the `scoped-flush` lint
//!   enforce.
//! * **Cardinality is bounded.** Each family admits at most
//!   `SURFNET_DIM_CARDINALITY` distinct labels (default
//!   [`DEFAULT_CARDINALITY`]); labels past the cap route to a per-family
//!   `__overflow` bucket and each newly rejected label bumps the
//!   `telemetry.dim.dropped_labels` counter exactly once, so totals are
//!   conserved and the loss is visible in every export.
//! * **Snapshots are deterministic.** [`snapshot_families`] orders families
//!   by name and labels by their encoded key, so repeated runs of a seeded
//!   workload export byte-identical group sections.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::enabled;

/// Default per-family label cap (`SURFNET_DIM_CARDINALITY` overrides).
pub const DEFAULT_CARDINALITY: usize = 1024;

/// The label of the per-family overflow bucket that absorbs every record
/// whose label was rejected by the cardinality cap.
pub const OVERFLOW_LABEL: &str = "__overflow";

/// Small-integer label keying one series inside a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKey {
    /// A network link, as an unordered endpoint pair (normalized low-high).
    Link(u16, u16),
    /// A network node id.
    Node(u32),
    /// A route segment index.
    Segment(u32),
    /// A surface-code distance.
    Distance(u16),
}

// Encoded-key tags. The encoding sorts labels by type then numerically,
// which is the deterministic order snapshots expose.
const TAG_LINK: u64 = 1;
const TAG_NODE: u64 = 2;
const TAG_SEGMENT: u64 = 3;
const TAG_DISTANCE: u64 = 4;
/// Encoded key of the overflow bucket; sorts after every real label.
const OVERFLOW_CODE: u64 = u64::MAX;

impl LabelKey {
    fn encode(self) -> u64 {
        match self {
            LabelKey::Link(a, b) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                (TAG_LINK << 56) | ((lo as u64) << 16) | hi as u64
            }
            LabelKey::Node(n) => (TAG_NODE << 56) | n as u64,
            LabelKey::Segment(s) => (TAG_SEGMENT << 56) | s as u64,
            LabelKey::Distance(d) => (TAG_DISTANCE << 56) | d as u64,
        }
    }
}

/// Renders an encoded label key the way exports spell it: `lo-hi` for
/// links, `n<id>` for nodes, `s<idx>` for segments, `d<dist>` for code
/// distances, and [`OVERFLOW_LABEL`] for the overflow bucket.
fn render_label(code: u64) -> String {
    if code == OVERFLOW_CODE {
        return OVERFLOW_LABEL.to_string();
    }
    let payload = code & ((1u64 << 56) - 1);
    match code >> 56 {
        TAG_LINK => format!("{}-{}", payload >> 16, payload & 0xFFFF),
        TAG_NODE => format!("n{payload}"),
        TAG_SEGMENT => format!("s{payload}"),
        TAG_DISTANCE => format!("d{payload}"),
        _ => format!("?{payload}"),
    }
}

/// Whether a family counts events or accumulates duration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonic per-label event counts ([`counter_family`]).
    Counter,
    /// Per-label duration samples — count + total nanoseconds
    /// ([`histogram_family`]).
    Histogram,
}

/// Per-label accumulator: `value` is the counter value (counter families)
/// or the sample count (histogram families); `sum_ns` is the accumulated
/// nanoseconds (histogram families only).
#[derive(Debug, Clone, Copy, Default)]
struct LabelData {
    value: u64,
    sum_ns: u64,
}

impl LabelData {
    fn absorb(&mut self, other: LabelData) {
        self.value += other.value;
        self.sum_ns += other.sum_ns;
    }

    fn is_zero(&self) -> bool {
        self.value == 0 && self.sum_ns == 0
    }
}

/// Admission state of one label in the global store. `Dropped` entries
/// remember a rejected label so `telemetry.dim.dropped_labels` counts each
/// distinct rejected label exactly once, not once per merge.
enum LabelSlot {
    Admitted(LabelData),
    Dropped,
}

#[derive(Default)]
struct FamilyValues {
    labels: BTreeMap<u64, LabelSlot>,
    admitted: usize,
    overflow: LabelData,
}

struct FamilyDef {
    name: &'static str,
    kind: FamilyKind,
}

#[derive(Default)]
struct DimState {
    defs: Vec<FamilyDef>,
    values: Vec<FamilyValues>,
}

fn state() -> &'static Mutex<DimState> {
    static STATE: OnceLock<Mutex<DimState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(DimState::default()))
}

static DROPPED_LABELS: AtomicU64 = AtomicU64::new(0);

/// How many distinct labels have been rejected by the cardinality cap
/// across all families. Also exported by [`crate::snapshot`] as the
/// `telemetry.dim.dropped_labels` counter.
pub fn dropped_labels() -> u64 {
    // analyzer:allow(atomic-ordering): monotonic tally read for reporting
    DROPPED_LABELS.load(Ordering::Relaxed)
}

// 0 means "not yet resolved from the environment".
static CARDINALITY: AtomicUsize = AtomicUsize::new(0);

/// Parses a `SURFNET_DIM_CARDINALITY` value: a positive integer (the
/// per-family label cap), or unset/empty for [`DEFAULT_CARDINALITY`].
///
/// # Errors
///
/// Anything else is rejected with a message naming the bad value and the
/// accepted forms — the process aborts rather than silently running with a
/// default the operator did not choose.
pub fn parse_cardinality(raw: Option<&str>) -> Result<usize, String> {
    let raw = raw.unwrap_or("").trim();
    if raw.is_empty() {
        return Ok(DEFAULT_CARDINALITY);
    }
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "unrecognized SURFNET_DIM_CARDINALITY value {raw:?}; \
             expected a positive integer (per-family label cap) or unset"
        )),
    }
}

fn cardinality() -> usize {
    // analyzer:allow(atomic-ordering): lazily cached parse result; every
    // thread resolves the same value from the same environment
    let cached = CARDINALITY.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let parsed = match parse_cardinality(std::env::var("SURFNET_DIM_CARDINALITY").ok().as_deref()) {
        Ok(n) => n,
        Err(message) => {
            eprintln!("surfnet-telemetry: {message}");
            std::process::exit(2);
        }
    };
    // analyzer:allow(atomic-ordering): idempotent cache publish
    CARDINALITY.store(parsed, Ordering::Relaxed);
    parsed
}

/// Resolves `SURFNET_DIM_CARDINALITY` eagerly so a garbled value aborts
/// at startup (exit 2) rather than on the first labeled record — which
/// with telemetry off would never happen, silently accepting the typo.
/// Called from [`Telemetry::init_from_env`](crate::Telemetry).
pub fn init_from_env() {
    let _ = cardinality();
}

/// Overrides the per-family label cap (test support — lets the overflow
/// path be exercised without touching the process environment). Pass 0 to
/// fall back to the environment on next use.
#[doc(hidden)]
pub fn set_cardinality_override(cap: usize) {
    // analyzer:allow(atomic-ordering): test-support knob
    CARDINALITY.store(cap, Ordering::Relaxed);
}

fn register_family(name: &'static str, kind: FamilyKind) -> u32 {
    let mut st = state().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(id) = st.defs.iter().position(|d| d.name == name) {
        assert!(
            st.defs[id].kind == kind,
            "family {name:?} registered as both counter and histogram"
        );
        return id as u32;
    }
    st.defs.push(FamilyDef { name, kind });
    st.values.push(FamilyValues::default());
    (st.defs.len() - 1) as u32
}

/// Handle to a labeled counter family. Cheap to copy; resolve once with
/// [`counter_family`] and cache at the call site for hot loops.
#[derive(Debug, Clone, Copy)]
pub struct CounterFamily {
    id: u32,
}

/// Registers (or finds) the counter family `name`.
pub fn counter_family(name: &'static str) -> CounterFamily {
    CounterFamily {
        id: register_family(name, FamilyKind::Counter),
    }
}

impl CounterFamily {
    /// Adds `n` to the series keyed by `key`, if telemetry is enabled.
    #[inline]
    pub fn add(&self, key: LabelKey, n: u64) {
        if enabled() && n != 0 {
            record_local(self.id, key.encode(), n, 0);
        }
    }

    /// Adds 1 to the series keyed by `key`, if telemetry is enabled.
    #[inline]
    pub fn incr(&self, key: LabelKey) {
        self.add(key, 1);
    }
}

/// Handle to a labeled histogram family (per-label duration samples).
/// Cheap to copy; resolve once with [`histogram_family`] and cache at the
/// call site for hot loops.
#[derive(Debug, Clone, Copy)]
pub struct HistogramFamily {
    id: u32,
}

/// Registers (or finds) the histogram family `name`.
pub fn histogram_family(name: &'static str) -> HistogramFamily {
    HistogramFamily {
        id: register_family(name, FamilyKind::Histogram),
    }
}

impl HistogramFamily {
    /// Records one externally measured sample of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, key: LabelKey, ns: u64) {
        if enabled() {
            record_local(self.id, key.encode(), 1, ns);
        }
    }

    /// Times one closure invocation as a single sample.
    #[inline]
    pub fn time<R>(&self, key: LabelKey, f: impl FnOnce() -> R) -> R {
        if !enabled() {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        record_local(self.id, key.encode(), 1, ns);
        r
    }
}

// ---------------------------------------------------------------------------
// Thread-local label shards (owned by `crate::LocalShard`).

/// One family's thread-local label map: a tiny linear-scanned vec — the
/// per-thread active label set is small (bounded by the cardinality cap in
/// any sane workload) and a vec scan beats a map for a handful of entries.
#[derive(Default)]
pub(crate) struct FamilyShard {
    labels: Vec<(u64, LabelData)>,
}

#[inline]
fn record_local(id: u32, code: u64, value: u64, sum_ns: u64) {
    crate::with_dim_shard(|dim| {
        let id = id as usize;
        if dim.len() <= id {
            dim.resize_with(id + 1, FamilyShard::default);
        }
        let shard = &mut dim[id];
        if let Some((_, data)) = shard.labels.iter_mut().find(|(c, _)| *c == code) {
            data.value += value;
            data.sum_ns += sum_ns;
        } else {
            shard.labels.push((code, LabelData { value, sum_ns }));
        }
    });
}

/// Merges one thread's label shards into the global store, applying the
/// cardinality cap. Called from `LocalShard::merge_into_global`, i.e. on
/// every [`crate::flush`] and on thread exit — label data obeys the same
/// scoped-flush discipline as the flat metrics.
pub(crate) fn merge_local(dim: &mut [FamilyShard]) {
    if dim.iter().all(|s| s.labels.is_empty()) {
        return;
    }
    let cap = cardinality();
    let mut st = state().lock().unwrap_or_else(PoisonError::into_inner);
    for (id, shard) in dim.iter_mut().enumerate() {
        if shard.labels.is_empty() {
            continue;
        }
        let Some(fam) = st.values.get_mut(id) else {
            continue;
        };
        for (code, data) in shard.labels.drain(..) {
            match fam.labels.get_mut(&code) {
                Some(LabelSlot::Admitted(existing)) => existing.absorb(data),
                Some(LabelSlot::Dropped) => fam.overflow.absorb(data),
                None => {
                    if fam.admitted < cap {
                        fam.admitted += 1;
                        fam.labels.insert(code, LabelSlot::Admitted(data));
                    } else {
                        // First sighting of an over-cap label: remember the
                        // rejection (so the drop counts once), fold the
                        // data into the overflow bucket.
                        fam.labels.insert(code, LabelSlot::Dropped);
                        // analyzer:allow(atomic-ordering): commutative tally
                        DROPPED_LABELS.fetch_add(1, Ordering::Relaxed);
                        fam.overflow.absorb(data);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot.

/// One labeled series in a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelValue {
    /// Rendered label (`"3-7"`, `"n12"`, `"s2"`, `"d5"`, or `__overflow`).
    pub label: String,
    /// Counter value (counter families) or sample count (histograms).
    pub value: u64,
    /// Accumulated nanoseconds (histogram families; 0 for counters).
    pub total_ns: u64,
}

/// Point-in-time aggregate of one metric family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family catalog name.
    pub name: String,
    /// Counter or histogram family.
    pub kind: FamilyKind,
    /// Per-label values, in deterministic order: labels sorted by encoded
    /// key, the `__overflow` bucket (if any data was shed) last.
    pub labels: Vec<LabelValue>,
}

impl FamilySnapshot {
    /// Value of the series labeled `label`, if present.
    pub fn label(&self, label: &str) -> Option<u64> {
        self.labels
            .iter()
            .find(|l| l.label == label)
            .map(|l| l.value)
    }

    /// Sum of every series' value, including the overflow bucket — the
    /// number a flat (unlabeled) counter would have recorded.
    pub fn total(&self) -> u64 {
        self.labels.iter().map(|l| l.value).sum()
    }
}

/// Snapshots every registered family in deterministic order (families
/// sorted by name, labels by encoded key). The caller is expected to have
/// flushed contributing threads first — [`crate::snapshot`] does.
pub fn snapshot_families() -> Vec<FamilySnapshot> {
    let st = state().lock().unwrap_or_else(PoisonError::into_inner);
    let mut fams: Vec<FamilySnapshot> = st
        .defs
        .iter()
        .zip(&st.values)
        .map(|(def, vals)| {
            let mut labels: Vec<LabelValue> = vals
                .labels
                .iter()
                .filter_map(|(code, slot)| match slot {
                    LabelSlot::Admitted(data) => Some(LabelValue {
                        label: render_label(*code),
                        value: data.value,
                        total_ns: data.sum_ns,
                    }),
                    LabelSlot::Dropped => None,
                })
                .collect();
            if !vals.overflow.is_zero() {
                labels.push(LabelValue {
                    label: render_label(OVERFLOW_CODE),
                    value: vals.overflow.value,
                    total_ns: vals.overflow.sum_ns,
                });
            }
            FamilySnapshot {
                name: def.name.to_string(),
                kind: def.kind,
                labels,
            }
        })
        .collect();
    fams.sort_by(|a, b| a.name.cmp(&b.name));
    fams
}

/// Zeroes every family's label data and the dropped-label count. Family
/// registrations and call-site handles stay valid. Called by
/// [`crate::reset`].
pub(crate) fn reset() {
    // analyzer:allow(atomic-ordering): quiescent-state zeroing
    DROPPED_LABELS.store(0, Ordering::Relaxed);
    let mut st = state().lock().unwrap_or_else(PoisonError::into_inner);
    for fam in &mut st.values {
        fam.labels.clear();
        fam.admitted = 0;
        fam.overflow = LabelData::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{telemetry_test_guard, Telemetry};

    fn with_isolated<R>(f: impl FnOnce() -> R) -> R {
        let _g = telemetry_test_guard();
        crate::reset();
        let _t = Telemetry::enabled();
        let r = f();
        let _t = Telemetry::disabled();
        crate::reset();
        set_cardinality_override(0);
        r
    }

    fn family(snaps: &[FamilySnapshot], name: &str) -> FamilySnapshot {
        snaps
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("family {name} missing"))
            .clone()
    }

    #[test]
    fn counter_family_accumulates_per_label() {
        with_isolated(|| {
            let fam = counter_family("test.dim.links");
            fam.add(LabelKey::Link(3, 1), 5);
            fam.add(LabelKey::Link(1, 3), 2); // normalizes to the same pair
            fam.incr(LabelKey::Link(2, 4));
            let snap = crate::snapshot();
            let links = family(&snap.groups, "test.dim.links");
            assert_eq!(links.kind, FamilyKind::Counter);
            assert_eq!(links.label("1-3"), Some(7));
            assert_eq!(links.label("2-4"), Some(1));
            assert_eq!(links.total(), 8);
        });
    }

    #[test]
    fn histogram_family_tracks_count_and_total() {
        with_isolated(|| {
            let fam = histogram_family("test.dim.latency");
            fam.record_ns(LabelKey::Distance(3), 1_000);
            fam.record_ns(LabelKey::Distance(3), 3_000);
            fam.record_ns(LabelKey::Distance(5), 500);
            fam.time(LabelKey::Distance(5), || {});
            let snap = crate::snapshot();
            let lat = family(&snap.groups, "test.dim.latency");
            assert_eq!(lat.kind, FamilyKind::Histogram);
            assert_eq!(lat.label("d3"), Some(2));
            assert_eq!(lat.label("d5"), Some(2));
            let d3 = lat.labels.iter().find(|l| l.label == "d3").unwrap();
            assert_eq!(d3.total_ns, 4_000);
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_isolated(|| {
            let _t = Telemetry::disabled();
            let fam = counter_family("test.dim.disabled");
            fam.add(LabelKey::Node(1), 9);
            let _t = Telemetry::enabled();
            let snap = crate::snapshot();
            assert_eq!(family(&snap.groups, "test.dim.disabled").total(), 0);
        });
    }

    #[test]
    fn overflow_is_deterministic_and_counts_each_dropped_label_once() {
        with_isolated(|| {
            set_cardinality_override(2);
            let fam = counter_family("test.dim.overflow");
            // Two admitted labels, then two rejected ones — one recorded
            // twice across separate flushes so re-merges of a known-dropped
            // label do not recount.
            fam.add(LabelKey::Node(0), 10);
            fam.add(LabelKey::Node(1), 20);
            crate::flush();
            fam.add(LabelKey::Node(2), 3);
            fam.add(LabelKey::Node(3), 4);
            crate::flush();
            fam.add(LabelKey::Node(2), 5);
            let snap = crate::snapshot();
            let of = family(&snap.groups, "test.dim.overflow");
            assert_eq!(
                of.labels
                    .iter()
                    .map(|l| (l.label.as_str(), l.value))
                    .collect::<Vec<_>>(),
                [("n0", 10), ("n1", 20), (OVERFLOW_LABEL, 12)]
            );
            assert_eq!(dropped_labels(), 2);
            assert_eq!(snap.counter("telemetry.dim.dropped_labels"), Some(2));
            // Conservation: nothing was lost, only coarsened.
            assert_eq!(of.total(), 42);
        });
    }

    #[test]
    fn snapshot_order_is_stable_regardless_of_record_order() {
        with_isolated(|| {
            let render = |scrambled: bool| {
                crate::reset();
                let fam = counter_family("test.dim.order");
                let hist = histogram_family("test.dim.order_hist");
                let mut keys = [
                    LabelKey::Link(7, 2),
                    LabelKey::Link(0, 1),
                    LabelKey::Link(5, 5),
                ];
                if scrambled {
                    keys.reverse();
                }
                for (i, k) in keys.iter().enumerate() {
                    fam.add(*k, (i + 1) as u64);
                    crate::flush();
                }
                hist.record_ns(LabelKey::Distance(5), 10);
                hist.record_ns(LabelKey::Distance(3), 10);
                let snap = crate::snapshot();
                snap.groups
                    .iter()
                    .filter(|f| f.name.starts_with("test.dim.order"))
                    .map(|f| {
                        (
                            f.name.clone(),
                            f.labels.iter().map(|l| l.label.clone()).collect::<Vec<_>>(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            let forward = render(false);
            assert_eq!(
                forward[0].1,
                ["0-1", "2-7", "5-5"],
                "links sort by endpoint pair"
            );
            assert_eq!(forward[1].1, ["d3", "d5"]);
            // Same label sets recorded in reverse order snapshot identically
            // (values differ; ordering is what's under test).
            let backward = render(true);
            assert_eq!(
                forward
                    .iter()
                    .map(|(n, l)| (n.clone(), l.clone()))
                    .collect::<Vec<_>>(),
                backward
            );
        });
    }

    #[test]
    fn cross_thread_merge_conserves_labeled_totals() {
        with_isolated(|| {
            let fam = counter_family("test.dim.threads");
            std::thread::scope(|s| {
                for w in 0..4u32 {
                    s.spawn(move || {
                        let fam = counter_family("test.dim.threads");
                        for _ in 0..100 {
                            fam.add(LabelKey::Node(w), 2);
                        }
                        crate::flush();
                    });
                }
            });
            fam.add(LabelKey::Node(0), 1);
            let snap = crate::snapshot();
            let f = family(&snap.groups, "test.dim.threads");
            assert_eq!(f.label("n0"), Some(201));
            for w in 1..4 {
                assert_eq!(f.label(&format!("n{w}")), Some(200));
            }
            assert_eq!(f.total(), 801);
        });
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        with_isolated(|| {
            let fam = counter_family("test.dim.reset");
            fam.add(LabelKey::Segment(0), 5);
            assert_eq!(
                family(&crate::snapshot().groups, "test.dim.reset").total(),
                5
            );
            crate::reset();
            let f = family(&crate::snapshot().groups, "test.dim.reset");
            assert!(f.labels.is_empty(), "{f:?}");
            fam.add(LabelKey::Segment(1), 2);
            assert_eq!(
                family(&crate::snapshot().groups, "test.dim.reset").label("s1"),
                Some(2)
            );
        });
    }

    #[test]
    fn kind_mismatch_panics() {
        with_isolated(|| {
            counter_family("test.dim.kind");
            let err = std::panic::catch_unwind(|| histogram_family("test.dim.kind"));
            assert!(err.is_err());
        });
    }

    #[test]
    fn parse_cardinality_accepts_positive_and_rejects_garbage() {
        assert_eq!(parse_cardinality(None), Ok(DEFAULT_CARDINALITY));
        assert_eq!(parse_cardinality(Some("")), Ok(DEFAULT_CARDINALITY));
        assert_eq!(parse_cardinality(Some(" 64 ")), Ok(64));
        assert_eq!(parse_cardinality(Some("1")), Ok(1));
        for bad in ["0", "-3", "lots", "1e4", "1024x"] {
            let err = parse_cardinality(Some(bad)).unwrap_err();
            assert!(err.contains("SURFNET_DIM_CARDINALITY"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn label_rendering_covers_every_key_type() {
        assert_eq!(render_label(LabelKey::Link(9, 4).encode()), "4-9");
        assert_eq!(render_label(LabelKey::Node(12).encode()), "n12");
        assert_eq!(render_label(LabelKey::Segment(2).encode()), "s2");
        assert_eq!(render_label(LabelKey::Distance(5).encode()), "d5");
        assert_eq!(render_label(OVERFLOW_CODE), OVERFLOW_LABEL);
    }
}
