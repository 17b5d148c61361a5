//! Labeled counter **families**: one catalog name, many small-integer labels.
//!
//! A family is a [`crate::catalog`] name of kind `Family` (e.g.
//! `netsim.link.attempts`), recorded through the handle
//! `family!("netsim.link.attempts")` returns and keyed at record time by a
//! [`LabelKey`] — a link endpoint pair, a node id, a segment index, or a
//! code distance.
//! Every series is a monotonic `u64` event count. This is the "one bounded
//! family per name" shape per-entity consumers (a link-quality control
//! plane, per-distance decode counts) need, without giving up the flat
//! layer's discipline:
//!
//! * **Hot path is lock-free.** The handle is built at compile time, and
//!   recording appends to a thread-local label map inside the same shard
//!   the flat counters use; the global state is only touched when a shard
//!   merges — on [`crate::flush`] or thread exit, the discipline
//!   [`crate::spawn_scoped`] keeps and the race harness checks.
//! * **Cardinality is bounded.** Each family admits at most
//!   [`DEFAULT_CARDINALITY`] distinct labels; labels past the cap route to
//!   a per-family `__overflow` bucket and each newly rejected label bumps
//!   the `telemetry.dim.dropped_labels` counter exactly once, so totals
//!   are conserved and the loss is visible in every export.
//! * **Snapshots are deterministic.** [`snapshot_families`] orders families
//!   by name and labels by their encoded key, so repeated runs of a seeded
//!   workload export byte-identical group sections.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::catalog::{MetricKind, CATALOG};
use crate::{enabled, SLOTS};

/// Per-family label cap. The largest family in any CI baseline holds 294
/// labels (`netsim.stream.link.dropped`), so the cap bounds memory without
/// ever shedding a label in the shipped workloads.
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

/// Admission state of one label in the global store. `Dropped` entries
/// remember a rejected label so `telemetry.dim.dropped_labels` counts each
/// distinct rejected label exactly once, not once per merge.
enum LabelSlot {
    Admitted(u64),
    Dropped,
}

/// One family's labels in the global store.
struct Family {
    labels: BTreeMap<u64, LabelSlot>,
    admitted: usize,
    overflow: u64,
}

/// The global store, indexed by catalog slot (only `Family` slots fill).
static FAMILIES: Mutex<[Family; SLOTS]> = Mutex::new(
    [const {
        Family {
            labels: BTreeMap::new(),
            admitted: 0,
            overflow: 0,
        }
    }; SLOTS],
);

static DROPPED_LABELS: AtomicU64 = AtomicU64::new(0);

/// How many distinct labels have been rejected by the cardinality cap
/// across all families. Also exported by [`crate::snapshot`] as the
/// `telemetry.dim.dropped_labels` counter.
#[expect(
    clippy::disallowed_methods,
    reason = "monotonic tally read for reporting"
)]
pub fn dropped_labels() -> u64 {
    DROPPED_LABELS.load(Ordering::Relaxed)
}

// 0 means "no override": the cap is DEFAULT_CARDINALITY.
static CARDINALITY: AtomicUsize = AtomicUsize::new(0);

#[expect(
    clippy::disallowed_methods,
    reason = "test-support override read standalone; no other memory access depends on it"
)]
fn cardinality() -> usize {
    match CARDINALITY.load(Ordering::Relaxed) {
        0 => DEFAULT_CARDINALITY,
        cap => cap,
    }
}

/// Overrides the per-family label cap (test support — lets the overflow
/// path be exercised with a small cap). Pass 0 to restore
/// [`DEFAULT_CARDINALITY`].
#[doc(hidden)]
pub fn set_cardinality_override(cap: usize) {
    #[expect(clippy::disallowed_methods, reason = "test-support knob")]
    CARDINALITY.store(cap, Ordering::Relaxed);
}

/// Handle to a labeled counter family, built by [`crate::family!`]:
/// `family!("netsim.link.attempts")`. Cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct CounterFamily {
    slot: usize,
}

impl CounterFamily {
    /// The family in catalog slot `slot`; [`crate::family!`] calls this
    /// with a slot it resolved at compile time.
    #[doc(hidden)]
    pub const fn at(slot: usize) -> CounterFamily {
        CounterFamily { slot }
    }

    /// Adds `n` to the series keyed by `key`, if telemetry is enabled.
    #[inline]
    pub fn add(&self, key: LabelKey, n: u64) {
        if enabled() && n != 0 {
            record_local(self.slot, key.encode(), n);
        }
    }

    /// Adds 1 to the series keyed by `key`, if telemetry is enabled.
    #[inline]
    pub fn incr(&self, key: LabelKey) {
        self.add(key, 1);
    }
}

// ---------------------------------------------------------------------------
// Thread-local label shards (owned by `crate::LocalShard`).

/// One family's thread-local label map: a tiny linear-scanned vec — the
/// per-thread active label set is small (bounded by the cardinality cap in
/// any sane workload) and a vec scan beats a map for a handful of entries.
pub(crate) struct FamilyShard {
    labels: Vec<(u64, u64)>,
}

impl FamilyShard {
    pub(crate) const fn new() -> FamilyShard {
        FamilyShard { labels: Vec::new() }
    }

    pub(crate) fn clear(&mut self) {
        self.labels.clear();
    }
}

#[inline]
fn record_local(slot: usize, code: u64, value: u64) {
    crate::with_dim_shard(|dim| {
        let shard = &mut dim[slot];
        if let Some((_, total)) = shard.labels.iter_mut().find(|(c, _)| *c == code) {
            *total += value;
        } else {
            shard.labels.push((code, value));
        }
    });
}

/// Merges one thread's label shards into the global store, applying the
/// cardinality cap. Called from `LocalShard::merge_into_global`, i.e. on
/// every [`crate::flush`] and on thread exit — label data obeys the same
/// flush discipline as the flat metrics.
pub(crate) fn merge_local(dim: &mut [FamilyShard; SLOTS]) {
    if dim.iter().all(|s| s.labels.is_empty()) {
        return;
    }
    let cap = cardinality();
    let mut fams = FAMILIES.lock().unwrap_or_else(PoisonError::into_inner);
    for (fam, shard) in fams.iter_mut().zip(dim.iter_mut()) {
        for (code, value) in shard.labels.drain(..) {
            match fam.labels.get_mut(&code) {
                Some(LabelSlot::Admitted(existing)) => *existing += value,
                Some(LabelSlot::Dropped) => fam.overflow += value,
                None => {
                    if fam.admitted < cap {
                        fam.admitted += 1;
                        fam.labels.insert(code, LabelSlot::Admitted(value));
                    } else {
                        // First sighting of an over-cap label: remember the
                        // rejection (so the drop counts once), fold the
                        // value into the overflow bucket.
                        fam.labels.insert(code, LabelSlot::Dropped);
                        #[expect(clippy::disallowed_methods, reason = "commutative tally")]
                        DROPPED_LABELS.fetch_add(1, Ordering::Relaxed);
                        fam.overflow += value;
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
    /// Counter value.
    pub value: u64,
}

/// Point-in-time aggregate of one metric family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family catalog name.
    pub name: String,
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

/// Snapshots every catalog family in deterministic order (families in
/// catalog order, i.e. sorted by name, labels by encoded key). The caller
/// is expected to have flushed contributing threads first —
/// [`crate::snapshot`] does.
pub fn snapshot_families() -> Vec<FamilySnapshot> {
    let fams = FAMILIES.lock().unwrap_or_else(PoisonError::into_inner);
    CATALOG
        .iter()
        .zip(fams.iter())
        .filter(|((_, kind), _)| *kind == MetricKind::Family)
        .map(|((name, _), fam)| {
            let mut labels: Vec<LabelValue> = fam
                .labels
                .iter()
                .filter_map(|(code, slot)| match slot {
                    LabelSlot::Admitted(value) => Some(LabelValue {
                        label: render_label(*code),
                        value: *value,
                    }),
                    LabelSlot::Dropped => None,
                })
                .collect();
            if fam.overflow != 0 {
                labels.push(LabelValue {
                    label: render_label(OVERFLOW_CODE),
                    value: fam.overflow,
                });
            }
            FamilySnapshot {
                name: name.to_string(),
                labels,
            }
        })
        .collect()
}

/// Zeroes every family's label data and the dropped-label count. Called
/// by [`crate::reset`].
pub(crate) fn reset() {
    #[expect(clippy::disallowed_methods, reason = "quiescent-state zeroing")]
    DROPPED_LABELS.store(0, Ordering::Relaxed);
    let mut fams = FAMILIES.lock().unwrap_or_else(PoisonError::into_inner);
    for fam in fams.iter_mut() {
        fam.labels.clear();
        fam.admitted = 0;
        fam.overflow = 0;
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
            let fam = crate::family!("netsim.link.attempts");
            fam.add(LabelKey::Link(3, 1), 5);
            fam.add(LabelKey::Link(1, 3), 2); // normalizes to the same pair
            fam.incr(LabelKey::Link(2, 4));
            let snap = crate::snapshot();
            let links = family(&snap.groups, "netsim.link.attempts");
            assert_eq!(links.label("1-3"), Some(7));
            assert_eq!(links.label("2-4"), Some(1));
            assert_eq!(links.total(), 8);
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_isolated(|| {
            let _t = Telemetry::disabled();
            let fam = crate::family!("netsim.link.successes");
            fam.add(LabelKey::Node(1), 9);
            let _t = Telemetry::enabled();
            let snap = crate::snapshot();
            assert_eq!(family(&snap.groups, "netsim.link.successes").total(), 0);
        });
    }

    #[test]
    fn overflow_is_deterministic_and_counts_each_dropped_label_once() {
        with_isolated(|| {
            set_cardinality_override(2);
            let fam = crate::family!("netsim.stream.link.dropped");
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
            let of = family(&snap.groups, "netsim.stream.link.dropped");
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
                let fam = crate::family!("netsim.link.attempts");
                let dist = crate::family!("routing.request.code_distance");
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
                dist.incr(LabelKey::Distance(5));
                dist.incr(LabelKey::Distance(3));
                let snap = crate::snapshot();
                snap.groups
                    .iter()
                    .filter(|f| {
                        f.name == "netsim.link.attempts"
                            || f.name == "routing.request.code_distance"
                    })
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
            let fam = crate::family!("evaluate.segment.logical_errors");
            std::thread::scope(|s| {
                for w in 0..4u32 {
                    crate::spawn_scoped(s, move || {
                        for _ in 0..100 {
                            fam.add(LabelKey::Node(w), 2);
                        }
                    });
                }
            });
            fam.add(LabelKey::Node(0), 1);
            let snap = crate::snapshot();
            let f = family(&snap.groups, "evaluate.segment.logical_errors");
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
            let fam = crate::family!("netsim.link.purification_rounds");
            fam.add(LabelKey::Segment(0), 5);
            assert_eq!(
                family(&crate::snapshot().groups, "netsim.link.purification_rounds").total(),
                5
            );
            crate::reset();
            let f = family(&crate::snapshot().groups, "netsim.link.purification_rounds");
            assert!(f.labels.is_empty(), "{f:?}");
            fam.add(LabelKey::Segment(1), 2);
            assert_eq!(
                family(&crate::snapshot().groups, "netsim.link.purification_rounds").label("s1"),
                Some(2)
            );
        });
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
