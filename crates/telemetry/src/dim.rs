//! Labeled counter **families**: one catalog name, many small-integer labels.
//!
//! A family is registered once under a static catalog name (e.g.
//! `netsim.link.attempts`) and keyed at record time by a [`LabelKey`] — a
//! link endpoint pair, a node id, a segment index, or a code distance.
//! Every series is a monotonic `u64` event count. This is the "one bounded
//! family per name" shape per-entity consumers (a link-quality control
//! plane, per-distance decode counts) need, without giving up the flat
//! layer's discipline:
//!
//! * **Hot path is lock-free.** Recording appends to a thread-local label
//!   map inside the same shard the flat counters use; the global state is
//!   only touched when a shard merges — on [`crate::flush`] or thread exit,
//!   the exact discipline the race harness and the `scoped-flush` lint
//!   enforce.
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
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::enabled;

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

/// One registered family in the global store; its index is its id.
#[derive(Default)]
struct Family {
    name: &'static str,
    labels: BTreeMap<u64, LabelSlot>,
    admitted: usize,
    overflow: u64,
}

fn families() -> &'static Mutex<Vec<Family>> {
    static FAMILIES: OnceLock<Mutex<Vec<Family>>> = OnceLock::new();
    FAMILIES.get_or_init(|| Mutex::new(Vec::new()))
}

static DROPPED_LABELS: AtomicU64 = AtomicU64::new(0);

/// How many distinct labels have been rejected by the cardinality cap
/// across all families. Also exported by [`crate::snapshot`] as the
/// `telemetry.dim.dropped_labels` counter.
pub fn dropped_labels() -> u64 {
    // analyzer:allow(atomic-ordering): monotonic tally read for reporting
    DROPPED_LABELS.load(Ordering::Relaxed)
}

// 0 means "no override": the cap is DEFAULT_CARDINALITY.
static CARDINALITY: AtomicUsize = AtomicUsize::new(0);

fn cardinality() -> usize {
    // analyzer:allow(atomic-ordering): test-support override read
    // standalone; no other memory access depends on it
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
    // analyzer:allow(atomic-ordering): test-support knob
    CARDINALITY.store(cap, Ordering::Relaxed);
}

fn register_family(name: &'static str) -> u32 {
    let mut fams = families().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(id) = fams.iter().position(|f| f.name == name) {
        return id as u32;
    }
    fams.push(Family {
        name,
        ..Family::default()
    });
    (fams.len() - 1) as u32
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
        id: register_family(name),
    }
}

impl CounterFamily {
    /// Adds `n` to the series keyed by `key`, if telemetry is enabled.
    #[inline]
    pub fn add(&self, key: LabelKey, n: u64) {
        if enabled() && n != 0 {
            record_local(self.id, key.encode(), n);
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
#[derive(Default)]
pub(crate) struct FamilyShard {
    labels: Vec<(u64, u64)>,
}

#[inline]
fn record_local(id: u32, code: u64, value: u64) {
    crate::with_dim_shard(|dim| {
        let id = id as usize;
        if dim.len() <= id {
            dim.resize_with(id + 1, FamilyShard::default);
        }
        let shard = &mut dim[id];
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
/// scoped-flush discipline as the flat metrics.
pub(crate) fn merge_local(dim: &mut [FamilyShard]) {
    if dim.iter().all(|s| s.labels.is_empty()) {
        return;
    }
    let cap = cardinality();
    let mut fams = families().lock().unwrap_or_else(PoisonError::into_inner);
    for (id, shard) in dim.iter_mut().enumerate() {
        if shard.labels.is_empty() {
            continue;
        }
        let Some(fam) = fams.get_mut(id) else {
            continue;
        };
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
                        // analyzer:allow(atomic-ordering): commutative tally
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

/// Snapshots every registered family in deterministic order (families
/// sorted by name, labels by encoded key). The caller is expected to have
/// flushed contributing threads first — [`crate::snapshot`] does.
pub fn snapshot_families() -> Vec<FamilySnapshot> {
    let mut snaps: Vec<FamilySnapshot> = families()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|fam| {
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
                name: fam.name.to_string(),
                labels,
            }
        })
        .collect();
    snaps.sort_by(|a, b| a.name.cmp(&b.name));
    snaps
}

/// Zeroes every family's label data and the dropped-label count. Family
/// registrations and call-site handles stay valid. Called by
/// [`crate::reset`].
pub(crate) fn reset() {
    // analyzer:allow(atomic-ordering): quiescent-state zeroing
    DROPPED_LABELS.store(0, Ordering::Relaxed);
    let mut fams = families().lock().unwrap_or_else(PoisonError::into_inner);
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
            let fam = counter_family("test.dim.links");
            fam.add(LabelKey::Link(3, 1), 5);
            fam.add(LabelKey::Link(1, 3), 2); // normalizes to the same pair
            fam.incr(LabelKey::Link(2, 4));
            let snap = crate::snapshot();
            let links = family(&snap.groups, "test.dim.links");
            assert_eq!(links.label("1-3"), Some(7));
            assert_eq!(links.label("2-4"), Some(1));
            assert_eq!(links.total(), 8);
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
                let dist = counter_family("test.dim.order_dist");
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
    fn label_rendering_covers_every_key_type() {
        assert_eq!(render_label(LabelKey::Link(9, 4).encode()), "4-9");
        assert_eq!(render_label(LabelKey::Node(12).encode()), "n12");
        assert_eq!(render_label(LabelKey::Segment(2).encode()), "s2");
        assert_eq!(render_label(LabelKey::Distance(5).encode()), "d5");
        assert_eq!(render_label(OVERFLOW_CODE), OVERFLOW_LABEL);
    }
}
