//! The metric registry: every metric name and its kind.
//!
//! A name's index in [`CATALOG`] is its *slot*, and every metric table in
//! the crate (the global counts, sums, histograms and families, and each
//! thread's shard) holds exactly one entry per slot. The recording macros
//! (`count!`, `span!`, `event!`, `family!`) resolve their name with
//! [`slot`] in a `const` item, so a typo'd or unregistered name, or one
//! registered under another kind, fails to compile (error E0080) instead
//! of recording into a series nobody reads.
//!
//! Keep [`CATALOG`] sorted by name: [`validate`] rejects out-of-order or
//! duplicate entries.

/// Whether a metric name denotes a counter, a span/timer, a journal event,
/// or a labeled metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count (`count!`).
    Counter,
    /// Wall-clock span accumulation (`span!`).
    Timer,
    /// Journal record (an `event!` instant, or the `pipeline.trial` span the
    /// trial scope writes), exported via `SURFNET_TRACE`.
    Event,
    /// Labeled counter family (`family!`), keyed by a `dim::LabelKey`.
    Family,
}

/// All registered metric names, sorted by name.
pub const CATALOG: &[(&str, MetricKind)] = &[
    ("decoder.blossom.match", MetricKind::Timer),
    ("decoder.blossom_stages", MetricKind::Counter),
    ("decoder.cache_hits", MetricKind::Counter),
    ("decoder.cache_misses", MetricKind::Counter),
    ("decoder.dijkstra_relaxations", MetricKind::Counter),
    ("decoder.distance.decodes", MetricKind::Family),
    ("decoder.growth_rounds", MetricKind::Counter),
    ("decoder.mwpm.decode", MetricKind::Timer),
    ("decoder.peel", MetricKind::Timer),
    ("decoder.peeling_passes", MetricKind::Counter),
    ("decoder.surfnet.decode", MetricKind::Timer),
    ("decoder.trivial_skips", MetricKind::Counter),
    ("decoder.union_find.decode", MetricKind::Timer),
    ("evaluate.segment.logical_errors", MetricKind::Family),
    ("evaluate.shot_failed", MetricKind::Event),
    ("journal.dropped", MetricKind::Counter),
    ("lp.iterations", MetricKind::Counter),
    ("lp.pivots", MetricKind::Counter),
    ("lp.solve", MetricKind::Timer),
    ("lp.solves", MetricKind::Counter),
    ("netsim.entanglement_attempts", MetricKind::Counter),
    ("netsim.execute_concurrently", MetricKind::Timer),
    ("netsim.execute_plan", MetricKind::Timer),
    ("netsim.execute_teleportation", MetricKind::Timer),
    ("netsim.link.attempts", MetricKind::Family),
    ("netsim.link.purification_rounds", MetricKind::Family),
    ("netsim.link.successes", MetricKind::Family),
    ("netsim.purification_rounds", MetricKind::Counter),
    ("netsim.stream.admitted", MetricKind::Counter),
    ("netsim.stream.arrivals", MetricKind::Counter),
    ("netsim.stream.completed", MetricKind::Counter),
    ("netsim.stream.deferred", MetricKind::Counter),
    ("netsim.stream.dropped.capacity", MetricKind::Counter),
    ("netsim.stream.dropped.pool", MetricKind::Counter),
    ("netsim.stream.dropped.unroutable", MetricKind::Counter),
    ("netsim.stream.failed", MetricKind::Counter),
    ("netsim.stream.link.dropped", MetricKind::Family),
    ("netsim.stream.plan.settled", MetricKind::Counter),
    ("netsim.stream.simulate", MetricKind::Timer),
    ("pipeline.code", MetricKind::Timer),
    ("pipeline.evaluate", MetricKind::Timer),
    ("pipeline.network_gen", MetricKind::Timer),
    ("pipeline.requests", MetricKind::Timer),
    ("pipeline.trial", MetricKind::Event),
    ("routing.assign_codes", MetricKind::Timer),
    ("routing.codes_scheduled", MetricKind::Counter),
    ("routing.infeasible_attempts", MetricKind::Counter),
    ("routing.request.code_distance", MetricKind::Family),
    ("routing.schedule", MetricKind::Timer),
    ("runner.trial_failures", MetricKind::Counter),
    ("telemetry.dim.dropped_labels", MetricKind::Counter),
    ("trial.run", MetricKind::Timer),
    ("trial.stage.decode", MetricKind::Timer),
    ("trial.stage.entangle", MetricKind::Timer),
    ("trial.stage.gen", MetricKind::Timer),
    ("trial.stage.lp", MetricKind::Timer),
    ("trial.stage.purify", MetricKind::Timer),
    ("trial.stage.route", MetricKind::Timer),
];

/// The slot of `name`: its index in [`CATALOG`]. The recording macros
/// call this in a `const` item, so it runs at compile time.
///
/// # Panics
///
/// Panics if `name` is not in the catalog or is registered under a kind
/// other than `kind`. In a `const` item that panic is compile error E0080.
pub const fn slot(name: &str, kind: MetricKind) -> usize {
    let mut i = 0;
    while i < CATALOG.len() {
        let (entry, entry_kind) = CATALOG[i];
        if bytes_eq(entry.as_bytes(), name.as_bytes()) {
            assert!(
                entry_kind as u8 == kind as u8,
                "metric name is registered in surfnet_telemetry::catalog under another kind"
            );
            return i;
        }
        i += 1;
    }
    panic!("metric name is not registered in surfnet_telemetry::catalog")
}

const fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Verifies the catalog is strictly sorted (which also implies names are
/// unique). Returns the first offending adjacent pair.
pub fn validate() -> Result<(), (&'static str, &'static str)> {
    for pair in CATALOG.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err((pair[0].0, pair[1].0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        assert_eq!(validate(), Ok(()));
    }

    #[test]
    fn lookup_finds_registered_names_with_kind() {
        for (name, kind) in [
            ("lp.solve", MetricKind::Timer),
            ("lp.solves", MetricKind::Counter),
            ("evaluate.shot_failed", MetricKind::Event),
            ("journal.dropped", MetricKind::Counter),
            ("trial.run", MetricKind::Timer),
            ("trial.stage.decode", MetricKind::Timer),
            ("netsim.link.attempts", MetricKind::Family),
            ("decoder.distance.decodes", MetricKind::Family),
        ] {
            assert_eq!(CATALOG[slot(name, kind)], (name, kind));
        }
        // An unknown name and a wrong kind panic (a compile error in the
        // macros' `const` items).
        assert!(std::panic::catch_unwind(|| slot("no.such.metric", MetricKind::Counter)).is_err());
        assert!(std::panic::catch_unwind(|| slot("lp.solve", MetricKind::Counter)).is_err());
    }
}
