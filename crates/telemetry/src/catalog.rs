//! The registered metric-name catalog.
//!
//! Every `span!`/`timer()`, `count!`/`counter()`, and `event!` name used
//! outside the telemetry crate itself must appear here with the right
//! kind. The `surfnet-analyzer` `telemetry-name` lint enforces this
//! statically, which turns a typo'd metric name (silently recording into a
//! fresh, never-read series) into a CI failure.
//!
//! Keep [`CATALOG`] sorted by name: [`lookup`] binary-searches it, and
//! [`validate`] rejects out-of-order or duplicate entries.

/// Whether a metric name denotes a counter, a span/timer, a journal event,
/// or a labeled metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count (`count!` / `counter()`).
    Counter,
    /// Wall-clock span accumulation (`span!` / `timer()`).
    Timer,
    /// Journal record (`event!`), exported via `SURFNET_TRACE`.
    Event,
    /// Labeled metric family (`dim::counter_family()` /
    /// `dim::histogram_family()`), keyed by a `dim::LabelKey`.
    Family,
}

/// All registered metric names, sorted by name.
pub const CATALOG: &[(&str, MetricKind)] = &[
    ("bench.ablation_step.trials", MetricKind::Timer),
    ("bench.overhead.counter", MetricKind::Counter),
    ("bench.overhead.span", MetricKind::Timer),
    ("decoder.batch.decode", MetricKind::Timer),
    ("decoder.batch.flushes", MetricKind::Counter),
    ("decoder.batch.shots", MetricKind::Counter),
    ("decoder.blossom.match", MetricKind::Timer),
    ("decoder.blossom_stages", MetricKind::Counter),
    ("decoder.cache_hits", MetricKind::Counter),
    ("decoder.cache_misses", MetricKind::Counter),
    ("decoder.dijkstra_relaxations", MetricKind::Counter),
    ("decoder.distance.decode_latency", MetricKind::Family),
    ("decoder.growth_rounds", MetricKind::Counter),
    ("decoder.mwpm.decode", MetricKind::Timer),
    ("decoder.peel", MetricKind::Timer),
    ("decoder.peeling_passes", MetricKind::Counter),
    ("decoder.surfnet.decode", MetricKind::Timer),
    ("decoder.trivial_skips", MetricKind::Counter),
    ("decoder.union_find.decode", MetricKind::Timer),
    ("evaluate.segment.logical_errors", MetricKind::Family),
    ("evaluate.shot_failed", MetricKind::Event),
    ("flight.capture", MetricKind::Event),
    ("flight.captured", MetricKind::Counter),
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
    ("netsim.stream.simulate", MetricKind::Timer),
    ("pipeline.evaluate", MetricKind::Timer),
    ("pipeline.execute", MetricKind::Timer),
    ("pipeline.network_gen", MetricKind::Timer),
    ("pipeline.requests", MetricKind::Timer),
    ("pipeline.schedule", MetricKind::Timer),
    ("pipeline.trial", MetricKind::Event),
    ("routing.assign_codes", MetricKind::Timer),
    ("routing.codes_scheduled", MetricKind::Counter),
    ("routing.infeasible_attempts", MetricKind::Counter),
    ("routing.request.code_distance", MetricKind::Family),
    ("routing.schedule", MetricKind::Timer),
    ("runner.trial_failures", MetricKind::Counter),
    ("telemetry.dim.dropped_labels", MetricKind::Counter),
    ("telemetry.dropped", MetricKind::Counter),
    ("trial.run", MetricKind::Timer),
    ("trial.stage.decode", MetricKind::Timer),
    ("trial.stage.entangle", MetricKind::Timer),
    ("trial.stage.gen", MetricKind::Timer),
    ("trial.stage.lp", MetricKind::Timer),
    ("trial.stage.purify", MetricKind::Timer),
    ("trial.stage.route", MetricKind::Timer),
];

/// Looks up a metric name, returning its registered kind.
pub fn lookup(name: &str) -> Option<MetricKind> {
    CATALOG
        .binary_search_by(|(n, _)| n.cmp(&name))
        .ok()
        .map(|i| CATALOG[i].1)
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
        assert_eq!(lookup("lp.solve"), Some(MetricKind::Timer));
        assert_eq!(lookup("lp.solves"), Some(MetricKind::Counter));
        assert_eq!(lookup("flight.capture"), Some(MetricKind::Event));
        assert_eq!(lookup("telemetry.dropped"), Some(MetricKind::Counter));
        assert_eq!(lookup("journal.dropped"), Some(MetricKind::Counter));
        assert_eq!(lookup("trial.run"), Some(MetricKind::Timer));
        assert_eq!(lookup("trial.stage.decode"), Some(MetricKind::Timer));
        assert_eq!(lookup("netsim.link.attempts"), Some(MetricKind::Family));
        assert_eq!(
            lookup("decoder.distance.decode_latency"),
            Some(MetricKind::Family)
        );
        assert_eq!(lookup("no.such.metric"), None);
    }
}
