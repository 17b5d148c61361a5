//! Parallel Monte-Carlo execution of trials.
//!
//! Work is distributed over a crossbeam channel so stragglers (LP-heavy
//! trials) don't serialize the sweep; results are deterministic per seed
//! regardless of scheduling order.

use crate::flight;
use crate::metrics::{MetricsSummary, TrialMetrics};
use crate::pipeline::{run_trial, Design};
use crate::scenario::TrialConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads: all cores minus one, at least one.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

/// The outcome of a parallel sweep: the metrics of every trial that ran
/// to completion, plus an explicit tally of the trials that errored.
///
/// Failed trials used to be folded in as all-zero [`TrialMetrics`], which
/// silently dragged every figure average toward zero; they are now
/// excluded from the metrics and counted here instead.
#[derive(Debug, Clone, Default)]
pub struct TrialBatch {
    /// Per-trial metrics of the successful trials, sorted by seed.
    pub metrics: Vec<TrialMetrics>,
    /// Number of trials whose pipeline returned an error.
    pub failures: usize,
}

impl TrialBatch {
    /// Summarizes the successful trials, carrying the failure tally.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            failed_trials: self.failures,
            ..MetricsSummary::from_trials(&self.metrics)
        }
    }
}

/// Runs `trials` seeded trials of `design` in parallel and returns the
/// successful trials' metrics sorted by seed (deterministic output) plus
/// the failed-trial count.
pub fn parallel_trials(
    design: Design,
    cfg: &TrialConfig,
    trials: usize,
    base_seed: u64,
) -> TrialBatch {
    let (tx, rx) = crossbeam::channel::unbounded::<u64>();
    for i in 0..trials {
        tx.send(base_seed + i as u64).expect("channel open");
    }
    drop(tx);
    let results: Mutex<Vec<(u64, TrialMetrics)>> = Mutex::new(Vec::with_capacity(trials));
    let failures = AtomicUsize::new(0);
    let recorder = flight::Recorder::current();
    std::thread::scope(|scope| {
        for _ in 0..default_workers() {
            let rx = rx.clone();
            let results = &results;
            let failures = &failures;
            let recorder = recorder.clone();
            scope.spawn(move || {
                // Workers capture failing shots into the caller's recorder.
                recorder.install();
                while let Ok(seed) = rx.recv() {
                    // A failed trial (e.g. an unluckily degenerate LP) is
                    // counted rather than aborting the whole sweep — and
                    // rather than polluting the averages with zeros.
                    match run_trial(design, cfg, seed) {
                        Ok(metrics) => results.lock().push((seed, metrics)),
                        Err(_) => {
                            surfnet_telemetry::count!("runner.trial_failures");
                            // analyzer:allow(atomic-ordering): pure tally —
                            // read only after the scope joins every worker
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Scope join does not wait for TLS destructors, so merge
                // the counter shard and drain the journal ring explicitly
                // before the closure returns — otherwise a snapshot or
                // trace taken right after this scope races the destructors
                // and can miss this worker's counts and events.
                surfnet_telemetry::flush();
                surfnet_telemetry::journal::flush_thread();
            });
        }
    });
    let mut collected = results.into_inner();
    collected.sort_by_key(|&(seed, _)| seed);
    TrialBatch {
        metrics: collected.into_iter().map(|(_, m)| m).collect(),
        failures: failures.into_inner(),
    }
}

/// Generic parallel map over an input grid (used by the decoder-threshold
/// sweep where the work items are not network trials).
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let n = indexed.len();
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, T)>();
    for item in indexed {
        tx.send(item).expect("channel open");
    }
    drop(tx);
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    let recorder = flight::Recorder::current();
    std::thread::scope(|scope| {
        for _ in 0..default_workers() {
            let rx = rx.clone();
            let results = &results;
            let f = &f;
            let recorder = recorder.clone();
            scope.spawn(move || {
                recorder.install();
                while let Ok((i, item)) = rx.recv() {
                    let out = f(&item);
                    results.lock().push((i, out));
                }
                // See parallel_trials: flush before the scope observes exit.
                surfnet_telemetry::flush();
                surfnet_telemetry::journal::flush_thread();
            });
        }
    });
    let mut collected = results.into_inner();
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_trials_deterministic_and_ordered() {
        let cfg = TrialConfig::default();
        let a = parallel_trials(Design::Raw, &cfg, 4, 500);
        let b = parallel_trials(Design::Raw, &cfg, 4, 500);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.len(), 4);
        assert_eq!(a.failures, 0);
        // Spot-check against the serial path.
        let serial = crate::pipeline::run_trial(Design::Raw, &cfg, 502).unwrap();
        assert_eq!(a.metrics[2], serial);
        // And the batch summary carries the failure tally through.
        let summary = a.summary();
        assert_eq!(summary.trials, 4);
        assert_eq!(summary.failed_trials, 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_does_not_perturb_trial_results() {
        // Instrumentation must be observation-only: enabling it must not
        // consume rng draws or reorder work in a way that changes metrics.
        let cfg = TrialConfig::default();
        let baseline = parallel_trials(Design::SurfNet, &cfg, 4, 900);
        surfnet_telemetry::Telemetry::enabled();
        let instrumented = parallel_trials(Design::SurfNet, &cfg, 4, 900);
        surfnet_telemetry::flush();
        let snapshot = surfnet_telemetry::snapshot();
        surfnet_telemetry::Telemetry::disabled();
        surfnet_telemetry::reset();
        assert_eq!(baseline.metrics, instrumented.metrics);
        // And the instrumented run actually recorded decoder activity.
        assert!(snapshot.counter("decoder.growth_rounds").is_some());
    }
}
