//! Parallel Monte-Carlo execution: the two fan-outs of the figure sweeps.
//!
//! * [`parallel_trials`] runs seeded network trials on
//!   [`default_workers`] scoped threads that pull seeds from a crossbeam
//!   channel, so stragglers (LP-heavy trials) don't serialize the sweep.
//!   Results are sorted by seed, so they do not depend on scheduling.
//! * [`count_failed_shots`] decodes one logical-error-rate estimate's
//!   shots (a Fig. 8 grid point, an ablation case) on every core. Each
//!   thread draws a chunk of shots from the estimate's one RNG under a
//!   lock, in the order a serial loop draws them, and decodes the chunk on
//!   its own workspace. The failure count is the sum of the threads'
//!   counts, so it does not depend on which thread decoded which shot.
//!
//! Both spawn their scoped threads through
//! [`surfnet_telemetry::spawn_scoped`], which flushes each worker's
//! telemetry shard and journal ring as its last act (DESIGN §8.1).

use crate::metrics::{MetricsSummary, TrialMetrics};
use crate::pipeline::{run_trial, Design};
use crate::scenario::TrialConfig;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use std::num::NonZeroUsize;
use surfnet_decoder::{DecodeWorkspace, Decoder};
use surfnet_lattice::{ErrorModel, ErrorSample, SurfaceCode};

/// Number of threads a sweep does its work on: one per available core
/// (`available_parallelism`, which honours the affinity mask), at least
/// one.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
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
    let mut collected = Vec::with_capacity(trials);
    let mut failures = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..default_workers())
            .map(|_| {
                let rx = rx.clone();
                // Each worker hands back its `(seed, metrics)` list and
                // failure count through its join handle.
                surfnet_telemetry::spawn_scoped(scope, move || {
                    let mut done = Vec::new();
                    let mut failed = 0;
                    while let Ok(seed) = rx.recv() {
                        // A failed trial (e.g. an unluckily degenerate LP)
                        // is counted rather than aborting the whole sweep
                        // — and rather than polluting the averages with
                        // zeros.
                        match run_trial(design, cfg, seed) {
                            Ok(metrics) => done.push((seed, metrics)),
                            Err(_) => {
                                surfnet_telemetry::count!("runner.trial_failures");
                                failed += 1;
                            }
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        for handle in handles {
            let (done, failed) = handle.join().expect("a trial worker thread panicked");
            collected.extend(done);
            failures += failed;
        }
    });
    collected.sort_by_key(|&(seed, _)| seed);
    TrialBatch {
        metrics: collected.into_iter().map(|(_, m)| m).collect(),
        failures,
    }
}

/// Shots a thread draws per turn of the RNG lock. Drawing 16 d=15 shots
/// takes ~70 µs and decoding them ~1 ms, so the lock is mostly free.
const SHOT_CHUNK: usize = 16;

/// Counts how many of `shots` samples of `model`, drawn from `rng` in
/// order, `decoder` fails to correct on `code` (a logical error or an
/// uncleared syndrome), on `threads` (≥ 1) threads: the caller and
/// `threads − 1` scoped helpers. Sweeps pass [`default_workers`].
///
/// Each thread owns one workspace and one chunk of sample buffers, made
/// before any thread starts. It takes 16 shots (`SHOT_CHUNK`) at a time
/// from `rng` under one lock, which it holds only while drawing, and
/// decodes them outside it with [`Decoder::decode_sample_with`], whose
/// verdict depends only on its sample. So the count equals the serial
/// loop's `(0..shots).filter(|_| !decoder.decode_sample(code,
/// &model.sample(&mut rng)).is_success()).count()` for every thread count.
///
/// # Panics
///
/// Panics if `threads` is 0, or if a decode fails (as
/// [`Decoder::decode_sample_with`] does).
pub fn count_failed_shots(
    decoder: &(dyn Decoder + Sync),
    code: &SurfaceCode,
    model: &ErrorModel,
    rng: SmallRng,
    shots: usize,
    threads: usize,
) -> usize {
    // The estimate's one RNG and the number of shots drawn from it so far.
    let source = Mutex::new((rng, 0usize));
    let mut states: Vec<_> = (0..threads)
        .map(|_| {
            let chunk = vec![ErrorSample::clean(model.len()); SHOT_CHUNK];
            (DecodeWorkspace::new(), chunk)
        })
        .collect();
    let work = |(ws, chunk): &mut (DecodeWorkspace, Vec<ErrorSample>)| -> usize {
        let mut failures = 0;
        loop {
            let drawn = {
                let mut source = source.lock();
                let (rng, taken) = &mut *source;
                let n = SHOT_CHUNK.min(shots - *taken);
                for sample in &mut chunk[..n] {
                    model.sample_into(rng, sample);
                }
                *taken += n;
                n
            };
            if drawn == 0 {
                return failures;
            }
            failures += chunk[..drawn]
                .iter()
                .filter(|s| !decoder.decode_sample_with(code, s, ws).is_success())
                .count();
        }
    };
    let (caller, helpers) = states.split_first_mut().expect("threads >= 1");
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|state| surfnet_telemetry::spawn_scoped(scope, move || work(state)))
            .collect();
        let own = work(caller);
        own + handles
            .into_iter()
            .map(|h| h.join().expect("a shot helper thread panicked"))
            .sum::<usize>()
    })
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
