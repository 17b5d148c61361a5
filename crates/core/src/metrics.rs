//! Evaluation metrics (paper Sec. VI-C): fidelity, latency, throughput.

/// Metrics of one trial (one network + one batch of requests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrialMetrics {
    /// Success rate of executed communications (no logical error end to
    /// end), averaged over executed communications. `NaN`-free: zero when
    /// nothing executed.
    pub fidelity: f64,
    /// Mean waiting time (ticks) of executed communications.
    pub latency: f64,
    /// Executed over requested communications.
    pub throughput: f64,
    /// Number of communications that completed execution.
    pub executed: u32,
    /// Number requested.
    pub requested: u32,
}

/// Aggregate over many trials.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSummary {
    /// Mean fidelity across trials.
    pub fidelity: f64,
    /// Standard deviation of fidelity.
    pub fidelity_std: f64,
    /// Mean latency.
    pub latency: f64,
    /// Median (50th percentile) of per-trial mean latencies.
    pub latency_p50: f64,
    /// 95th percentile of per-trial mean latencies.
    pub latency_p95: f64,
    /// 99th percentile of per-trial mean latencies.
    pub latency_p99: f64,
    /// Mean throughput.
    pub throughput: f64,
    /// Trials aggregated.
    pub trials: usize,
    /// Trials that errored and were excluded from every mean above
    /// (set by [`crate::experiments::runner::TrialBatch::summary`];
    /// [`Self::from_trials`] itself has no failure information and
    /// leaves it zero).
    pub failed_trials: usize,
}

/// Percentile (`p` in `[0, 1]`) of an ascending sample by linear
/// interpolation between closest ranks (the common "inclusive"
/// definition), `a + (b − a)·f`; 0 for an empty sample. The one percentile
/// of the workspace: trial latencies here, stream latencies through
/// [`crate::experiments::stream::sorted_latencies`].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => return 0.0,
        [only] => return *only,
        _ => {}
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl MetricsSummary {
    /// Aggregates trial metrics (empty input yields zeros).
    pub fn from_trials(trials: &[TrialMetrics]) -> MetricsSummary {
        if trials.is_empty() {
            return MetricsSummary::default();
        }
        let n = trials.len() as f64;
        let fidelity = trials.iter().map(|t| t.fidelity).sum::<f64>() / n;
        let var = trials
            .iter()
            .map(|t| (t.fidelity - fidelity).powi(2))
            .sum::<f64>()
            / n;
        let mut latencies: Vec<f64> = trials.iter().map(|t| t.latency).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        MetricsSummary {
            fidelity,
            fidelity_std: var.sqrt(),
            latency: trials.iter().map(|t| t.latency).sum::<f64>() / n,
            latency_p50: percentile(&latencies, 0.50),
            latency_p95: percentile(&latencies, 0.95),
            latency_p99: percentile(&latencies, 0.99),
            throughput: trials.iter().map(|t| t.throughput).sum::<f64>() / n,
            trials: trials.len(),
            failed_trials: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zero() {
        let s = MetricsSummary::from_trials(&[]);
        assert_eq!(s.trials, 0);
        assert_eq!(s.fidelity, 0.0);
    }

    #[test]
    fn summary_averages() {
        let t = |f: f64, l: f64, th: f64| TrialMetrics {
            fidelity: f,
            latency: l,
            throughput: th,
            executed: 1,
            requested: 1,
        };
        let s = MetricsSummary::from_trials(&[t(0.8, 10.0, 1.0), t(0.6, 20.0, 0.5)]);
        assert!((s.fidelity - 0.7).abs() < 1e-12);
        assert!((s.latency - 15.0).abs() < 1e-12);
        assert!((s.throughput - 0.75).abs() < 1e-12);
        assert!((s.fidelity_std - 0.1).abs() < 1e-12);
        assert_eq!(s.trials, 2);
    }

    #[test]
    fn latency_percentiles_interpolate() {
        let t = |l: f64| TrialMetrics {
            fidelity: 1.0,
            latency: l,
            throughput: 1.0,
            executed: 1,
            requested: 1,
        };
        // 1..=100: p50 = 50.5, p95 = 95.05, p99 = 99.01.
        let trials: Vec<_> = (1..=100).map(|i| t(i as f64)).collect();
        let s = MetricsSummary::from_trials(&trials);
        assert!((s.latency_p50 - 50.5).abs() < 1e-9, "p50 {}", s.latency_p50);
        assert!(
            (s.latency_p95 - 95.05).abs() < 1e-9,
            "p95 {}",
            s.latency_p95
        );
        assert!(
            (s.latency_p99 - 99.01).abs() < 1e-9,
            "p99 {}",
            s.latency_p99
        );
        // Percentiles are order-invariant.
        let mut rev = trials.clone();
        rev.reverse();
        assert_eq!(MetricsSummary::from_trials(&rev), s);
        // Stream latencies go through the same function.
        let latencies = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&latencies, 0.0), 10.0);
        assert_eq!(percentile(&latencies, 1.0), 40.0);
        assert_eq!(percentile(&latencies, 0.5), 25.0);
        // `a + (b − a)·f` gives 2.9 here; `a·(1 − f) + b·f` would give
        // 2.8999999999999995.
        assert_eq!(percentile(&[1.0, 3.0], 0.95), 2.9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn single_trial_percentiles_collapse() {
        let s = MetricsSummary::from_trials(&[TrialMetrics {
            fidelity: 0.9,
            latency: 42.0,
            throughput: 1.0,
            executed: 1,
            requested: 1,
        }]);
        assert_eq!(s.latency_p50, 42.0);
        assert_eq!(s.latency_p95, 42.0);
        assert_eq!(s.latency_p99, 42.0);
    }
}
