//! Fig. 6(a): Raw vs SurfNet across the three facility scenarios —
//! throughput, latency, and fidelity tables (a.1) plus the per-scenario
//! fidelity detail (a.2).

use crate::experiments::runner::parallel_trials;
use crate::pipeline::Design;
use crate::report;
use crate::scenario::{ConnectionQuality, FacilityLevel, Scenario, TrialConfig};

/// One table row of Fig. 6(a.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scenario label (facility level).
    pub scenario: String,
    /// Design label (Raw or SurfNet).
    pub design: String,
    /// Mean throughput.
    pub throughput: f64,
    /// Mean latency (ticks).
    pub latency: f64,
    /// Mean communication fidelity.
    pub fidelity: f64,
    /// Std-dev of fidelity across trials (the (a.2) plots' spread).
    pub fidelity_std: f64,
    /// Histogram of per-trial fidelity over 10 equal buckets in [0, 1]
    /// (the Fig. 6(a.2) distribution detail).
    pub fidelity_histogram: [usize; 10],
}

/// Result bundle of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6a {
    /// One row per (scenario, design).
    pub rows: Vec<Row>,
    /// Trials per row.
    pub trials: usize,
}

/// Runs Fig. 6(a) with `trials` trials per (scenario, design) pair.
pub fn run(trials: usize, base_seed: u64) -> Fig6a {
    let mut rows = Vec::new();
    for facility in FacilityLevel::ALL {
        let mut cfg = TrialConfig::default();
        cfg.scenario = Scenario {
            facility,
            quality: ConnectionQuality::Good,
        };
        for design in [Design::Raw, Design::SurfNet] {
            let batch = parallel_trials(design, &cfg, trials, base_seed);
            let summary = batch.summary();
            let mut fidelity_histogram = [0usize; 10];
            for m in &batch.metrics {
                let bucket = ((m.fidelity * 10.0) as usize).min(9);
                fidelity_histogram[bucket] += 1;
            }
            rows.push(Row {
                scenario: facility.label().to_string(),
                design: design.label(),
                throughput: summary.throughput,
                latency: summary.latency,
                fidelity: summary.fidelity,
                fidelity_std: summary.fidelity_std,
                fidelity_histogram,
            });
        }
    }
    Fig6a { rows, trials }
}

/// Renders the result as the paper's side-by-side tables.
pub fn render(result: &Fig6a) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.design.clone(),
                report::f3(r.throughput),
                format!("{:.1}", r.latency),
                report::f3(r.fidelity),
                report::f3(r.fidelity_std),
            ]
        })
        .collect();
    format!(
        "Fig. 6(a): Raw vs SurfNet ({} trials per row)\n{}",
        result.trials,
        report::table(
            &[
                "scenario",
                "design",
                "throughput",
                "latency",
                "fidelity",
                "fid-std"
            ],
            &rows,
        )
    )
}

/// Renders the Fig. 6(a.2) fidelity-distribution detail: one histogram
/// row per (scenario, design).
pub fn render_detail(result: &Fig6a) -> String {
    let mut out = String::from("Fig. 6(a.2): per-trial communication fidelity distributions\n");
    for r in &result.rows {
        out.push_str(&format!("{:<13} {:<8}", r.scenario, r.design));
        let max = r
            .fidelity_histogram
            .iter()
            .copied()
            .max()
            .unwrap_or(1)
            .max(1);
        for (b, &count) in r.fidelity_histogram.iter().enumerate() {
            let glyph = match (count * 8) / max {
                0 if count == 0 => ' ',
                0 => '.',
                1 => ':',
                2 | 3 => '|',
                4 | 5 => '%',
                _ => '#',
            };
            out.push(glyph);
            let _ = b;
        }
        out.push_str(&format!("  (mean {:.3})\n", r.fidelity));
    }
    out.push_str("              buckets: fidelity 0.0 .. 1.0 in steps of 0.1\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_all_rows_and_surfnet_wins_fidelity() {
        let result = run(4, 900);
        assert_eq!(result.rows.len(), 6);
        // Within each scenario, SurfNet's fidelity should not trail Raw's
        // by more than noise; across all three scenarios the average gap
        // must favor SurfNet (the paper's headline).
        let mut surfnet = 0.0;
        let mut raw = 0.0;
        for pair in result.rows.chunks(2) {
            assert_eq!(pair[0].design, "Raw");
            assert_eq!(pair[1].design, "SurfNet");
            raw += pair[0].fidelity;
            surfnet += pair[1].fidelity;
        }
        assert!(surfnet > raw, "SurfNet {surfnet} vs Raw {raw}");
    }

    #[test]
    fn render_contains_headers() {
        let result = run(2, 950);
        let s = render(&result);
        assert!(s.contains("throughput"));
        assert!(s.contains("sufficient"));
        assert!(s.contains("SurfNet"));
        let d = render_detail(&result);
        assert!(d.contains("buckets"));
        assert_eq!(d.lines().count(), 8);
    }

    #[test]
    fn histogram_counts_sum_to_trials() {
        let result = run(3, 960);
        for row in &result.rows {
            let total: usize = row.fidelity_histogram.iter().sum();
            assert_eq!(total, 3, "{} {}", row.scenario, row.design);
        }
    }
}
