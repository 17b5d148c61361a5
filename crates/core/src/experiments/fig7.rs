//! Fig. 7: average communication fidelity of the five network designs
//! (SurfNet, Raw, Purification N = 1, 2, 9) across four scenarios
//! (abundant/limited facilities × good/poor connections).

use crate::experiments::runner::parallel_trials;
use crate::pipeline::Design;
use crate::report;
use crate::scenario::{ConnectionQuality, FacilityLevel, Scenario, TrialConfig};
use serde::{Deserialize, Serialize};

/// One (scenario, design) cell of Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Scenario label.
    pub scenario: String,
    /// Design label.
    pub design: String,
    /// Mean fidelity.
    pub fidelity: f64,
    /// Mean throughput (reported to verify the designs are comparable).
    pub throughput: f64,
    /// Median of per-trial mean latencies (ticks).
    pub latency_p50: f64,
    /// 95th percentile of per-trial mean latencies (ticks).
    pub latency_p95: f64,
    /// 99th percentile of per-trial mean latencies (ticks).
    pub latency_p99: f64,
    /// Trials that errored and were excluded from the means.
    pub failed_trials: usize,
}

/// Result bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// All cells, scenario-major in presentation order.
    pub cells: Vec<Cell>,
    /// Trials per cell.
    pub trials: usize,
}

/// The four scenarios of Fig. 7.
pub fn scenarios() -> [Scenario; 4] {
    [
        Scenario {
            facility: FacilityLevel::Abundant,
            quality: ConnectionQuality::Good,
        },
        Scenario {
            facility: FacilityLevel::Abundant,
            quality: ConnectionQuality::Poor,
        },
        Scenario {
            facility: FacilityLevel::Insufficient,
            quality: ConnectionQuality::Good,
        },
        Scenario {
            facility: FacilityLevel::Insufficient,
            quality: ConnectionQuality::Poor,
        },
    ]
}

/// Runs Fig. 7 with `trials` trials per cell (the paper uses 1080).
pub fn run(trials: usize, base_seed: u64) -> Fig7 {
    let mut cells = Vec::new();
    for scenario in scenarios() {
        let mut cfg = TrialConfig::default();
        cfg.scenario = scenario;
        for design in Design::FIG7 {
            let batch = parallel_trials(design, &cfg, trials, base_seed);
            let summary = batch.summary();
            cells.push(Cell {
                scenario: scenario.label(),
                design: design.label(),
                fidelity: summary.fidelity,
                throughput: summary.throughput,
                latency_p50: summary.latency_p50,
                latency_p95: summary.latency_p95,
                latency_p99: summary.latency_p99,
                failed_trials: summary.failed_trials,
            });
        }
    }
    Fig7 { cells, trials }
}

/// Renders the comparison table.
pub fn render(result: &Fig7) -> String {
    let rows: Vec<Vec<String>> = result
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                c.design.clone(),
                report::f3(c.fidelity),
                report::f3(c.throughput),
                report::f3(c.latency_p50),
                report::f3(c.latency_p95),
                report::f3(c.latency_p99),
                c.failed_trials.to_string(),
            ]
        })
        .collect();
    format!(
        "Fig. 7: averaged communication fidelity, five designs x four scenarios ({} trials per cell)\n{}",
        result.trials,
        report::table(
            &[
                "scenario",
                "design",
                "fidelity",
                "throughput",
                "lat_p50",
                "lat_p95",
                "lat_p99",
                "failed",
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_twenty_cells() {
        let result = run(2, 2000);
        assert_eq!(result.cells.len(), 20);
        assert!(result
            .cells
            .iter()
            .all(|c| (0.0..=1.0).contains(&c.fidelity)));
    }

    #[test]
    fn surfnet_leads_in_abundant_good() {
        // The paper: SurfNet demonstrates significant advantage with
        // abundant facilities. Small trial count, fixed seeds; the decisive
        // margins are against Raw and the heavy-purification baseline, and
        // SurfNet must at least match the light-purification baseline.
        let result = run(8, 2400);
        let get = |scenario: &str, design: &str| {
            result
                .cells
                .iter()
                .find(|c| c.scenario == scenario && c.design == design)
                .unwrap()
                .fidelity
        };
        let surfnet = get("abundant/good", "SurfNet");
        let raw = get("abundant/good", "Raw");
        let p1 = get("abundant/good", "Purification N=1");
        let p9 = get("abundant/good", "Purification N=9");
        assert!(surfnet > raw, "SurfNet {surfnet} vs Raw {raw}");
        assert!(surfnet > p9, "SurfNet {surfnet} vs Purification N=9 {p9}");
        assert!(
            surfnet + 0.05 > p1,
            "SurfNet {surfnet} should at least match Purification N=1 {p1}"
        );
    }

    #[test]
    fn heavy_purification_loses_to_decoherence() {
        // Distilling nine extra pairs per fiber takes so long that the
        // unencoded message decoheres: N=9 ends below N=1 (the trade-off
        // SurfNet's encoded transfer avoids).
        let result = run(6, 2200);
        let get = |design: &str| {
            result
                .cells
                .iter()
                .filter(|c| c.design == design)
                .map(|c| c.fidelity)
                .sum::<f64>()
        };
        assert!(get("Purification N=1") > get("Purification N=9"));
    }
}
