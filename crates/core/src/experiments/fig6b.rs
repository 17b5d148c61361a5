//! Fig. 6(b.1–b.4): SurfNet's fidelity and throughput as functions of
//! facility capacity, entanglement generation rate, messages per request,
//! and the routing fidelity threshold `1/2^{W_c}`.

use crate::experiments::runner::parallel_trials;
use crate::pipeline::Design;
use crate::report;
use crate::scenario::TrialConfig;

/// Which network/routing parameter the sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepParam {
    /// Fig. 6(b.1): scale relay capacities.
    Capacity,
    /// Fig. 6(b.2): scale entanglement budgets and generation rate.
    Entanglement,
    /// Fig. 6(b.3): maximum messages (codes) per request.
    MessagesPerRequest,
    /// Fig. 6(b.4): the fidelity threshold `1/2^{W_c}` of the routing
    /// protocol.
    FidelityThreshold,
}

impl SweepParam {
    /// The four sweeps in figure order, b.1 to b.4.
    pub const ALL: [SweepParam; 4] = [
        SweepParam::Capacity,
        SweepParam::Entanglement,
        SweepParam::MessagesPerRequest,
        SweepParam::FidelityThreshold,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SweepParam::Capacity => "facility capacity (scale)",
            SweepParam::Entanglement => "entanglement generation rate",
            SweepParam::MessagesPerRequest => "messages per request",
            SweepParam::FidelityThreshold => "fidelity threshold 1/2^Wc",
        }
    }

    /// The default sweep grid for this parameter.
    pub fn default_grid(self) -> Vec<f64> {
        match self {
            SweepParam::Capacity => vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
            SweepParam::Entanglement => vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            SweepParam::MessagesPerRequest => vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            SweepParam::FidelityThreshold => vec![0.35, 0.45, 0.55, 0.65, 0.75, 0.85],
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The varied parameter's value.
    pub x: f64,
    /// Mean fidelity at this setting.
    pub fidelity: f64,
    /// Mean throughput at this setting.
    pub throughput: f64,
}

/// Result bundle of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Which parameter was varied.
    pub param: SweepParam,
    /// The measured points, in grid order.
    pub points: Vec<SweepPoint>,
    /// Trials per point.
    pub trials: usize,
}

/// Builds the [`TrialConfig`] for one sweep setting.
pub fn config_for(param: SweepParam, x: f64) -> TrialConfig {
    let mut cfg = TrialConfig::default();
    match param {
        SweepParam::Capacity => {
            cfg.capacity_scale = x;
        }
        SweepParam::Entanglement => {
            cfg.entanglement_scale = x / 0.4; // default rate 0.4 maps to scale 1
            cfg.execution.entanglement_rate = x;
        }
        SweepParam::MessagesPerRequest => {
            cfg.max_codes_per_request = x.round().max(1.0) as u32;
        }
        SweepParam::FidelityThreshold => {
            // x = 1/2^{W_c}  ⟺  W_c = log2(1/x); scale W with it so the
            // two thresholds stay consistent.
            let w_core = (1.0 / x).log2();
            let ratio = cfg.params.w_total / cfg.params.w_core;
            cfg.params.w_core = w_core;
            cfg.params.w_total = w_core * ratio;
        }
    }
    cfg
}

/// Runs one sweep of SurfNet over the default grid.
pub fn run(param: SweepParam, trials: usize, base_seed: u64) -> Sweep {
    run_grid(param, &param.default_grid(), trials, base_seed)
}

/// Runs one sweep over an explicit grid.
pub fn run_grid(param: SweepParam, grid: &[f64], trials: usize, base_seed: u64) -> Sweep {
    let points = grid
        .iter()
        .map(|&x| {
            let cfg = config_for(param, x);
            let summary = parallel_trials(Design::SurfNet, &cfg, trials, base_seed).summary();
            SweepPoint {
                x,
                fidelity: summary.fidelity,
                throughput: summary.throughput,
            }
        })
        .collect();
    Sweep {
        param,
        points,
        trials,
    }
}

/// Renders the sweep as two aligned series (fidelity and throughput).
pub fn render(sweep: &Sweep) -> String {
    let fid: Vec<(f64, f64)> = sweep.points.iter().map(|p| (p.x, p.fidelity)).collect();
    let thr: Vec<(f64, f64)> = sweep.points.iter().map(|p| (p.x, p.throughput)).collect();
    format!(
        "Fig. 6(b): SurfNet vs {} ({} trials per point)\n{}\n{}",
        sweep.param.label(),
        sweep.trials,
        report::series("fidelity", &fid),
        report::series("throughput", &thr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_sweep_increases_throughput() {
        let sweep = run_grid(SweepParam::Capacity, &[0.25, 2.0], 6, 1200);
        assert_eq!(sweep.points.len(), 2);
        assert!(
            sweep.points[1].throughput >= sweep.points[0].throughput,
            "throughput {} -> {}",
            sweep.points[0].throughput,
            sweep.points[1].throughput
        );
    }

    #[test]
    fn threshold_sweep_trades_throughput_for_fidelity() {
        // Higher fidelity threshold (larger x) = more selective routing.
        let sweep = run_grid(SweepParam::FidelityThreshold, &[0.35, 0.85], 6, 1300);
        let loose = sweep.points[0];
        let strict = sweep.points[1];
        assert!(
            strict.throughput <= loose.throughput + 1e-9,
            "throughput {} vs {}",
            strict.throughput,
            loose.throughput
        );
    }

    #[test]
    fn config_for_maps_parameters() {
        let c = config_for(SweepParam::Capacity, 0.5);
        assert_eq!(c.capacity_scale, 0.5);
        let c = config_for(SweepParam::MessagesPerRequest, 4.0);
        assert_eq!(c.max_codes_per_request, 4);
        let c = config_for(SweepParam::FidelityThreshold, 0.5);
        assert!((c.params.w_core - 1.0).abs() < 1e-12);
        let c = config_for(SweepParam::Entanglement, 0.8);
        assert!((c.execution.entanglement_rate - 0.8).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_param() {
        let sweep = run_grid(SweepParam::MessagesPerRequest, &[1.0], 2, 1400);
        assert!(render(&sweep).contains("messages per request"));
    }
}
