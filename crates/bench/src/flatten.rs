//! Flattens figure result bundles into the `metrics` map of
//! `BENCH_<figure>.json`.
//!
//! Keys are `/`-separated paths ending in the measured quantity, e.g.
//! `abundant/good/SurfNet/fidelity` or `surfnet/d9/p0.0500/logical_error_rate`.
//! `bench-diff` pins each key's value, so a renamed key shows as one
//! missing and one added series.

use surfnet_core::experiments::{
    fig6a::Fig6a,
    fig6b::{Sweep, SweepParam},
    fig7::Fig7,
    fig8::ThresholdCurves,
    stream::{self, StreamResult},
};
use surfnet_core::metrics::percentile;

/// Fig. 6(a): per (scenario, design) throughput, latency, fidelity.
pub fn fig6a(result: &Fig6a) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for row in &result.rows {
        let prefix = format!("{}/{}", row.scenario, row.design);
        out.push((format!("{prefix}/throughput"), row.throughput));
        out.push((format!("{prefix}/latency"), row.latency));
        out.push((format!("{prefix}/fidelity"), row.fidelity));
        out.push((format!("{prefix}/fidelity_std"), row.fidelity_std));
    }
    out
}

/// Short stable key for a sweep parameter (the display labels contain
/// spaces and formulae).
pub fn sweep_key(param: SweepParam) -> &'static str {
    match param {
        SweepParam::Capacity => "capacity",
        SweepParam::Entanglement => "entanglement",
        SweepParam::MessagesPerRequest => "messages",
        SweepParam::FidelityThreshold => "threshold",
    }
}

/// The sweeps a `--param` value selects: the one whose [`sweep_key`] it
/// is, or all four in figure order for `all`.
///
/// # Errors
///
/// Returns a message naming the value and the accepted values for
/// anything else.
pub fn sweeps_for(value: &str) -> Result<Vec<SweepParam>, String> {
    if value == "all" {
        return Ok(SweepParam::ALL.to_vec());
    }
    SweepParam::ALL
        .into_iter()
        .find(|&param| sweep_key(param) == value)
        .map(|param| vec![param])
        .ok_or_else(|| {
            let keys: Vec<&str> = SweepParam::ALL.into_iter().map(sweep_key).collect();
            format!("--param {value:?}: expected one of {}|all", keys.join("|"))
        })
}

/// Fig. 6(b): per sweep point fidelity and throughput, keyed by the
/// varied parameter's value.
pub fn fig6b(sweep: &Sweep) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for point in &sweep.points {
        let prefix = format!("{}/x{}", sweep_key(sweep.param), point.x);
        out.push((format!("{prefix}/fidelity"), point.fidelity));
        out.push((format!("{prefix}/throughput"), point.throughput));
    }
    out
}

/// Fig. 7: per (scenario, design) fidelity, throughput, latency
/// percentiles.
pub fn fig7(result: &Fig7) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for cell in &result.cells {
        let prefix = format!("{}/{}", cell.scenario, cell.design);
        out.push((format!("{prefix}/fidelity"), cell.fidelity));
        out.push((format!("{prefix}/throughput"), cell.throughput));
        out.push((format!("{prefix}/latency_p50"), cell.latency_p50));
        out.push((format!("{prefix}/latency_p95"), cell.latency_p95));
        out.push((format!("{prefix}/latency_p99"), cell.latency_p99));
        out.push((format!("{prefix}/failed_trials"), cell.failed_trials as f64));
    }
    out
}

/// Fig. 8: per (decoder, distance, rate) logical error rate plus the
/// estimated threshold per decoder.
pub fn fig8(curves: &ThresholdCurves) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for p in &curves.points {
        out.push((
            format!(
                "{}/d{}/p{:.4}/logical_error_rate",
                curves.decoder, p.distance, p.pauli_rate
            ),
            p.logical_error_rate,
        ));
    }
    if let Some(threshold) = curves.threshold {
        out.push((format!("{}/threshold", curves.decoder), threshold));
    }
    out
}

/// Streaming scenario: pooled counters, the sustained completion rate,
/// latency percentiles, and the per-reason drop taxonomy.
pub fn stream(result: &StreamResult) -> Vec<(String, f64)> {
    let p = &result.pooled;
    let sorted = stream::sorted_latencies(p);
    vec![
        ("stream/arrivals".to_string(), p.arrivals as f64),
        ("stream/admitted".to_string(), p.admitted as f64),
        ("stream/completed".to_string(), p.completed as f64),
        ("stream/failed_transfers".to_string(), p.failed as f64),
        ("stream/deferred".to_string(), p.deferred as f64),
        ("stream/dropped_total".to_string(), p.dropped() as f64),
        (
            "stream/dropped_capacity".to_string(),
            p.dropped_capacity as f64,
        ),
        ("stream/dropped_pool".to_string(), p.dropped_pool as f64),
        (
            "stream/dropped_unroutable".to_string(),
            p.dropped_unroutable as f64,
        ),
        ("stream/dropped_rate".to_string(), p.drop_rate()),
        ("stream/requests_per_sec".to_string(), p.requests_per_sec()),
        ("stream/latency_p50".to_string(), percentile(&sorted, 0.50)),
        ("stream/latency_p99".to_string(), percentile(&sorted, 0.99)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_core::experiments::fig8::ThresholdPoint;

    #[test]
    fn sweeps_for_resolves_keys_and_rejects_the_rest() {
        for param in SweepParam::ALL {
            assert_eq!(sweeps_for(sweep_key(param)), Ok(vec![param]));
        }
        assert_eq!(
            sweeps_for("all"),
            Ok(vec![
                SweepParam::Capacity,
                SweepParam::Entanglement,
                SweepParam::MessagesPerRequest,
                SweepParam::FidelityThreshold,
            ])
        );
        // A typo, and a missing value that swallowed the next flag.
        for bad in ["capacty", "--trials"] {
            let err = sweeps_for(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(
                err.contains("capacity|entanglement|messages|threshold|all"),
                "{err}"
            );
        }
    }

    #[test]
    fn fig8_keys_carry_decoder_distance_and_rate() {
        let curves = ThresholdCurves {
            decoder: "surfnet".to_string(),
            points: vec![ThresholdPoint {
                distance: 9,
                pauli_rate: 0.05,
                logical_error_rate: 0.125,
                trials: 4,
            }],
            threshold: Some(0.07),
        };
        let flat = fig8(&curves);
        assert_eq!(
            flat,
            vec![
                ("surfnet/d9/p0.0500/logical_error_rate".to_string(), 0.125),
                ("surfnet/threshold".to_string(), 0.07),
            ]
        );
    }

    #[test]
    fn stream_flattens_thirteen_metrics() {
        use surfnet_netsim::event::StreamStats;
        let result = StreamResult {
            rows: Vec::new(),
            pooled: StreamStats {
                arrivals: 10,
                admitted: 7,
                completed: 5,
                failed: 2,
                deferred: 4,
                dropped_unroutable: 0,
                dropped_capacity: 2,
                dropped_pool: 1,
                end_time: 1000,
                latencies: vec![10, 20, 30],
            },
            num_nodes: 4,
            num_fibers: 3,
        };
        let flat = stream(&result);
        assert_eq!(flat.len(), 13);
        let get = |key: &str| flat.iter().find(|(k, _)| k == key).unwrap().1;
        assert_eq!(get("stream/dropped_total"), 3.0);
        assert_eq!(get("stream/dropped_rate"), 0.3);
        assert_eq!(get("stream/requests_per_sec"), 5.0);
    }

    #[test]
    fn fig7_emits_six_metrics_per_cell() {
        let result = surfnet_core::experiments::fig7::Fig7 {
            cells: vec![surfnet_core::experiments::fig7::Cell {
                scenario: "abundant/good".to_string(),
                design: "SurfNet".to_string(),
                fidelity: 0.9,
                throughput: 0.8,
                latency_p50: 10.0,
                latency_p95: 20.0,
                latency_p99: 30.0,
                failed_trials: 1,
            }],
            trials: 1,
        };
        let flat = fig7(&result);
        assert_eq!(flat.len(), 6);
        assert!(flat
            .iter()
            .all(|(k, _)| k.starts_with("abundant/good/SurfNet/")));
        assert_eq!(flat[0], ("abundant/good/SurfNet/fidelity".to_string(), 0.9));
    }
}
