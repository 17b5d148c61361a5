//! Fig. 8: Pauli error threshold of the Union-Find decoder vs the SurfNet
//! Decoder. Surface codes of distance 9/11/13/15, erasure rate fixed at
//! 15%, Pauli rate swept over 5.0–8.5%, both rates halved on the Core
//! part (paper Sec. VI-B). The paper reports thresholds ≈ 7.1% (UF) and
//! ≈ 7.25% (SurfNet).

use crate::evaluate::DecoderKind;
use crate::experiments::runner::{count_failed_shots, default_workers};
use crate::report;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::Decoder;
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};

/// One measured point of the threshold plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// Code distance.
    pub distance: usize,
    /// Pauli error rate on the Support part (halved on Core).
    pub pauli_rate: f64,
    /// Fraction of samples with a logical error after decoding.
    pub logical_error_rate: f64,
    /// Samples behind the estimate.
    pub trials: usize,
}

/// The full result for one decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdCurves {
    /// Which decoder was measured.
    pub decoder: String,
    /// All points, distance-major then rate-ascending.
    pub points: Vec<ThresholdPoint>,
    /// Estimated threshold: mean crossing of adjacent-distance curves.
    pub threshold: Option<f64>,
}

/// The paper's sweep settings.
pub fn paper_distances() -> Vec<usize> {
    vec![9, 11, 13, 15]
}

/// Pauli rates 5.0%–8.5% in 0.25% steps.
pub fn paper_rates() -> Vec<f64> {
    (0..=14).map(|i| 0.05 + 0.0025 * i as f64).collect()
}

/// The fixed erasure rate of the evaluation.
pub const ERASURE_RATE: f64 = 0.15;

/// Measures one of the network's decoders over the grid: [`run_with`]
/// under the decoder's name.
///
/// # Panics
///
/// As [`run_with`].
pub fn run(
    decoder: DecoderKind,
    distances: &[usize],
    rates: &[f64],
    erasure_rate: f64,
    trials: usize,
    base_seed: u64,
) -> ThresholdCurves {
    let name = match decoder {
        DecoderKind::SurfNet => "SurfNet Decoder",
        DecoderKind::UnionFind => "Union-Find",
    };
    run_with(
        name,
        |code, model| decoder.build(code, model),
        distances,
        rates,
        erasure_rate,
        trials,
        base_seed,
    )
}

/// Measures the decoder `build` makes from each point's code and error
/// model over the grid, as `name`. Grid points run in grid order; each
/// point decodes its `trials` shots on every core, with the same result on
/// any core count (see [`crate::experiments::runner`]). A point's shots do
/// not depend on the decoder, so two decoders measured at one `base_seed`
/// decode the same shots.
///
/// # Panics
///
/// Panics if `trials` is 0 (a point's error rate would be 0/0), or if a
/// distance is not a valid surface-code distance.
pub fn run_with(
    name: &str,
    build: impl Fn(&SurfaceCode, &ErrorModel) -> Box<dyn Decoder + Sync>,
    distances: &[usize],
    rates: &[f64],
    erasure_rate: f64,
    trials: usize,
    base_seed: u64,
) -> ThresholdCurves {
    assert!(
        trials > 0,
        "fig8::run needs at least one trial per grid point"
    );
    let threads = default_workers();
    let points: Vec<ThresholdPoint> = distances
        .iter()
        .flat_map(|&d| rates.iter().map(move |&p| (d, p)))
        .map(|(distance, pauli_rate)| {
            let failures = count_failures(
                &build,
                distance,
                pauli_rate,
                erasure_rate,
                trials,
                base_seed,
                threads,
            );
            ThresholdPoint {
                distance,
                pauli_rate,
                logical_error_rate: failures as f64 / trials as f64,
                trials,
            }
        })
        .collect();
    let threshold = estimate_threshold(&points);
    ThresholdCurves {
        decoder: name.to_string(),
        points,
        threshold,
    }
}

/// One grid point's logical failures over `trials` shots, decoded on
/// `threads` threads.
fn count_failures(
    build: impl Fn(&SurfaceCode, &ErrorModel) -> Box<dyn Decoder + Sync>,
    distance: usize,
    pauli_rate: f64,
    erasure_rate: f64,
    trials: usize,
    base_seed: u64,
    threads: usize,
) -> usize {
    let code = SurfaceCode::new(distance).expect("valid distance");
    let partition = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &partition, pauli_rate, erasure_rate);
    let rng = SmallRng::seed_from_u64(point_seed(distance, pauli_rate, base_seed));
    count_failed_shots(&*build(&code, &model), &code, &model, rng, trials, threads)
}

/// The RNG seed of one grid point: it varies with the point so curves are
/// independent samples, and not with the decoder, so the two decoders see
/// the same shots.
fn point_seed(distance: usize, pauli_rate: f64, base_seed: u64) -> u64 {
    base_seed
        ^ (distance as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ ((pauli_rate * 1e6) as u64).wrapping_mul(0xD1B54A32D192ED03)
}

/// Estimates the threshold as the mean crossing point of adjacent-distance
/// logical-error curves (below threshold larger codes win; above it they
/// lose — the crossing is the threshold).
pub fn estimate_threshold(points: &[ThresholdPoint]) -> Option<f64> {
    let mut distances: Vec<usize> = points.iter().map(|p| p.distance).collect();
    distances.sort_unstable();
    distances.dedup();
    if distances.len() < 2 {
        return None;
    }
    let curve = |d: usize| -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.distance == d)
            .map(|p| (p.pauli_rate, p.logical_error_rate))
            .collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        v
    };
    let mut crossings = Vec::new();
    for pair in distances.windows(2) {
        let small = curve(pair[0]);
        let large = curve(pair[1]);
        // diff = larger-code rate − smaller-code rate: negative below
        // threshold, positive above. Find the sign change.
        let diffs: Vec<(f64, f64)> = small
            .iter()
            .zip(&large)
            .map(|(&(x, ys), &(_, yl))| (x, yl - ys))
            .collect();
        for w in diffs.windows(2) {
            let (x0, d0) = w[0];
            let (x1, d1) = w[1];
            if d0 <= 0.0 && d1 > 0.0 {
                // Linear interpolation of the zero crossing.
                let t = if (d1 - d0).abs() < 1e-12 {
                    0.5
                } else {
                    -d0 / (d1 - d0)
                };
                crossings.push(x0 + t * (x1 - x0));
                break;
            }
        }
    }
    if crossings.is_empty() {
        None
    } else {
        Some(crossings.iter().sum::<f64>() / crossings.len() as f64)
    }
}

/// Renders the threshold curves.
pub fn render(result: &ThresholdCurves) -> String {
    let mut out = format!(
        "Fig. 8: {} logical error rates (erasure {}%)\n",
        result.decoder,
        ERASURE_RATE * 100.0
    );
    let mut distances: Vec<usize> = result.points.iter().map(|p| p.distance).collect();
    distances.sort_unstable();
    distances.dedup();
    let mut rows = Vec::new();
    let mut rates: Vec<f64> = result.points.iter().map(|p| p.pauli_rate).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    for &rate in &rates {
        let mut row = vec![format!("{:.2}%", rate * 100.0)];
        for &d in &distances {
            let p = result
                .points
                .iter()
                .find(|p| p.distance == d && (p.pauli_rate - rate).abs() < 1e-12)
                .expect("grid point");
            row.push(report::f3(p.logical_error_rate));
        }
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["pauli".to_string()];
    headers.extend(distances.iter().map(|d| format!("d={d}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    out.push_str(&report::table(&header_refs, &rows));
    match result.threshold {
        Some(t) => out.push_str(&format!("estimated threshold: {:.2}%\n", t * 100.0)),
        None => out.push_str("estimated threshold: n/a (no curve crossing in range)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_decoder::MwpmDecoder;

    #[test]
    fn small_grid_runs_and_orders_error_rates() {
        // Far below vs far above threshold: logical error rate must rise.
        let curves = run(DecoderKind::UnionFind, &[5], &[0.01, 0.12], 0.10, 60, 3000);
        assert_eq!(curves.points.len(), 2);
        assert!(curves.points[0].logical_error_rate < curves.points[1].logical_error_rate);
    }

    /// A decoder builder, as [`run_with`] takes one.
    type Build = fn(&SurfaceCode, &ErrorModel) -> Box<dyn Decoder + Sync>;

    /// The serial reference: one `sample` and one allocating
    /// `decode_sample` per shot, in RNG order.
    fn serial_failures(
        build: Build,
        distance: usize,
        pauli_rate: f64,
        trials: usize,
        base_seed: u64,
    ) -> usize {
        let code = SurfaceCode::new(distance).unwrap();
        let partition = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &partition, pauli_rate, ERASURE_RATE);
        let decoder = build(&code, &model);
        let mut rng = SmallRng::seed_from_u64(point_seed(distance, pauli_rate, base_seed));
        (0..trials)
            .filter(|_| {
                !decoder
                    .decode_sample(&code, &model.sample(&mut rng))
                    .is_success()
            })
            .count()
    }

    #[test]
    fn failures_do_not_depend_on_the_thread_count() {
        // 250 shots = 15 full chunks and a partial one, so 8 threads
        // finish on uneven shares and the last chunk is short.
        let trials = 250;
        let points = [(5, 0.06), (5, 0.10), (9, 0.08)];
        // MWPM at the d = 5 points only: it is the slowest by far.
        let cases: [(&str, Build, usize); 3] = [
            ("Union-Find", |c, m| DecoderKind::UnionFind.build(c, m), 3),
            ("SurfNet", |c, m| DecoderKind::SurfNet.build(c, m), 3),
            ("MWPM", |c, m| Box::new(MwpmDecoder::from_model(c, m)), 2),
        ];
        for (name, build, n) in cases {
            for &(distance, rate) in &points[..n] {
                let want = serial_failures(build, distance, rate, trials, 4200);
                assert!(0 < want && want < trials, "uninformative point: {want}");
                for threads in [1, 2, 3, 8] {
                    let got =
                        count_failures(build, distance, rate, ERASURE_RATE, trials, 4200, threads);
                    assert_eq!(got, want, "{name} d={distance} p={rate} threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn run_rejects_zero_trials() {
        run(DecoderKind::UnionFind, &[5], &[0.05], ERASURE_RATE, 0, 1);
    }

    #[test]
    fn estimate_threshold_finds_crossing() {
        // Synthetic curves crossing at exactly x = 0.07.
        let mk = |d: usize, slope: f64| -> Vec<ThresholdPoint> {
            (0..5)
                .map(|i| {
                    let x = 0.05 + 0.01 * i as f64;
                    ThresholdPoint {
                        distance: d,
                        pauli_rate: x,
                        logical_error_rate: 0.5 + slope * (x - 0.07),
                        trials: 100,
                    }
                })
                .collect()
        };
        let mut points = mk(9, 5.0);
        points.extend(mk(11, 10.0)); // steeper curve crosses at 0.07
        let t = estimate_threshold(&points).unwrap();
        assert!((t - 0.07).abs() < 1e-9, "threshold {t}");
    }

    #[test]
    fn estimate_threshold_none_without_crossing() {
        let points: Vec<ThresholdPoint> = (0..4)
            .map(|i| ThresholdPoint {
                distance: 9,
                pauli_rate: 0.05 + 0.01 * i as f64,
                logical_error_rate: 0.1,
                trials: 10,
            })
            .collect();
        assert!(estimate_threshold(&points).is_none());
    }

    #[test]
    fn render_includes_all_distances() {
        let curves = run(DecoderKind::SurfNet, &[3, 5], &[0.06], 0.1, 20, 3100);
        let s = render(&curves);
        assert!(s.contains("d=3"));
        assert!(s.contains("d=5"));
    }
}
