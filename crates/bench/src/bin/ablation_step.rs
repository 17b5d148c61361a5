//! Ablation: the SurfNet Decoder's step size `r` (Algorithm 2: "can be
//! further adjusted to optimize between the decoding speed and accuracy,
//! with the default 2/3 generally achieving a good balance").
//!
//! Usage: `cargo run -p surfnet-bench --release --bin ablation_step -- [--trials N]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use surfnet_bench::{arg_in, args, report_json, telemetry_dump, telemetry_init, trace_finish};
use surfnet_core::experiments::runner::{count_failed_shots, default_workers};
use surfnet_decoder::SurfNetDecoder;
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--distance"]);
    let trials = arg_in(&args, "--trials", 1200usize, "at least 1", |&n| n >= 1);
    let distance = arg_in(&args, "--distance", 9usize, "odd and at least 3", |&d| {
        d >= 3 && !d.is_multiple_of(2)
    });
    let code = SurfaceCode::new(distance).expect("valid distance");
    let part = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &part, 0.07, 0.15);
    let threads = default_workers();
    println!(
        "step-size ablation: d={distance}, pauli 7%, erasure 15%, {trials} trials, \
         {threads} threads"
    );
    let mut metrics = Vec::new();
    for r in [0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.5] {
        let decoder = SurfNetDecoder::with_step(&code, &model, r);
        let rng = SmallRng::seed_from_u64(23);
        #[expect(
            clippy::disallowed_methods,
            reason = "prints each step size's decode time next to its rates; the time never enters the report"
        )]
        let start = Instant::now();
        let failures = count_failed_shots(&decoder, &code, &model, rng, trials, threads);
        let elapsed = start.elapsed().as_secs_f64();
        let error_rate = failures as f64 / trials as f64;
        println!(
            "  r = {r:<5.3} logical error rate {:.4}  ({:.1} decodes/s)",
            error_rate,
            trials as f64 / elapsed.max(1e-9)
        );
        // Throughput is machine-dependent, so only the accuracy column goes
        // into the comparable report.
        metrics.push((format!("r{r:.3}/logical_error_rate"), error_rate));
    }
    report_json::emit(
        "ablation_step",
        vec![
            ("trials", Value::from(trials)),
            ("distance", Value::from(distance)),
        ],
        &metrics,
    );
    telemetry_dump("ablation_step");
    trace_finish();
}
