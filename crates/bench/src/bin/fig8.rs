//! Regenerates Fig. 8: Pauli error thresholds of the Union-Find decoder
//! vs the SurfNet Decoder (distances 9–15, erasure 15%, Pauli 5.0–8.5%,
//! rates halved on the Core part).
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig8 -- \
//!     [--trials N] [--seed S] [--max-distance D]`

use surfnet_bench::{
    arg_in, args, flatten, report_json, seed_arg, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::fig8;
use surfnet_core::DecoderKind;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed", "--max-distance"]);
    let trials = arg_in(&args, "--trials", 400usize, "at least 1", |&n| n >= 1);
    let seed = seed_arg(&args, 80_000u64, 1);
    // Below the smallest paper distance the grid would be empty.
    let smallest = fig8::paper_distances().into_iter().min().unwrap_or(0);
    let domain = format!("at least {smallest}");
    let max_distance = arg_in(&args, "--max-distance", 15usize, &domain, |&d| {
        d >= smallest
    });
    let distances: Vec<usize> = fig8::paper_distances()
        .into_iter()
        .filter(|&d| d <= max_distance)
        .collect();
    let rates = fig8::paper_rates();
    let mut metrics = Vec::new();
    for decoder in [DecoderKind::UnionFind, DecoderKind::SurfNet] {
        let curves = fig8::run(
            decoder,
            &distances,
            &rates,
            fig8::ERASURE_RATE,
            trials,
            seed,
        );
        println!("{}", fig8::render(&curves));
        metrics.extend(flatten::fig8(&curves));
    }
    report_json::emit(
        "fig8",
        vec![
            ("trials", Value::from(trials)),
            ("seed", Value::from(seed)),
            ("max_distance", Value::from(max_distance)),
            ("erasure_rate", Value::Num(fig8::ERASURE_RATE)),
        ],
        &metrics,
    );
    telemetry_dump("fig8");
    trace_finish();
}
