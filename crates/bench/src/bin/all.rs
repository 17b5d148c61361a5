//! Regenerates every evaluation figure in one run.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin all -- [--trials N] [--fig8-trials N] [--seed S]`

use surfnet_bench::{
    arg_in, args, flatten, report_json, seed_arg, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::{fig6a, fig6b, fig7, fig8};
use surfnet_core::DecoderKind;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--fig8-trials", "--seed"]);
    let trials = arg_in(&args, "--trials", 40usize, "at least 1", |&n| n >= 1);
    let fig8_trials = arg_in(&args, "--fig8-trials", 400usize, "at least 1", |&n| n >= 1);
    let seed = seed_arg(&args, 90_000u64, (trials as u64).saturating_add(3));
    let params = |trials: usize, seed: u64| {
        vec![("trials", Value::from(trials)), ("seed", Value::from(seed))]
    };

    let result_6a = fig6a::run(trials, seed);
    print!("{}", fig6a::render(&result_6a));
    report_json::emit("fig6a", params(trials, seed), &flatten::fig6a(&result_6a));
    telemetry_dump("fig6a");
    println!();
    // Dump after each sweep, as `fig6b` does, so each report carries
    // only its own sweep's telemetry.
    for param in fig6b::SweepParam::ALL {
        let sweep = fig6b::run(param, trials, seed + 1);
        println!("{}", fig6b::render(&sweep));
        let key = flatten::sweep_key(param);
        report_json::emit(
            &format!("fig6b_{key}"),
            params(trials, seed + 1),
            &flatten::fig6b(&sweep),
        );
        telemetry_dump(&format!("fig6b/{key}"));
    }
    let result_7 = fig7::run(trials, seed + 2);
    print!("{}", fig7::render(&result_7));
    report_json::emit("fig7", params(trials, seed + 2), &flatten::fig7(&result_7));
    telemetry_dump("fig7");
    println!();
    let distances = fig8::paper_distances();
    let rates = fig8::paper_rates();
    let mut fig8_metrics = Vec::new();
    for decoder in [DecoderKind::UnionFind, DecoderKind::SurfNet] {
        let curves = fig8::run(
            decoder,
            &distances,
            &rates,
            fig8::ERASURE_RATE,
            fig8_trials,
            seed + 3,
        );
        println!("{}", fig8::render(&curves));
        fig8_metrics.extend(flatten::fig8(&curves));
    }
    report_json::emit("fig8", params(fig8_trials, seed + 3), &fig8_metrics);
    telemetry_dump("fig8");
    trace_finish();
}
