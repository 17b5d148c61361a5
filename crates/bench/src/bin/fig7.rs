//! Regenerates Fig. 7: average fidelity of SurfNet, Raw, and
//! Purification N = 1, 2, 9 across four network scenarios.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig7 -- [--trials N] [--seed S]`
//! (the paper uses `--trials 1080`)

use surfnet_bench::{
    arg_or, args, flatten, report_json, stats_finish, telemetry_dump, telemetry_init, trace_finish,
};
use surfnet_core::experiments::fig7;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args();
    let trials = arg_or(&args, "--trials", 40usize);
    let seed = arg_or(&args, "--seed", 70_000u64);
    let result = fig7::run(trials, seed);
    print!("{}", fig7::render(&result));
    report_json::emit(
        "fig7",
        vec![("trials", Value::from(trials)), ("seed", Value::from(seed))],
        &flatten::fig7(&result),
    );
    stats_finish();
    telemetry_dump("fig7");
    trace_finish();
}
