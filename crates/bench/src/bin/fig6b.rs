//! Regenerates Fig. 6(b.1–b.4): SurfNet parameter sweeps.
//!
//! Usage: `cargo run -p surfnet-bench --release --bin fig6b -- \
//!     [--param capacity|entanglement|messages|threshold|all] [--trials N] [--seed S]`

use surfnet_bench::{
    arg_in, arg_or, args, flatten, report_json, seed_arg, telemetry_dump, telemetry_init,
    trace_finish,
};
use surfnet_core::experiments::fig6b;
use surfnet_telemetry::json::Value;

fn main() {
    telemetry_init();
    let args = args(&["--trials", "--seed", "--param"]);
    let trials = arg_in(&args, "--trials", 30usize, "at least 1", |&n| n >= 1);
    let seed = seed_arg(&args, 62_000u64, trials as u64);
    let which = arg_or(&args, "--param", "all".to_string());
    let params = flatten::sweeps_for(&which).unwrap_or_else(|message| {
        eprintln!("surfnet-bench: {message}");
        std::process::exit(2);
    });
    for param in params {
        let sweep = fig6b::run(param, trials, seed);
        println!("{}", fig6b::render(&sweep));
        let key = flatten::sweep_key(param);
        report_json::emit(
            &format!("fig6b_{key}"),
            vec![("trials", Value::from(trials)), ("seed", Value::from(seed))],
            &flatten::fig6b(&sweep),
        );
        telemetry_dump(&format!("fig6b/{key}"));
    }
    trace_finish();
}
