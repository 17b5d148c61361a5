//! Compares two `BENCH_<figure>.json` reports and exits non-zero on
//! regressions beyond tolerance.
//!
//! Usage: `cargo run -p surfnet-bench --bin bench-diff -- \
//!     <baseline.json> <candidate.json> [--tol 0.05] [--counters] [--counter-tol 0.5] \
//!     [--groups] [--group-tol 0]`
//!
//! `--groups` compares the grouped metric-family series (`name{label}`
//! keys) under `--group-tol`; group values are deterministic for seeded
//! runs, so the default group tolerance is 0, and a label missing from the
//! candidate is a regression. Timers are wall-clock and never compared.
//! Any tolerance of 0 pins its values: a change in either direction
//! fails, and one in the good direction prints as drift.
//!
//! Exit codes: 0 = no regressions, 1 = regressions or drift found, 2 =
//! usage error (an unknown flag included) or malformed report.

use surfnet_bench::{arg_or, args, diff, has_flag};

fn main() {
    let args = args(&[
        "--tol",
        "--counters",
        "--counter-tol",
        "--groups",
        "--group-tol",
    ]);
    let positional: Vec<&String> = {
        // Flags either stand alone (--counters) or take a value; strip both.
        let mut out = Vec::new();
        let mut skip = false;
        for a in &args {
            if skip {
                skip = false;
            } else if a == "--counters" || a == "--groups" {
                // bare flags
            } else if a.starts_with("--") {
                skip = true;
            } else {
                out.push(a);
            }
        }
        out
    };
    let [baseline_path, candidate_path] = positional.as_slice() else {
        eprintln!(
            "usage: bench-diff <baseline.json> <candidate.json> [--tol T] \
             [--counters] [--counter-tol T] [--groups] [--group-tol T]"
        );
        std::process::exit(2);
    };
    let tol = arg_or(&args, "--tol", 0.05f64);
    let counter_tol = has_flag(&args, "--counters").then(|| arg_or(&args, "--counter-tol", 0.5f64));
    let group_tol = has_flag(&args, "--groups").then(|| arg_or(&args, "--group-tol", 0.0f64));

    let result = diff::load(baseline_path)
        .and_then(|baseline| diff::load(candidate_path).map(|candidate| (baseline, candidate)))
        .and_then(|(baseline, candidate)| {
            diff::diff(&baseline, &candidate, tol, counter_tol, group_tol)
        });
    match result {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(i32::from(report.has_regressions()));
        }
        Err(message) => {
            eprintln!("bench-diff: {message}");
            std::process::exit(2);
        }
    }
}
