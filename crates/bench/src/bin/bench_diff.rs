//! Compares two `BENCH_<figure>.json` reports and exits non-zero when a
//! value changed.
//!
//! Usage: `cargo run -p surfnet-bench --bin bench-diff -- \
//!     <baseline.json> <candidate.json>`
//!
//! Every value of the `metrics`, `counters` and grouped family series
//! (`groups`, `name{label}` keys) must be equal, and a key missing from the
//! candidate fails; a key only the candidate has is listed but passes.
//! Timers are wall-clock and never compared.
//!
//! Exit codes: 0 = every value equal, 1 = a value changed or is missing,
//! 2 = usage error (any flag included) or malformed report.

use surfnet_bench::{args, diff};

fn main() {
    let args = args(&[]);
    let [baseline_path, candidate_path] = args.as_slice() else {
        eprintln!("usage: bench-diff <baseline.json> <candidate.json>");
        std::process::exit(2);
    };
    let result = diff::load(baseline_path)
        .and_then(|baseline| diff::load(candidate_path).map(|candidate| (baseline, candidate)))
        .and_then(|(baseline, candidate)| diff::diff(&baseline, &candidate));
    match result {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(i32::from(report.fails()));
        }
        Err(message) => {
            eprintln!("bench-diff: {message}");
            std::process::exit(2);
        }
    }
}
