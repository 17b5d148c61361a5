//! Benchmark harness for the SurfNet reproduction.
//!
//! Binaries regenerate every evaluation artifact of the paper:
//!
//! * `fig6a` — Fig. 6(a): Raw vs SurfNet tables (throughput, latency,
//!   fidelity) in three facility scenarios;
//! * `fig6b` — Fig. 6(b.1–b.4): parameter sweeps
//!   (`--param capacity|entanglement|messages|threshold`);
//! * `fig7` — Fig. 7: five designs × four scenarios;
//! * `fig8` — Fig. 8: decoder thresholds (Union-Find vs SurfNet);
//! * `all` — everything above with paper-scale defaults.
//!
//! Criterion benches (`cargo bench -p surfnet-bench`) measure the decoder
//! and matcher scaling claims (Theorems 1–2) and the LP scheduler.
//!
//! Beyond the terminal tables, every figure binary also emits a
//! machine-readable `BENCH_<figure>.json` report ([`report_json`]); the
//! `bench-diff` binary ([`diff`]) compares two reports and fails on
//! regressions, and the `replay` binary re-executes flight-recorder
//! artifacts (`surfnet_core::flight`). Set `SURFNET_TRACE=<path>` to get
//! a Chrome/Perfetto trace of the run.

use std::env;

pub mod diff;
pub mod flatten;
pub mod report_analyze;
pub mod report_json;

/// Minimal `--key value` argument extraction for the figure binaries.
///
/// # Examples
///
/// ```
/// let trials = surfnet_bench::arg_or(&["--trials".into(), "12".into()], "--trials", 40usize);
/// assert_eq!(trials, 12);
/// ```
pub fn arg_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Collects process arguments (skipping `argv[0]`).
pub fn args() -> Vec<String> {
    env::args().skip(1).collect()
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Enables telemetry according to `SURFNET_TELEMETRY` (`json` or `table`),
/// the event journal according to `SURFNET_TRACE=<path>`, the time-series
/// stats sampler according to `SURFNET_STATS=<path>[:interval_ms]`, and
/// the failure flight recorder according to `SURFNET_FLIGHT=<dir>`.
///
/// Every figure binary calls this first thing in `main`.
pub fn telemetry_init() {
    surfnet_telemetry::Telemetry::init_from_env();
    surfnet_telemetry::journal::init_from_env();
    surfnet_telemetry::stats::init_from_env();
    surfnet_core::flight::init_from_env();
}

/// Writes the accumulated event journal to the `SURFNET_TRACE` path (a
/// `.jsonl` extension selects JSONL, anything else the Chrome trace
/// format). Every figure binary calls this last thing in `main`.
pub fn trace_finish() {
    match surfnet_telemetry::journal::write_trace() {
        Ok(Some(path)) => eprintln!("surfnet-trace: wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("surfnet-trace: write failed: {e}"),
    }
}

/// Stops the `SURFNET_STATS` sampler, writing one final exact sample.
/// Figure binaries call this after `report_json::emit` (which reads the
/// live snapshot) and **before** [`telemetry_dump`] (which resets the
/// aggregates the final sample snapshots).
pub fn stats_finish() {
    if let Some(path) = surfnet_telemetry::stats::finish() {
        eprintln!("surfnet-stats: wrote {}", path.display());
    }
}

/// Prints the accumulated per-stage breakdown (if telemetry is enabled)
/// and clears it so successive figures in one process report separately.
pub fn telemetry_dump(figure: &str) {
    if let Some(report) = surfnet_core::report::telemetry_report() {
        println!("\ntelemetry [{figure}]\n{report}");
    }
    surfnet_telemetry::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_or_parses_and_defaults() {
        let args: Vec<String> = vec!["--trials".into(), "7".into(), "--x".into()];
        assert_eq!(arg_or(&args, "--trials", 1usize), 7);
        assert_eq!(arg_or(&args, "--seed", 42u64), 42);
        assert_eq!(arg_or(&args, "--x", 5usize), 5); // missing value
        assert!(has_flag(&args, "--x"));
        assert!(!has_flag(&args, "--y"));
    }
}
