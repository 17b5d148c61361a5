//! Run-report analyzer CLI: per-stage critical-path breakdown, the
//! slowest trials, and hot links from a figure run's observability
//! outputs.
//!
//! Usage: `cargo run -p surfnet-bench --bin report -- \
//!     --journal trace.jsonl [--bench BENCH_fig7.json] [--json]`
//!
//! `--journal` takes the JSONL event trace written by
//! `SURFNET_TRACE=<path>`; `--bench` the same run's
//! `BENCH_<figure>.json` report, whose grouped `netsim.link.*` families
//! rank the hot links. At least one input is required. Output is
//! markdown by default, `--json` selects the `surfnet-report/v2` JSON
//! form; each ranking lists `report_analyze::TOP_K` rows. The report is a
//! pure function of its inputs — identical files produce identical output.
//!
//! Exit codes: 0 = report printed, 2 = usage error or malformed input.

use surfnet_bench::{arg_or, args, diff, has_flag, report_analyze};
use surfnet_telemetry::journal;

fn run() -> Result<String, String> {
    let args = args(&["--journal", "--bench", "--json"]);
    let journal_path = arg_or(&args, "--journal", String::new());
    let bench_path = arg_or(&args, "--bench", String::new());
    if journal_path.is_empty() && bench_path.is_empty() {
        return Err(
            "usage: report --journal <trace.jsonl> [--bench <BENCH_x.json>] [--json]".to_string(),
        );
    }
    let events = if journal_path.is_empty() {
        Vec::new()
    } else {
        let text = std::fs::read_to_string(&journal_path)
            .map_err(|e| format!("cannot read {journal_path}: {e}"))?;
        journal::parse_jsonl(&text).map_err(|e| format!("{journal_path}: {e}"))?
    };
    let bench = if bench_path.is_empty() {
        None
    } else {
        Some(diff::load(&bench_path)?)
    };
    let report = report_analyze::analyze(&events, bench.as_ref());
    if has_flag(&args, "--json") {
        let mut out = String::new();
        report.to_json().write_pretty(&mut out);
        out.push('\n');
        Ok(out)
    } else {
        Ok(report.render_markdown())
    }
}

fn main() {
    match run() {
        Ok(text) => print!("{text}"),
        Err(message) => {
            eprintln!("report: {message}");
            std::process::exit(2);
        }
    }
}
