//! Machine-readable benchmark reports: `BENCH_<figure>.json`.
//!
//! Every figure binary emits one report per figure so CI (and humans) can
//! diff runs without scraping terminal tables:
//!
//! ```text
//! {
//!   "schema": "surfnet-bench/v1",
//!   "figure": "fig7",
//!   "git_rev": "e3146fa9c0d2",
//!   "params": { "trials": 4, "seed": 70000 },
//!   "metrics": { "abundant/good/SurfNet/fidelity": 0.91, ... },
//!   "counters": { "decoder.growth_rounds": 12345, ... },
//!   "timers": { "pipeline.evaluate": { "count": 80, "total_ns": ..., ... } },
//!   "groups": { "netsim.link.attempts{0-1}": 731, ... }
//! }
//! ```
//!
//! `metrics` is a flat map (see [`crate::flatten`]) so `bench-diff` can
//! compare reports key by key. Reports land in `SURFNET_BENCH_DIR`
//! (default: the current directory; `0`/`off` disables emission). The
//! report carries no timestamp, so with telemetry off two runs of the
//! same commit and parameters produce byte-identical files. With
//! telemetry on (`SURFNET_TELEMETRY=json`, as CI and every baseline run),
//! the `timers` section holds wall-clock nanoseconds (`total_ns`,
//! `mean_ns`, `p95_ns`, ...), which differ between runs; `bench-diff`
//! never compares timers.

use std::path::PathBuf;
use surfnet_telemetry::envreg::{self, Knob};
use surfnet_telemetry::json::{self, Value};

/// Schema tag checked by `bench-diff`.
pub const SCHEMA: &str = "surfnet-bench/v1";

/// Where reports go: `SURFNET_BENCH_DIR`, defaulting to the current
/// directory; `""`, `0`, or `off` disables emission.
///
/// A malformed value prints the accepted forms to stderr and **exits with
/// status 2** (like every `SURFNET_*` knob): a garbled spec means the
/// caller expected reports somewhere specific and would otherwise silently
/// not get them there.
pub fn bench_dir() -> Option<PathBuf> {
    envreg::or_exit(parse_bench_dir(Knob::BenchDir.raw().as_deref()))
}

/// Parses a `SURFNET_BENCH_DIR` value: unset means the current directory,
/// an off form ([`envreg::is_off`]) disables emission, anything else is
/// the report directory — except switch-like values (`1`, `true`, ...),
/// which are rejected as a misunderstanding of the knob.
///
/// # Errors
///
/// Returns a message naming the accepted forms.
pub fn parse_bench_dir(raw: Option<&str>) -> Result<Option<PathBuf>, String> {
    match raw {
        None => Ok(Some(PathBuf::from("."))),
        Some(raw) => envreg::parse_path(Knob::BenchDir, "report directory", raw),
    }
}

/// The current git revision (short), or `unknown` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Builds the report value from the flattened figure metrics plus the
/// *current* telemetry snapshot (call before `telemetry_dump`, which
/// resets the aggregates).
pub fn report(figure: &str, params: Vec<(&str, Value)>, metrics: &[(String, f64)]) -> Value {
    let mut report = json::obj(vec![
        ("schema", Value::from(SCHEMA)),
        ("figure", Value::from(figure)),
        ("git_rev", Value::from(git_rev())),
        ("params", json::obj(params)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, v)| (name.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    // The snapshot's `counters`, `timers` and `groups` follow the metrics.
    if let (Value::Obj(fields), Value::Obj(telemetry)) =
        (&mut report, surfnet_telemetry::snapshot().to_json())
    {
        fields.extend(telemetry);
    }
    report
}

/// Writes `BENCH_<figure>.json` under [`bench_dir`]. Returns the path, or
/// `None` when emission is disabled or the write failed (reported on
/// stderr; a bench run never aborts over a report).
pub fn emit(
    figure: &str,
    params: Vec<(&str, Value)>,
    metrics: &[(String, f64)],
) -> Option<PathBuf> {
    let dir = bench_dir()?;
    let value = report(figure, params, metrics);
    let mut out = String::new();
    value.write_pretty(&mut out);
    out.push('\n');
    let path = dir.join(format!("BENCH_{figure}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => {
            eprintln!("bench: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("bench: failed to write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_schema_figure_and_flat_metrics() {
        let metrics = vec![
            ("a/fidelity".to_string(), 0.5),
            ("a/latency".to_string(), 7.25),
        ];
        let r = report("figX", vec![("trials", Value::from(4u64))], &metrics);
        assert_eq!(r.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(r.get("figure").and_then(Value::as_str), Some("figX"));
        assert_eq!(
            r.get("params")
                .and_then(|p| p.get("trials"))
                .and_then(Value::as_u64),
            Some(4)
        );
        let m = r.get("metrics").expect("metrics");
        assert_eq!(m.get("a/fidelity").and_then(Value::as_f64), Some(0.5));
        assert_eq!(m.get("a/latency").and_then(Value::as_f64), Some(7.25));
        // Counters/timers/groups objects exist even with telemetry off.
        assert!(r.get("counters").and_then(Value::as_object).is_some());
        assert!(r.get("timers").and_then(Value::as_object).is_some());
        assert!(r.get("groups").and_then(Value::as_object).is_some());
        // And the whole thing round-trips through the parser.
        let text = r.to_string();
        assert_eq!(Value::parse(&text).unwrap(), r);
    }

    #[test]
    fn bench_dir_accepts_documented_forms() {
        assert_eq!(parse_bench_dir(None), Ok(Some(PathBuf::from("."))));
        assert_eq!(parse_bench_dir(Some("out")), Ok(Some(PathBuf::from("out"))));
        assert_eq!(
            parse_bench_dir(Some(" out ")),
            Ok(Some(PathBuf::from("out")))
        );
        assert_eq!(parse_bench_dir(Some("")), Ok(None));
        assert_eq!(parse_bench_dir(Some("0")), Ok(None));
        assert_eq!(parse_bench_dir(Some("OFF")), Ok(None));
    }

    #[test]
    fn bench_dir_rejects_switch_like_values() {
        for bad in ["1", "true", "ON", "yes", "disabled"] {
            let err = parse_bench_dir(Some(bad)).unwrap_err();
            assert!(err.contains("SURFNET_BENCH_DIR"), "{err}");
            assert!(err.contains("directory"), "{err}");
        }
    }
}
