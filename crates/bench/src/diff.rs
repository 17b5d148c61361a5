//! Compares two `BENCH_<figure>.json` reports and flags regressions.
//!
//! The comparison direction is inferred from each metric's final path
//! segment: latency, error, dropped, failed, and infeasible series are better when
//! *lower*; everything else (fidelity, throughput, threshold) is better
//! when *higher*. A metric regresses when it moves in the bad direction by
//! more than `tol` relative to the baseline value. Counters are only
//! compared when a counter tolerance is supplied — they track work done
//! (growth rounds, LP pivots), which legitimately drifts with trial
//! counts, so the default check looks at metrics only.

use surfnet_telemetry::json::Value;

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Flat metric key.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative movement in the bad direction (positive = worse).
    pub worsening: f64,
    /// Whether the movement exceeds the tolerance.
    pub regression: bool,
}

/// Result of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Figure name (from the baseline).
    pub figure: String,
    /// All compared metrics, report order.
    pub rows: Vec<MetricDiff>,
    /// Keys present in the baseline but absent from the candidate.
    pub missing: Vec<String>,
    /// Keys present in the candidate but absent from the baseline.
    pub added: Vec<String>,
}

impl DiffReport {
    /// Whether any metric regressed beyond tolerance (missing metrics
    /// count as regressions — a silently vanished series is the failure
    /// mode this tool exists to catch).
    pub fn has_regressions(&self) -> bool {
        !self.missing.is_empty() || self.rows.iter().any(|r| r.regression)
    }

    /// Compared metrics that regressed.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.rows.iter().filter(|r| r.regression).collect()
    }

    /// Human-readable summary (what `bench-diff` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench-diff [{}]: {} metrics compared, {} regressed, {} missing, {} added\n",
            self.figure,
            self.rows.len(),
            self.regressions().len(),
            self.missing.len(),
            self.added.len()
        );
        for r in self.rows.iter().filter(|r| r.regression) {
            out.push_str(&format!(
                "  REGRESSION {}: {} -> {} ({:+.1}% worse)\n",
                r.name,
                r.baseline,
                r.candidate,
                r.worsening * 100.0
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("  MISSING {m}\n"));
        }
        for a in &self.added {
            out.push_str(&format!("  added {a}\n"));
        }
        out
    }
}

/// Whether a metric key denotes a lower-is-better quantity.
pub fn lower_is_better(name: &str) -> bool {
    let last = name.rsplit('/').next().unwrap_or(name);
    [
        "latency",
        "error",
        "dropped",
        "infeasible",
        "std",
        "failed",
        "mean_ns",
    ]
    .iter()
    .any(|marker| last.contains(marker))
}

fn object(report: &Value, key: &str) -> Result<Vec<(String, f64)>, String> {
    report
        .get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("report has no `{key}` object"))?
        .iter()
        .map(|(name, v)| {
            v.as_f64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("`{key}.{name}` is not a number"))
        })
        .collect()
}

/// Extracts the per-stage timer means (`trial.run` and `trial.stage.*`)
/// from a report's `timers` object as flat `<name>/mean_ns` keys, so the
/// stage breakdown can be compared with the same machinery as metrics.
fn stage_timers(report: &Value) -> Result<Vec<(String, f64)>, String> {
    Ok(report
        .get("timers")
        .and_then(Value::as_object)
        .ok_or("report has no `timers` object")?
        .iter()
        .filter(|(name, _)| name == "trial.run" || name.starts_with("trial.stage."))
        .filter_map(|(name, entry)| {
            entry
                .get("mean_ns")
                .and_then(Value::as_f64)
                .map(|mean| (format!("{name}/mean_ns"), mean))
        })
        .collect())
}

fn check_schema(report: &Value, which: &str) -> Result<(), String> {
    match report.get("schema").and_then(Value::as_str) {
        Some(crate::report_json::SCHEMA) => Ok(()),
        Some(other) => Err(format!("{which} has unsupported schema `{other}`")),
        None => Err(format!("{which} is not a surfnet-bench report")),
    }
}

fn compare(
    baseline: &[(String, f64)],
    candidate: &[(String, f64)],
    tol: f64,
    report: &mut DiffReport,
) {
    let lookup =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    for (name, base) in baseline {
        let Some(cand) = lookup(candidate, name) else {
            report.missing.push(name.clone());
            continue;
        };
        let worse_by = if lower_is_better(name) {
            cand - base
        } else {
            base - cand
        };
        // Relative to the baseline magnitude, with a floor so a zero
        // baseline doesn't turn every epsilon into a regression.
        let worsening = worse_by / base.abs().max(1e-9);
        report.rows.push(MetricDiff {
            name: name.clone(),
            baseline: *base,
            candidate: cand,
            worsening,
            regression: worse_by > 0.0 && worsening > tol,
        });
    }
    for (name, _) in candidate {
        if lookup(baseline, name).is_none() {
            report.added.push(name.clone());
        }
    }
}

/// Diffs `candidate` against `baseline`.
///
/// `tol` is the relative tolerance for `metrics`; counters are compared
/// too when `counter_tol` is given (they get their own, typically much
/// looser, tolerance), the per-stage timer means (`trial.run` and
/// `trial.stage.*`, as `<name>/mean_ns` keys, lower-is-better) when
/// `stage_tol` is given — stage times are wall-clock, so its tolerance
/// should be loose too — and the grouped metric-family series
/// (`name{label}` keys from the `groups` object) when `group_tol` is
/// given. Group values are counter values / histogram sample counts
/// (deterministic for seeded runs), so a zero group tolerance is the
/// normal CI setting; a label vanishing from a family surfaces through
/// the usual missing-key regression.
///
/// # Errors
///
/// Returns a message when either report is malformed or they describe
/// different figures.
pub fn diff(
    baseline: &Value,
    candidate: &Value,
    tol: f64,
    counter_tol: Option<f64>,
    stage_tol: Option<f64>,
    group_tol: Option<f64>,
) -> Result<DiffReport, String> {
    check_schema(baseline, "baseline")?;
    check_schema(candidate, "candidate")?;
    let fig_base = baseline.get("figure").and_then(Value::as_str).unwrap_or("");
    let fig_cand = candidate
        .get("figure")
        .and_then(Value::as_str)
        .unwrap_or("");
    if fig_base != fig_cand {
        return Err(format!(
            "reports describe different figures: `{fig_base}` vs `{fig_cand}`"
        ));
    }
    let mut report = DiffReport {
        figure: fig_base.to_string(),
        ..DiffReport::default()
    };
    compare(
        &object(baseline, "metrics")?,
        &object(candidate, "metrics")?,
        tol,
        &mut report,
    );
    if let Some(ctol) = counter_tol {
        compare(
            &object(baseline, "counters")?,
            &object(candidate, "counters")?,
            ctol,
            &mut report,
        );
    }
    if let Some(stol) = stage_tol {
        compare(
            &stage_timers(baseline)?,
            &stage_timers(candidate)?,
            stol,
            &mut report,
        );
    }
    if let Some(gtol) = group_tol {
        compare(
            &object(baseline, "groups")?,
            &object(candidate, "groups")?,
            gtol,
            &mut report,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: &[(&str, f64)]) -> Value {
        let body: String = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        Value::parse(&format!(
            "{{\"schema\":\"surfnet-bench/v1\",\"figure\":\"t\",\
             \"metrics\":{{{body}}},\"counters\":{{}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn direction_inference() {
        assert!(lower_is_better("a/b/latency_p99"));
        assert!(lower_is_better("surfnet/d9/p0.0500/logical_error_rate"));
        assert!(lower_is_better("telemetry.dropped"));
        assert!(lower_is_better("a/b/failed_trials"));
        assert!(lower_is_better("trial.stage.decode/mean_ns"));
        assert!(lower_is_better("trial.run/mean_ns"));
        assert!(!lower_is_better("a/b/fidelity"));
        assert!(!lower_is_better("a/b/throughput"));
        assert!(!lower_is_better("surfnet/threshold"));
        // Throughput and plain work counters are higher-is-better.
        assert!(!lower_is_better("shots_per_sec"));
        assert!(!lower_is_better("decoder.cache_hits"));
        assert!(!lower_is_better("decoder.trivial_skips"));
    }

    #[test]
    fn identical_reports_have_zero_regressions() {
        let r = report(&[("a/fidelity", 0.9), ("a/latency", 10.0)]);
        let d = diff(&r, &r, 0.0, None, None, None).unwrap();
        assert!(!d.has_regressions());
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn worse_fidelity_and_worse_latency_regress() {
        let base = report(&[("a/fidelity", 0.9), ("a/latency", 10.0)]);
        let worse = report(&[("a/fidelity", 0.8), ("a/latency", 12.0)]);
        let d = diff(&base, &worse, 0.05, None, None, None).unwrap();
        assert_eq!(d.regressions().len(), 2);
        // The same movement inside tolerance passes.
        let d = diff(&base, &worse, 0.25, None, None, None).unwrap();
        assert!(!d.has_regressions());
        // Movement in the *good* direction is never a regression.
        let better = report(&[("a/fidelity", 0.99), ("a/latency", 5.0)]);
        let d = diff(&base, &better, 0.0, None, None, None).unwrap();
        assert!(!d.has_regressions());
    }

    #[test]
    fn missing_metric_is_a_regression_added_is_not() {
        let base = report(&[("a/fidelity", 0.9), ("b/fidelity", 0.9)]);
        let cand = report(&[("a/fidelity", 0.9), ("c/fidelity", 0.9)]);
        let d = diff(&base, &cand, 0.05, None, None, None).unwrap();
        assert!(d.has_regressions());
        assert_eq!(d.missing, vec!["b/fidelity".to_string()]);
        assert_eq!(d.added, vec!["c/fidelity".to_string()]);
    }

    fn report_with_timers(metrics: &[(&str, f64)], timers: &[(&str, f64)]) -> Value {
        let metrics_body: String = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        let timers_body: String = timers
            .iter()
            .map(|(k, mean)| format!("\"{k}\":{{\"count\":4,\"mean_ns\":{mean}}}"))
            .collect::<Vec<_>>()
            .join(",");
        Value::parse(&format!(
            "{{\"schema\":\"surfnet-bench/v1\",\"figure\":\"t\",\
             \"metrics\":{{{metrics_body}}},\"counters\":{{}},\"timers\":{{{timers_body}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn stage_means_compare_only_when_requested() {
        let base = report_with_timers(
            &[("a/fidelity", 0.9)],
            &[
                ("trial.run", 1000.0),
                ("trial.stage.decode", 700.0),
                ("pipeline.evaluate", 500.0), // not a stage timer: ignored
            ],
        );
        let slower = report_with_timers(
            &[("a/fidelity", 0.9)],
            &[
                ("trial.run", 1000.0),
                ("trial.stage.decode", 1400.0),
                ("pipeline.evaluate", 9999.0),
            ],
        );
        // Without a stage tolerance the slowdown is invisible.
        let d = diff(&base, &slower, 0.0, None, None, None).unwrap();
        assert!(!d.has_regressions());
        // With one, the decode stage regresses (mean_ns is lower-is-better)
        // and the non-stage timer still doesn't participate.
        let d = diff(&base, &slower, 0.0, None, Some(0.2), None).unwrap();
        assert_eq!(d.regressions().len(), 1);
        assert_eq!(d.regressions()[0].name, "trial.stage.decode/mean_ns");
        // A loose enough tolerance passes, and faster stages never regress.
        assert!(!diff(&base, &slower, 0.0, None, Some(2.0), None)
            .unwrap()
            .has_regressions());
        assert!(!diff(&slower, &base, 0.0, None, Some(0.0), None)
            .unwrap()
            .has_regressions());
        // A baseline predating stage timers compares nothing but errors on
        // a missing `timers` object outright.
        let old = report(&[("a/fidelity", 0.9)]);
        assert!(diff(&old, &slower, 0.0, None, Some(0.2), None)
            .unwrap_err()
            .contains("timers"));
    }

    fn report_with_groups(groups: &[(&str, f64)]) -> Value {
        let body: String = groups
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        Value::parse(&format!(
            "{{\"schema\":\"surfnet-bench/v1\",\"figure\":\"t\",\
             \"metrics\":{{}},\"counters\":{{}},\"groups\":{{{body}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn grouped_series_compare_only_when_requested() {
        let base = report_with_groups(&[
            ("netsim.link.attempts{0-1}", 700.0),
            ("netsim.link.attempts{1-2}", 450.0),
        ]);
        let drifted = report_with_groups(&[
            ("netsim.link.attempts{0-1}", 710.0),
            ("netsim.link.attempts{1-2}", 450.0),
        ]);
        // Without a group tolerance the drift is invisible.
        assert!(!diff(&base, &drifted, 0.0, None, None, None)
            .unwrap()
            .has_regressions());
        // Attempts carry no lower-is-better marker, so only a *drop*
        // regresses at zero tolerance; the higher candidate passes.
        assert!(!diff(&base, &drifted, 0.0, None, None, Some(0.0))
            .unwrap()
            .has_regressions());
        let d = diff(&drifted, &base, 0.0, None, None, Some(0.0)).unwrap();
        assert_eq!(d.regressions().len(), 1);
        assert_eq!(d.regressions()[0].name, "netsim.link.attempts{0-1}");
    }

    #[test]
    fn vanished_group_label_is_a_regression() {
        let base = report_with_groups(&[
            ("netsim.link.attempts{0-1}", 700.0),
            ("netsim.link.attempts{1-2}", 450.0),
        ]);
        let lost_label = report_with_groups(&[("netsim.link.attempts{0-1}", 700.0)]);
        let d = diff(&base, &lost_label, 0.0, None, None, Some(0.0)).unwrap();
        assert!(d.has_regressions());
        assert_eq!(d.missing, vec!["netsim.link.attempts{1-2}".to_string()]);
        // A baseline predating grouped exports errors outright rather than
        // silently comparing nothing.
        let old = report(&[]);
        assert!(diff(&old, &base, 0.0, None, None, Some(0.0))
            .unwrap_err()
            .contains("groups"));
    }

    #[test]
    fn mismatched_figures_and_schemas_are_errors() {
        let a = report(&[]);
        let mut b_text = a.to_string().replace("\"t\"", "\"u\"");
        let b = Value::parse(&b_text).unwrap();
        assert!(diff(&a, &b, 0.05, None, None, None)
            .unwrap_err()
            .contains("different"));
        b_text = a.to_string().replace("surfnet-bench/v1", "x/y");
        let b = Value::parse(&b_text).unwrap();
        assert!(diff(&b, &a, 0.05, None, None, None).is_err());
    }
}
