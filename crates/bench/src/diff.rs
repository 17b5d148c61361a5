//! Compares two `BENCH_<figure>.json` reports and flags regressions.
//!
//! The comparison direction is inferred from each metric's final path
//! segment: latency, error, dropped, failed, and infeasible series are better when
//! *lower*; everything else (fidelity, throughput, threshold) is better
//! when *higher*. A metric regresses when it moves in the bad direction by
//! more than `tol` relative to the baseline value. A zero tolerance pins
//! the value instead: any change at all fails, in either direction, and a
//! change in the good direction is reported as drift. Counters are only
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
    /// Whether the row fails: it moved in the bad direction by more than a
    /// nonzero tolerance, or it changed at all under a zero tolerance.
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
    /// Whether any metric failed its tolerance (missing metrics count as
    /// regressions — a silently vanished series is the failure mode this
    /// tool exists to catch).
    pub fn has_regressions(&self) -> bool {
        !self.missing.is_empty() || self.rows.iter().any(|r| r.regression)
    }

    /// Compared metrics that failed their tolerance, drift included.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.rows.iter().filter(|r| r.regression).collect()
    }

    /// Human-readable summary (what `bench-diff` prints). A failing row
    /// that did not get worse changed under a zero tolerance, so it prints
    /// as drift rather than as a regression.
    pub fn render(&self) -> String {
        let (worse, drift): (Vec<&MetricDiff>, Vec<&MetricDiff>) = self
            .regressions()
            .into_iter()
            .partition(|r| r.worsening > 0.0);
        let mut out = format!(
            "bench-diff [{}]: {} metrics compared, {} regressed, {} drifted, {} missing, {} added\n",
            self.figure,
            self.rows.len(),
            worse.len(),
            drift.len(),
            self.missing.len(),
            self.added.len()
        );
        for r in worse {
            out.push_str(&format!(
                "  REGRESSION {}: {} -> {} ({:+.1}% worse)\n",
                r.name,
                r.baseline,
                r.candidate,
                r.worsening * 100.0
            ));
        }
        for r in drift {
            out.push_str(&format!(
                "  DRIFT {}: {} -> {} (tolerance 0)\n",
                r.name, r.baseline, r.candidate
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
    ["latency", "error", "dropped", "infeasible", "std", "failed"]
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

fn check_schema(report: &Value, which: &str) -> Result<(), String> {
    match report.get("schema").and_then(Value::as_str) {
        Some(crate::report_json::SCHEMA) => Ok(()),
        Some(other) => Err(format!("{which} has unsupported schema `{other}`")),
        None => Err(format!("{which} is not a surfnet-bench report")),
    }
}

/// Reads a `BENCH_<figure>.json` report from `path`, checking that it
/// parses and carries the [`crate::report_json::SCHEMA`] tag.
///
/// # Errors
///
/// Returns a message naming the path when the file is unreadable, is not
/// JSON, or is not a surfnet-bench report.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = Value::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    check_schema(&report, path)?;
    Ok(report)
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
        let regression = if tol == 0.0 {
            cand != *base
        } else {
            worse_by > 0.0 && worsening > tol
        };
        report.rows.push(MetricDiff {
            name: name.clone(),
            baseline: *base,
            candidate: cand,
            worsening,
            regression,
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
/// `tol` is the relative tolerance for `metrics` (zero pins every value:
/// any change fails, in either direction); counters are compared
/// too when `counter_tol` is given (they get their own, typically much
/// looser, tolerance), and the grouped metric-family series
/// (`name{label}` keys from the `groups` object) when `group_tol` is
/// given. Timers are wall-clock and never compared. Group values are
/// counter values (deterministic for seeded runs), so a zero group
/// tolerance is the normal CI setting; a label vanishing from a family
/// surfaces through the usual missing-key regression.
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
        let d = diff(&r, &r, 0.0, None, None).unwrap();
        assert!(!d.has_regressions());
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn worse_fidelity_and_worse_latency_regress() {
        let base = report(&[("a/fidelity", 0.9), ("a/latency", 10.0)]);
        let worse = report(&[("a/fidelity", 0.8), ("a/latency", 12.0)]);
        let d = diff(&base, &worse, 0.05, None, None).unwrap();
        assert_eq!(d.regressions().len(), 2);
        // The same movement inside tolerance passes.
        let d = diff(&base, &worse, 0.25, None, None).unwrap();
        assert!(!d.has_regressions());
        // Under a nonzero tolerance, movement in the *good* direction is
        // never a regression.
        let better = report(&[("a/fidelity", 0.99), ("a/latency", 5.0)]);
        let d = diff(&base, &better, 0.05, None, None).unwrap();
        assert!(!d.has_regressions());
        // A zero tolerance pins the values: any change fails, in either
        // direction, and a better value prints as drift.
        let d = diff(&base, &better, 0.0, None, None).unwrap();
        assert_eq!(d.regressions().len(), 2);
        let text = d.render();
        assert!(text.contains("0 regressed, 2 drifted"), "{text}");
        assert!(text.contains("DRIFT a/fidelity: 0.9 -> 0.99"), "{text}");
        assert!(!text.contains("REGRESSION"), "{text}");
        let d = diff(&base, &worse, 0.0, None, None).unwrap();
        assert_eq!(d.regressions().len(), 2);
        assert!(d.render().contains("REGRESSION a/latency"));
    }

    #[test]
    fn missing_metric_is_a_regression_added_is_not() {
        let base = report(&[("a/fidelity", 0.9), ("b/fidelity", 0.9)]);
        let cand = report(&[("a/fidelity", 0.9), ("c/fidelity", 0.9)]);
        let d = diff(&base, &cand, 0.05, None, None).unwrap();
        assert!(d.has_regressions());
        assert_eq!(d.missing, vec!["b/fidelity".to_string()]);
        assert_eq!(d.added, vec!["c/fidelity".to_string()]);
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
        assert!(!diff(&base, &drifted, 0.0, None, None)
            .unwrap()
            .has_regressions());
        // A zero group tolerance fails the drift in either direction.
        for (a, b) in [(&base, &drifted), (&drifted, &base)] {
            let d = diff(a, b, 0.0, None, Some(0.0)).unwrap();
            assert_eq!(d.regressions().len(), 1);
            assert_eq!(d.regressions()[0].name, "netsim.link.attempts{0-1}");
        }
        // Attempts carry no lower-is-better marker, so under a nonzero
        // tolerance only a *drop* regresses; the higher candidate passes.
        assert!(!diff(&base, &drifted, 0.0, None, Some(0.001))
            .unwrap()
            .has_regressions());
        let d = diff(&drifted, &base, 0.0, None, Some(0.001)).unwrap();
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
        let d = diff(&base, &lost_label, 0.0, None, Some(0.0)).unwrap();
        assert!(d.has_regressions());
        assert_eq!(d.missing, vec!["netsim.link.attempts{1-2}".to_string()]);
        // A baseline predating grouped exports errors outright rather than
        // silently comparing nothing.
        let old = report(&[]);
        assert!(diff(&old, &base, 0.0, None, Some(0.0))
            .unwrap_err()
            .contains("groups"));
    }

    #[test]
    fn mismatched_figures_and_schemas_are_errors() {
        let a = report(&[]);
        let mut b_text = a.to_string().replace("\"t\"", "\"u\"");
        let b = Value::parse(&b_text).unwrap();
        assert!(diff(&a, &b, 0.05, None, None)
            .unwrap_err()
            .contains("different"));
        b_text = a.to_string().replace("surfnet-bench/v1", "x/y");
        let b = Value::parse(&b_text).unwrap();
        assert!(diff(&b, &a, 0.05, None, None).is_err());
    }
}
