//! Compares two `BENCH_<figure>.json` reports value for value.
//!
//! A seeded run's `metrics`, `counters` and `groups` are deterministic, so
//! the one rule is exact equality: a value that changed, or that the
//! candidate lacks, fails. A key that only the candidate has is listed but
//! does not fail (a figure run inside `all` lists the counters an earlier
//! figure registered, at zero). Timers hold wall-clock time, and `params`
//! and `git_rev` describe the run, so none of them is compared.

use surfnet_telemetry::json::Value;

/// One value that differs between the two reports.
#[derive(Debug, Clone)]
pub struct Changed {
    /// Flat key.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
}

/// Result of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Figure name (from the baseline).
    pub figure: String,
    /// How many baseline values the candidate also holds.
    pub compared: usize,
    /// Compared values that differ, report order.
    pub changed: Vec<Changed>,
    /// Keys present in the baseline but absent from the candidate.
    pub missing: Vec<String>,
    /// Keys present in the candidate but absent from the baseline.
    pub added: Vec<String>,
}

impl DiffReport {
    /// Whether the diff fails: a value changed or went missing (a silently
    /// vanished series is the failure mode this tool exists to catch).
    pub fn fails(&self) -> bool {
        !self.changed.is_empty() || !self.missing.is_empty()
    }

    /// Human-readable summary (what `bench-diff` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench-diff [{}]: {} values compared, {} changed, {} missing, {} added\n",
            self.figure,
            self.compared,
            self.changed.len(),
            self.missing.len(),
            self.added.len()
        );
        for c in &self.changed {
            out.push_str(&format!(
                "  CHANGED {}: {} -> {}\n",
                c.name, c.baseline, c.candidate
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

fn compare(baseline: &[(String, f64)], candidate: &[(String, f64)], report: &mut DiffReport) {
    let lookup =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    for (name, base) in baseline {
        let Some(cand) = lookup(candidate, name) else {
            report.missing.push(name.clone());
            continue;
        };
        report.compared += 1;
        if cand != *base {
            report.changed.push(Changed {
                name: name.clone(),
                baseline: *base,
                candidate: cand,
            });
        }
    }
    for (name, _) in candidate {
        if lookup(baseline, name).is_none() {
            report.added.push(name.clone());
        }
    }
}

/// Diffs `candidate` against `baseline`: every value of their `metrics`,
/// `counters` and `groups` must be equal.
///
/// # Errors
///
/// Returns a message when either report is malformed, lacks one of the
/// three sections, or they describe different figures.
pub fn diff(baseline: &Value, candidate: &Value) -> Result<DiffReport, String> {
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
    for section in ["metrics", "counters", "groups"] {
        compare(
            &object(baseline, section)?,
            &object(candidate, section)?,
            &mut report,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose `metrics`, `counters` and `groups` objects hold the
    /// given JSON members.
    fn report(metrics: &str, counters: &str, groups: &str) -> Value {
        Value::parse(&format!(
            r#"{{"schema":"surfnet-bench/v1","figure":"t","metrics":{{{metrics}}},
               "counters":{{{counters}}},"groups":{{{groups}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_have_zero_regressions() {
        let r = report(r#""a/fidelity":0.9,"a/latency":10"#, r#""lp.pivots":5"#, "");
        let d = diff(&r, &r).unwrap();
        assert!(!d.fails());
        assert_eq!(d.compared, 3);
        let text = d.render();
        assert!(
            text.contains("3 values compared, 0 changed, 0 missing, 0 added"),
            "{text}"
        );
    }

    #[test]
    fn worse_fidelity_and_worse_latency_regress() {
        let base = report(r#""a/fidelity":0.9,"a/latency":10"#, "", "");
        let worse = report(r#""a/fidelity":0.8,"a/latency":12"#, "", "");
        let better = report(r#""a/fidelity":0.99,"a/latency":5"#, "", "");
        // Any change fails, whichever way it moves.
        for cand in [&worse, &better] {
            let d = diff(&base, cand).unwrap();
            assert!(d.fails());
            assert_eq!(d.changed.len(), 2);
        }
        let text = diff(&base, &better).unwrap().render();
        assert!(text.contains("2 values compared, 2 changed"), "{text}");
        assert!(text.contains("CHANGED a/fidelity: 0.9 -> 0.99"), "{text}");
        assert!(text.contains("CHANGED a/latency: 10 -> 5"), "{text}");
    }

    #[test]
    fn counters_and_groups_are_pinned_like_metrics() {
        let groups = r#""netsim.link.attempts{0-1}":700,"netsim.link.attempts{1-2}":450"#;
        let base = report("", r#""decoder.growth_rounds":84203"#, groups);
        let counter = report("", r#""decoder.growth_rounds":84204"#, groups);
        let group = report(
            "",
            r#""decoder.growth_rounds":84203"#,
            &groups.replace("700", "710"),
        );
        for (changed, key) in [
            (&counter, "decoder.growth_rounds"),
            (&group, "netsim.link.attempts{0-1}"),
        ] {
            for (a, b) in [(&base, changed), (changed, &base)] {
                let d = diff(a, b).unwrap();
                assert!(d.fails());
                assert_eq!(d.compared, 3);
                let names: Vec<&str> = d.changed.iter().map(|c| c.name.as_str()).collect();
                assert_eq!(names, [key]);
            }
        }
    }

    #[test]
    fn missing_metric_is_a_regression_added_is_not() {
        let base = report(r#""a/fidelity":0.9,"b/fidelity":0.9"#, "", "");
        let cand = report(r#""a/fidelity":0.9,"c/fidelity":0.9"#, "", "");
        let d = diff(&base, &cand).unwrap();
        assert!(d.fails());
        assert_eq!(d.missing, ["b/fidelity"]);
        assert_eq!(d.added, ["c/fidelity"]);
        // An added key alone passes.
        let d = diff(&report(r#""a/fidelity":0.9"#, "", ""), &cand).unwrap();
        assert!(!d.fails());
        assert_eq!(d.added, ["c/fidelity"]);
    }

    #[test]
    fn vanished_group_label_is_a_regression() {
        let groups = r#""netsim.link.attempts{0-1}":700,"netsim.link.attempts{1-2}":450"#;
        let base = report("", "", groups);
        let lost_label = report("", "", r#""netsim.link.attempts{0-1}":700"#);
        let d = diff(&base, &lost_label).unwrap();
        assert!(d.fails());
        assert_eq!(d.missing, ["netsim.link.attempts{1-2}"]);
        // A baseline predating grouped exports errors outright rather than
        // silently comparing nothing.
        let old = base
            .to_string()
            .replace(&format!(r#","groups":{{{groups}}}"#), "");
        let old = Value::parse(&old).unwrap();
        assert!(diff(&old, &base).unwrap_err().contains("groups"));
    }

    #[test]
    fn mismatched_figures_and_schemas_are_errors() {
        let a = report("", "", "");
        let mut b_text = a.to_string().replace("\"t\"", "\"u\"");
        let b = Value::parse(&b_text).unwrap();
        assert!(diff(&a, &b).unwrap_err().contains("different"));
        b_text = a.to_string().replace("surfnet-bench/v1", "x/y");
        let b = Value::parse(&b_text).unwrap();
        assert!(diff(&b, &a).is_err());
    }
}
