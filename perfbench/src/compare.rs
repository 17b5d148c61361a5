//! `perf compare A… -- B…`: judges two sets of untraced runs against the
//! bounds in `BENCHMARK.json`.

use crate::spec::Spec;
use crate::stats::{self, Better};
use std::collections::BTreeMap;
use surfnet_telemetry::json::Value;

/// A comparison outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Agree,
    /// Worse than the bound allows.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Run-to-run spread is wider than the bound, so a difference of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges runs `b` against base runs `a` by their medians, unless either
/// side's interquartile spread exceeds `bound`: then the result is
/// unresolved, or improved if every run of `b` beats every run of `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if stats::spread(a).max(stats::spread(b)) > bound {
        let dominates = a
            .iter()
            .all(|&x| b.iter().all(|&y| stats::worsening(x, y, better) < 0.0));
        return if dominates {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if stats::regressed(ma, mb, better, bound) {
        Verdict::Regressed
    } else if stats::improved(ma, mb, better, bound) {
        Verdict::Improved
    } else {
        Verdict::Agree
    }
}

/// Judges the share of failed calls over all of `b`'s runs against all
/// of `a`'s: any increase regresses.
fn judge_failures(a: &[Record], b: &[Record]) -> (f64, f64, Verdict) {
    let share = |runs: &[Record]| {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        failed as f64 / attempted.max(1) as f64
    };
    let (sa, sb) = (share(a), share(b));
    let verdict = if stats::regressed(sa, sb, Better::Lower, 0.0) {
        Verdict::Regressed
    } else if stats::improved(sa, sb, Better::Lower, 0.0) {
        Verdict::Improved
    } else {
        Verdict::Agree
    };
    (sa, sb, verdict)
}

/// One untraced record line.
#[derive(Debug, Clone)]
struct Record {
    workload: String,
    seed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Untraced records among the lines of `text`; anything else (tables,
/// result lines, traced records) is skipped.
fn records(text: &str) -> Vec<Record> {
    text.lines()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|v| v.get("trace").and_then(Value::as_bool) == Some(false))
        .filter_map(|v| {
            let metrics = v
                .get("metrics")?
                .as_object()?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Some(Record {
                workload: v.get("workload")?.as_str()?.to_string(),
                seed: v.get("seed")?.as_u64()?,
                digest: v.get("result_digest")?.as_str()?.to_string(),
                metrics,
                attempted: v.get("attempted")?.as_u64()?,
                failed: v.get("failed")?.as_u64()?,
            })
        })
        .collect()
}

fn load(files: &[String]) -> Result<Vec<Record>, String> {
    let mut all = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        all.extend(records(&text));
    }
    Ok(all)
}

/// Entry point of `perf compare`; returns the exit status.
pub fn run(args: &[String]) -> i32 {
    let usage = "usage: perf compare A.json... -- B.json...";
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("{usage}");
        return 2;
    };
    let (a, b) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(a), Ok(b)) if !a.is_empty() && !b.is_empty() => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("perf compare: no untraced records on one side\n{usage}");
            return 2;
        }
    };
    let spec = Spec::load();
    let mut failing = 0;
    println!(
        "{:<8} {:<14} {:>30} {:>30} {:>9} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for workload in &spec.workloads {
        let side = |runs: &[Record]| -> Vec<Record> {
            runs.iter()
                .filter(|r| &r.workload == workload)
                .cloned()
                .collect()
        };
        let (ra, rb) = (side(&a), side(&b));
        if ra.is_empty() || rb.is_empty() {
            println!("{workload:<8} (no runs on one side)");
            continue;
        }
        for metric in &spec.end_to_end {
            let (name, bound) = (&metric.name, metric.bound.expect("end-to-end bound"));
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, metric.better, bound);
            if verdict == Verdict::Regressed {
                failing += 1;
            }
            let summary = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}]", stats::median(v))
            };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let change = if ma == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.2}%", (mb - ma) / ma.abs() * 100.0)
            };
            println!(
                "{workload:<8} {name:<14} {:>30} {:>30} {change:>9} {:>6.1}%  {} (n={}/{})",
                summary(&va),
                summary(&vb),
                bound * 100.0,
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
        let (sa, sb, verdict) = judge_failures(&ra, &rb);
        if verdict == Verdict::Regressed {
            failing += 1;
        }
        println!(
            "{workload:<8} {:<14} {sa:>30.6} {sb:>30.6} {:>9} {:>6.1}%  {}",
            "failed share",
            "",
            0.0,
            verdict.label()
        );
        let mut digests: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for r in ra.iter().chain(&rb) {
            digests.entry(r.seed).or_default().push(&r.digest);
        }
        for (seed, runs) in &digests {
            let mut distinct = runs.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() > 1 {
                failing += 1;
                println!("{workload:<8} result_digest CHANGED at --seed {seed}: {distinct:?}");
            } else {
                println!(
                    "{workload:<8} result_digest {} identical in {} runs at --seed {seed}",
                    distinct[0],
                    runs.len()
                );
            }
        }
    }
    i32::from(failing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: f64 = 0.10;

    fn run(failed: u64, attempted: u64) -> Record {
        Record {
            workload: "fig7".into(),
            seed: 0,
            digest: String::new(),
            metrics: BTreeMap::new(),
            attempted,
            failed,
        }
    }

    #[test]
    fn verdicts_follow_medians_spread_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.1, 100.4, 99.6];
        assert_eq!(judge(&a, &same, Better::Higher, TEN), Verdict::Agree);
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(judge(&a, &slower, Better::Higher, TEN), Verdict::Regressed);
        assert_eq!(judge(&a, &slower, Better::Lower, TEN), Verdict::Improved);
        // Spread 40% > 10%: unresolved unless every run wins.
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
        assert_eq!(judge(&a, &noisy, Better::Higher, TEN), Verdict::Unresolved);
        let noisy_but_better = [160.0, 240.0, 180.0, 220.0, 200.0];
        assert_eq!(
            judge(&a, &noisy_but_better, Better::Higher, TEN),
            Verdict::Improved
        );
    }

    #[test]
    fn any_failed_call_more_is_a_regression() {
        let clean = vec![run(0, 6_400); 5];
        let mut one_failure = clean.clone();
        one_failure[2].failed = 1;
        assert_eq!(judge_failures(&clean, &clean).2, Verdict::Agree);
        let (sa, sb, verdict) = judge_failures(&clean, &one_failure);
        assert_eq!((sa, sb, verdict), (0.0, 1.0 / 32_000.0, Verdict::Regressed));
        assert_eq!(judge_failures(&one_failure, &clean).2, Verdict::Improved);
    }

    #[test]
    fn only_untraced_record_lines_are_read() {
        let text = concat!(
            "perf fig7 --seed 0 (untraced)\n",
            r#"{"workload":"fig7","seed":2,"git_rev":"x","trace":false,"metrics":{"work_per_s":{"value":321.5,"unit":"1/s"}},"attempted":6400,"failed":0,"result_digest":"00ff","check":"ok"}"#,
            "\n",
            r#"{"workload":"fig7","seed":2,"git_rev":"x","trace":true,"metrics":{},"attempted":12800,"failed":0,"result_digest":"00ff","check":"ok"}"#,
            "\n",
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#,
            "\n"
        );
        let got = records(text);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].workload, "fig7");
        assert_eq!(got[0].seed, 2);
        assert_eq!(got[0].metrics.get("work_per_s"), Some(&321.5));
        assert_eq!((got[0].attempted, got[0].failed), (6_400, 0));
    }
}
