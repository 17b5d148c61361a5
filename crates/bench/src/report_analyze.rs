//! Run-report analyzer: turns a journal JSONL trace (`SURFNET_TRACE=*.jsonl`)
//! plus the same run's optional `BENCH_<figure>.json` report into a
//! per-stage critical-path breakdown, a top-k slowest-trials table with
//! stage attribution, and the hot links of the network.
//!
//! The analysis is a pure function of its inputs: the same journal and
//! BENCH files always produce the same report, byte for byte (the `report`
//! binary relies on this — CI runs it twice and diffs the outputs).
//!
//! Stage self-times are reconstructed exactly the way the live
//! [`surfnet_telemetry::stage`] accounting charges them: each
//! `trial.stage.*` begin/end interval is charged to its stage *minus* any
//! nested stage intervals, and every stage interval is attributed to the
//! nearest enclosing `pipeline.trial` span (whose `Begin` record carries
//! the trial seed). A stage interval that no trial encloses is charged to
//! nothing, as live. Spans left open by journal truncation are dropped.

use surfnet_telemetry::journal::{OwnedEvent, Phase};
use surfnet_telemetry::json::{self, Value};
use surfnet_telemetry::stage;

/// Schema tag of the JSON report form.
pub const SCHEMA: &str = "surfnet-report/v1";

pub use stage::TRIAL_SPAN;

/// Aggregate self-time of one stage across the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Stage metric name (`trial.stage.decode`, ...).
    pub stage: String,
    /// Total self-time (nested stage intervals excluded), nanoseconds.
    pub total_ns: u64,
    /// Number of begin/end intervals that contributed.
    pub spans: u64,
}

/// One trial's duration and per-stage self-times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSummary {
    /// Trial id: the trial RNG seed its `pipeline.trial` `Begin` record
    /// carries (`None` for traces written before the seed rode there).
    pub trial: Option<u64>,
    /// Wall time of the `pipeline.trial` span, nanoseconds.
    pub run_ns: u64,
    /// Per-stage self-times inside this trial, largest first.
    pub stages: Vec<(String, u64)>,
}

/// One network link's entanglement traffic, read from the BENCH report's
/// grouped `netsim.link.*` families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotLink {
    /// Rendered link label (`"<lo>-<hi>"` endpoint pair).
    pub link: String,
    /// Cumulative entanglement generation attempts across the link.
    pub attempts: u64,
    /// Cumulative successful pair deliveries across the link.
    pub successes: u64,
}

impl HotLink {
    /// Fraction of attempts that failed to deliver a pair. `attempts` is
    /// always nonzero (zero-attempt links are not collected).
    pub fn failure_rate(&self) -> f64 {
        1.0 - self.successes as f64 / self.attempts as f64
    }
}

/// Everything the `report` binary prints.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-stage totals across the run, largest first.
    pub stages: Vec<StageBreakdown>,
    /// Sum of all `pipeline.trial` span durations.
    pub total_run_ns: u64,
    /// All trials seen in the journal, slowest first.
    pub trials: Vec<TrialSummary>,
    /// `journal.dropped` from the BENCH report's counters (0 when no
    /// report was supplied). Non-zero means the breakdown is approximate.
    pub journal_dropped: u64,
    /// Per-link traffic from the BENCH report's grouped families, most
    /// attempts first (ties broken by link label). Empty when the run
    /// recorded no per-link families.
    pub hot_links: Vec<HotLink>,
}

/// A begin/end frame being matched during replay.
struct Frame {
    name: String,
    begin_ns: u64,
    /// Time consumed by nested *tracked* spans (subtracted for self-time).
    child_ns: u64,
    /// The `Begin` record's argument (the seed, for trial frames).
    trial: Option<u64>,
    /// Per-stage self-times accumulated inside this frame (trial frames
    /// only).
    stage_totals: Vec<(String, u64)>,
}

fn is_tracked(name: &str) -> bool {
    name == TRIAL_SPAN || stage::Stage::from_metric_name(name).is_some()
}

fn bump(totals: &mut Vec<(String, u64)>, name: &str, ns: u64) {
    match totals.iter_mut().find(|(n, _)| n == name) {
        Some((_, t)) => *t += ns,
        None => totals.push((name.to_string(), ns)),
    }
}

/// Reconstructs the per-stage / per-trial breakdown from journal events
/// and reads the journal-drop count and hot links from the run's BENCH
/// report, when one is given.
pub fn analyze(events: &[OwnedEvent], bench: Option<&Value>) -> RunReport {
    let mut events: Vec<&OwnedEvent> = events.iter().collect();
    events.sort_by_key(|e| (e.tid, e.ts_ns));

    let mut report = RunReport::default();
    let mut stage_totals: Vec<(String, u64)> = Vec::new();
    let mut stage_spans: Vec<(String, u64)> = Vec::new();

    let mut tid: Option<u32> = None;
    let mut stack: Vec<Frame> = Vec::new();
    for e in events {
        if tid != Some(e.tid) {
            // Open frames from the previous thread never close: truncated.
            stack.clear();
            tid = Some(e.tid);
        }
        if !is_tracked(&e.name) {
            continue;
        }
        match e.phase {
            Phase::Begin => stack.push(Frame {
                name: e.name.clone(),
                begin_ns: e.ts_ns,
                child_ns: 0,
                trial: e.arg,
                stage_totals: Vec::new(),
            }),
            Phase::End => {
                let Some(pos) = stack.iter().rposition(|f| f.name == e.name) else {
                    continue; // begin fell off the ring
                };
                let frame = stack.remove(pos);
                let dur = e.ts_ns.saturating_sub(frame.begin_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur;
                }
                if frame.name == TRIAL_SPAN {
                    let mut stages = frame.stage_totals;
                    stages.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    report.total_run_ns += dur;
                    report.trials.push(TrialSummary {
                        trial: frame.trial,
                        run_ns: dur,
                        stages,
                    });
                } else if let Some(trial) = stack.iter_mut().rev().find(|f| f.name == TRIAL_SPAN) {
                    let self_ns = dur.saturating_sub(frame.child_ns);
                    bump(&mut trial.stage_totals, &frame.name, self_ns);
                    bump(&mut stage_totals, &frame.name, self_ns);
                    bump(&mut stage_spans, &frame.name, 1);
                }
            }
            Phase::Instant => {}
        }
    }

    report.stages = stage_totals
        .into_iter()
        .map(|(stage, total_ns)| {
            let spans = stage_spans
                .iter()
                .find(|(n, _)| *n == stage)
                .map_or(0, |&(_, c)| c);
            StageBreakdown {
                stage,
                total_ns,
                spans,
            }
        })
        .collect();
    report.stages.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then_with(|| a.stage.cmp(&b.stage))
    });
    report
        .trials
        .sort_by(|a, b| b.run_ns.cmp(&a.run_ns).then_with(|| a.trial.cmp(&b.trial)));

    report.journal_dropped = bench
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("journal.dropped"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    report.hot_links = hot_links(bench);
    report
}

/// Collects per-link traffic from the BENCH report's flattened `groups`
/// object (`netsim.link.attempts{lo-hi}` / `netsim.link.successes{lo-hi}`
/// keys), most attempts first. The `__overflow` bucket aggregates many
/// links, so it is excluded.
fn hot_links(bench: Option<&Value>) -> Vec<HotLink> {
    let Some(groups) = bench
        .and_then(|r| r.get("groups"))
        .and_then(Value::as_object)
    else {
        return Vec::new();
    };
    let series = |name: &str, label: &str| {
        let key = format!("{name}{{{label}}}");
        groups
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_u64())
    };
    let mut links: Vec<HotLink> = groups
        .iter()
        .filter_map(|(key, _)| {
            key.strip_prefix("netsim.link.attempts{")
                .and_then(|rest| rest.strip_suffix('}'))
        })
        .filter(|label| *label != "__overflow")
        .filter_map(|label| {
            let attempts = series("netsim.link.attempts", label)?;
            if attempts == 0 {
                return None;
            }
            Some(HotLink {
                link: label.to_string(),
                attempts,
                successes: series("netsim.link.successes", label).unwrap_or(0),
            })
        })
        .collect();
    links.sort_by(|a, b| {
        b.attempts
            .cmp(&a.attempts)
            .then_with(|| a.link.cmp(&b.link))
    });
    links
}

fn ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

impl RunReport {
    /// Markdown rendering (the `report` binary's default output). `top_k`
    /// bounds the slowest-trials table.
    pub fn render_markdown(&self, top_k: usize) -> String {
        let mut out = String::from("# surfnet run report\n\n");
        out.push_str(&format!(
            "- trials: {} (total {})\n",
            self.trials.len(),
            ms(self.total_run_ns)
        ));
        if self.journal_dropped > 0 {
            out.push_str(&format!(
                "- **WARNING**: journal dropped {} events — stage totals are approximate\n",
                self.journal_dropped
            ));
        }

        out.push_str("\n## Per-stage critical path\n\n");
        if self.stages.is_empty() {
            out.push_str("no stage spans in the journal (was `SURFNET_TRACE` set?)\n");
        } else {
            out.push_str("| stage | total | share | spans |\n|---|---|---|---|\n");
            let denom = self.total_run_ns.max(1) as f64;
            let mut attributed = 0u64;
            for s in &self.stages {
                attributed += s.total_ns;
                out.push_str(&format!(
                    "| {} | {} | {:.1}% | {} |\n",
                    s.stage,
                    ms(s.total_ns),
                    s.total_ns as f64 * 100.0 / denom,
                    s.spans
                ));
            }
            let other = self.total_run_ns.saturating_sub(attributed);
            if self.total_run_ns > 0 {
                out.push_str(&format!(
                    "| (unattributed) | {} | {:.1}% | |\n",
                    ms(other),
                    other as f64 * 100.0 / denom
                ));
            }
        }

        out.push_str(&format!("\n## Top {top_k} slowest trials\n\n"));
        if self.trials.is_empty() {
            out.push_str("no `pipeline.trial` spans in the journal\n");
        } else {
            out.push_str("| trial | run | top stages |\n|---|---|---|\n");
            for t in self.trials.iter().take(top_k) {
                let label = t
                    .trial
                    .map(|id| id.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let stages: Vec<String> = t
                    .stages
                    .iter()
                    .take(3)
                    .map(|(name, ns)| {
                        let short = name.strip_prefix("trial.stage.").unwrap_or(name);
                        format!("{short} {}", ms(*ns))
                    })
                    .collect();
                out.push_str(&format!(
                    "| {label} | {} | {} |\n",
                    ms(t.run_ns),
                    stages.join(", ")
                ));
            }
        }

        out.push_str("\n## Hot links\n\n");
        if self.hot_links.is_empty() {
            out.push_str(
                "no per-link families in the BENCH report \
                 (was `--bench` given, from a run with `SURFNET_TELEMETRY` set?)\n",
            );
        } else {
            let row = |l: &HotLink| {
                format!(
                    "| {} | {} | {} | {:.1}% |\n",
                    l.link,
                    l.attempts,
                    l.successes,
                    l.failure_rate() * 100.0
                )
            };
            out.push_str(&format!("Top {top_k} by attempts:\n\n"));
            out.push_str("| link | attempts | successes | failure rate |\n|---|---|---|---|\n");
            for l in self.hot_links.iter().take(top_k) {
                out.push_str(&row(l));
            }
            // Same links re-ranked by failure rate (ties broken by
            // attempts, then label — failure rates are exact ratios of the
            // deterministic counts, so this ordering is reproducible).
            let mut by_rate: Vec<&HotLink> = self.hot_links.iter().collect();
            by_rate.sort_by(|a, b| {
                b.failure_rate()
                    .total_cmp(&a.failure_rate())
                    .then_with(|| b.attempts.cmp(&a.attempts))
                    .then_with(|| a.link.cmp(&b.link))
            });
            out.push_str(&format!("\nTop {top_k} by failure rate:\n\n"));
            out.push_str("| link | attempts | successes | failure rate |\n|---|---|---|---|\n");
            for l in by_rate.iter().take(top_k) {
                out.push_str(&row(l));
            }
        }
        out
    }

    /// JSON rendering (`report --json`), schema [`SCHEMA`].
    pub fn to_json(&self, top_k: usize) -> Value {
        let stages: Value = self
            .stages
            .iter()
            .map(|s| {
                json::obj(vec![
                    ("stage", Value::from(s.stage.as_str())),
                    ("total_ns", Value::from(s.total_ns)),
                    ("spans", Value::from(s.spans)),
                ])
            })
            .collect();
        let trials: Value = self
            .trials
            .iter()
            .take(top_k)
            .map(|t| {
                let per_stage = Value::Obj(
                    t.stages
                        .iter()
                        .map(|(name, ns)| (name.clone(), Value::from(*ns)))
                        .collect(),
                );
                json::obj(vec![
                    ("trial", t.trial.map(Value::from).unwrap_or(Value::Null)),
                    ("run_ns", Value::from(t.run_ns)),
                    ("stages", per_stage),
                ])
            })
            .collect();
        let hot_links: Value = self
            .hot_links
            .iter()
            .take(top_k)
            .map(|l| {
                json::obj(vec![
                    ("link", Value::from(l.link.as_str())),
                    ("attempts", Value::from(l.attempts)),
                    ("successes", Value::from(l.successes)),
                    ("failure_rate", Value::Num(l.failure_rate())),
                ])
            })
            .collect();
        json::obj(vec![
            ("schema", Value::from(SCHEMA)),
            ("trial_count", Value::from(self.trials.len())),
            ("total_run_ns", Value::from(self.total_run_ns)),
            ("journal_dropped", Value::from(self.journal_dropped)),
            ("stages", stages),
            ("slowest_trials", trials),
            ("hot_links", hot_links),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, tid: u32, name: &str, phase: Phase, arg: Option<u64>) -> OwnedEvent {
        OwnedEvent {
            ts_ns,
            tid,
            name: name.to_string(),
            phase,
            arg,
        }
    }

    /// Two trials on one thread; trial 2 nests Lp inside Route, so Route's
    /// self-time must exclude the Lp interval. A trailing Entangle interval
    /// lies outside every trial.
    fn sample_events() -> Vec<OwnedEvent> {
        use Phase::{Begin, End};
        vec![
            ev(0, 1, TRIAL_SPAN, Begin, Some(10)),
            ev(100, 1, "trial.stage.gen", Begin, None),
            ev(400, 1, "trial.stage.gen", End, None),
            ev(500, 1, "trial.stage.decode", Begin, None),
            ev(1500, 1, "trial.stage.decode", End, None),
            ev(2000, 1, TRIAL_SPAN, End, None),
            ev(3000, 1, TRIAL_SPAN, Begin, Some(11)),
            ev(3100, 1, "trial.stage.route", Begin, None),
            ev(3200, 1, "trial.stage.lp", Begin, None),
            ev(3700, 1, "trial.stage.lp", End, None),
            ev(3900, 1, "trial.stage.route", End, None),
            ev(8000, 1, TRIAL_SPAN, End, None),
            ev(9000, 1, "trial.stage.entangle", Begin, None),
            ev(9900, 1, "trial.stage.entangle", End, None),
        ]
    }

    #[test]
    fn breakdown_reconstructs_self_times_and_trials() {
        let report = analyze(&sample_events(), None);
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.total_run_ns, 2000 + 5000);
        // Slowest first: trial 11 (5000ns) before trial 10 (2000ns).
        assert_eq!(report.trials[0].trial, Some(11));
        assert_eq!(report.trials[0].run_ns, 5000);
        assert_eq!(report.trials[1].trial, Some(10));
        // Route's self-time excludes the nested Lp interval: 800 - 500.
        let stage = |name: &str| {
            report
                .stages
                .iter()
                .find(|s| s.stage == name)
                .map(|s| s.total_ns)
        };
        assert_eq!(stage("trial.stage.route"), Some(300));
        assert_eq!(stage("trial.stage.lp"), Some(500));
        assert_eq!(stage("trial.stage.gen"), Some(300));
        assert_eq!(stage("trial.stage.decode"), Some(1000));
        // No trial encloses the Entangle interval, so no stage row holds it.
        assert_eq!(stage("trial.stage.entangle"), None);
        assert_eq!(report.stages.len(), 4);
        // Largest first.
        assert_eq!(report.stages[0].stage, "trial.stage.decode");
        // Per-trial attribution.
        let t11 = &report.trials[0];
        assert!(t11
            .stages
            .iter()
            .any(|(n, ns)| n == "trial.stage.lp" && *ns == 500));
        assert!(t11
            .stages
            .iter()
            .any(|(n, ns)| n == "trial.stage.route" && *ns == 300));
    }

    #[test]
    fn truncated_spans_are_dropped_not_misattributed() {
        use Phase::{Begin, End};
        // An End with no Begin (fell off the ring) and a Begin with no End.
        let events = vec![
            ev(100, 1, "trial.stage.decode", End, None),
            ev(200, 1, TRIAL_SPAN, Begin, Some(2)),
            ev(300, 1, "trial.stage.gen", Begin, None),
        ];
        let report = analyze(&events, None);
        assert!(report.trials.is_empty());
        assert!(report.stages.is_empty());
    }

    /// A BENCH report carrying the given `counters` and `groups` objects.
    fn bench(counters: &str, groups: &str) -> Value {
        Value::parse(&format!(
            r#"{{"schema":"surfnet-bench/v1","figure":"fig7","metrics":{{}},
               "counters":{counters},"timers":{{}},"groups":{groups}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn journal_drops_come_from_the_bench_counters() {
        let report = analyze(&[], Some(&bench(r#"{"journal.dropped":7}"#, "{}")));
        assert_eq!(report.journal_dropped, 7);
        let markdown = report.render_markdown(5);
        assert!(markdown.contains("WARNING"), "{markdown}");
        assert!(markdown.contains("journal dropped 7 events"), "{markdown}");
        // No drops, or no BENCH report at all: no warning.
        let clean = analyze(&[], Some(&bench(r#"{"journal.dropped":0}"#, "{}")));
        assert_eq!(clean.journal_dropped, 0);
        assert!(!clean.render_markdown(5).contains("WARNING"));
        assert_eq!(analyze(&[], None).journal_dropped, 0);
    }

    #[test]
    fn hot_links_come_from_the_bench_groups() {
        let groups = r#"{"netsim.link.attempts{0-1}":100,
                         "netsim.link.successes{0-1}":80,
                         "netsim.link.attempts{1-2}":400,
                         "netsim.link.successes{1-2}":390,
                         "netsim.link.attempts{__overflow}":9,
                         "netsim.link.successes{__overflow}":3,
                         "netsim.link.attempts{2-3}":0,
                         "routing.request.code_distance{d5}":12}"#;
        let report = analyze(&[], Some(&bench("{}", groups)));
        // Overflow and zero-attempt links are excluded; most attempts
        // first.
        assert_eq!(
            report
                .hot_links
                .iter()
                .map(|l| (l.link.as_str(), l.attempts, l.successes))
                .collect::<Vec<_>>(),
            [("1-2", 400, 390), ("0-1", 100, 80)]
        );
        assert!((report.hot_links[1].failure_rate() - 0.2).abs() < 1e-12);
        let md = report.render_markdown(5);
        assert!(md.contains("## Hot links"), "{md}");
        assert!(md.contains("| 0-1 | 100 | 80 | 20.0% |"), "{md}");
        // The failure-rate ranking puts the lossier 0-1 link first.
        let by_rate = md.split("by failure rate").nth(1).unwrap();
        let pos_01 = by_rate.find("| 0-1 |").unwrap();
        let pos_12 = by_rate.find("| 1-2 |").unwrap();
        assert!(pos_01 < pos_12, "{md}");
        let v = report.to_json(5);
        let links = v.get("hot_links").and_then(Value::as_array).unwrap();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].get("link").and_then(Value::as_str), Some("1-2"));
        // Runs without per-link families render the placeholder instead.
        for empty in [analyze(&[], None), analyze(&[], Some(&bench("{}", "{}")))] {
            assert!(empty.hot_links.is_empty());
            assert!(empty.render_markdown(5).contains("no per-link families"));
        }
    }

    #[test]
    fn renderings_are_deterministic_and_json_round_trips() {
        let bench = bench(
            "{}",
            r#"{"netsim.link.attempts{4-7}":50,"netsim.link.successes{4-7}":45}"#,
        );
        let a = analyze(&sample_events(), Some(&bench));
        let b = analyze(&sample_events(), Some(&bench));
        assert_eq!(a.render_markdown(3), b.render_markdown(3));
        assert_eq!(a.to_json(3).to_string(), b.to_json(3).to_string());
        let v = a.to_json(3);
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            Value::parse(&v.to_string()).unwrap().to_string(),
            v.to_string()
        );
        // Markdown has the two trials and the stage table.
        let md = a.render_markdown(3);
        assert!(md.contains("| trial.stage.decode |"), "{md}");
        assert!(md.contains("| 11 |"), "{md}");
        assert!(md.contains("| 4-7 | 50 | 45 | 10.0% |"), "{md}");
    }
}
