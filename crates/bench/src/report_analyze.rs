//! Run-report analyzer: turns a journal JSONL trace (`SURFNET_TRACE=*.jsonl`)
//! plus the same run's optional `BENCH_<figure>.json` report into a
//! per-stage critical-path breakdown, a top-k slowest-trials table with
//! stage attribution, and the hot links of the network.
//!
//! The analysis is a pure function of its inputs: the same journal and
//! BENCH files always produce the same report, byte for byte (the `report`
//! binary relies on this — CI runs it twice and diffs the outputs).
//!
//! Stage self-times are the live [`surfnet_telemetry::stage`]
//! accounting's own: when a trial ends it journals one `trial.stage.*`
//! instant per stage it charged, whose argument is that stage's self-time,
//! and then its `pipeline.trial` `End` record, whose argument is the
//! trial's wall time. The analyzer walks each thread's records: a trial
//! `Begin` (whose argument is the trial seed) opens a trial, each stage
//! instant adds to it, and an `End` with an argument closes it. So the
//! stage table equals the run's `trial.stage.*` and `trial.run` timers. A
//! trial whose `Begin` or `End` fell off the ring is dropped, as is one
//! whose `Begin` or `End` has no argument (a trace written before the seed
//! and the self-times rode there); a stage instant outside a trial is
//! charged to nothing.

use surfnet_telemetry::journal::{OwnedEvent, Phase};
use surfnet_telemetry::json::{self, Value};
use surfnet_telemetry::stage;

/// Schema tag of the JSON report form.
pub const SCHEMA: &str = "surfnet-report/v2";

/// How many trials and hot links each ranking lists.
pub const TOP_K: usize = 5;

pub use stage::TRIAL_SPAN;

/// Aggregate self-time of one stage across the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Stage metric name (`trial.stage.decode`, ...).
    pub stage: String,
    /// Total self-time (nested stages excluded), nanoseconds.
    pub total_ns: u64,
    /// Number of trials that charged the stage (its timer's `count`).
    pub trials: u64,
}

/// One trial's duration and per-stage self-times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSummary {
    /// Trial id: the trial RNG seed its `pipeline.trial` `Begin` record
    /// carries.
    pub trial: u64,
    /// Wall time of the trial (its `End` record's argument), nanoseconds.
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
    /// Sum of all trials' wall times.
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

/// Reads the per-stage / per-trial breakdown off the journal's trial
/// records, and the journal-drop count and hot links off the run's BENCH
/// report, when one is given.
pub fn analyze(events: &[OwnedEvent], bench: Option<&Value>) -> RunReport {
    let mut events: Vec<&OwnedEvent> = events.iter().collect();
    events.sort_by_key(|e| (e.tid, e.ts_ns));

    let mut report = RunReport::default();
    let mut tid: Option<u32> = None;
    let mut open: Option<TrialSummary> = None;
    for e in events {
        if tid != Some(e.tid) {
            // A trial left open on the previous thread never ended: truncated.
            open = None;
            tid = Some(e.tid);
        }
        match e.phase {
            Phase::Begin if e.name == TRIAL_SPAN => {
                open = e.arg.map(|trial| TrialSummary {
                    trial,
                    run_ns: 0,
                    stages: Vec::new(),
                });
            }
            Phase::End if e.name == TRIAL_SPAN => {
                if let (Some(mut trial), Some(run_ns)) = (open.take(), e.arg) {
                    trial.run_ns = run_ns;
                    trial
                        .stages
                        .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    report.trials.push(trial);
                }
            }
            Phase::Instant if stage::Stage::from_metric_name(&e.name).is_some() => {
                if let (Some(trial), Some(ns)) = (open.as_mut(), e.arg) {
                    trial.stages.push((e.name.clone(), ns));
                }
            }
            _ => {}
        }
    }

    for t in &report.trials {
        report.total_run_ns += t.run_ns;
        for (name, ns) in &t.stages {
            match report.stages.iter_mut().find(|s| s.stage == *name) {
                Some(s) => {
                    s.total_ns += ns;
                    s.trials += 1;
                }
                None => report.stages.push(StageBreakdown {
                    stage: name.clone(),
                    total_ns: *ns,
                    trials: 1,
                }),
            }
        }
    }
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
    /// Markdown rendering (the `report` binary's default output); each
    /// ranking lists [`TOP_K`] rows.
    pub fn render_markdown(&self) -> String {
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
            out.push_str("no stage self-times in the journal (was `SURFNET_TRACE` set?)\n");
        } else {
            out.push_str("| stage | total | share | trials |\n|---|---|---|---|\n");
            let denom = self.total_run_ns.max(1) as f64;
            let mut attributed = 0u64;
            for s in &self.stages {
                attributed += s.total_ns;
                out.push_str(&format!(
                    "| {} | {} | {:.1}% | {} |\n",
                    s.stage,
                    ms(s.total_ns),
                    s.total_ns as f64 * 100.0 / denom,
                    s.trials
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

        out.push_str(&format!("\n## Top {TOP_K} slowest trials\n\n"));
        if self.trials.is_empty() {
            out.push_str("no `pipeline.trial` spans in the journal\n");
        } else {
            out.push_str("| trial | run | top stages |\n|---|---|---|\n");
            for t in self.trials.iter().take(TOP_K) {
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
                    "| {} | {} | {} |\n",
                    t.trial,
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
            out.push_str(&format!("Top {TOP_K} by attempts:\n\n"));
            out.push_str("| link | attempts | successes | failure rate |\n|---|---|---|---|\n");
            for l in self.hot_links.iter().take(TOP_K) {
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
            out.push_str(&format!("\nTop {TOP_K} by failure rate:\n\n"));
            out.push_str("| link | attempts | successes | failure rate |\n|---|---|---|---|\n");
            for l in by_rate.iter().take(TOP_K) {
                out.push_str(&row(l));
            }
        }
        out
    }

    /// JSON rendering (`report --json`), schema [`SCHEMA`].
    pub fn to_json(&self) -> Value {
        let stages: Value = self
            .stages
            .iter()
            .map(|s| {
                json::obj(vec![
                    ("stage", Value::from(s.stage.as_str())),
                    ("total_ns", Value::from(s.total_ns)),
                    ("trials", Value::from(s.trials)),
                ])
            })
            .collect();
        let trials: Value = self
            .trials
            .iter()
            .take(TOP_K)
            .map(|t| {
                let per_stage = Value::Obj(
                    t.stages
                        .iter()
                        .map(|(name, ns)| (name.clone(), Value::from(*ns)))
                        .collect(),
                );
                json::obj(vec![
                    ("trial", Value::from(t.trial)),
                    ("run_ns", Value::from(t.run_ns)),
                    ("stages", per_stage),
                ])
            })
            .collect();
        let hot_links: Value = self
            .hot_links
            .iter()
            .take(TOP_K)
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

    /// Three trials as `TrialScope` journals them: each trial's stage
    /// instants precede its `End`, whose argument is the trial's wall time.
    /// Span pairs and other instants carry no stage time, and a trailing
    /// Entangle instant lies outside every trial.
    fn sample_events() -> Vec<OwnedEvent> {
        use Phase::{Begin, End, Instant};
        vec![
            ev(0, 1, TRIAL_SPAN, Begin, Some(10)),
            ev(50, 1, "lp.solve", Begin, None),
            ev(60, 1, "lp.solve", End, Some(10)),
            ev(1990, 1, "trial.stage.gen", Instant, Some(300)),
            ev(1991, 1, "trial.stage.decode", Instant, Some(1000)),
            ev(2000, 1, TRIAL_SPAN, End, Some(2000)),
            ev(3000, 1, TRIAL_SPAN, Begin, Some(11)),
            ev(3500, 1, "evaluate.shot_failed", Instant, Some(9)),
            ev(7990, 1, "trial.stage.route", Instant, Some(300)),
            ev(7991, 1, "trial.stage.lp", Instant, Some(500)),
            ev(8000, 1, TRIAL_SPAN, End, Some(5000)),
            ev(9000, 1, "trial.stage.entangle", Instant, Some(900)),
            ev(100, 2, TRIAL_SPAN, Begin, Some(12)),
            ev(1090, 2, "trial.stage.gen", Instant, Some(100)),
            ev(1091, 2, "trial.stage.decode", Instant, Some(400)),
            ev(1100, 2, TRIAL_SPAN, End, Some(1000)),
        ]
    }

    #[test]
    fn breakdown_reconstructs_self_times_and_trials() {
        let report = analyze(&sample_events(), None);
        // Slowest first, each with its stages largest first.
        let trial = |seed, run_ns, stages: [(&str, u64); 2]| TrialSummary {
            trial: seed,
            run_ns,
            stages: stages.map(|(n, ns)| (n.to_string(), ns)).to_vec(),
        };
        assert_eq!(
            report.trials,
            [
                trial(
                    11,
                    5000,
                    [("trial.stage.lp", 500), ("trial.stage.route", 300)]
                ),
                trial(
                    10,
                    2000,
                    [("trial.stage.decode", 1000), ("trial.stage.gen", 300)]
                ),
                trial(
                    12,
                    1000,
                    [("trial.stage.decode", 400), ("trial.stage.gen", 100)]
                ),
            ]
        );
        assert_eq!(report.total_run_ns, 5000 + 2000 + 1000);
        // Each row sums its stage over the trials that charged it, largest
        // first. No trial holds the Entangle instant, so no row does.
        let rows: Vec<(&str, u64, u64)> = report
            .stages
            .iter()
            .map(|s| (s.stage.as_str(), s.total_ns, s.trials))
            .collect();
        assert_eq!(
            rows,
            [
                ("trial.stage.decode", 1400, 2),
                ("trial.stage.lp", 500, 1),
                ("trial.stage.gen", 400, 2),
                ("trial.stage.route", 300, 1),
            ]
        );
    }

    #[test]
    fn truncated_spans_are_dropped_not_misattributed() {
        use Phase::{Begin, End, Instant};
        let events = vec![
            // A stage End from an older trace, and a trial End whose Begin
            // fell off the ring.
            ev(100, 1, "trial.stage.decode", End, None),
            ev(150, 1, "trial.stage.gen", Instant, Some(40)),
            ev(160, 1, TRIAL_SPAN, End, Some(90)),
            // A Begin with no End.
            ev(200, 1, TRIAL_SPAN, Begin, Some(2)),
            ev(300, 1, "trial.stage.gen", Instant, Some(60)),
            // An End with no arg, and a Begin with none: traces from before
            // the self-times, and the seed, rode on the trial records.
            ev(100, 2, TRIAL_SPAN, Begin, Some(3)),
            ev(200, 2, "trial.stage.gen", Begin, None),
            ev(300, 2, "trial.stage.gen", End, None),
            ev(400, 2, TRIAL_SPAN, End, None),
            ev(500, 2, TRIAL_SPAN, Begin, None),
            ev(600, 2, "trial.stage.gen", Instant, Some(70)),
            ev(700, 2, TRIAL_SPAN, End, Some(200)),
        ];
        let report = analyze(&events, None);
        assert!(report.trials.is_empty());
        assert!(report.stages.is_empty());
        assert_eq!(report.total_run_ns, 0);
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
        let markdown = report.render_markdown();
        assert!(markdown.contains("WARNING"), "{markdown}");
        assert!(markdown.contains("journal dropped 7 events"), "{markdown}");
        // No drops, or no BENCH report at all: no warning.
        let clean = analyze(&[], Some(&bench(r#"{"journal.dropped":0}"#, "{}")));
        assert_eq!(clean.journal_dropped, 0);
        assert!(!clean.render_markdown().contains("WARNING"));
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
        let md = report.render_markdown();
        assert!(md.contains("## Hot links"), "{md}");
        assert!(md.contains("| 0-1 | 100 | 80 | 20.0% |"), "{md}");
        // The failure-rate ranking puts the lossier 0-1 link first.
        let by_rate = md.split("by failure rate").nth(1).unwrap();
        let pos_01 = by_rate.find("| 0-1 |").unwrap();
        let pos_12 = by_rate.find("| 1-2 |").unwrap();
        assert!(pos_01 < pos_12, "{md}");
        let v = report.to_json();
        let links = v.get("hot_links").and_then(Value::as_array).unwrap();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].get("link").and_then(Value::as_str), Some("1-2"));
        // Runs without per-link families render the placeholder instead.
        for empty in [analyze(&[], None), analyze(&[], Some(&bench("{}", "{}")))] {
            assert!(empty.hot_links.is_empty());
            assert!(empty.render_markdown().contains("no per-link families"));
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
        assert_eq!(a.render_markdown(), b.render_markdown());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        let v = a.to_json();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            Value::parse(&v.to_string()).unwrap().to_string(),
            v.to_string()
        );
        // Markdown has the trials and the stage table, with its trial
        // counts.
        let md = a.render_markdown();
        assert!(md.contains("| stage | total | share | trials |"), "{md}");
        assert!(
            md.contains("| trial.stage.decode | 0.001ms | 17.5% | 2 |"),
            "{md}"
        );
        assert!(md.contains("| 11 |"), "{md}");
        assert!(md.contains("| 4-7 | 50 | 45 | 10.0% |"), "{md}");
    }
}
