//! Per-trial stage attribution: self-time accounting for the pipeline's
//! coarse stages.
//!
//! The aggregate span timers measure *inclusive* durations, so nested
//! spans double-count (`pipeline.schedule` contains every `lp.solve`).
//! This module maintains a thread-local stack of the coarse pipeline
//! [`Stage`]s and charges wall time to whichever stage is innermost — the
//! *self-time* decomposition a critical-path breakdown needs, where the
//! stage totals of one trial sum (up to uninstrumented glue) to the
//! trial's wall time.
//!
//! The pipeline opens a [`trial_scope`] per trial; instrumented regions in
//! core / routing / lp / netsim open a [`scope`] per stage. When the trial
//! scope drops, its accumulated per-stage self-times are recorded into the
//! `trial.stage.*` histograms (one sample per trial per stage) and the
//! trial's total into `trial.run`. Stage transitions also emit journal
//! `Begin`/`End` records (under the same `trial.stage.*` names) so the
//! `report` analyzer can rebuild the identical decomposition offline from
//! a trace. Everything is inert — one relaxed load — unless telemetry or
//! the journal is recording.

use crate::journal;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// The coarse pipeline stages that time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Network / request / code construction (`pipeline.network_gen`,
    /// `pipeline.requests`, surface-code build).
    Gen,
    /// Route scheduling excluding the LP solve nested inside it.
    Route,
    /// LP relaxation solves.
    Lp,
    /// Entanglement-driven plan execution (independent or concurrent).
    Entangle,
    /// Purification-baseline teleportation execution.
    Purify,
    /// Outcome evaluation: error models, sampling, decoding.
    Decode,
}

/// Every stage, in recording order (indexes the accumulator arrays).
pub const ALL_STAGES: [Stage; 6] = [
    Stage::Gen,
    Stage::Route,
    Stage::Lp,
    Stage::Entangle,
    Stage::Purify,
    Stage::Decode,
];

impl Stage {
    /// The catalog name of this stage's per-trial self-time histogram
    /// (also the journal event name of its transitions).
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::Gen => "trial.stage.gen",
            Stage::Route => "trial.stage.route",
            Stage::Lp => "trial.stage.lp",
            Stage::Entangle => "trial.stage.entangle",
            Stage::Purify => "trial.stage.purify",
            Stage::Decode => "trial.stage.decode",
        }
    }

    /// Inverse of [`Stage::metric_name`].
    pub fn from_metric_name(name: &str) -> Option<Stage> {
        ALL_STAGES.iter().copied().find(|s| s.metric_name() == name)
    }
}

/// The per-trial total timer fed by [`trial_scope`].
pub const TRIAL_RUN: &str = "trial.run";

struct Attribution {
    /// `Some(start)` while a trial scope is open on this thread.
    trial_start: Option<Instant>,
    /// Self-time accumulated per stage within the open trial.
    totals: [u64; ALL_STAGES.len()],
    /// Innermost-active stage on top.
    stack: Vec<Stage>,
    /// Instant of the last enter/exit transition.
    last: Instant,
}

impl Attribution {
    /// Charges the time since the last transition to the innermost active
    /// stage (when a trial is open) and restarts the clock.
    fn transition(&mut self) {
        let now = Instant::now();
        if self.trial_start.is_some() {
            if let Some(&top) = self.stack.last() {
                let ns = now
                    .duration_since(self.last)
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64;
                self.totals[top as usize] += ns;
            }
        }
        self.last = now;
    }
}

thread_local! {
    static ATTR: RefCell<Attribution> = RefCell::new(Attribution {
        trial_start: None,
        totals: [0; ALL_STAGES.len()],
        stack: Vec::new(),
        last: Instant::now(),
    });
}

fn timers() -> &'static (crate::Timer, [crate::Timer; ALL_STAGES.len()]) {
    static TIMERS: OnceLock<(crate::Timer, [crate::Timer; ALL_STAGES.len()])> = OnceLock::new();
    TIMERS.get_or_init(|| {
        (
            crate::timer(TRIAL_RUN),
            ALL_STAGES.map(|s| crate::timer(s.metric_name())),
        )
    })
}

/// RAII guard for one trial's stage accounting; records the per-stage
/// histograms on drop.
#[must_use = "a trial scope records on drop; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct TrialScope {
    active: bool,
}

/// Opens a trial on this thread: zeroes the stage accumulators and starts
/// the trial clock. Inert unless telemetry or the journal is recording.
pub fn trial_scope() -> TrialScope {
    if !crate::recording() {
        return TrialScope { active: false };
    }
    ATTR.with(|a| {
        let mut attr = a.borrow_mut();
        let now = Instant::now();
        attr.trial_start = Some(now);
        attr.totals = [0; ALL_STAGES.len()];
        attr.last = now;
    });
    TrialScope { active: true }
}

impl Drop for TrialScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        ATTR.with(|a| {
            let mut attr = a.borrow_mut();
            attr.transition();
            let Some(start) = attr.trial_start.take() else {
                return;
            };
            let total = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let (run, stages) = timers();
            run.record_ns(total);
            for (timer, &ns) in stages.iter().zip(&attr.totals) {
                if ns > 0 {
                    timer.record_ns(ns);
                }
            }
        });
    }
}

/// RAII guard for one stage region; closes the stage on drop.
#[must_use = "a stage scope closes on drop; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct StageScope {
    stage: Option<Stage>,
}

/// Enters `stage`: the time until the guard drops (minus any nested stage
/// scopes) is charged to it. Inert unless telemetry or the journal is
/// recording.
pub fn scope(stage: Stage) -> StageScope {
    if !crate::recording() {
        return StageScope { stage: None };
    }
    ATTR.with(|a| {
        let mut attr = a.borrow_mut();
        attr.transition();
        attr.stack.push(stage);
    });
    journal::record(stage.metric_name(), journal::Phase::Begin, None);
    StageScope { stage: Some(stage) }
}

impl Drop for StageScope {
    fn drop(&mut self) {
        let Some(stage) = self.stage else { return };
        ATTR.with(|a| {
            let mut attr = a.borrow_mut();
            attr.transition();
            attr.stack.pop();
        });
        journal::record(stage.metric_name(), journal::Phase::End, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stage_names_round_trip() {
        for s in ALL_STAGES {
            assert_eq!(Stage::from_metric_name(s.metric_name()), Some(s));
        }
        assert_eq!(Stage::from_metric_name("trial.stage.nope"), None);
    }

    #[test]
    fn nested_stages_attribute_self_time() {
        let _g = crate::telemetry_test_guard();
        crate::reset();
        let _t = crate::Telemetry::enabled();
        {
            let _trial = trial_scope();
            {
                let _route = scope(Stage::Route);
                std::thread::sleep(Duration::from_millis(4));
                {
                    let _lp = scope(Stage::Lp);
                    std::thread::sleep(Duration::from_millis(4));
                }
            }
        }
        let snap = crate::snapshot();
        let run = snap.timer(TRIAL_RUN).expect("trial.run recorded").clone();
        let route = snap.timer(Stage::Route.metric_name()).unwrap().clone();
        let lp = snap.timer(Stage::Lp.metric_name()).unwrap().clone();
        let _t = crate::Telemetry::disabled();
        crate::reset();
        assert_eq!(run.count, 1);
        assert_eq!(route.count, 1);
        assert_eq!(lp.count, 1);
        // Each stage held the thread ~4ms of self-time; the nested lp time
        // must not be double-charged to route.
        assert!(route.total_ns >= 3_000_000, "{route:?}");
        assert!(lp.total_ns >= 3_000_000, "{lp:?}");
        assert!(
            route.total_ns + lp.total_ns <= run.total_ns,
            "stage self-times exceed the trial wall time: {route:?} {lp:?} {run:?}"
        );
    }

    #[test]
    fn stage_scope_without_trial_is_harmless() {
        let _g = crate::telemetry_test_guard();
        crate::reset();
        let _t = crate::Telemetry::enabled();
        {
            let _s = scope(Stage::Decode);
        }
        let snap = crate::snapshot();
        let _t = crate::Telemetry::disabled();
        crate::reset();
        // No trial open: nothing accumulated, nothing recorded.
        assert!(snap
            .timer(Stage::Decode.metric_name())
            .is_none_or(|t| t.count == 0));
    }

    #[test]
    fn disabled_scopes_are_inert() {
        let _g = crate::telemetry_test_guard();
        let _t = crate::Telemetry::disabled();
        let trial = trial_scope();
        let stage = scope(Stage::Gen);
        assert!(!trial.active);
        assert!(stage.stage.is_none());
    }

    #[test]
    fn stage_transitions_emit_journal_events() {
        let _g = crate::telemetry_test_guard();
        let _t = crate::Telemetry::disabled();
        journal::reset();
        journal::set_enabled(true);
        {
            let _trial = trial_scope();
            let _s = scope(Stage::Entangle);
        }
        journal::set_enabled(false);
        let events = journal::collect();
        journal::reset();
        let kinds: Vec<(&str, journal::Phase)> =
            events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
        assert_eq!(
            kinds,
            [
                ("trial.stage.entangle", journal::Phase::Begin),
                ("trial.stage.entangle", journal::Phase::End),
            ]
        );
    }
}
