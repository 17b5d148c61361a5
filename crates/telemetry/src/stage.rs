//! Per-trial stage attribution: self-time accounting for the pipeline's
//! coarse stages.
//!
//! The aggregate span timers measure *inclusive* durations, so nested
//! spans double-count (`routing.schedule` contains every `lp.solve`).
//! This module maintains a thread-local stack of the coarse pipeline
//! [`Stage`]s and charges wall time to whichever stage is innermost — the
//! *self-time* decomposition a critical-path breakdown needs, where the
//! stage totals of one trial sum (up to uninstrumented glue) to the
//! trial's wall time.
//!
//! The pipeline opens one [`trial_scope`] per trial; instrumented regions
//! in core / routing / lp / netsim name their stage on their span
//! (`span!("lp.solve", Lp)`), and that one guard pushes and pops the stage.
//! When the trial scope drops, its accumulated per-stage self-times are
//! recorded into the `trial.stage.*` histograms (one sample per trial per
//! stage) and the trial's total into `trial.run`. Stage transitions also
//! emit journal `Begin`/`End` records (under the same `trial.stage.*`
//! names), and the trial scope brackets them with [`TRIAL_SPAN`] records,
//! so the `report` binary can rebuild the identical decomposition
//! offline from a trace. Time outside a trial is charged to no stage.
//! Everything is inert — two relaxed loads — unless telemetry or the
//! journal is recording.

use crate::catalog::{self, MetricKind};
use crate::journal;
use std::cell::RefCell;
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
    pub const fn metric_name(self) -> &'static str {
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

/// The journal span [`trial_scope`] writes around each whole trial. Its
/// `Begin` record's argument is the trial seed, which names the trial.
pub const TRIAL_SPAN: &str = "pipeline.trial";

/// Catalog slots of the [`TRIAL_SPAN`] event, the [`TRIAL_RUN`] timer and
/// each stage's histogram, in [`ALL_STAGES`] order.
const TRIAL_SLOT: usize = catalog::slot(TRIAL_SPAN, MetricKind::Event);
const RUN_SLOT: usize = catalog::slot(TRIAL_RUN, MetricKind::Timer);
const STAGE_SLOTS: [usize; ALL_STAGES.len()] = {
    let mut slots = [0; ALL_STAGES.len()];
    let mut i = 0;
    while i < slots.len() {
        slots[i] = catalog::slot(ALL_STAGES[i].metric_name(), MetricKind::Timer);
        i += 1;
    }
    slots
};

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
        let now = crate::clock();
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
        last: crate::clock(),
    });
}

/// RAII guard for one trial: its stage accounting and its [`TRIAL_SPAN`]
/// journal records. Records the per-stage histograms on drop.
#[must_use = "a trial scope records on drop; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct TrialScope {
    active: bool,
}

/// Opens trial `seed` on this thread. While telemetry or the journal is
/// recording, it zeroes the stage accumulators, starts the trial clock and
/// writes the [`TRIAL_SPAN`] `Begin` record carrying `seed`; otherwise it
/// does nothing.
pub fn trial_scope(seed: u64) -> TrialScope {
    let scope = TrialScope {
        active: crate::recording(),
    };
    if scope.active {
        ATTR.with(|a| {
            let mut attr = a.borrow_mut();
            let now = crate::clock();
            attr.trial_start = Some(now);
            attr.totals = [0; ALL_STAGES.len()];
            attr.last = now;
        });
        journal::record(TRIAL_SLOT, journal::Phase::Begin, Some(seed));
    }
    scope
}

impl Drop for TrialScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        journal::record(TRIAL_SLOT, journal::Phase::End, None);
        ATTR.with(|a| {
            let mut attr = a.borrow_mut();
            attr.transition();
            let Some(start) = attr.trial_start.take() else {
                return;
            };
            let total = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            // A recording trial lists all seven timers, even a stage it
            // never entered.
            crate::mark_seen(RUN_SLOT);
            STAGE_SLOTS.iter().for_each(|&slot| crate::mark_seen(slot));
            crate::record_ns(RUN_SLOT, total);
            for (&slot, &ns) in STAGE_SLOTS.iter().zip(&attr.totals) {
                if ns > 0 {
                    crate::record_ns(slot, ns);
                }
            }
        });
    }
}

/// Enters `stage`: the time until the matching [`exit`] (minus any nested
/// stages) is charged to it. A stage-carrying [`crate::Span`] calls this
/// on start, only while recording.
pub(crate) fn enter(stage: Stage) {
    ATTR.with(|a| {
        let mut attr = a.borrow_mut();
        attr.transition();
        attr.stack.push(stage);
    });
    journal::record(STAGE_SLOTS[stage as usize], journal::Phase::Begin, None);
}

/// Leaves `stage`, the innermost open one; the span's drop calls this.
pub(crate) fn exit(stage: Stage) {
    ATTR.with(|a| {
        let mut attr = a.borrow_mut();
        attr.transition();
        attr.stack.pop();
    });
    journal::record(STAGE_SLOTS[stage as usize], journal::Phase::End, None);
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
            let _trial = trial_scope(1);
            {
                let _route = crate::span!("routing.schedule", Route);
                std::thread::sleep(Duration::from_millis(4));
                {
                    let _lp = crate::span!("lp.solve", Lp);
                    std::thread::sleep(Duration::from_millis(4));
                }
            }
        }
        let snap = crate::snapshot();
        let run = snap.timer(TRIAL_RUN).expect("trial.run recorded").clone();
        let route = snap.timer(Stage::Route.metric_name()).unwrap().clone();
        let lp = snap.timer(Stage::Lp.metric_name()).unwrap().clone();
        let lp_span = snap.timer("lp.solve").unwrap().clone();
        let _t = crate::Telemetry::disabled();
        crate::reset();
        assert_eq!(run.count, 1);
        assert_eq!(route.count, 1);
        assert_eq!(lp.count, 1);
        // The same guard fed the span timer.
        assert_eq!(lp_span.count, 1);
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
            let _s = crate::span!("pipeline.evaluate", Decode);
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
        let trial = trial_scope(1);
        let span = crate::span!("pipeline.network_gen", Gen);
        assert!(!trial.active);
        assert!(span.stage.is_none());
    }

    #[test]
    fn stage_transitions_emit_journal_events() {
        let _g = crate::telemetry_test_guard();
        let _t = crate::Telemetry::disabled();
        journal::reset();
        journal::set_enabled(true);
        {
            let _trial = trial_scope(7);
            let _s = crate::span!("netsim.execute_plan", Entangle);
        }
        journal::set_enabled(false);
        let events = journal::collect();
        journal::reset();
        let kinds: Vec<(&str, journal::Phase)> =
            events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
        // The span's records enclose its stage's, and the trial's enclose
        // both.
        assert_eq!(
            kinds,
            [
                (TRIAL_SPAN, journal::Phase::Begin),
                ("netsim.execute_plan", journal::Phase::Begin),
                ("trial.stage.entangle", journal::Phase::Begin),
                ("trial.stage.entangle", journal::Phase::End),
                ("netsim.execute_plan", journal::Phase::End),
                (TRIAL_SPAN, journal::Phase::End),
            ]
        );
        let args: Vec<Option<u64>> = events.iter().map(|e| e.arg).collect();
        assert_eq!(args, [Some(7), None, None, None, None, None]);
    }
}
