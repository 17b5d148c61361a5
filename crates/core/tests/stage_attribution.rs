//! End-to-end check of the per-trial stage attribution: running real
//! trials with telemetry on must produce `trial.run` and `trial.stage.*`
//! histograms whose totals are consistent — every stage's self-time fits
//! inside the enclosing trial span, and together the stages account for
//! the bulk of it.
//!
//! It also checks that this instrumentation is observation-only on every
//! Fig. 7 design and on both execution engines.
//!
//! This is an integration test (own process) because telemetry aggregates
//! are process-global.

use surfnet_core::metrics::TrialMetrics;
use surfnet_core::pipeline::{run_trial, Design};
use surfnet_core::scenario::TrialConfig;

#[test]
fn stage_self_times_sum_to_the_trial_span() {
    // Stage-carrying spans run in routing, lp and netsim on every design:
    // turning telemetry and the journal on must not move one metric.
    let configs = [
        TrialConfig::default(),
        TrialConfig {
            concurrent_execution: true,
            ..TrialConfig::default()
        },
    ];
    let run_all = || -> Vec<TrialMetrics> {
        let mut out = Vec::new();
        for cfg in &configs {
            for design in Design::FIG7 {
                for seed in 9_200..9_202 {
                    out.push(run_trial(design, cfg, seed).expect("trial runs"));
                }
            }
        }
        out
    };
    let plain = run_all();
    let _t = surfnet_telemetry::Telemetry::enabled();
    surfnet_telemetry::journal::set_enabled(true);
    let instrumented = run_all();
    surfnet_telemetry::journal::set_enabled(false);
    let journaled = surfnet_telemetry::journal::collect().len();
    surfnet_telemetry::journal::reset();
    assert_eq!(plain, instrumented, "instrumentation moved a trial metric");
    assert!(journaled > 0, "the instrumented pass journaled nothing");
    surfnet_telemetry::reset();

    const TRIALS: u64 = 6;
    let cfg = TrialConfig::default();
    for seed in 0..TRIALS {
        run_trial(Design::SurfNet, &cfg, 9_000 + seed).expect("trial runs");
        run_trial(Design::Purification(2), &cfg, 9_100 + seed).expect("trial runs");
    }

    let snap = surfnet_telemetry::snapshot();
    let timer = |name: &str| snap.timer(name).map(|t| (t.count, t.total_ns));
    let (run_count, run_total_ns) = timer("trial.run").expect("trial.run recorded");
    assert_eq!(run_count, 2 * TRIALS, "one trial.run sample per trial");

    let mut stage_total_ns = 0u64;
    let mut stages_seen = Vec::new();
    for stage in surfnet_telemetry::stage::ALL_STAGES {
        if let Some((count, total_ns)) = timer(stage.metric_name()) {
            assert!(count > 0);
            stage_total_ns += total_ns;
            stages_seen.push(stage.metric_name());
        }
    }
    // Every design exercises generation, routing, entanglement, and
    // decoding; purification designs add the purify stage.
    for expected in [
        "trial.stage.gen",
        "trial.stage.route",
        "trial.stage.entangle",
        "trial.stage.purify",
        "trial.stage.decode",
    ] {
        assert!(
            stages_seen.contains(&expected),
            "stage {expected} never recorded (saw {stages_seen:?})"
        );
    }

    // Self-time accounting can never exceed the enclosing span...
    assert!(
        stage_total_ns <= run_total_ns,
        "stages ({stage_total_ns}ns) exceed trial.run ({run_total_ns}ns)"
    );
    // ...and the staged work dominates the trial (generous floor: the
    // pipeline does little outside its staged phases).
    assert!(
        stage_total_ns as f64 >= 0.5 * run_total_ns as f64,
        "stages ({stage_total_ns}ns) cover under half of trial.run ({run_total_ns}ns)"
    );

    surfnet_telemetry::reset();
}
