//! End-to-end exercise of the `SURFNET_CHECK` wiring: force checking on
//! for this test process and run every decoder over randomized samples.
//! The invariant checkers in `surfnet_decoder::check` run after each
//! growth round / matching / peeling pass; any structural corruption
//! panics instead of shifting the logical error rate silently.
//!
//! This is its own integration-test binary because `check::enabled()` is
//! latched once per process: setting the variable here cannot leak into
//! other test binaries.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};
use surfnet_telemetry::envreg::Knob;

fn force_check_on() {
    // Latch the flag before any decoder call reads it.
    #[expect(
        clippy::disallowed_methods,
        reason = "this test binary arms its own checkers; the flag latches once per process"
    )]
    std::env::set_var(Knob::Check.name(), "1");
    assert!(
        surfnet_decoder::check::enabled() || !cfg!(debug_assertions),
        "SURFNET_CHECK=1 must enable checking in debug builds"
    );
}

#[test]
fn all_decoders_pass_invariant_checks_over_random_samples() {
    force_check_on();
    let code = SurfaceCode::new(5).expect("distance 5 is valid");
    let part = code.core_partition(CoreTopology::Cross);
    let model = ErrorModel::dual_channel(&code, &part, 0.08, 0.15);
    let mwpm = MwpmDecoder::from_model(&code, &model);
    let uf = UnionFindDecoder::from_model(&code, &model);
    let surfnet = SurfNetDecoder::from_model(&code, &model);
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..40 {
        let sample = model.sample(&mut rng);
        // Outcomes are irrelevant here; the checkers inside each decode
        // panic if any invariant breaks.
        let _ = mwpm.decode_sample(&code, &sample);
        let _ = uf.decode_sample(&code, &sample);
        let _ = surfnet.decode_sample(&code, &sample);
    }
}

#[test]
fn lp_solves_stay_primal_feasible_under_check() {
    force_check_on();
    use surfnet_lp::{ConstraintOp, LinearProgram};
    // A degenerate program with redundant constraints: phase-1 cleanup and
    // many pivots all run under the feasibility checker.
    let mut lp = LinearProgram::new();
    let x = lp.add_var(1.0, 0.0, 5.0);
    let y = lp.add_var(2.0, 0.0, 5.0);
    for _ in 0..4 {
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 6.0);
    }
    lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 6.0);
    lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
    let s = lp.maximize().expect("feasible program solves");
    assert!(
        (s.objective - 11.0).abs() < 1e-6,
        "objective {}",
        s.objective
    );
}
