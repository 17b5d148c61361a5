//! Property tests for the simplex solver: on randomly generated feasible
//! programs the solver must return a feasible point at least as good as the
//! known witness. Each test runs `CASES` seeded cases; case `c` draws its
//! inputs from `SmallRng::seed_from_u64(c)` and every assertion names it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_lp::{ConstraintOp, LinearProgram, LpError};

const CASES: u64 = 48;

/// Builds a random LP over `n` box-bounded variables that is feasible by
/// construction: pick a witness point first, then only add constraints
/// the witness satisfies.
fn feasible_lp(rng: &mut SmallRng, n: usize) -> (LinearProgram, Vec<f64>) {
    let witness: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..n)
        .map(|_| lp.add_var(rng.gen_range(-5.0..5.0), 0.0, 10.0))
        .collect();
    for _ in 0..rng.gen_range(1..=5) {
        let row: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let terms: Vec<_> = vars.iter().zip(&row).map(|(&v, &c)| (v, c)).collect();
        let lhs: f64 = row.iter().zip(&witness).map(|(c, w)| c * w).sum();
        // Constraint passes through lhs + slack ≥ lhs: witness satisfies Le.
        lp.add_constraint(&terms, ConstraintOp::Le, lhs + rng.gen_range(0.0..10.0));
    }
    (lp, witness)
}

#[test]
fn solver_beats_witness_and_stays_feasible() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let n = rng.gen_range(1usize..6);
        let (lp, witness) = feasible_lp(&mut rng, n);
        // Variables are box-bounded, so the program cannot be unbounded.
        let sol = lp
            .maximize()
            .unwrap_or_else(|e| panic!("case {case}: feasible bounded LP failed: {e:?}"));
        assert!(lp.is_feasible(&sol.values, 1e-6), "case {case}: {sol:?}");
        let witness_obj = lp.objective_value(&witness);
        assert!(
            sol.objective >= witness_obj - 1e-6,
            "case {case}: solver {} worse than witness {witness_obj}",
            sol.objective
        );
    }
}

#[test]
fn minimize_is_negated_maximize() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut lp_max = LinearProgram::new();
        let mut lp_min = LinearProgram::new();
        for _ in 0..3 {
            let c = rng.gen_range(-5.0..5.0);
            lp_max.add_var(c, 0.0, 7.0);
            lp_min.add_var(-c, 0.0, 7.0);
        }
        let (Ok(max), Ok(min)) = (lp_max.maximize(), lp_min.minimize()) else {
            panic!("case {case}: a box-bounded program failed to solve");
        };
        let (max, min) = (max.objective, min.objective);
        assert!((max + min).abs() < 1e-7, "case {case}: {max} vs {min}");
    }
}

#[test]
fn contradictory_bounds_infeasible() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, gap) = (rng.gen_range(0.0..5.0), rng.gen_range(0.1..5.0));
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, a);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, a + gap);
        assert_eq!(
            lp.maximize().err(),
            Some(LpError::Infeasible),
            "case {case}: x <= {a}, x >= {}",
            a + gap
        );
    }
}
