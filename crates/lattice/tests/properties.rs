//! Property tests of the surface-code substrate's invariants. The Pauli
//! algebra is checked over its whole finite domain; every other test runs
//! `CASES` seeded cases, case `c` drawing its inputs from
//! `SmallRng::seed_from_u64(c)`, and every assertion names it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_lattice::{ErrorModel, Pauli, PauliString, SurfaceCode};

const CASES: u64 = 64;

fn random_string(rng: &mut SmallRng, len: usize) -> PauliString {
    PauliString::from_ops((0..len).map(|_| Pauli::ALL[rng.gen_range(0..4)]).collect())
}

#[test]
fn pauli_product_is_associative() {
    for a in Pauli::ALL {
        for b in Pauli::ALL {
            for c in Pauli::ALL {
                assert_eq!((a * b) * c, a * (b * c), "{a:?} * {b:?} * {c:?}");
            }
        }
    }
}

#[test]
fn pauli_anticommutation_is_symmetric() {
    for a in Pauli::ALL {
        for b in Pauli::ALL {
            let (ab, ba) = (a.anticommutes_with(b), b.anticommutes_with(a));
            assert_eq!(ab, ba, "{a:?}, {b:?}");
        }
    }
}

fn xor(a: &[bool], b: &[bool]) -> Vec<bool> {
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

#[test]
fn syndrome_is_linear_under_composition() {
    // Syndromes add mod 2: syndrome(a*b) = syndrome(a) XOR syndrome(b).
    let code = SurfaceCode::new(3).unwrap();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (random_string(&mut rng, 13), random_string(&mut rng, 13));
        let sa = code.extract_syndrome(&a);
        let sb = code.extract_syndrome(&b);
        let sab = code.extract_syndrome(&(&a * &b));
        assert_eq!(sab.z_flips, xor(&sa.z_flips, &sb.z_flips), "case {case}");
        assert_eq!(sab.x_flips, xor(&sa.x_flips, &sb.x_flips), "case {case}");
    }
}

#[test]
fn logical_failure_is_linear() {
    let code = SurfaceCode::new(3).unwrap();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (random_string(&mut rng, 13), random_string(&mut rng, 13));
        let fa = code.logical_failure(&a);
        let fb = code.logical_failure(&b);
        let fab = code.logical_failure(&(&a * &b));
        assert_eq!(fab.x, fa.x ^ fb.x, "case {case}");
        assert_eq!(fab.z, fa.z ^ fb.z, "case {case}");
    }
}

#[test]
fn multiplying_by_stabilizers_preserves_syndrome_and_logical_class() {
    let code = SurfaceCode::new(3).unwrap();
    let n = code.num_data_qubits();
    let class = |s: &PauliString| (code.extract_syndrome(s), code.logical_failure(s));
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let err = random_string(&mut rng, 13);
        let mut deformed = err.clone();
        for _ in 0..rng.gen_range(0..6) {
            let pick = rng.gen_range(0usize..12);
            let stab = if pick < 6 {
                PauliString::from_support(n, code.z_stabilizer(pick), Pauli::Z)
            } else {
                PauliString::from_support(n, code.x_stabilizer(pick - 6), Pauli::X)
            };
            deformed.compose_assign(&stab);
        }
        assert_eq!(class(&err), class(&deformed), "case {case}");
    }
}

#[test]
fn exact_correction_always_succeeds() {
    let code = SurfaceCode::new(5).unwrap();
    for case in 0..CASES {
        let err = random_string(&mut SmallRng::seed_from_u64(case), 41);
        let outcome = code.score_correction(&err, &err);
        assert!(outcome.is_success(), "case {case}: {outcome:?}");
    }
}

#[test]
fn sampled_errors_have_consistent_erasure_flags() {
    let code = SurfaceCode::new(5).unwrap();
    let model = ErrorModel::uniform(&code, 0.1, 0.3);
    // At Pauli rate 0, every non-identity Pauli must come from an erasure.
    let clean_model = ErrorModel::uniform(&code, 0.0, 0.3);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let s = model.sample(&mut rng);
        assert_eq!(s.pauli.len(), code.num_data_qubits(), "case {case}");
        assert_eq!(s.erased.len(), code.num_data_qubits(), "case {case}");
        let s2 = clean_model.sample(&mut rng);
        for (q, op) in s2.pauli.support() {
            assert!(s2.erased[q], "case {case}: {op} on unerased qubit {q}");
        }
    }
}
