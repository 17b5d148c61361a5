//! Fidelity-to-weight conversion (paper Sec. IV-C).
//!
//! Every data qubit carries an estimated fidelity `ρ`: the product of the
//! fidelities of all optical fibers it traveled through, improved by
//! entanglement purification for Core qubits. The decoding-graph edge for a
//! qubit gets weight `w = −ln(1 − ρ)`, so high-fidelity qubits are expensive
//! for decoding paths to cross. Erased qubits were replaced by maximally
//! mixed states and use `ρ = 0.5` regardless of their route.

/// The estimated fidelity the paper assigns to an erased data qubit.
pub const ERASURE_FIDELITY: f64 = 0.5;

/// Clamp applied to fidelities so weights stay finite: a perfect qubit
/// (`ρ = 1`) would otherwise get infinite weight.
const MAX_FIDELITY: f64 = 1.0 - 1e-12;
/// Floor applied so a fully-depolarized qubit keeps a non-negative weight.
const MIN_FIDELITY: f64 = 0.0;

/// The paper's edge weight `w = −ln(1 − ρ)` for estimated fidelity `ρ`.
///
/// # Examples
///
/// ```
/// use surfnet_decoder::weights::edge_weight;
/// let w = edge_weight(0.9);
/// assert!((w - (-(0.1f64).ln())).abs() < 1e-12);
/// // Lower fidelity => lower weight => decoders prefer the path.
/// assert!(edge_weight(0.5) < edge_weight(0.9));
/// ```
///
/// # Panics
///
/// Panics if `rho` is not a number in `[0, 1]`.
pub fn edge_weight(rho: f64) -> f64 {
    assert!((0.0..=1.0).contains(&rho), "fidelity {rho} outside [0, 1]");
    let rho = rho.clamp(MIN_FIDELITY, MAX_FIDELITY);
    -(1.0 - rho).ln()
}

/// The weight of an erased edge: `−ln(1 − 0.5)`.
pub fn erasure_weight() -> f64 {
    edge_weight(ERASURE_FIDELITY)
}

/// The SurfNet Decoder's growth speed for an edge of fidelity `ρ`:
/// `−r / ln(1 − ρ)` (Algorithm 2), where `r` is the decoder step size.
///
/// Erasures use [`ERASURE_FIDELITY`] and therefore grow fastest; Support
/// qubits grow faster than Core qubits.
///
/// # Panics
///
/// Panics if `rho` is outside `[0, 1]` or `step` is not positive.
pub fn growth_speed(rho: f64, step: f64) -> f64 {
    assert!(step > 0.0, "decoder step size must be positive, got {step}");
    let w = edge_weight(rho);
    // w = -ln(1-ρ); speed = -r/ln(1-ρ) = r/w. A zero-weight edge (ρ = 0,
    // guaranteed error) is crossed instantly; give it a huge finite speed.
    if w <= f64::EPSILON {
        return 1e12;
    }
    step / w
}

/// The SurfNet Decoder's default step size `r = 2/3` (Algorithm 2).
pub const DEFAULT_STEP_SIZE: f64 = 2.0 / 3.0;

/// Entanglement purification update (paper Sec. IV-C, from \[11\]):
/// combining two pairs of fidelity `ρ₁`, `ρ₂` yields
/// `ρ' = ρ₁ρ₂ / (ρ₁ρ₂ + (1−ρ₁)(1−ρ₂))`.
///
/// # Examples
///
/// ```
/// use surfnet_decoder::weights::purify;
/// let out = purify(0.8, 0.8);
/// assert!(out > 0.8); // purification improves fidelity above 0.5
/// ```
///
/// # Panics
///
/// Panics if either fidelity is outside `[0, 1]`.
pub fn purify(rho1: f64, rho2: f64) -> f64 {
    assert!((0.0..=1.0).contains(&rho1), "fidelity {rho1} outside [0,1]");
    assert!((0.0..=1.0).contains(&rho2), "fidelity {rho2} outside [0,1]");
    let num = rho1 * rho2;
    let denom = num + (1.0 - rho1) * (1.0 - rho2);
    if denom == 0.0 {
        // Both pairs are perfectly anti-correlated garbage; the protocol
        // yields a maximally uncertain pair.
        return 0.5;
    }
    num / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_monotone_in_fidelity() {
        let mut prev = -1.0;
        for i in 0..100 {
            let rho = i as f64 / 100.0;
            let w = edge_weight(rho);
            assert!(w >= prev, "weight not monotone at rho={rho}");
            prev = w;
        }
    }

    #[test]
    fn weight_matches_formula() {
        assert!((edge_weight(0.5) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(edge_weight(0.0), 0.0);
        assert!(edge_weight(1.0).is_finite());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn weight_rejects_bad_fidelity() {
        edge_weight(1.5);
    }

    #[test]
    fn erasures_grow_fastest() {
        // Fig. 5's premise: speeds order erasure > support > core when
        // core fidelity > support fidelity > 0.5.
        let r = DEFAULT_STEP_SIZE;
        let core = growth_speed(0.96, r);
        let support = growth_speed(0.92, r);
        let erasure = growth_speed(ERASURE_FIDELITY, r);
        assert!(erasure > support);
        assert!(support > core);
    }

    #[test]
    fn growth_speed_scales_with_step() {
        let s1 = growth_speed(0.9, 1.0);
        let s2 = growth_speed(0.9, 0.5);
        assert!((s1 - 2.0 * s2).abs() < 1e-12);
    }

    #[test]
    fn purification_improves_above_half() {
        for rho in [0.6, 0.7, 0.8, 0.9, 0.99] {
            assert!(purify(rho, rho) > rho, "purify({rho}) did not improve");
        }
    }

    #[test]
    fn purification_fixed_points() {
        // 0.5 and 1.0 are fixed points of the recurrence.
        assert!((purify(0.5, 0.5) - 0.5).abs() < 1e-12);
        assert!((purify(1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn purification_matches_paper_formula() {
        let (r1, r2) = (0.85, 0.7);
        let want = (0.85 * 0.7) / (0.85 * 0.7 + 0.15 * 0.3);
        assert!((purify(r1, r2) - want).abs() < 1e-12);
    }

    #[test]
    fn purification_degenerate_case() {
        // ρ1 = 1, ρ2 = 0 (one perfect, one anti-perfect): denominator is 0.
        assert_eq!(purify(1.0, 0.0), 0.5);
    }
}
