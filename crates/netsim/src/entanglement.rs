//! Entanglement fidelity arithmetic: swapping, the purification
//! recurrence, and the Core-segment fidelity (paper Secs. IV-B, IV-C, V-A).
//! The engines ([`crate::execution`], [`crate::event`]) draw link attempts.

/// Entanglement purification update from \[11\] (paper Sec. IV-C):
/// `ρ' = ρ₁ρ₂ / (ρ₁ρ₂ + (1−ρ₁)(1−ρ₂))`.
///
/// # Examples
///
/// ```
/// use surfnet_netsim::entanglement::purify;
/// let out = purify(0.8, 0.8);
/// assert!(out > 0.8); // purification improves fidelity above 0.5
/// ```
///
/// # Panics
///
/// Panics if a fidelity falls outside `[0, 1]`.
pub fn purify(rho1: f64, rho2: f64) -> f64 {
    assert!((0.0..=1.0).contains(&rho1), "fidelity {rho1} outside [0,1]");
    assert!((0.0..=1.0).contains(&rho2), "fidelity {rho2} outside [0,1]");
    let num = rho1 * rho2;
    let denom = num + (1.0 - rho1) * (1.0 - rho2);
    if denom == 0.0 {
        return 0.5;
    }
    num / denom
}

/// Applies `n` rounds of purification, each consuming one extra raw pair of
/// fidelity `raw` (the Purification-N baselines of Sec. VI-B).
pub fn purify_n(raw: f64, n: u32) -> f64 {
    let mut rho = raw;
    for _ in 0..n {
        rho = purify(rho, raw);
    }
    rho
}

/// Fidelity of the pair obtained by entanglement swapping two adjacent
/// pairs (the standard product model for Werner-like pairs).
///
/// # Panics
///
/// Panics if a fidelity falls outside `[0, 1]`.
pub fn swap(rho1: f64, rho2: f64) -> f64 {
    assert!((0.0..=1.0).contains(&rho1));
    assert!((0.0..=1.0).contains(&rho2));
    rho1 * rho2
}

/// The effective Core-part fidelity over a fiber segment in SurfNet's
/// noise accounting: the routing protocol halves the Core noise to model
/// purification over the entanglement channel (Sec. V-A), i.e.
/// `ρ_core = exp(−Σμᵢ / 2) = √(Π γᵢ)`.
pub fn core_segment_fidelity(segment_fidelity: f64) -> f64 {
    assert!((0.0..=1.0).contains(&segment_fidelity));
    segment_fidelity.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purify_matches_closed_form() {
        let want = (0.8 * 0.7) / (0.8 * 0.7 + 0.2 * 0.3);
        assert!((purify(0.8, 0.7) - want).abs() < 1e-12);
    }

    #[test]
    fn purification_matches_paper_formula() {
        let (r1, r2) = (0.85, 0.7);
        let want = (0.85 * 0.7) / (0.85 * 0.7 + 0.15 * 0.3);
        assert!((purify(r1, r2) - want).abs() < 1e-12);
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
    fn purification_degenerate_case() {
        // ρ1 = 1, ρ2 = 0 (one perfect, one anti-perfect): denominator is 0.
        assert_eq!(purify(1.0, 0.0), 0.5);
    }

    #[test]
    fn purify_n_monotone_above_half() {
        let raw = 0.7;
        let mut prev = raw;
        for n in 1..6 {
            let cur = purify_n(raw, n);
            assert!(cur > prev, "purify_{n} not monotone");
            prev = cur;
        }
        assert_eq!(purify_n(raw, 0), raw);
    }

    #[test]
    fn purify_below_half_degrades() {
        // Purification only helps above 1/2; below it the protocol hurts.
        assert!(purify(0.4, 0.4) < 0.4);
    }

    #[test]
    fn swap_is_product() {
        assert!((swap(0.9, 0.8) - 0.72).abs() < 1e-12);
        assert_eq!(swap(1.0, 0.5), 0.5);
    }

    #[test]
    fn core_fidelity_halves_noise() {
        let seg = 0.81f64;
        let rho = core_segment_fidelity(seg);
        assert!((rho - 0.9).abs() < 1e-12);
        // ln(1/ρ) == ln(1/seg)/2
        assert!(((1.0 / rho).ln() - (1.0 / seg).ln() / 2.0).abs() < 1e-12);
    }
}
