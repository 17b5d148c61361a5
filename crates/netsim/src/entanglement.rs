//! Entanglement primitives: probabilistic pair generation, swapping, and
//! purification (paper Secs. IV-B, V-B).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Entanglement purification update from \[11\] (paper Sec. IV-C):
/// `ρ' = ρ₁ρ₂ / (ρ₁ρ₂ + (1−ρ₁)(1−ρ₂))`.
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

/// A probabilistic entangled-pair source across one fiber.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntanglementSource {
    /// Probability that one generation attempt (one tick) succeeds.
    pub success_prob: f64,
    /// Fidelity of a freshly generated pair (the fiber's fidelity).
    pub pair_fidelity: f64,
}

impl EntanglementSource {
    /// Creates a source.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(success_prob: f64, pair_fidelity: f64) -> EntanglementSource {
        assert!((0.0..=1.0).contains(&success_prob));
        assert!((0.0..=1.0).contains(&pair_fidelity));
        EntanglementSource {
            success_prob,
            pair_fidelity,
        }
    }

    /// One generation attempt.
    pub fn attempt<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.success_prob
    }

    /// Expected attempts until success (∞ when `success_prob` is 0).
    pub fn expected_attempts(&self) -> f64 {
        if self.success_prob == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.success_prob
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn purify_matches_closed_form() {
        let want = (0.8 * 0.7) / (0.8 * 0.7 + 0.2 * 0.3);
        assert!((purify(0.8, 0.7) - want).abs() < 1e-12);
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

    #[test]
    fn source_attempt_rate_matches() {
        let src = EntanglementSource::new(0.3, 0.9);
        let mut rng = SmallRng::seed_from_u64(4);
        let trials = 10_000;
        let hits = (0..trials).filter(|_| src.attempt(&mut rng)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        assert!((src.expected_attempts() - 1.0 / 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_source_never_fires() {
        let src = EntanglementSource::new(0.0, 0.9);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..100).all(|_| !src.attempt(&mut rng)));
        assert!(src.expected_attempts().is_infinite());
    }
}
