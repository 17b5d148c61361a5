//! Per-qubit Pauli + erasure error models and error sampling.
//!
//! The paper considers exactly two error mechanisms (Sec. I, IV):
//!
//! * **Pauli errors** — with probability `p` a data qubit suffers a uniform
//!   random Pauli from `{X, Y, Z}`;
//! * **erasure errors** — with probability `p_e` a data qubit (photon) is
//!   lost and replaced by a maximally mixed state, modeled as `|0⟩` followed
//!   by a uniform random Pauli from `{I, X, Y, Z}`; the *location* of the
//!   erasure is known to the decoder.
//!
//! Measurements are error-free. Error rates vary per qubit: SurfNet's
//! dual-channel transfer keeps the Core part at roughly half the error rate
//! of the Support part, and network routes give every qubit its own
//! accumulated fidelity `ρ = Π γᵢ` over the fibers it traversed.

use crate::code::SurfaceCode;
use crate::partition::Partition;
use crate::pauli::{Pauli, PauliString};
use crate::LatticeError;
use rand::Rng;

/// Per-data-qubit error probabilities for one surface-code transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorModel {
    pauli_prob: Vec<f64>,
    erasure_prob: Vec<f64>,
}

impl ErrorModel {
    /// A model with the same Pauli probability `p` and erasure probability
    /// `p_e` on every data qubit.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `p_e` is outside `[0, 1]`.
    pub fn uniform(code: &SurfaceCode, p: f64, p_e: f64) -> ErrorModel {
        assert!(
            (0.0..=1.0).contains(&p),
            "pauli probability {p} not in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&p_e),
            "erasure probability {p_e} not in [0,1]"
        );
        let len = code.num_data_qubits();
        ErrorModel {
            pauli_prob: vec![p; len],
            erasure_prob: vec![p_e; len],
        }
    }

    /// The dual-channel model of the paper's decoder evaluation (Sec. VI-B):
    /// Support qubits suffer Pauli rate `p` and erasure rate `p_e`; both
    /// rates are **halved** on the Core part, reflecting the higher fidelity
    /// of the entanglement-based channel.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not match the code, or rates are outside
    /// `[0, 1]`.
    pub fn dual_channel(code: &SurfaceCode, partition: &Partition, p: f64, p_e: f64) -> ErrorModel {
        assert_eq!(
            partition.len(),
            code.num_data_qubits(),
            "partition does not match code size"
        );
        let mut model = ErrorModel::uniform(code, p, p_e);
        for &q in partition.core() {
            model.pauli_prob[q] = p / 2.0;
            model.erasure_prob[q] = p_e / 2.0;
        }
        model
    }

    /// Builds a model from per-qubit *fidelities* `ρ` (probability of no
    /// Pauli error) and per-qubit erasure probabilities, as accumulated
    /// along a network route (`ρ = Π γᵢ`, Sec. IV-C).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::LengthMismatch`] if either vector does not
    /// have one entry per data qubit, and [`LatticeError::InvalidProbability`]
    /// if any value falls outside `[0, 1]`.
    pub fn from_fidelities(
        code: &SurfaceCode,
        fidelities: &[f64],
        erasure_probs: &[f64],
    ) -> Result<ErrorModel, LatticeError> {
        let n = code.num_data_qubits();
        if fidelities.len() != n || erasure_probs.len() != n {
            return Err(LatticeError::LengthMismatch {
                expected: n,
                got: fidelities.len().max(erasure_probs.len()),
            });
        }
        for &v in fidelities.iter().chain(erasure_probs.iter()) {
            if !(0.0..=1.0).contains(&v) {
                return Err(LatticeError::InvalidProbability(v));
            }
        }
        Ok(ErrorModel {
            pauli_prob: fidelities.iter().map(|rho| 1.0 - rho).collect(),
            erasure_prob: erasure_probs.to_vec(),
        })
    }

    /// Number of data qubits covered.
    pub fn len(&self) -> usize {
        self.pauli_prob.len()
    }

    /// Whether the model covers zero qubits.
    pub fn is_empty(&self) -> bool {
        self.pauli_prob.is_empty()
    }

    /// Pauli error probability of data qubit `q`.
    #[inline]
    pub fn pauli_prob(&self, q: usize) -> f64 {
        self.pauli_prob[q]
    }

    /// Erasure probability of data qubit `q`.
    #[inline]
    pub fn erasure_prob(&self, q: usize) -> f64 {
        self.erasure_prob[q]
    }

    /// The *estimated fidelity* `ρ` of data qubit `q` that the paper's
    /// decoders consume: one minus the Pauli error rate (erasures are
    /// reported separately and use `ρ = 0.5` at the decoder).
    #[inline]
    pub fn estimated_fidelity(&self, q: usize) -> f64 {
        1.0 - self.pauli_prob[q]
    }

    /// Overrides the Pauli error probability of one qubit.
    ///
    /// # Panics
    ///
    /// Panics if out of range or `p` outside `[0, 1]`.
    pub fn set_pauli_prob(&mut self, q: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        self.pauli_prob[q] = p;
    }

    /// Draws the `(erased, operator)` outcome for one qubit.
    ///
    /// This is the single source of truth for the per-qubit RNG draw order
    /// that [`ErrorModel::sample_into`] consumes: an erasure consumes two
    /// draws (threshold + mixed-state operator), a surviving qubit consumes
    /// the threshold draw and, on a hit, the error-operator draw.
    #[inline]
    pub(crate) fn draw_qubit<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> (bool, Pauli) {
        if rng.gen::<f64>() < self.erasure_prob[q] {
            (true, Pauli::ALL[rng.gen_range(0..4)])
        } else if rng.gen::<f64>() < self.pauli_prob[q] {
            (false, Pauli::ERRORS[rng.gen_range(0..3)])
        } else {
            (false, Pauli::I)
        }
    }

    /// Samples one transmission: first erasures (an erased qubit becomes a
    /// maximally mixed state — uniform `{I, X, Y, Z}`), then independent
    /// Pauli errors on the surviving qubits.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ErrorSample {
        let mut sample = ErrorSample::clean(self.len());
        self.sample_into(rng, &mut sample);
        sample
    }

    /// [`ErrorModel::sample`] into a reused buffer: makes exactly the same
    /// draws and leaves `out` equal to the sample it would return, whatever
    /// `out` held before. Allocates only when `out`'s buffers have room for
    /// fewer qubits than the model has.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut ErrorSample) {
        let n = self.len();
        out.pauli.reset_identity(n);
        out.erased.clear();
        out.erased.resize(n, false);
        for q in 0..n {
            let (is_erased, op) = self.draw_qubit(q, rng);
            out.erased[q] = is_erased;
            if !op.is_identity() {
                out.pauli.set(q, op);
            }
        }
    }
}

/// One sampled transmission: the hidden Pauli error pattern plus the
/// decoder-visible erasure flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSample {
    /// The actual Pauli error on each data qubit. Hidden from decoders
    /// (measuring data qubits would destroy the logical state, Sec. III-C);
    /// used only to score decoding outcomes.
    pub pauli: PauliString,
    /// Which data qubits were erased. Visible to decoders.
    pub erased: Vec<bool>,
}

impl ErrorSample {
    /// A noiseless sample over `n` qubits.
    pub fn clean(n: usize) -> ErrorSample {
        ErrorSample {
            pauli: PauliString::identity(n),
            erased: vec![false; n],
        }
    }

    /// Number of data qubits.
    pub fn len(&self) -> usize {
        self.pauli.len()
    }

    /// Whether the sample covers zero qubits.
    pub fn is_empty(&self) -> bool {
        self.pauli.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::CoreTopology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_model_sets_all_rates() {
        let code = SurfaceCode::new(3).unwrap();
        let m = ErrorModel::uniform(&code, 0.07, 0.15);
        for q in 0..code.num_data_qubits() {
            assert_eq!(m.pauli_prob(q), 0.07);
            assert_eq!(m.erasure_prob(q), 0.15);
            assert!((m.estimated_fidelity(q) - 0.93).abs() < 1e-12);
        }
    }

    #[test]
    fn dual_channel_halves_core_rates() {
        let code = SurfaceCode::new(5).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let m = ErrorModel::dual_channel(&code, &part, 0.08, 0.15);
        for q in 0..code.num_data_qubits() {
            if part.is_core(q) {
                assert_eq!(m.pauli_prob(q), 0.04);
                assert_eq!(m.erasure_prob(q), 0.075);
            } else {
                assert_eq!(m.pauli_prob(q), 0.08);
                assert_eq!(m.erasure_prob(q), 0.15);
            }
        }
    }

    #[test]
    fn from_fidelities_validates() {
        let code = SurfaceCode::new(3).unwrap();
        let n = code.num_data_qubits();
        assert!(ErrorModel::from_fidelities(&code, &vec![0.9; n], &vec![0.1; n]).is_ok());
        assert!(ErrorModel::from_fidelities(&code, &vec![0.9; n - 1], &vec![0.1; n]).is_err());
        assert!(ErrorModel::from_fidelities(&code, &vec![1.1; n], &vec![0.1; n]).is_err());
    }

    #[test]
    fn sampling_respects_zero_and_one_rates() {
        let code = SurfaceCode::new(3).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let clean = ErrorModel::uniform(&code, 0.0, 0.0).sample(&mut rng);
        assert!(clean.pauli.is_identity());
        assert!(clean.erased.iter().all(|&e| !e));

        let erased = ErrorModel::uniform(&code, 0.0, 1.0).sample(&mut rng);
        assert!(erased.erased.iter().all(|&e| e));
    }

    #[test]
    fn sample_into_a_dirty_buffer_matches_a_fresh_sample() {
        // Reference: the per-qubit draws written into fresh buffers.
        fn fresh(model: &ErrorModel, rng: &mut SmallRng) -> ErrorSample {
            let mut s = ErrorSample::clean(model.len());
            for q in 0..model.len() {
                let (erased, op) = model.draw_qubit(q, rng);
                s.erased[q] = erased;
                s.pauli.set(q, op);
            }
            s
        }
        let code = SurfaceCode::new(5).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &part, 0.3, 0.6);
        let n = model.len();
        // Reused buffers longer and shorter than the model, dirtied with
        // every qubit erased and carrying Y.
        for len in [n + 17, n - 9] {
            let mut buf = ErrorSample {
                pauli: PauliString::from_ops(vec![Pauli::Y; len]),
                erased: vec![true; len],
            };
            let mut into_rng = SmallRng::seed_from_u64(len as u64);
            let mut fresh_rng = into_rng.clone();
            let mut sample_rng = into_rng.clone();
            let mut erasures = 0;
            for _ in 0..50 {
                model.sample_into(&mut into_rng, &mut buf);
                let want = fresh(&model, &mut fresh_rng);
                assert_eq!(buf, want);
                assert_eq!(model.sample(&mut sample_rng), want);
                erasures += want.erased.iter().filter(|&&e| e).count();
            }
            // Same draws: the three streams end in the same state.
            assert_eq!(into_rng, fresh_rng);
            assert_eq!(into_rng, sample_rng);
            assert!(erasures > 50 * n / 4, "erasure-heavy: {erasures}");
        }
    }

    #[test]
    fn sampled_rates_are_close_to_nominal() {
        let code = SurfaceCode::new(9).unwrap();
        let model = ErrorModel::uniform(&code, 0.10, 0.20);
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 2000;
        let mut pauli_count = 0usize;
        let mut erase_count = 0usize;
        let mut total = 0usize;
        for _ in 0..trials {
            let s = model.sample(&mut rng);
            for q in 0..s.len() {
                total += 1;
                if s.erased[q] {
                    erase_count += 1;
                } else if !s.pauli.get(q).is_identity() {
                    pauli_count += 1;
                }
            }
        }
        let erase_rate = erase_count as f64 / total as f64;
        // Pauli errors only hit non-erased qubits.
        let pauli_rate = pauli_count as f64 / (total - erase_count) as f64;
        assert!((erase_rate - 0.20).abs() < 0.01, "erase rate {erase_rate}");
        assert!((pauli_rate - 0.10).abs() < 0.01, "pauli rate {pauli_rate}");
    }

    #[test]
    fn erased_qubits_are_maximally_mixed() {
        // Over many samples an erased qubit should carry each of I/X/Y/Z
        // about a quarter of the time.
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        let trials = 4000;
        for _ in 0..trials {
            let s = model.sample(&mut rng);
            let idx = Pauli::ALL
                .iter()
                .position(|&p| p == s.pauli.get(0))
                .unwrap();
            counts[idx] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.25).abs() < 0.05, "fraction {frac}");
        }
    }
}
