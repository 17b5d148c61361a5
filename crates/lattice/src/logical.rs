//! Scoring corrections: residual validity and logical failure detection.
//!
//! A decoder's correction succeeds when the *residual* operator — the error
//! pattern multiplied by the proposed correction — (a) clears every
//! syndrome, and (b) acts trivially on the logical qubit. Residuals that
//! clear the syndrome but traverse the code (Fig. 3(b) of the paper) are
//! **logical errors**: the combination of the two patterns anticommutes with
//! a logical operator.

use crate::code::SurfaceCode;
use crate::pauli::{Pauli, PauliString};

/// Which logical operators a residual error flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogicalFailure {
    /// The residual implements a logical X (it anticommutes with the logical
    /// Z operator): an X-type chain crossed between North and South.
    pub x: bool,
    /// The residual implements a logical Z (anticommutes with logical X): a
    /// Z-type chain crossed between West and East.
    pub z: bool,
}

impl LogicalFailure {
    /// Whether any logical operator was flipped.
    pub fn any(self) -> bool {
        self.x || self.z
    }
}

/// The outcome of scoring one decoding attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Whether the correction cleared every syndrome (it must — a decoder
    /// that leaves syndromes is buggy, and tests assert on this).
    pub syndrome_cleared: bool,
    /// Logical operators flipped by the residual.
    pub logical_failure: LogicalFailure,
}

impl DecodeOutcome {
    /// Whether decoding fully succeeded: syndrome cleared and no logical
    /// error introduced.
    pub fn is_success(&self) -> bool {
        self.syndrome_cleared && !self.logical_failure.any()
    }
}

impl SurfaceCode {
    /// Tests whether `residual` flips either logical operator.
    ///
    /// Only meaningful when `residual` has a trivial syndrome; the parity of
    /// anticommuting positions against the fixed minimum-weight logical
    /// representatives then decides the logical class.
    ///
    /// # Panics
    ///
    /// Panics if `residual` does not cover every data qubit.
    pub fn logical_failure(&self, residual: &PauliString) -> LogicalFailure {
        assert_eq!(residual.len(), self.num_data_qubits());
        // Residual X components crossing the logical-Z line flip logical X;
        // equivalently the residual anticommutes with logical Z.
        let x = residual.anticommutes_on(self.logical_z_support(), Pauli::Z);
        let z = residual.anticommutes_on(self.logical_x_support(), Pauli::X);
        LogicalFailure { x, z }
    }

    /// Scores a correction against the true error pattern.
    ///
    /// # Panics
    ///
    /// Panics if `error` and `correction` do not both cover every data
    /// qubit.
    pub fn score_correction(&self, error: &PauliString, correction: &PauliString) -> DecodeOutcome {
        let residual = error * correction;
        let syndrome_cleared = self.extract_syndrome(&residual).is_trivial();
        let logical_failure = if syndrome_cleared {
            self.logical_failure(&residual)
        } else {
            // An uncleared syndrome is already a failure; still report the
            // commutation parities for diagnostics.
            self.logical_failure(&residual)
        };
        DecodeOutcome {
            syndrome_cleared,
            logical_failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;

    fn code() -> SurfaceCode {
        SurfaceCode::new(5).unwrap()
    }

    #[test]
    fn identity_residual_is_success() {
        let code = code();
        let id = PauliString::identity(code.num_data_qubits());
        let outcome = code.score_correction(&id, &id);
        assert!(outcome.is_success());
    }

    #[test]
    fn exact_correction_succeeds() {
        let code = code();
        let mut err = PauliString::identity(code.num_data_qubits());
        err.set(3, Pauli::X);
        err.set(10, Pauli::Z);
        let outcome = code.score_correction(&err, &err);
        assert!(outcome.is_success());
    }

    #[test]
    fn stabilizer_equivalent_correction_succeeds() {
        // Correcting an error by a pattern that differs by a stabilizer is
        // still a success (paper Fig. 3(c)).
        let code = code();
        let n = code.num_data_qubits();
        let mut err = PauliString::identity(n);
        err.set(code.z_stabilizer(0)[0], Pauli::X);
        // correction = error * (Z stabilizer 0 as X?) -- stabilizers of the
        // Z graph that move X chains are the X stabilizers.
        let stab = PauliString::from_support(n, code.x_stabilizer(0), Pauli::X);
        let correction = &err * &stab;
        let outcome = code.score_correction(&err, &correction);
        assert!(outcome.syndrome_cleared);
        assert!(outcome.is_success());
    }

    #[test]
    fn logical_x_residual_is_detected() {
        let code = code();
        let n = code.num_data_qubits();
        let lx = PauliString::from_support(n, code.logical_x_support(), Pauli::X);
        let f = code.logical_failure(&lx);
        assert!(f.x);
        assert!(!f.z);
        // Error = identity, correction = logical X: syndrome clears but a
        // logical error is introduced (paper Fig. 3(b) scenario).
        let id = PauliString::identity(n);
        let outcome = code.score_correction(&id, &lx);
        assert!(outcome.syndrome_cleared);
        assert!(!outcome.is_success());
    }

    #[test]
    fn logical_z_residual_is_detected() {
        let code = code();
        let n = code.num_data_qubits();
        let lz = PauliString::from_support(n, code.logical_z_support(), Pauli::Z);
        let f = code.logical_failure(&lz);
        assert!(!f.x);
        assert!(f.z);
    }

    #[test]
    fn logical_y_flips_both() {
        let code = code();
        let n = code.num_data_qubits();
        let lx = PauliString::from_support(n, code.logical_x_support(), Pauli::X);
        let lz = PauliString::from_support(n, code.logical_z_support(), Pauli::Z);
        let ly = &lx * &lz;
        let f = code.logical_failure(&ly);
        assert!(f.x && f.z);
    }

    #[test]
    fn displaced_logical_representative_is_still_logical() {
        // A full X chain down a different column is the same logical class.
        let code = code();
        let n = code.num_data_qubits();
        let mut chain = PauliString::identity(n);
        for row in (0..code.side()).step_by(2) {
            let q = code.data_qubit_at(Coord::new(row, 4)).unwrap();
            chain.set(q, Pauli::X);
        }
        assert!(code.extract_syndrome(&chain).is_trivial());
        assert!(code.logical_failure(&chain).x);
    }

    #[test]
    fn uncleared_syndrome_reported() {
        let code = code();
        let n = code.num_data_qubits();
        let mut err = PauliString::identity(n);
        err.set(0, Pauli::X);
        let id = PauliString::identity(n);
        let outcome = code.score_correction(&err, &id);
        assert!(!outcome.syndrome_cleared);
        assert!(!outcome.is_success());
    }
}
