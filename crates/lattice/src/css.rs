//! The [`CssCode`] trait: the interface decoders need from any CSS
//! surface-code-like family.
//!
//! Both the unrotated [`crate::SurfaceCode`] (paper Figs. 2/3/5) and the
//! [`crate::RotatedSurfaceCode`] (the Sec. V-A sizing example) implement
//! it, so graph construction, syndrome extraction, and outcome scoring are
//! written once and decoders stay family-agnostic. Future variants the
//! paper mentions (X-cut/Z-cut/multi-cut codes \[36\]) would slot in the
//! same way.

use crate::code::SurfaceCode;
use crate::geometry::EdgeEnd;
use crate::logical::{DecodeOutcome, LogicalFailure};
use crate::pauli::{Pauli, PauliString};
use crate::rotated::RotatedSurfaceCode;
use crate::syndrome::Syndrome;

/// A CSS code whose error correction decomposes into two matching
/// problems: X-type errors on a graph over Z checks, Z-type errors on a
/// graph over X checks, each data qubit appearing as one edge in each.
pub trait CssCode {
    /// Number of data qubits.
    fn num_data_qubits(&self) -> usize;
    /// Number of Z-type stabilizer checks.
    fn num_measure_z(&self) -> usize;
    /// Number of X-type stabilizer checks.
    fn num_measure_x(&self) -> usize;
    /// Data-qubit support of Z check `i`.
    fn z_stabilizer(&self, i: usize) -> &[usize];
    /// Data-qubit support of X check `i`.
    fn x_stabilizer(&self, i: usize) -> &[usize];
    /// The edge data qubit `q` realizes in the Z (primal) decoding graph.
    fn z_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd);
    /// The edge data qubit `q` realizes in the X (dual) decoding graph.
    fn x_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd);
    /// Support of a minimum-weight logical X representative.
    fn logical_x_support(&self) -> &[usize];
    /// Support of a minimum-weight logical Z representative.
    fn logical_z_support(&self) -> &[usize];

    /// Extracts the syndrome `error` produces (provided).
    ///
    /// # Panics
    ///
    /// Panics if `error` does not cover every data qubit.
    fn css_syndrome(&self, error: &PauliString) -> Syndrome {
        assert_eq!(error.len(), self.num_data_qubits());
        let z_flips = (0..self.num_measure_z())
            .map(|i| {
                self.z_stabilizer(i)
                    .iter()
                    .filter(|&&q| error.get(q).has_x_component())
                    .count()
                    % 2
                    == 1
            })
            .collect();
        let x_flips = (0..self.num_measure_x())
            .map(|i| {
                self.x_stabilizer(i)
                    .iter()
                    .filter(|&&q| error.get(q).has_z_component())
                    .count()
                    % 2
                    == 1
            })
            .collect();
        Syndrome { z_flips, x_flips }
    }

    /// Which logical operators `residual` flips (provided).
    fn css_logical_failure(&self, residual: &PauliString) -> LogicalFailure {
        LogicalFailure {
            x: residual.anticommutes_on(self.logical_z_support(), Pauli::Z),
            z: residual.anticommutes_on(self.logical_x_support(), Pauli::X),
        }
    }

    /// Scores a correction against the hidden error (provided).
    fn css_score(&self, error: &PauliString, correction: &PauliString) -> DecodeOutcome {
        let residual = error * correction;
        DecodeOutcome {
            syndrome_cleared: self.css_syndrome(&residual).is_trivial(),
            logical_failure: self.css_logical_failure(&residual),
        }
    }
}

impl CssCode for SurfaceCode {
    fn num_data_qubits(&self) -> usize {
        SurfaceCode::num_data_qubits(self)
    }
    fn num_measure_z(&self) -> usize {
        SurfaceCode::num_measure_z(self)
    }
    fn num_measure_x(&self) -> usize {
        SurfaceCode::num_measure_x(self)
    }
    fn z_stabilizer(&self, i: usize) -> &[usize] {
        SurfaceCode::z_stabilizer(self, i)
    }
    fn x_stabilizer(&self, i: usize) -> &[usize] {
        SurfaceCode::x_stabilizer(self, i)
    }
    fn z_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd) {
        SurfaceCode::z_edge(self, q)
    }
    fn x_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd) {
        SurfaceCode::x_edge(self, q)
    }
    fn logical_x_support(&self) -> &[usize] {
        SurfaceCode::logical_x_support(self)
    }
    fn logical_z_support(&self) -> &[usize] {
        SurfaceCode::logical_z_support(self)
    }
}

impl CssCode for RotatedSurfaceCode {
    fn num_data_qubits(&self) -> usize {
        RotatedSurfaceCode::num_data_qubits(self)
    }
    fn num_measure_z(&self) -> usize {
        RotatedSurfaceCode::num_measure_z(self)
    }
    fn num_measure_x(&self) -> usize {
        RotatedSurfaceCode::num_measure_x(self)
    }
    fn z_stabilizer(&self, i: usize) -> &[usize] {
        RotatedSurfaceCode::z_stabilizer(self, i)
    }
    fn x_stabilizer(&self, i: usize) -> &[usize] {
        RotatedSurfaceCode::x_stabilizer(self, i)
    }
    fn z_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd) {
        RotatedSurfaceCode::z_edge(self, q)
    }
    fn x_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd) {
        RotatedSurfaceCode::x_edge(self, q)
    }
    fn logical_x_support(&self) -> &[usize] {
        RotatedSurfaceCode::logical_x_support(self)
    }
    fn logical_z_support(&self) -> &[usize] {
        RotatedSurfaceCode::logical_z_support(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_syndrome_matches_inherent_for_unrotated() {
        let code = SurfaceCode::new(5).unwrap();
        let mut err = PauliString::identity(CssCode::num_data_qubits(&code));
        err.set(7, Pauli::Y);
        err.set(20, Pauli::X);
        assert_eq!(code.css_syndrome(&err), code.extract_syndrome(&err));
    }

    #[test]
    fn trait_syndrome_matches_inherent_for_rotated() {
        let code = RotatedSurfaceCode::new(5).unwrap();
        let mut err = PauliString::identity(CssCode::num_data_qubits(&code));
        err.set(3, Pauli::Z);
        err.set(13, Pauli::Y);
        assert_eq!(code.css_syndrome(&err), code.extract_syndrome(&err));
    }

    #[test]
    fn trait_score_matches_inherent() {
        let code = RotatedSurfaceCode::new(3).unwrap();
        let mut err = PauliString::identity(9);
        err.set(4, Pauli::X);
        let id = PauliString::identity(9);
        assert_eq!(
            code.css_score(&err, &err),
            code.score_correction(&err, &err)
        );
        assert_eq!(code.css_score(&err, &id), code.score_correction(&err, &id));
    }

    #[test]
    fn trait_usable_as_object() {
        // Decoding infrastructure can hold heterogeneous code families.
        let codes: Vec<Box<dyn CssCode>> = vec![
            Box::new(SurfaceCode::new(3).unwrap()),
            Box::new(RotatedSurfaceCode::new(3).unwrap()),
        ];
        assert_eq!(codes[0].num_data_qubits(), 13);
        assert_eq!(codes[1].num_data_qubits(), 9);
        for code in &codes {
            let clean = PauliString::identity(code.num_data_qubits());
            assert!(code.css_syndrome(&clean).is_trivial());
        }
    }
}
