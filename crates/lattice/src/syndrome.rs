//! Syndrome extraction.
//!
//! After initialization, every measurement qubit's outcome defines the
//! quiescent state; a later cycle flips a measure-Z outcome exactly when an
//! odd number of its neighboring data qubits carry an X or Y error, and
//! flips a measure-X outcome for Z or Y errors (paper Sec. III-C).
//! Measurements are assumed error-free, so one cycle suffices.

use crate::code::SurfaceCode;
use crate::pauli::PauliString;

/// The flipped measurement outcomes of one error-correction cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Syndrome {
    /// `z_flips[i]` is true when measure-Z qubit `i` deviates from the
    /// quiescent state (an X-type error nearby).
    pub z_flips: Vec<bool>,
    /// `x_flips[i]` is true when measure-X qubit `i` deviates from the
    /// quiescent state (a Z-type error nearby).
    pub x_flips: Vec<bool>,
}

impl Syndrome {
    /// A trivial (quiescent) syndrome for `code`.
    pub fn quiescent(code: &SurfaceCode) -> Syndrome {
        Syndrome {
            z_flips: vec![false; code.num_measure_z()],
            x_flips: vec![false; code.num_measure_x()],
        }
    }

    /// Indices of flipped measure-Z qubits.
    pub fn z_defects(&self) -> Vec<usize> {
        self.z_flips
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of flipped measure-X qubits.
    pub fn x_defects(&self) -> Vec<usize> {
        self.x_flips
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether no measurement qubit flipped.
    pub fn is_trivial(&self) -> bool {
        !self.z_flips.iter().any(|&f| f) && !self.x_flips.iter().any(|&f| f)
    }

    /// Total number of defects across both kinds.
    pub fn weight(&self) -> usize {
        self.z_flips.iter().filter(|&&f| f).count() + self.x_flips.iter().filter(|&&f| f).count()
    }
}

impl SurfaceCode {
    /// Extracts the syndrome a Pauli error pattern produces.
    ///
    /// # Panics
    ///
    /// Panics if `error` does not have one operator per data qubit.
    pub fn extract_syndrome(&self, error: &PauliString) -> Syndrome {
        let mut syndrome = Syndrome::default();
        self.extract_syndrome_into(error, &mut syndrome);
        syndrome
    }

    /// Extracts the syndrome into an existing [`Syndrome`], reusing its
    /// flip vectors (the decoder hot loop calls this once per shot).
    ///
    /// # Panics
    ///
    /// Panics if `error` does not have one operator per data qubit.
    pub fn extract_syndrome_into(&self, error: &PauliString, out: &mut Syndrome) {
        assert_eq!(
            error.len(),
            self.num_data_qubits(),
            "error pattern length does not match code"
        );
        out.z_flips.clear();
        out.z_flips.extend((0..self.num_measure_z()).map(|i| {
            self.z_stabilizer(i)
                .iter()
                .filter(|&&q| error.get(q).has_x_component())
                .count()
                % 2
                == 1
        }));
        out.x_flips.clear();
        out.x_flips.extend((0..self.num_measure_x()).map(|i| {
            self.x_stabilizer(i)
                .iter()
                .filter(|&&q| error.get(q).has_z_component())
                .count()
                % 2
                == 1
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;
    use crate::pauli::Pauli;

    #[test]
    fn clean_code_has_trivial_syndrome() {
        let code = SurfaceCode::new(5).unwrap();
        let s = code.extract_syndrome(&PauliString::identity(code.num_data_qubits()));
        assert!(s.is_trivial());
        assert_eq!(s.weight(), 0);
    }

    #[test]
    fn single_x_error_flips_adjacent_measure_z_only() {
        let code = SurfaceCode::new(3).unwrap();
        // Interior data qubit at (2, 2): has two measure-Z neighbors at
        // (1, 2) and (3, 2) and two measure-X at (2, 1), (2, 3).
        let q = code.data_qubit_at(Coord::new(2, 2)).unwrap();
        let mut err = PauliString::identity(code.num_data_qubits());
        err.set(q, Pauli::X);
        let s = code.extract_syndrome(&err);
        assert_eq!(s.z_defects().len(), 2);
        assert_eq!(s.x_defects().len(), 0);
        let defect_coords: Vec<_> = s
            .z_defects()
            .iter()
            .map(|&i| code.measure_z_coord(i))
            .collect();
        assert!(defect_coords.contains(&Coord::new(1, 2)));
        assert!(defect_coords.contains(&Coord::new(3, 2)));
    }

    #[test]
    fn single_z_error_flips_adjacent_measure_x_only() {
        let code = SurfaceCode::new(3).unwrap();
        let q = code.data_qubit_at(Coord::new(2, 2)).unwrap();
        let mut err = PauliString::identity(code.num_data_qubits());
        err.set(q, Pauli::Z);
        let s = code.extract_syndrome(&err);
        assert_eq!(s.z_defects().len(), 0);
        assert_eq!(s.x_defects().len(), 2);
    }

    #[test]
    fn y_error_flips_both_kinds() {
        let code = SurfaceCode::new(3).unwrap();
        let q = code.data_qubit_at(Coord::new(2, 2)).unwrap();
        let mut err = PauliString::identity(code.num_data_qubits());
        err.set(q, Pauli::Y);
        let s = code.extract_syndrome(&err);
        assert_eq!(s.z_defects().len(), 2);
        assert_eq!(s.x_defects().len(), 2);
    }

    #[test]
    fn boundary_x_error_flips_single_measure_z() {
        let code = SurfaceCode::new(3).unwrap();
        // Top-row data qubit (0, 2): only one measure-Z neighbor (1, 2).
        let q = code.data_qubit_at(Coord::new(0, 2)).unwrap();
        let mut err = PauliString::identity(code.num_data_qubits());
        err.set(q, Pauli::X);
        let s = code.extract_syndrome(&err);
        assert_eq!(s.z_defects().len(), 1);
    }

    #[test]
    fn stabilizers_have_trivial_syndrome() {
        let code = SurfaceCode::new(5).unwrap();
        let n = code.num_data_qubits();
        for i in 0..code.num_measure_z() {
            let stab = PauliString::from_support(n, code.z_stabilizer(i), Pauli::Z);
            assert!(code.extract_syndrome(&stab).is_trivial(), "Z stab {i}");
        }
        for i in 0..code.num_measure_x() {
            let stab = PauliString::from_support(n, code.x_stabilizer(i), Pauli::X);
            assert!(code.extract_syndrome(&stab).is_trivial(), "X stab {i}");
        }
    }

    #[test]
    fn logical_operators_have_trivial_syndrome() {
        let code = SurfaceCode::new(5).unwrap();
        let n = code.num_data_qubits();
        let lx = PauliString::from_support(n, code.logical_x_support(), Pauli::X);
        let lz = PauliString::from_support(n, code.logical_z_support(), Pauli::Z);
        assert!(code.extract_syndrome(&lx).is_trivial());
        assert!(code.extract_syndrome(&lz).is_trivial());
    }

    #[test]
    fn x_chain_produces_endpoint_defects() {
        // A vertical chain of X errors should light up only the measure-Z
        // qubits at its two ends (Fig. 3 of the paper).
        let code = SurfaceCode::new(5).unwrap();
        let mut err = PauliString::identity(code.num_data_qubits());
        // Chain down column 4 from row 2 to row 6: data qubits at (2,4),
        // (4,4), (6,4).
        for row in [2usize, 4, 6] {
            let q = code.data_qubit_at(Coord::new(row, 4)).unwrap();
            err.set(q, Pauli::X);
        }
        let s = code.extract_syndrome(&err);
        let defects: Vec<_> = s
            .z_defects()
            .iter()
            .map(|&i| code.measure_z_coord(i))
            .collect();
        assert_eq!(defects.len(), 2);
        assert!(defects.contains(&Coord::new(1, 4)));
        assert!(defects.contains(&Coord::new(7, 4)));
    }
}
