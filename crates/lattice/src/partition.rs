//! The Core/Support partition of a surface code.
//!
//! SurfNet transfers each surface code as two parts (paper Sec. IV): the
//! **Core** — a minimal set of data qubits whose high fidelity blocks logical
//! errors along every logical-operator axis — travels over the
//! entanglement-based channel, and the **Support** — all remaining data
//! qubits — travels over the plain photonic channel.
//!
//! The paper fixes a Core topology without specifying its geometry; we
//! default to [`CoreTopology::Cross`] (middle row ∪ middle column), which
//! intersects every straight horizontal and vertical logical axis, and allow
//! custom geometries since the paper names Core-geometry optimization as
//! future work.

use crate::code::SurfaceCode;
use crate::LatticeError;

/// Strategy for selecting the Core data qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreTopology {
    /// Middle row ∪ middle column of data qubits (2d − 1 qubits for an
    /// unrotated distance-d code). Blocks every straight vertical axis (a
    /// candidate logical X chain) and every straight horizontal axis (a
    /// candidate logical Z chain). This is the fixed topology used by the
    /// reproduction's experiments.
    Cross,
    /// Only the middle row (d qubits): blocks straight vertical (logical X)
    /// axes but not horizontal ones. Cheaper; useful for ablations.
    MiddleRow,
    /// Only the middle column (d qubits): blocks straight horizontal
    /// (logical Z) axes but not vertical ones.
    MiddleColumn,
    /// An explicit set of data qubit indices.
    Custom(Vec<usize>),
}

/// The Core/Support split of one surface code.
///
/// # Examples
///
/// ```
/// use surfnet_lattice::{SurfaceCode, CoreTopology};
///
/// let code = SurfaceCode::new(5)?;
/// let part = code.core_partition(CoreTopology::Cross);
/// assert_eq!(part.num_core(), 9); // 2d - 1
/// assert_eq!(part.num_core() + part.num_support(), code.num_data_qubits());
/// # Ok::<(), surfnet_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    core: Vec<usize>,
    is_core: Vec<bool>,
}

impl Partition {
    /// Builds a partition from an explicit Core set.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitOutOfRange`] if any index is not a data
    /// qubit of the code.
    pub fn from_core(code: &SurfaceCode, mut core: Vec<usize>) -> Result<Partition, LatticeError> {
        let len = code.num_data_qubits();
        core.sort_unstable();
        core.dedup();
        if let Some(&bad) = core.iter().find(|&&q| q >= len) {
            return Err(LatticeError::QubitOutOfRange { qubit: bad, len });
        }
        let mut is_core = vec![false; len];
        for &q in &core {
            is_core[q] = true;
        }
        Ok(Partition { core, is_core })
    }

    /// The Core data qubit indices, sorted ascending.
    pub fn core(&self) -> &[usize] {
        &self.core
    }

    /// The Support data qubit indices, sorted ascending.
    pub fn support(&self) -> Vec<usize> {
        self.is_core
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(q, _)| q)
            .collect()
    }

    /// Whether data qubit `q` belongs to the Core.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn is_core(&self, q: usize) -> bool {
        self.is_core[q]
    }

    /// Number of Core qubits (the paper's `n`).
    pub fn num_core(&self) -> usize {
        self.core.len()
    }

    /// Number of Support qubits (the paper's `m`).
    pub fn num_support(&self) -> usize {
        self.is_core.len() - self.core.len()
    }

    /// Total number of data qubits.
    pub fn len(&self) -> usize {
        self.is_core.len()
    }

    /// Whether the partition covers zero qubits.
    pub fn is_empty(&self) -> bool {
        self.is_core.is_empty()
    }
}

impl SurfaceCode {
    /// Splits the code into Core and Support parts using `topology`.
    ///
    /// # Panics
    ///
    /// Panics if a [`CoreTopology::Custom`] set references a qubit outside
    /// the code; use [`Partition::from_core`] for fallible construction.
    pub fn core_partition(&self, topology: CoreTopology) -> Partition {
        let mid = self.side() / 2; // side is odd, this is the exact middle
        let core: Vec<usize> = match topology {
            CoreTopology::Cross => (0..self.num_data_qubits())
                .filter(|&q| {
                    let c = self.data_coord(q);
                    c.row == mid || c.col == mid
                })
                .collect(),
            CoreTopology::MiddleRow => (0..self.num_data_qubits())
                .filter(|&q| self.data_coord(q).row == mid)
                .collect(),
            CoreTopology::MiddleColumn => (0..self.num_data_qubits())
                .filter(|&q| self.data_coord(q).col == mid)
                .collect(),
            CoreTopology::Custom(core) => core,
        };
        Partition::from_core(self, core).expect("topology produced an out-of-range qubit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_core_size_is_2d_minus_1() {
        for d in [3usize, 5, 7, 9] {
            let code = SurfaceCode::new(d).unwrap();
            let part = code.core_partition(CoreTopology::Cross);
            assert_eq!(part.num_core(), 2 * d - 1);
            assert_eq!(part.num_support(), code.num_data_qubits() - (2 * d - 1));
        }
    }

    #[test]
    fn middle_row_and_column_have_d_qubits() {
        let code = SurfaceCode::new(7).unwrap();
        assert_eq!(code.core_partition(CoreTopology::MiddleRow).num_core(), 7);
        assert_eq!(
            code.core_partition(CoreTopology::MiddleColumn).num_core(),
            7
        );
    }

    #[test]
    fn cross_blocks_every_straight_axis() {
        // Every full-height column of data qubits and every full-width row
        // must contain at least one Core qubit: that is the property the
        // paper derives the Core from (one protected qubit per logical axis).
        let code = SurfaceCode::new(5).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let side = code.side();
        for col in (0..side).step_by(2) {
            let has_core = (0..side)
                .step_by(2)
                .filter_map(|row| code.data_qubit_at(crate::geometry::Coord::new(row, col)))
                .any(|q| part.is_core(q));
            assert!(has_core, "vertical axis col {col} unprotected");
        }
        for row in (0..side).step_by(2) {
            let has_core = (0..side)
                .step_by(2)
                .filter_map(|col| code.data_qubit_at(crate::geometry::Coord::new(row, col)))
                .any(|q| part.is_core(q));
            assert!(has_core, "horizontal axis row {row} unprotected");
        }
    }

    #[test]
    fn custom_partition_validates_indices() {
        let code = SurfaceCode::new(3).unwrap();
        assert!(Partition::from_core(&code, vec![0, 5, 12]).is_ok());
        assert!(Partition::from_core(&code, vec![13]).is_err());
    }

    #[test]
    fn custom_partition_dedups() {
        let code = SurfaceCode::new(3).unwrap();
        let p = Partition::from_core(&code, vec![3, 3, 1]).unwrap();
        assert_eq!(p.core(), &[1, 3]);
        assert_eq!(p.num_core(), 2);
    }

    #[test]
    fn support_is_complement_of_core() {
        let code = SurfaceCode::new(5).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let support = part.support();
        for q in 0..code.num_data_qubits() {
            assert_ne!(part.core().contains(&q), support.contains(&q));
        }
    }
}
