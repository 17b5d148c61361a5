//! The planar surface code: qubit indexing, stabilizers, and the two
//! decoding-graph edge maps.

use crate::geometry::{site_kind, Boundary, Coord, EdgeEnd, SiteKind};
use crate::LatticeError;

/// Marks an unoccupied board slot in [`CoordIndex`].
const EMPTY_SLOT: u32 = u32::MAX;

/// Dense coord → qubit-index map over the `(2d−1)²` board.
///
/// A flat array instead of a `HashMap<Coord, usize>`: O(1) lookups with no
/// hashing, a deterministic memory layout, and no iteration-order hazard
/// (the root `clippy.toml` bans hash maps in every crate).
#[derive(Debug, Clone)]
struct CoordIndex {
    side: usize,
    slots: Vec<u32>,
}

impl CoordIndex {
    /// Indexes `coords` by board position; every coord must fit the board.
    fn build(side: usize, coords: &[Coord]) -> CoordIndex {
        let mut slots = vec![EMPTY_SLOT; side * side];
        for (i, c) in coords.iter().enumerate() {
            slots[c.row * side + c.col] = i as u32;
        }
        CoordIndex { side, slots }
    }

    /// Dense index stored at `c`, if `c` is on the board and occupied.
    fn get(&self, c: Coord) -> Option<usize> {
        if c.row >= self.side || c.col >= self.side {
            return None;
        }
        match self.slots[c.row * self.side + c.col] {
            EMPTY_SLOT => None,
            i => Some(i as usize),
        }
    }
}

/// A distance-`d` unrotated planar surface code.
///
/// The code is laid out on a `(2d−1) × (2d−1)` checkerboard (see
/// [`crate::geometry`]). It stores dense indexings of its data and
/// measurement qubits plus, for every data qubit, the edge it realizes in
/// both decoding graphs:
///
/// * the **Z graph** (vertices = measure-Z qubits) whose edges carry X-type
///   error components, with virtual North/South boundary vertices, and
/// * the **X graph** (vertices = measure-X qubits) whose edges carry Z-type
///   error components, with virtual West/East boundary vertices.
///
/// # Examples
///
/// ```
/// use surfnet_lattice::SurfaceCode;
///
/// let code = SurfaceCode::new(3)?;
/// assert_eq!(code.num_data_qubits(), 13);
/// assert_eq!(code.num_measure_z(), 6);
/// assert_eq!(code.num_measure_x(), 6);
/// # Ok::<(), surfnet_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SurfaceCode {
    distance: usize,
    side: usize,
    data_coords: Vec<Coord>,
    measure_z_coords: Vec<Coord>,
    measure_x_coords: Vec<Coord>,
    data_index: CoordIndex,
    /// Data qubit supports of each Z stabilizer.
    z_stabilizers: Vec<Vec<usize>>,
    /// Data qubit supports of each X stabilizer.
    x_stabilizers: Vec<Vec<usize>>,
    /// Per data qubit: its edge in the Z (primal) decoding graph.
    z_edges: Vec<(EdgeEnd, EdgeEnd)>,
    /// Per data qubit: its edge in the X (dual) decoding graph.
    x_edges: Vec<(EdgeEnd, EdgeEnd)>,
    /// Data qubits of the minimum-weight logical X representative
    /// (X on the leftmost column, connecting North and South).
    logical_x_support: Vec<usize>,
    /// Data qubits of the minimum-weight logical Z representative
    /// (Z on the top row, connecting West and East).
    logical_z_support: Vec<usize>,
}

impl SurfaceCode {
    /// Builds a distance-`d` planar surface code.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidDistance`] unless `d` is odd and at
    /// least 3 — the configurations used throughout the paper (distances 3,
    /// 9, 11, 13, 15).
    pub fn new(distance: usize) -> Result<SurfaceCode, LatticeError> {
        if distance < 3 || distance.is_multiple_of(2) {
            return Err(LatticeError::InvalidDistance(distance));
        }
        let side = 2 * distance - 1;

        let mut data_coords = Vec::new();
        let mut measure_z_coords = Vec::new();
        let mut measure_x_coords = Vec::new();
        for row in 0..side {
            for col in 0..side {
                let c = Coord::new(row, col);
                match site_kind(c) {
                    SiteKind::Data => data_coords.push(c),
                    SiteKind::MeasureZ => measure_z_coords.push(c),
                    SiteKind::MeasureX => measure_x_coords.push(c),
                }
            }
        }
        let data_index = CoordIndex::build(side, &data_coords);
        let measure_z_index = CoordIndex::build(side, &measure_z_coords);
        let measure_x_index = CoordIndex::build(side, &measure_x_coords);

        let z_stabilizers = measure_z_coords
            .iter()
            .map(|c| {
                c.neighbors(side)
                    .filter_map(|n| data_index.get(n))
                    .collect()
            })
            .collect();
        let x_stabilizers = measure_x_coords
            .iter()
            .map(|c| {
                c.neighbors(side)
                    .filter_map(|n| data_index.get(n))
                    .collect()
            })
            .collect();

        // Decoding-graph edges. A data qubit at even parity (even row, even
        // col) is a *vertical* edge of the Z graph and a *horizontal* edge of
        // the X graph; a data qubit at odd parity (odd row, odd col) is a
        // horizontal edge of the Z graph and a vertical edge of the X graph.
        let mut z_edges = Vec::with_capacity(data_coords.len());
        let mut x_edges = Vec::with_capacity(data_coords.len());
        // Interior neighbors of a data qubit are measure qubits by the
        // checkerboard construction, so these lookups cannot miss.
        let mz = |row: usize, col: usize| {
            measure_z_index
                .get(Coord::new(row, col))
                .expect("interior neighbor holds a measure-Z qubit")
        };
        let mx = |row: usize, col: usize| {
            measure_x_index
                .get(Coord::new(row, col))
                .expect("interior neighbor holds a measure-X qubit")
        };
        for &c in &data_coords {
            let Coord { row, col } = c;
            if row % 2 == 0 {
                // (even, even) data qubit.
                let up = if row == 0 {
                    EdgeEnd::Boundary(Boundary::North)
                } else {
                    EdgeEnd::Check(mz(row - 1, col))
                };
                let down = if row == side - 1 {
                    EdgeEnd::Boundary(Boundary::South)
                } else {
                    EdgeEnd::Check(mz(row + 1, col))
                };
                z_edges.push((up, down));
                let left = if col == 0 {
                    EdgeEnd::Boundary(Boundary::West)
                } else {
                    EdgeEnd::Check(mx(row, col - 1))
                };
                let right = if col == side - 1 {
                    EdgeEnd::Boundary(Boundary::East)
                } else {
                    EdgeEnd::Check(mx(row, col + 1))
                };
                x_edges.push((left, right));
            } else {
                // (odd, odd) data qubit: interior in both graphs.
                let left = EdgeEnd::Check(mz(row, col - 1));
                let right = EdgeEnd::Check(mz(row, col + 1));
                z_edges.push((left, right));
                let up = EdgeEnd::Check(mx(row - 1, col));
                let down = EdgeEnd::Check(mx(row + 1, col));
                x_edges.push((up, down));
            }
        }

        let logical_x_support = data_coords
            .iter()
            .enumerate()
            .filter(|(_, c)| c.col == 0)
            .map(|(i, _)| i)
            .collect();
        let logical_z_support = data_coords
            .iter()
            .enumerate()
            .filter(|(_, c)| c.row == 0)
            .map(|(i, _)| i)
            .collect();

        Ok(SurfaceCode {
            distance,
            side,
            data_coords,
            measure_z_coords,
            measure_x_coords,
            data_index,
            z_stabilizers,
            x_stabilizers,
            z_edges,
            x_edges,
            logical_x_support,
            logical_z_support,
        })
    }

    /// The code distance `d`: the minimum number of data qubits in a logical
    /// operator.
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// Side length of the board, `2d − 1`.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of data qubits, `d² + (d−1)²`.
    pub fn num_data_qubits(&self) -> usize {
        self.data_coords.len()
    }

    /// Number of measure-Z qubits, `d(d−1)`.
    pub fn num_measure_z(&self) -> usize {
        self.measure_z_coords.len()
    }

    /// Number of measure-X qubits, `d(d−1)`.
    pub fn num_measure_x(&self) -> usize {
        self.measure_x_coords.len()
    }

    /// Board coordinate of data qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_data_qubits()`.
    pub fn data_coord(&self, q: usize) -> Coord {
        self.data_coords[q]
    }

    /// Dense index of the data qubit at `c`, if `c` holds one.
    pub fn data_qubit_at(&self, c: Coord) -> Option<usize> {
        self.data_index.get(c)
    }

    /// Board coordinate of measure-Z qubit `i`.
    pub fn measure_z_coord(&self, i: usize) -> Coord {
        self.measure_z_coords[i]
    }

    /// Data-qubit support of Z stabilizer `i` (2 to 4 qubits).
    pub fn z_stabilizer(&self, i: usize) -> &[usize] {
        &self.z_stabilizers[i]
    }

    /// Data-qubit support of X stabilizer `i` (2 to 4 qubits).
    pub fn x_stabilizer(&self, i: usize) -> &[usize] {
        &self.x_stabilizers[i]
    }

    /// Iterates over all Z stabilizer supports.
    pub fn z_stabilizers(&self) -> impl Iterator<Item = &[usize]> {
        self.z_stabilizers.iter().map(Vec::as_slice)
    }

    /// Iterates over all X stabilizer supports.
    pub fn x_stabilizers(&self) -> impl Iterator<Item = &[usize]> {
        self.x_stabilizers.iter().map(Vec::as_slice)
    }

    /// The edge data qubit `q` realizes in the Z (primal) decoding graph,
    /// whose vertices are measure-Z qubits and whose boundaries are
    /// North/South.
    pub fn z_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd) {
        self.z_edges[q]
    }

    /// The edge data qubit `q` realizes in the X (dual) decoding graph,
    /// whose vertices are measure-X qubits and whose boundaries are
    /// West/East.
    pub fn x_edge(&self, q: usize) -> (EdgeEnd, EdgeEnd) {
        self.x_edges[q]
    }

    /// Support of the minimum-weight logical X operator: the `d` data qubits
    /// of the leftmost column, connecting the North and South boundaries.
    pub fn logical_x_support(&self) -> &[usize] {
        &self.logical_x_support
    }

    /// Support of the minimum-weight logical Z operator: the `d` data qubits
    /// of the top row, connecting the West and East boundaries.
    pub fn logical_z_support(&self) -> &[usize] {
        &self.logical_z_support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pauli::{Pauli, PauliString};

    #[test]
    fn qubit_counts_match_formulas() {
        for d in [3usize, 5, 7, 9, 11] {
            let code = SurfaceCode::new(d).unwrap();
            assert_eq!(code.num_data_qubits(), d * d + (d - 1) * (d - 1));
            assert_eq!(code.num_measure_z(), d * (d - 1));
            assert_eq!(code.num_measure_x(), d * (d - 1));
        }
    }

    #[test]
    fn rejects_invalid_distances() {
        assert!(SurfaceCode::new(0).is_err());
        assert!(SurfaceCode::new(1).is_err());
        assert!(SurfaceCode::new(2).is_err());
        assert!(SurfaceCode::new(4).is_err());
        assert!(SurfaceCode::new(3).is_ok());
    }

    #[test]
    fn stabilizer_supports_have_valid_sizes() {
        let code = SurfaceCode::new(5).unwrap();
        for s in code.z_stabilizers() {
            assert!((2..=4).contains(&s.len()));
        }
        for s in code.x_stabilizers() {
            assert!((2..=4).contains(&s.len()));
        }
    }

    #[test]
    fn stabilizers_commute_pairwise() {
        // Every Z stabilizer must commute with every X stabilizer: they
        // overlap on an even number of data qubits.
        let code = SurfaceCode::new(5).unwrap();
        let n = code.num_data_qubits();
        for zi in 0..code.num_measure_z() {
            let z = PauliString::from_support(n, code.z_stabilizer(zi), Pauli::Z);
            for xi in 0..code.num_measure_x() {
                assert!(
                    !z.anticommutes_on(code.x_stabilizer(xi), Pauli::X),
                    "Z stab {zi} anticommutes with X stab {xi}"
                );
            }
        }
    }

    #[test]
    fn logical_operators_have_weight_d_and_commute_with_stabilizers() {
        for d in [3usize, 5, 7] {
            let code = SurfaceCode::new(d).unwrap();
            assert_eq!(code.logical_x_support().len(), d);
            assert_eq!(code.logical_z_support().len(), d);
            let n = code.num_data_qubits();
            let lx = PauliString::from_support(n, code.logical_x_support(), Pauli::X);
            let lz = PauliString::from_support(n, code.logical_z_support(), Pauli::Z);
            for s in code.z_stabilizers() {
                assert!(!lx.anticommutes_on(s, Pauli::Z));
            }
            for s in code.x_stabilizers() {
                assert!(!lz.anticommutes_on(s, Pauli::X));
            }
            // The two logical operators anticommute with each other: they
            // share exactly the corner qubit (0, 0).
            let shared: Vec<_> = code
                .logical_x_support()
                .iter()
                .filter(|q| code.logical_z_support().contains(q))
                .collect();
            assert_eq!(shared.len(), 1);
        }
    }

    #[test]
    fn every_data_qubit_is_an_edge_in_both_graphs() {
        let code = SurfaceCode::new(5).unwrap();
        for q in 0..code.num_data_qubits() {
            let (a, b) = code.z_edge(q);
            assert!(!(a.is_boundary() && b.is_boundary()));
            let (a, b) = code.x_edge(q);
            assert!(!(a.is_boundary() && b.is_boundary()));
        }
    }

    #[test]
    fn z_edges_match_stabilizer_membership() {
        let code = SurfaceCode::new(7).unwrap();
        for q in 0..code.num_data_qubits() {
            let (a, b) = code.z_edge(q);
            for end in [a, b] {
                if let EdgeEnd::Check(i) = end {
                    assert!(
                        code.z_stabilizer(i).contains(&q),
                        "qubit {q} not in Z stabilizer {i} it claims to touch"
                    );
                }
            }
            let (a, b) = code.x_edge(q);
            for end in [a, b] {
                if let EdgeEnd::Check(i) = end {
                    assert!(code.x_stabilizer(i).contains(&q));
                }
            }
        }
    }

    #[test]
    fn boundary_edges_only_on_board_rim() {
        let code = SurfaceCode::new(5).unwrap();
        for q in 0..code.num_data_qubits() {
            let c = code.data_coord(q);
            let (a, b) = code.z_edge(q);
            let z_boundary = a.is_boundary() || b.is_boundary();
            assert_eq!(z_boundary, c.row == 0 || c.row == code.side() - 1);
            let (a, b) = code.x_edge(q);
            let x_boundary = a.is_boundary() || b.is_boundary();
            assert_eq!(x_boundary, c.col == 0 || c.col == code.side() - 1);
        }
    }
}
