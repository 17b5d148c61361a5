//! Checkerboard geometry of the unrotated planar surface code.
//!
//! A distance-`d` planar surface code lives on a `(2d−1) × (2d−1)` board
//! (paper Fig. 2a). Sites with even coordinate parity hold **data qubits**;
//! sites with odd parity hold **measurement qubits** — measure-Z on odd rows
//! (even columns) and measure-X on even rows (odd columns). The top and
//! bottom board edges are the rough boundaries crossed by logical X chains;
//! the left and right edges are the smooth boundaries crossed by logical Z
//! chains.

use std::fmt;

/// A site on the `(2d−1) × (2d−1)` board.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Row index, `0 ..= 2d-2`, increasing downward.
    pub row: usize,
    /// Column index, `0 ..= 2d-2`, increasing rightward.
    pub col: usize,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(row: usize, col: usize) -> Coord {
        Coord { row, col }
    }

    /// The four lattice neighbors that fall inside a board of side `side`.
    pub fn neighbors(self, side: usize) -> impl Iterator<Item = Coord> {
        let Coord { row, col } = self;
        [
            (row.checked_sub(1), Some(col)),
            (Some(row + 1), Some(col)),
            (Some(row), col.checked_sub(1)),
            (Some(row), Some(col + 1)),
        ]
        .into_iter()
        .filter_map(move |(r, c)| match (r, c) {
            (Some(r), Some(c)) if r < side && c < side => Some(Coord::new(r, c)),
            _ => None,
        })
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// The role a board site plays in the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// Holds a data qubit (even coordinate parity).
    Data,
    /// Holds a measure-Z (plaquette) qubit: odd row, even column.
    MeasureZ,
    /// Holds a measure-X (star) qubit: even row, odd column.
    MeasureX,
}

/// Classifies a site of the board.
///
/// # Examples
///
/// ```
/// use surfnet_lattice::geometry::{site_kind, Coord, SiteKind};
/// assert_eq!(site_kind(Coord::new(0, 0)), SiteKind::Data);
/// assert_eq!(site_kind(Coord::new(1, 0)), SiteKind::MeasureZ);
/// assert_eq!(site_kind(Coord::new(0, 1)), SiteKind::MeasureX);
/// ```
pub fn site_kind(c: Coord) -> SiteKind {
    match (c.row % 2, c.col % 2) {
        (0, 0) | (1, 1) => SiteKind::Data,
        (1, 0) => SiteKind::MeasureZ,
        (0, 1) => SiteKind::MeasureX,
        _ => unreachable!("row/col parity is exhaustive"),
    }
}

/// Which boundary, if any, a decoding-graph edge attaches to.
///
/// The planar code has two inequivalent boundary pairs: logical X chains
/// terminate on [`Boundary::North`]/[`Boundary::South`] in the measure-Z
/// (primal) graph, and logical Z chains terminate on
/// [`Boundary::West`]/[`Boundary::East`] in the measure-X (dual) graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// Top board edge (row 0).
    North,
    /// Bottom board edge (row 2d−2).
    South,
    /// Left board edge (column 0).
    West,
    /// Right board edge (column 2d−2).
    East,
}

/// One endpoint of a decoding-graph edge: either a concrete measurement
/// qubit (by index into the code's measure-Z or measure-X list) or a virtual
/// boundary vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeEnd {
    /// A measurement qubit, indexed within its own kind.
    Check(usize),
    /// A virtual boundary vertex.
    Boundary(Boundary),
}

impl EdgeEnd {
    /// Returns the check index if this endpoint is a measurement qubit.
    pub fn check(self) -> Option<usize> {
        match self {
            EdgeEnd::Check(i) => Some(i),
            EdgeEnd::Boundary(_) => None,
        }
    }

    /// Whether this endpoint is a virtual boundary vertex.
    pub fn is_boundary(self) -> bool {
        matches!(self, EdgeEnd::Boundary(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_classification_covers_board() {
        let side = 5; // distance 3
        let mut data = 0;
        let mut mz = 0;
        let mut mx = 0;
        for row in 0..side {
            for col in 0..side {
                match site_kind(Coord::new(row, col)) {
                    SiteKind::Data => data += 1,
                    SiteKind::MeasureZ => mz += 1,
                    SiteKind::MeasureX => mx += 1,
                }
            }
        }
        // d^2 + (d-1)^2 data qubits; d(d-1) of each measurement kind.
        assert_eq!(data, 13);
        assert_eq!(mz, 6);
        assert_eq!(mx, 6);
    }

    #[test]
    fn data_qubit_neighbors_are_measurement_qubits() {
        let side = 9; // distance 5
        for row in 0..side {
            for col in 0..side {
                let c = Coord::new(row, col);
                if site_kind(c) != SiteKind::Data {
                    continue;
                }
                let mut mz = 0;
                let mut mx = 0;
                for n in c.neighbors(side) {
                    match site_kind(n) {
                        SiteKind::Data => panic!("data qubit adjacent to data qubit at {n}"),
                        SiteKind::MeasureZ => mz += 1,
                        SiteKind::MeasureX => mx += 1,
                    }
                }
                // Interior data qubits touch 2 measure-Z and 2 measure-X
                // qubits; boundary qubits touch fewer (paper Sec. III-B).
                assert!(mz <= 2 && mx <= 2, "{c}: mz={mz} mx={mx}");
                assert!(mz + mx >= 2, "{c} has too few checks");
            }
        }
    }

    #[test]
    fn interior_measure_qubits_touch_four_data_qubits() {
        let side = 7; // distance 4 board would be 7x7; use it purely geometrically
        for row in 0..side {
            for col in 0..side {
                let c = Coord::new(row, col);
                if site_kind(c) == SiteKind::Data {
                    continue;
                }
                for n in c.neighbors(side) {
                    assert_eq!(site_kind(n), SiteKind::Data);
                }
            }
        }
    }

    #[test]
    fn neighbors_respect_board_bounds() {
        let corner = Coord::new(0, 0);
        let n: Vec<_> = corner.neighbors(5).collect();
        assert_eq!(n, vec![Coord::new(1, 0), Coord::new(0, 1)]);
        let edge = Coord::new(4, 2);
        assert_eq!(edge.neighbors(5).count(), 3);
        let interior = Coord::new(2, 2);
        assert_eq!(interior.neighbors(5).count(), 4);
    }
}
