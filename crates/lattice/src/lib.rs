//! Surface-code substrate for the SurfNet reproduction.
//!
//! This crate implements everything the paper's Sections III–IV need from
//! the quantum-error-correction side, from scratch:
//!
//! * [`Pauli`] / [`PauliString`] — phase-free Pauli algebra;
//! * [`SurfaceCode`] — the unrotated planar surface code on a
//!   `(2d−1)×(2d−1)` checkerboard (paper Fig. 2), with stabilizer supports,
//!   logical operators, and per-data-qubit decoding-graph edges;
//! * [`Partition`] / [`CoreTopology`] — the Core/Support split that SurfNet
//!   transfers over its two channels;
//! * [`ErrorModel`] / [`ErrorSample`] — per-qubit Pauli + erasure error
//!   models (measurements are perfect, per the paper);
//! * [`Syndrome`] extraction and [`DecodeOutcome`] scoring, including
//!   logical-failure detection.
//!
//! # Examples
//!
//! Sample a noisy distance-9 code and check a (here: perfect) correction:
//!
//! ```
//! use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};
//! use rand::SeedableRng;
//!
//! let code = SurfaceCode::new(9)?;
//! let partition = code.core_partition(CoreTopology::Cross);
//! let model = ErrorModel::dual_channel(&code, &partition, 0.06, 0.15);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let sample = model.sample(&mut rng);
//! let syndrome = code.extract_syndrome(&sample.pauli);
//! let outcome = code.score_correction(&sample.pauli, &sample.pauli);
//! assert!(outcome.is_success());
//! # let _ = syndrome;
//! # Ok::<(), surfnet_lattice::LatticeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod error_model;
pub mod geometry;
pub mod logical;
pub mod partition;
pub mod pauli;
pub mod syndrome;

pub use code::SurfaceCode;
pub use error_model::{ErrorModel, ErrorSample};
pub use geometry::{Boundary, Coord, EdgeEnd, SiteKind};
pub use logical::{DecodeOutcome, LogicalFailure};
pub use partition::{CoreTopology, Partition};
pub use pauli::{Pauli, PauliString};
pub use syndrome::Syndrome;

use std::error::Error;
use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LatticeError {
    /// The requested code distance is unsupported (must be odd and ≥ 3).
    InvalidDistance(usize),
    /// A qubit index exceeded the number of data qubits.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// The number of data qubits in the code.
        len: usize,
    },
    /// A per-qubit vector did not have one entry per data qubit.
    LengthMismatch {
        /// Required length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// A probability or fidelity fell outside `[0, 1]`.
    InvalidProbability(f64),
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::InvalidDistance(d) => {
                write!(f, "invalid code distance {d}: must be odd and at least 3")
            }
            LatticeError::QubitOutOfRange { qubit, len } => {
                write!(
                    f,
                    "data qubit index {qubit} out of range for code with {len} qubits"
                )
            }
            LatticeError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "expected one entry per data qubit ({expected}), got {got}"
                )
            }
            LatticeError::InvalidProbability(p) => {
                write!(f, "probability {p} outside [0, 1]")
            }
        }
    }
}

impl Error for LatticeError {}
