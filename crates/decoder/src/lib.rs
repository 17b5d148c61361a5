//! Surface-code decoders for the SurfNet reproduction.
//!
//! Three complete decoders, all built from scratch:
//!
//! * [`MwpmDecoder`] — the paper's Algorithm 1: decoding graph → path graph
//!   over syndromes via Dijkstra shortest paths → minimum-weight perfect
//!   matching with a from-scratch [blossom] implementation,
//!   including virtual-node boundary handling.
//! * [`UnionFindDecoder`] — the baseline of the paper's Fig. 8: the
//!   almost-linear-time Union-Find decoder (Delfosse–Nickerson \[32\]) with
//!   erased edges pre-seeding clusters, finished by the peeling decoder
//!   (Delfosse–Zémor \[39\]).
//! * [`SurfNetDecoder`] — the paper's Algorithm 2: cluster growth at
//!   per-edge speed `−r / ln(1 − ρᵢ)` so that erasures (`ρ = 0.5`) grow
//!   fastest and the Support part grows faster than the Core part,
//!   followed by peeling.
//!
//! Shared infrastructure: weighted [`DecodingGraph`]s built from a
//! [`surfnet_lattice::SurfaceCode`] + [`surfnet_lattice::ErrorModel`], the
//! fidelity-to-weight conversion of Sec. IV-C ([`weights`]), Dijkstra
//! ([`dijkstra`]), disjoint sets ([`union_find`]), cluster growth
//! ([`cluster`]) and peeling ([`peeling`]).
//!
//! # Examples
//!
//! Compare the three decoders on one noisy sample:
//!
//! ```
//! use surfnet_decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
//! use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};
//! use rand::SeedableRng;
//!
//! let code = SurfaceCode::new(9)?;
//! let part = code.core_partition(CoreTopology::Cross);
//! let model = ErrorModel::dual_channel(&code, &part, 0.06, 0.15);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
//! let sample = model.sample(&mut rng);
//!
//! for decoder in [
//!     &MwpmDecoder::from_model(&code, &model) as &dyn Decoder,
//!     &UnionFindDecoder::from_model(&code, &model),
//!     &SurfNetDecoder::from_model(&code, &model),
//! ] {
//!     let outcome = decoder.decode_sample(&code, &sample);
//!     assert!(outcome.syndrome_cleared);
//! }
//! # Ok::<(), surfnet_lattice::LatticeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blossom;
pub mod check;
pub mod cluster;
pub mod decoder;
pub mod dijkstra;
pub mod graph;
pub mod mwpm;
pub mod peeling;
pub mod union_find;
pub mod weights;
pub mod workspace;

pub use decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
pub use graph::{DecodingGraph, GraphEdge, GraphKind};
pub use union_find::UnionFind;
pub use workspace::DecodeWorkspace;

use std::error::Error;
use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecoderError {
    /// Syndromes could not all be paired (odd parity with no boundary, or
    /// a disconnected defect).
    UnpairableSyndromes,
    /// Cluster growth made no progress (all frontier speeds zero).
    GrowthStalled,
}

impl fmt::Display for DecoderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderError::UnpairableSyndromes => {
                write!(f, "syndromes cannot be paired or flushed to a boundary")
            }
            DecoderError::GrowthStalled => {
                write!(f, "cluster growth stalled before all clusters became even")
            }
        }
    }
}

impl Error for DecoderError {}
