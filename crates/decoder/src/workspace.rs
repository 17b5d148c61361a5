//! Reusable per-shot decoding buffers.
//!
//! Constructing a decoder fixes the decoding graphs; decoding a shot then
//! needs a pile of transient buffers (cluster bookkeeping, Dijkstra
//! heaps, peeling visit orders, blossom edge lists, the extracted
//! syndrome, the assembled correction). A [`DecodeWorkspace`] owns all of
//! them so a hot loop allocates on the first shot only — every later shot
//! clears and refills the same memory. The workspace is decoder-agnostic:
//! one instance serves MWPM, Union-Find, and SurfNet decodes
//! interchangeably, on any graph size.
//!
//! The [`crate::Decoder`] trait requires `correction_for_with`, which
//! decodes inside a workspace, and provides `decode_sample_with` over it.
//! Its allocating `decode` and `decode_sample` run the same kernels on a
//! fresh workspace, so both give bit-identical results — only the buffer
//! lifetimes differ.

use crate::cluster::ClusterScratch;
use crate::mwpm::MatchScratch;
use crate::peeling::PeelScratch;
use surfnet_lattice::{PauliString, Syndrome};

/// All scratch memory one decode needs, reusable across shots, graphs,
/// and decoder kinds.
#[derive(Debug, Default)]
pub struct DecodeWorkspace {
    /// Cluster-growth buffers (Union-Find / SurfNet decoders).
    pub(crate) cluster: ClusterScratch,
    /// Peeling-decoder buffers.
    pub(crate) peel: PeelScratch,
    /// MWPM buffers (shortest-path trees, path graph, blossom edges).
    pub(crate) mwpm: MatchScratch,
    /// Defect vertex indices of the graph currently being decoded.
    pub(crate) defects: Vec<usize>,
    /// Primal-graph correction edges (X fixes).
    pub(crate) x_fix: Vec<usize>,
    /// Dual-graph correction edges (Z fixes).
    pub(crate) z_fix: Vec<usize>,
    /// Extracted syndrome of the current sample.
    pub(crate) syndrome: Syndrome,
    /// The assembled Pauli correction of the last decode.
    pub(crate) correction: PauliString,
}

impl DecodeWorkspace {
    /// An empty workspace; buffers are sized lazily by the first decode.
    pub fn new() -> DecodeWorkspace {
        DecodeWorkspace::default()
    }
}
