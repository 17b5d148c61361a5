//! Quantum network substrate for the SurfNet reproduction.
//!
//! Everything the paper's network layer needs, built from scratch:
//!
//! * [`Network`] — users / switches / servers joined by dual-channel
//!   optical fibers with per-fiber fidelity `γ`, entanglement budget `η_e`,
//!   and photon-loss probability (Sec. IV-A);
//! * [`generate::barabasi_albert`] — the evaluation's random topologies:
//!   Barabási–Albert graphs whose most connected nodes become servers and
//!   switches (Sec. VI-B);
//! * [`entanglement`] — the fidelity of swapped pairs, the purification
//!   recurrence of \[11\], and SurfNet's Core-segment fidelity;
//! * [`execution`] — the tick-based online execution engine (Sec. V-B):
//!   Support photons over plain channels, Core qubits over the
//!   entanglement channel with opportunistic forwarding (minimum segment
//!   of two fibers), local recovery paths around failed fibers, and
//!   hop-by-hop teleportation for the Purification-N baselines;
//! * [`event`] — the streaming discrete-event engine: an indexed
//!   binary-heap event queue, open Poisson / trace-driven arrivals,
//!   per-link batched (geometric) entanglement sampling, and admission
//!   control with backpressure against relay memory and fiber pools;
//! * [`request`] — communication requests `k = [(s_k, d_k), i_k]`.
//!
//! # Examples
//!
//! Generate a network and execute one dual-channel transfer:
//!
//! ```
//! use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
//! use surfnet_netsim::execution::{execute_plan, ExecutionConfig, PlannedSegment, TransferPlan};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let net = barabasi_albert(&NetworkConfig::default(), &mut rng)?;
//! let users = net.users();
//! let route = net.min_noise_path(users[0], users[1]).expect("connected");
//! let plan = TransferPlan {
//!     src: users[0],
//!     dst: users[1],
//!     segments: vec![PlannedSegment {
//!         core_route: Some(route.clone()),
//!         support_route: route,
//!         correct_at_end: false,
//!     }],
//! };
//! let outcome = execute_plan(&net, &plan, &ExecutionConfig::default(), &mut rng);
//! assert!(outcome.completed);
//! # Ok::<(), surfnet_netsim::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod check;
pub mod concurrent;
pub mod entanglement;
pub mod event;
pub mod execution;
pub mod generate;
pub mod request;
pub mod topology;

pub use execution::{
    ExecutionConfig, ExecutionOutcome, PlannedSegment, SegmentOutcome, TransferPlan,
};
pub use generate::NetworkConfig;
pub use request::Request;
pub use topology::{Fiber, FiberId, Network, Node, NodeId, NodeKind, RouteSearch};

use std::error::Error;
use std::fmt;

/// Errors from network construction and generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A fiber was invalid: self-loop, unknown endpoint, or out-of-range
    /// fidelity/loss.
    InvalidFiber,
    /// A [`generate::NetworkConfig`] was internally inconsistent.
    InvalidConfig,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidFiber => write!(f, "invalid fiber specification"),
            NetError::InvalidConfig => write!(f, "invalid network generation config"),
        }
    }
}

impl Error for NetError {}
