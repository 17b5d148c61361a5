//! The SurfNet routing protocol and its baselines.
//!
//! * [`formulation`] — the integer program of paper Sec. V-A (Eqs. 1–6) as
//!   an LP relaxation: maximize scheduled communications subject to
//!   initialization/termination, conservation + server coupling, capacity,
//!   entanglement, and the two per-code noise constraints.
//! * [`scheduler`] — [`SurfNetScheduler`] (LP + rounding + capacity-aware
//!   path assignment with greedy error-correction placement) and
//!   [`RawScheduler`] (the paper's plain-channel baseline with a capacity
//!   bonus).
//! * [`purification`] — the mainstream teleportation baselines
//!   (Purification N = 1, 2, 9).
//! * [`noise`] — the noise accounting of Sec. V-A, including the worked
//!   example reproduced as a unit test.
//!
//! # Examples
//!
//! ```
//! use surfnet_routing::{RoutingParams, SurfNetScheduler};
//! use surfnet_netsim::generate::{barabasi_albert, NetworkConfig};
//! use surfnet_netsim::request::random_requests;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
//! let net = barabasi_albert(&NetworkConfig::default(), &mut rng)?;
//! let requests = random_requests(&net, 4, 3, &mut rng);
//! let mut params = RoutingParams::paper_example();
//! params.omega = 0.05;
//! let schedule = SurfNetScheduler::new(params).schedule(&net, &requests)?;
//! println!("throughput: {:.2}", schedule.throughput());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formulation;
pub mod noise;
pub mod params;
pub mod purification;
pub mod schedule;
pub mod scheduler;

pub use params::RoutingParams;
pub use purification::{PurificationSchedule, PurificationScheduler};
pub use schedule::{ChannelMode, Residual, Schedule, ScheduledCode};
pub use scheduler::{RawScheduler, SurfNetScheduler};

use std::error::Error;
use std::fmt;

/// Errors from routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// Routing parameters were inconsistent (zero part sizes, negative ω,
    /// non-positive thresholds).
    InvalidParams,
    /// The LP relaxation failed to solve.
    Lp(surfnet_lp::LpError),
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::InvalidParams => write!(f, "invalid routing parameters"),
            RoutingError::Lp(e) => write!(f, "routing LP failed: {e}"),
        }
    }
}

impl Error for RoutingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RoutingError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<surfnet_lp::LpError> for RoutingError {
    fn from(e: surfnet_lp::LpError) -> RoutingError {
        RoutingError::Lp(e)
    }
}
