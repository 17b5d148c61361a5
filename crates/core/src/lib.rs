//! SurfNet end-to-end system: the paper's network design wired together.
//!
//! This crate composes the substrates into the system the paper evaluates:
//!
//! * [`scenario`] — the evaluation scenarios (facility levels × connection
//!   quality) and per-trial configuration;
//! * [`pipeline`] — one trial: generate a Barabási–Albert network, draw
//!   requests, schedule under a [`Design`] (SurfNet / Raw /
//!   Purification-N), execute online, and score the three metrics;
//! * [`evaluate`] — sampling and decoding the transferred surface codes
//!   from the execution records;
//! * [`metrics`] — fidelity / latency / throughput aggregation;
//! * [`experiments`] — the runs behind Figs. 6(a), 6(b.1–4), 7, 8, plus
//!   the streaming scenario ([`experiments::stream`]: open Poisson
//!   arrivals through the discrete-event engine);
//! * [`report`] — terminal tables and series renderings.
//!
//! # Examples
//!
//! One SurfNet trial end to end:
//!
//! ```
//! use surfnet_core::pipeline::{run_trial, Design};
//! use surfnet_core::scenario::TrialConfig;
//!
//! let metrics = run_trial(Design::SurfNet, &TrialConfig::default(), 1)?;
//! assert!(metrics.fidelity >= 0.0 && metrics.fidelity <= 1.0);
//! # Ok::<(), surfnet_core::pipeline::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod evaluate;
pub mod experiments;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod scenario;

pub use evaluate::DecoderKind;
pub use metrics::{MetricsSummary, TrialMetrics};
pub use pipeline::{run_trial, Design, PipelineError};
pub use scenario::{ConnectionQuality, FacilityLevel, Scenario, TrialConfig};
