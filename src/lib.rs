//! # SurfNet
//!
//! A from-scratch Rust reproduction of *"Quantum Network Routing Based on
//! Surface Code Error Correction"* (Hu, Wu & Li — IEEE ICDCS 2024).
//!
//! SurfNet is a quantum network that encodes messages into planar surface
//! codes and transfers each code over **two parallel channels** per optical
//! fiber: the *Core* data qubits travel over an entanglement-based channel
//! (teleportation with purification) while the *Support* data qubits travel
//! as photons over a plain channel. Servers along the route run surface-code
//! error correction, and a routing protocol — an integer program relaxed to a
//! linear program with rounding — schedules communications to maximize
//! throughput subject to capacity, entanglement and noise constraints.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`lattice`] — Pauli algebra, planar surface code geometry, stabilizers,
//!   Core/Support partition, Pauli + erasure error models, syndrome
//!   extraction and logical-failure detection.
//! * [`decoder`] — the three decoders: modified MWPM (Algorithm 1, with a
//!   from-scratch blossom matcher), the Union-Find + peeling baseline, and
//!   the weighted-growth SurfNet decoder (Algorithm 2).
//! * [`lp`] — a two-phase simplex solver with sparse pivot updates.
//! * [`netsim`] — network topology, Barabási–Albert generation, entanglement
//!   generation/swapping/purification, and discrete-event online execution.
//! * [`routing`] — the IP formulation (Eqs. 1–6), LP relaxation + rounding,
//!   flow decomposition, and the Raw / Purification-N baselines.
//! * [`core`] — the end-to-end pipeline, scenario generation, metrics, and
//!   drivers for every evaluation figure of the paper.
//!
//! ## Quickstart
//!
//! Decode one noisy distance-9 surface code with the SurfNet decoder:
//!
//! ```rust
//! use surfnet::lattice::{SurfaceCode, CoreTopology, ErrorModel};
//! use surfnet::decoder::{Decoder, SurfNetDecoder};
//! use rand::SeedableRng;
//!
//! let code = SurfaceCode::new(9)?;
//! let partition = code.core_partition(CoreTopology::Cross);
//! let model = ErrorModel::dual_channel(&code, &partition, 0.06, 0.15);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let sample = model.sample(&mut rng);
//! let decoder = SurfNetDecoder::from_model(&code, &model);
//! let outcome = decoder.decode_sample(&code, &sample);
//! println!("logical failure: {}", outcome.logical_failure.any());
//! # Ok::<(), surfnet::lattice::LatticeError>(())
//! ```
//!
//! See `examples/` for end-to-end network scenarios and `crates/bench` for
//! the binaries that regenerate the paper's tables and figures.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use surfnet_core as core;
pub use surfnet_decoder as decoder;
pub use surfnet_lattice as lattice;
pub use surfnet_lp as lp;
pub use surfnet_netsim as netsim;
pub use surfnet_routing as routing;
