//! Offline stand-in for `serde`.
//!
//! The workspace derives `Serialize`/`Deserialize` on its data types but
//! never serializes anything (there is no serde_json or bincode in the
//! tree), so marker traits plus no-op derives are sufficient. The names and
//! import paths match the real crate so sources compile unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize<'de>`.
pub trait Deserialize<'de>: Sized {}

/// Marker trait standing in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
