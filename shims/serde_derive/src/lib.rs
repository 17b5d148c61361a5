//! Offline stand-in for `serde_derive`.
//!
//! The workspace only uses `#[derive(Serialize, Deserialize)]` as forward
//! declaration — nothing is actually serialized — so these derives accept
//! the syntax (including `#[serde(...)]` helper attributes) and expand to
//! nothing. If real serialization is ever needed the shim must be replaced
//! by the real crate (or the derives taught to emit impls).

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use proc_macro::TokenStream;

/// No-op `Serialize` derive.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
