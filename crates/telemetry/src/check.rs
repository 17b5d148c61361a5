//! The `SURFNET_CHECK=1` invariant-checker harness shared by
//! `surfnet_decoder::check`, `surfnet_lp::check` and the netsim route
//! checker, which re-export it. [`crate::envreg::check_enabled`] parses
//! the knob.

use std::fmt;

/// Whether runtime invariant checking is on: [`crate::envreg::check_enabled`],
/// in debug builds only.
#[cfg(debug_assertions)]
pub fn enabled() -> bool {
    crate::envreg::check_enabled()
}

/// Release builds: checking compiles to `false`, and the guarded blocks
/// fold away.
#[cfg(not(debug_assertions))]
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// A broken invariant, described precisely enough to debug from the
/// panic message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// What held wrong, where.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violation: {}", self.message)
    }
}

/// Panics with the violation if `result` is an error. Call sites guard with
/// [`enabled`], so this never runs in release builds.
///
/// # Panics
///
/// On an error: aborting loudly on corruption is the point of
/// `SURFNET_CHECK`.
pub fn assert_ok(result: Result<(), InvariantViolation>, stage: &str) {
    if let Err(v) = result {
        panic!("SURFNET_CHECK [{stage}]: {v}");
    }
}
