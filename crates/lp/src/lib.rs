//! A two-phase simplex linear-programming solver.
//!
//! The SurfNet routing protocol (paper Sec. V-A) is an integer program
//! maximizing network throughput under capacity, entanglement and noise
//! constraints; the paper's evaluation solves its LP relaxation with
//! rounding. No LP solver crate is available offline, so this crate
//! provides one from scratch: a bounded-variable builder ([`LinearProgram`])
//! and a two-phase tableau simplex ([`simplex`]) with a Bland-rule fallback
//! against cycling. Its tableau is one flat row-major buffer without fixed
//! variables' columns; each pivot visits only the entering column's and the
//! pivot row's nonzeros, updating four rows per pass over the latter.
//!
//! # Examples
//!
//! ```
//! use surfnet_lp::{ConstraintOp, LinearProgram};
//!
//! // maximize 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
//! let mut lp = LinearProgram::new();
//! let x = lp.add_var(3.0, 0.0, f64::INFINITY);
//! let y = lp.add_var(5.0, 0.0, f64::INFINITY);
//! lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
//! lp.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
//! let solution = lp.maximize()?;
//! assert!((solution.objective - 36.0).abs() < 1e-7);
//! # Ok::<(), surfnet_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod check;
pub mod problem;
pub mod simplex;

pub use problem::{ConstraintOp, Direction, LinearProgram, Variable};

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// An optimal solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Objective value at the optimum.
    pub objective: f64,
    /// One value per variable, in creation order.
    pub values: Vec<f64>,
}

impl Solution {
    /// The value of `var` in this solution.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to the solved program.
    pub fn value(&self, var: Variable) -> f64 {
        self.values[var.index()]
    }
}

/// Errors from LP solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LpError {
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The pivot budget was exhausted (numerically degenerate input).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl Error for LpError {}
