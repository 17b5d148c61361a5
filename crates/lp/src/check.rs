//! `SURFNET_CHECK=1` runtime invariant checkers for the simplex solver.
//!
//! After phase 1 establishes a basic feasible point, every subsequent pivot
//! must preserve primal feasibility: the ratio test picks the leaving row
//! precisely so the rhs column stays non-negative. A negative rhs after a
//! pivot means the ratio test or the pivot arithmetic is broken — a bug
//! that otherwise surfaces only as a silently infeasible "optimal" routing
//! plan. When phase 2 stops, no column may still price out and every basic
//! column must have zero reduced cost; otherwise the pricing loop stopped
//! early and the "optimum" is merely feasible. See `surfnet_decoder::check`
//! for the decoder-side counterpart.
//!
//! Debug-only and opt-in: in release builds [`enabled`] is a `const fn`
//! returning `false`, so the guarded calls fold away. The harness is
//! [`surfnet_telemetry::check`]'s, re-exported here.

pub use surfnet_telemetry::check::{assert_ok, enabled, InvariantViolation};

/// Tolerance for feasibility: pivoting accumulates rounding, so a tiny
/// negative rhs is numerical noise, not corruption.
pub const FEAS_EPS: f64 = 1e-6;

/// The tableau is primal-feasible: every basic variable's value (the rhs
/// column) is non-negative up to [`FEAS_EPS`]. `tableau` is row-major with
/// `width` entries per row, the last of which is the rhs.
pub fn check_primal_feasible(tableau: &[f64], width: usize) -> Result<(), InvariantViolation> {
    for (ri, row) in tableau.chunks_exact(width).enumerate() {
        let rhs = row[width - 1];
        if rhs < -FEAS_EPS {
            return Err(InvariantViolation {
                message: format!("tableau row {ri} has negative basic value {rhs:.3e}"),
            });
        }
        if !rhs.is_finite() {
            return Err(InvariantViolation {
                message: format!("tableau row {ri} has non-finite basic value {rhs}"),
            });
        }
    }
    Ok(())
}

/// The basis is optimal for the reduced costs `cost` (one per column, rhs
/// excluded): no column prices out below the solver's pricing tolerance,
/// and every basic column has reduced cost zero within it.
pub fn check_optimal(cost: &[f64], basis: &[usize]) -> Result<(), InvariantViolation> {
    let eps = crate::simplex::EPS;
    if let Some((j, c)) = cost
        .iter()
        .enumerate()
        .find(|&(_, &c)| c < -eps || c.is_nan())
    {
        return Err(InvariantViolation {
            message: format!("column {j} still prices out: reduced cost {c:.3e}"),
        });
    }
    for (ri, &b) in basis.iter().enumerate() {
        let c = cost[b];
        if c.abs() > eps || c.is_nan() {
            return Err(InvariantViolation {
                message: format!("basic column {b} (row {ri}) has reduced cost {c:.3e}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_tableau_passes() {
        let t = [1.0, 0.0, 4.0, 0.0, 1.0, 0.0];
        assert_eq!(check_primal_feasible(&t, 3), Ok(()));
    }

    #[test]
    fn tiny_negative_rhs_is_tolerated() {
        let t = [1.0, 0.0, -1e-9];
        assert_eq!(check_primal_feasible(&t, 3), Ok(()));
    }

    #[test]
    fn corrupted_negative_rhs_fires() {
        let t = [1.0, 0.0, 4.0, 0.0, 1.0, -0.5];
        let err = check_primal_feasible(&t, 3).unwrap_err();
        assert!(err.message.contains("row 1"), "{err}");
    }

    #[test]
    fn non_finite_rhs_fires() {
        let t = [1.0, 0.0, f64::NAN];
        assert!(check_primal_feasible(&t, 3).is_err());
    }

    #[test]
    fn optimal_basis_passes() {
        // Columns 0 and 2 basic, column 1 non-basic with a positive price;
        // -1e-12 is rounding noise inside the pricing tolerance.
        let cost = [0.0, 2.5, -1e-12, 0.0];
        assert_eq!(check_optimal(&cost, &[0, 2]), Ok(()));
    }

    #[test]
    fn corrupted_negative_reduced_cost_fires() {
        let cost = [0.0, -0.25, 0.0];
        let err = check_optimal(&cost, &[0, 2]).unwrap_err();
        assert!(err.message.contains("column 1"), "{err}");
    }

    #[test]
    fn corrupted_basic_reduced_cost_fires() {
        let cost = [0.0, 1.0, 3.0];
        let err = check_optimal(&cost, &[0, 2]).unwrap_err();
        assert!(err.message.contains("basic column 2"), "{err}");
    }

    #[test]
    fn non_finite_reduced_cost_fires() {
        assert!(check_optimal(&[f64::NAN, 0.0], &[1]).is_err());
        assert!(check_optimal(&[0.0, f64::NAN], &[1]).is_err());
    }
}
