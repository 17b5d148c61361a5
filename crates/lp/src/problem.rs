//! Linear program construction.
//!
//! The SurfNet routing protocol (paper Sec. V-A, Eqs. 1–6) is an integer
//! program that the evaluation relaxes to a linear program with rounding.
//! [`LinearProgram`] is the builder: bounded variables, a linear objective,
//! and `≤ / ≥ / =` constraints. Solving happens in [`crate::simplex`].

/// Handle to a variable of a [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variable(pub(crate) usize);

impl Variable {
    /// The dense index of this variable in solutions.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `terms ≤ rhs`
    Le,
    /// `terms ≥ rhs`
    Ge,
    /// `terms = rhs`
    Eq,
}

/// One linear constraint: `Σ coeff·var  op  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) rhs: f64,
}

/// The optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Maximize the objective (the routing protocol maximizes throughput).
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// A linear program over bounded continuous variables.
///
/// # Examples
///
/// ```
/// use surfnet_lp::{ConstraintOp, LinearProgram};
///
/// // maximize x + 2y  s.t.  x + y ≤ 4,  y ≤ 3,  x,y ≥ 0
/// let mut lp = LinearProgram::new();
/// let x = lp.add_var(1.0, 0.0, f64::INFINITY);
/// let y = lp.add_var(2.0, 0.0, 3.0);
/// lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
/// let sol = lp.maximize()?;
/// assert!((sol.objective - 7.0).abs() < 1e-9); // x=1, y=3
/// # Ok::<(), surfnet_lp::LpError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// An empty program.
    pub fn new() -> LinearProgram {
        LinearProgram::default()
    }

    /// Adds a variable with objective coefficient `obj` and bounds
    /// `[lower, upper]` (`upper` may be `f64::INFINITY`).
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not finite, `lower > upper`, or `obj` is NaN.
    pub fn add_var(&mut self, obj: f64, lower: f64, upper: f64) -> Variable {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(
            !upper.is_nan() && upper >= lower,
            "invalid bounds [{lower}, {upper}]"
        );
        assert!(!obj.is_nan(), "objective coefficient is NaN");
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        Variable(self.objective.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint `Σ coeff·var  op  rhs`. Duplicate variables in
    /// `terms` are summed left to right into the variable's first
    /// appearance; a list without duplicates is stored as given.
    ///
    /// # Panics
    ///
    /// Panics if a variable handle does not belong to this program or a
    /// coefficient/rhs is NaN.
    pub fn add_constraint(&mut self, terms: &[(Variable, f64)], op: ConstraintOp, rhs: f64) {
        assert!(!rhs.is_nan(), "constraint rhs is NaN");
        // Sorting a copy finds a repeat in O(t log t); only then are terms merged.
        let mut vars: Vec<usize> = terms.iter().map(|&(v, _)| v.0).collect();
        vars.sort_unstable();
        let repeats = vars.windows(2).any(|w| w[0] == w[1]);
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.num_vars(), "variable out of range");
            assert!(!c.is_nan(), "constraint coefficient is NaN");
            let merged = repeats.then(|| dense.iter_mut().find(|(i, _)| *i == v.0));
            if let Some(slot) = merged.flatten() {
                slot.1 += c;
            } else {
                dense.push((v.0, c));
            }
        }
        self.constraints.push(Constraint {
            terms: dense,
            op,
            rhs,
        });
    }

    /// Evaluates the objective at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have one value per variable.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x` satisfies every bound and constraint within
    /// tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for i in 0..self.num_vars() {
            if x[i] < self.lower[i] - tol || x[i] > self.upper[i] + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, co)| co * x[i]).sum();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solves the program, maximizing the objective.
    ///
    /// # Errors
    ///
    /// [`crate::LpError::Infeasible`] when no point satisfies the
    /// constraints, [`crate::LpError::Unbounded`] when the objective can
    /// grow without limit.
    pub fn maximize(&self) -> Result<crate::Solution, crate::LpError> {
        crate::simplex::solve(self, Direction::Maximize)
    }

    /// Solves the program, minimizing the objective.
    ///
    /// # Errors
    ///
    /// Same as [`LinearProgram::maximize`].
    pub fn minimize(&self) -> Result<crate::Solution, crate::LpError> {
        crate::simplex::solve(self, Direction::Minimize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 5.0);
        let y = lp.add_var(-1.0, -2.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(&[(x, 1.0), (x, 2.0)], ConstraintOp::Le, 3.0);
        assert_eq!(lp.constraints[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn duplicate_terms_merge_in_first_appearance_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Each term looked up among those merged so far, in appearance order.
        let naive = |terms: &[(Variable, f64)]| {
            let mut dense: Vec<(usize, f64)> = Vec::new();
            for &(v, c) in terms {
                match dense.iter_mut().find(|(i, _)| *i == v.0) {
                    Some(slot) => slot.1 += c,
                    None => dense.push((v.0, c)),
                }
            }
            dense
        };
        let bits = |terms: &[(usize, f64)]| -> Vec<(usize, u64)> {
            terms.iter().map(|&(i, c)| (i, c.to_bits())).collect()
        };
        let mut rng = SmallRng::seed_from_u64(41);
        let mut lp = LinearProgram::new();
        let vars: Vec<Variable> = (0..8).map(|_| lp.add_var(0.0, 0.0, 1.0)).collect();
        for _ in 0..300 {
            // Magnitudes far apart, so a sum taken in another order rounds
            // differently.
            let len = rng.gen_range(1..=200usize);
            let terms: Vec<(Variable, f64)> = (0..len)
                .map(|_| {
                    let scale = [1e-8, 1.0, 1e8][rng.gen_range(0..3usize)];
                    (
                        vars[rng.gen_range(0..8usize)],
                        scale * rng.gen_range(-1.0..1.0),
                    )
                })
                .collect();
            lp.add_constraint(&terms, ConstraintOp::Le, 0.0);
            let stored = &lp.constraints.last().unwrap().terms;
            assert_eq!(bits(stored), bits(&naive(&terms)), "{terms:?}");
        }
        // Without repeats the list is stored verbatim, `-0.0` included.
        let terms = [
            (vars[5], -0.0),
            (vars[1], 3.0),
            (vars[7], 0.1),
            (vars[0], -2.5),
        ];
        lp.add_constraint(&terms, ConstraintOp::Eq, 1.0);
        let stored = &lp.constraints.last().unwrap().terms;
        let verbatim: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.0, c)).collect();
        assert_eq!(bits(stored), bits(&verbatim));
    }

    #[test]
    fn feasibility_checks_bounds_and_constraints() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 2.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        assert!(lp.is_feasible(&[1.5], 1e-9));
        assert!(!lp.is_feasible(&[0.5], 1e-9));
        assert!(!lp.is_feasible(&[2.5], 1e-9));
        assert!(!lp.is_feasible(&[], 1e-9));
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn rejects_crossed_bounds() {
        LinearProgram::new().add_var(0.0, 1.0, 0.0);
    }
}
