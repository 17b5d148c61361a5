//! Single-qubit Pauli operators and multi-qubit Pauli strings.
//!
//! SurfNet only ever needs Pauli operators *up to global phase*: error
//! patterns, stabilizers, logical operators and corrections are all elements
//! of the Pauli group quotiented by phase. [`Pauli`] therefore implements the
//! phase-free product (`I·X = X`, `X·Y = Z`, …) and the symplectic
//! commutation test, which is everything error correction requires.

use std::fmt;
use std::ops::Mul;

/// A single-qubit Pauli operator, up to global phase.
///
/// # Examples
///
/// ```
/// use surfnet_lattice::Pauli;
///
/// assert_eq!(Pauli::X * Pauli::Y, Pauli::Z);
/// assert!(Pauli::X.anticommutes_with(Pauli::Z));
/// assert!(!Pauli::X.anticommutes_with(Pauli::X));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pauli {
    /// The identity.
    #[default]
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All four Pauli operators, in `{I, X, Y, Z}` order.
    ///
    /// This is the distribution an erased qubit is resampled from when it is
    /// replaced by a maximally mixed state (paper, Sec. IV).
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The three non-identity Pauli errors, in `{X, Y, Z}` order.
    pub const ERRORS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Whether this operator is the identity.
    #[inline]
    pub fn is_identity(self) -> bool {
        self == Pauli::I
    }

    /// The X component of the symplectic representation (`true` for X and Y).
    ///
    /// An operator with an X component flips the measurement outcome of
    /// neighboring measure-Z qubits.
    #[inline]
    pub fn has_x_component(self) -> bool {
        matches!(self, Pauli::X | Pauli::Y)
    }

    /// The Z component of the symplectic representation (`true` for Z and Y).
    ///
    /// An operator with a Z component flips the measurement outcome of
    /// neighboring measure-X qubits.
    #[inline]
    pub fn has_z_component(self) -> bool {
        matches!(self, Pauli::Z | Pauli::Y)
    }

    /// Builds a Pauli from its symplectic `(x, z)` components.
    ///
    /// ```
    /// use surfnet_lattice::Pauli;
    /// assert_eq!(Pauli::from_components(true, true), Pauli::Y);
    /// ```
    #[inline]
    pub fn from_components(x: bool, z: bool) -> Pauli {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Whether `self` and `other` anticommute.
    ///
    /// Two Paulis anticommute exactly when both are non-identity and
    /// distinct. This is the symplectic inner product of the two operators.
    #[inline]
    pub fn anticommutes_with(self, other: Pauli) -> bool {
        // <a, b> = a.x * b.z + a.z * b.x (mod 2)
        (self.has_x_component() & other.has_z_component())
            ^ (self.has_z_component() & other.has_x_component())
    }
}

impl Mul for Pauli {
    type Output = Pauli;

    /// The phase-free Pauli product: componentwise XOR in the symplectic
    /// representation.
    #[inline]
    fn mul(self, rhs: Pauli) -> Pauli {
        Pauli::from_components(
            self.has_x_component() ^ rhs.has_x_component(),
            self.has_z_component() ^ rhs.has_z_component(),
        )
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pauli::I => "I",
            Pauli::X => "X",
            Pauli::Y => "Y",
            Pauli::Z => "Z",
        };
        f.write_str(s)
    }
}

/// A Pauli operator on every data qubit of a surface code, up to phase.
///
/// The string is dense: index `q` holds the operator acting on data qubit
/// `q`. Composition is the qubit-wise phase-free product, so a correction is
/// *applied* to an error pattern by multiplying the two strings; error
/// correction succeeded when the product acts trivially on the logical
/// subspace.
///
/// # Examples
///
/// ```
/// use surfnet_lattice::{Pauli, PauliString};
///
/// let mut err = PauliString::identity(5);
/// err.set(2, Pauli::X);
/// let mut fix = PauliString::identity(5);
/// fix.set(2, Pauli::X);
/// assert!((&err * &fix).is_identity());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PauliString {
    ops: Vec<Pauli>,
}

impl PauliString {
    /// The identity operator on `len` qubits.
    pub fn identity(len: usize) -> PauliString {
        PauliString {
            ops: vec![Pauli::I; len],
        }
    }

    /// Resets this string in place to the identity on `len` qubits,
    /// reusing the existing allocation (decoder workspaces rebuild their
    /// correction buffer this way every shot).
    pub fn reset_identity(&mut self, len: usize) {
        self.ops.clear();
        self.ops.resize(len, Pauli::I);
    }

    /// Builds a string from an explicit list of single-qubit operators.
    pub fn from_ops(ops: Vec<Pauli>) -> PauliString {
        PauliString { ops }
    }

    /// Builds a string acting as `op` on each listed qubit and as identity
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if any index in `support` is `>= len`.
    pub fn from_support(len: usize, support: &[usize], op: Pauli) -> PauliString {
        let mut s = PauliString::identity(len);
        for &q in support {
            s.set(q, op);
        }
        s
    }

    /// Number of qubits the string acts on (including identity positions).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the string has zero qubits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operator on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    #[inline]
    pub fn get(&self, q: usize) -> Pauli {
        self.ops[q]
    }

    /// Sets the operator on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    #[inline]
    pub fn set(&mut self, q: usize, op: Pauli) {
        self.ops[q] = op;
    }

    /// Left-multiplies qubit `q` by `op` (phase-free).
    #[inline]
    pub fn apply(&mut self, q: usize, op: Pauli) {
        self.ops[q] = self.ops[q] * op;
    }

    /// Multiplies `other` into `self` qubit-wise.
    ///
    /// # Panics
    ///
    /// Panics if the two strings have different lengths.
    pub fn compose_assign(&mut self, other: &PauliString) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compose Pauli strings of different lengths"
        );
        for (a, &b) in self.ops.iter_mut().zip(other.ops.iter()) {
            *a = *a * b;
        }
    }

    /// Whether every qubit carries the identity.
    pub fn is_identity(&self) -> bool {
        self.ops.iter().all(|p| p.is_identity())
    }

    /// Number of non-identity positions.
    pub fn weight(&self) -> usize {
        self.ops.iter().filter(|p| !p.is_identity()).count()
    }

    /// Iterates over `(qubit, operator)` pairs for non-identity positions.
    pub fn support(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        self.ops
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, p)| !p.is_identity())
    }

    /// Iterates over all per-qubit operators, including identities.
    pub fn iter(&self) -> impl Iterator<Item = Pauli> + '_ {
        self.ops.iter().copied()
    }

    /// Whether `self` anticommutes with an operator `op` supported on the
    /// given qubits (e.g. a stabilizer generator or logical operator).
    ///
    /// The result is the parity of anticommuting positions, which is the
    /// standard symplectic product of the two strings.
    pub fn anticommutes_on(&self, support: &[usize], op: Pauli) -> bool {
        support
            .iter()
            .filter(|&&q| self.ops[q].anticommutes_with(op))
            .count()
            % 2
            == 1
    }
}

impl Mul for &PauliString {
    type Output = PauliString;

    fn mul(self, rhs: &PauliString) -> PauliString {
        let mut out = self.clone();
        out.compose_assign(rhs);
        out
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.ops {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<Pauli> for PauliString {
    fn from_iter<T: IntoIterator<Item = Pauli>>(iter: T) -> Self {
        PauliString {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_table_matches_pauli_group() {
        use Pauli::*;
        let cases = [
            (I, I, I),
            (I, X, X),
            (X, X, I),
            (X, Y, Z),
            (Y, X, Z),
            (X, Z, Y),
            (Y, Z, X),
            (Z, Z, I),
            (Y, Y, I),
            (Z, Y, X),
        ];
        for (a, b, want) in cases {
            assert_eq!(a * b, want, "{a} * {b}");
        }
    }

    #[test]
    fn product_is_commutative_up_to_phase() {
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                assert_eq!(a * b, b * a);
            }
        }
    }

    #[test]
    fn every_pauli_is_self_inverse() {
        for a in Pauli::ALL {
            assert_eq!(a * a, Pauli::I);
        }
    }

    #[test]
    fn anticommutation_matches_group_structure() {
        use Pauli::*;
        for a in Pauli::ALL {
            assert!(!I.anticommutes_with(a));
            assert!(!a.anticommutes_with(I));
            assert!(!a.anticommutes_with(a));
        }
        assert!(X.anticommutes_with(Y));
        assert!(X.anticommutes_with(Z));
        assert!(Y.anticommutes_with(Z));
    }

    #[test]
    fn components_round_trip() {
        for p in Pauli::ALL {
            assert_eq!(
                Pauli::from_components(p.has_x_component(), p.has_z_component()),
                p
            );
        }
    }

    #[test]
    fn string_compose_cancels_self() {
        let s = PauliString::from_ops(vec![Pauli::X, Pauli::Y, Pauli::I, Pauli::Z]);
        assert!((&s * &s).is_identity());
    }

    #[test]
    fn string_weight_and_support() {
        let s = PauliString::from_support(6, &[1, 4], Pauli::Z);
        assert_eq!(s.weight(), 2);
        let support: Vec<_> = s.support().collect();
        assert_eq!(support, vec![(1, Pauli::Z), (4, Pauli::Z)]);
    }

    #[test]
    fn anticommutes_on_counts_parity() {
        // Z-stabilizer on qubits {0,1,2,3}; X errors on 2 of them commute
        // with it, X error on 1 anticommutes.
        let mut err = PauliString::identity(4);
        err.set(0, Pauli::X);
        assert!(err.anticommutes_on(&[0, 1, 2, 3], Pauli::Z));
        err.set(1, Pauli::X);
        assert!(!err.anticommutes_on(&[0, 1, 2, 3], Pauli::Z));
        // Y also anticommutes with Z.
        err.set(2, Pauli::Y);
        assert!(err.anticommutes_on(&[0, 1, 2, 3], Pauli::Z));
        // Z component commutes with Z.
        err.set(3, Pauli::Z);
        assert!(err.anticommutes_on(&[0, 1, 2, 3], Pauli::Z));
    }

    #[test]
    fn display_formats() {
        let s = PauliString::from_ops(vec![Pauli::I, Pauli::X, Pauli::Y, Pauli::Z]);
        assert_eq!(s.to_string(), "IXYZ");
    }
}
