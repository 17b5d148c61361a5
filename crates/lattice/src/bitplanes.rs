//! Bit-packed batch representations: 64 shots per `u64` word.
//!
//! A phase-free Pauli is two bits — its symplectic `(x, z)` components —
//! so a *batch* of error patterns packs into two bit-planes, one per
//! component. Planes are laid out qubit-major: row `q` holds one bit per
//! shot ("lane"), `ceil(shots / 64)` words long, with lane `s` living in
//! word `s / 64` at bit `s % 64`. Word-parallel operations (syndrome
//! extraction, residual composition, logical-parity scoring) then handle
//! 64 shots per XOR, because every per-shot quantity error correction
//! needs is a *parity* over fixed qubit supports — exactly what XOR over
//! packed lanes computes.
//!
//! ```text
//!              lane 0 .. 63     lane 64 .. 127
//!            ┌──────────────┬──────────────┬──
//!   qubit 0  │   word 0     │   word 1     │ …      x-plane
//!   qubit 1  │   word 0     │   word 1     │ …   (z-plane identical)
//!      ⋮     └──────────────┴──────────────┴──
//! ```

use crate::code::SurfaceCode;
use crate::pauli::{Pauli, PauliString};
use crate::syndrome::Syndrome;

/// Shots per `u64` word.
pub const LANES_PER_WORD: usize = 64;

fn words_for(lanes: usize) -> usize {
    lanes.div_ceil(LANES_PER_WORD)
}

/// A dense one-bit-per-`(row, lane)` plane: `rows` bit-rows of `lanes`
/// bits each, each row padded to whole `u64` words. Bits beyond `lanes`
/// in a row's last word are always zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitPlane {
    rows: usize,
    lanes: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitPlane {
    /// An all-zero plane of `rows` × `lanes` bits.
    pub fn new(rows: usize, lanes: usize) -> BitPlane {
        let mut plane = BitPlane::default();
        plane.reset(rows, lanes);
        plane
    }

    /// Resizes to `rows` × `lanes` and zeroes every bit, reusing the
    /// existing allocation where possible.
    pub fn reset(&mut self, rows: usize, lanes: usize) {
        self.rows = rows;
        self.lanes = lanes;
        self.words_per_row = words_for(lanes);
        self.bits.clear();
        self.bits.resize(rows * self.words_per_row, 0);
    }

    /// Zeroes every bit, keeping the dimensions.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Number of bit-rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of valid lanes per row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Words per row (`ceil(lanes / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    #[inline]
    fn index(&self, row: usize, lane: usize) -> (usize, u64) {
        debug_assert!(row < self.rows && lane < self.lanes);
        (
            row * self.words_per_row + lane / LANES_PER_WORD,
            1u64 << (lane % LANES_PER_WORD),
        )
    }

    /// The bit at `(row, lane)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `lane` is out of range.
    #[inline]
    pub fn get(&self, row: usize, lane: usize) -> bool {
        assert!(row < self.rows && lane < self.lanes);
        let (w, mask) = self.index(row, lane);
        self.bits[w] & mask != 0
    }

    /// Sets the bit at `(row, lane)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `lane` is out of range.
    #[inline]
    pub fn set(&mut self, row: usize, lane: usize, value: bool) {
        assert!(row < self.rows && lane < self.lanes);
        let (w, mask) = self.index(row, lane);
        if value {
            self.bits[w] |= mask;
        } else {
            self.bits[w] &= !mask;
        }
    }

    /// The packed words of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// The packed words of one row, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_words_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// XORs the parity of the given rows into `out` (one word per word
    /// column): bit `l` of `out[w]` flips once per listed row whose lane
    /// `64w + l` bit is set. `out` is resized and zeroed first.
    pub fn xor_rows_into(&self, rows: &[usize], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words_per_row, 0);
        for &row in rows {
            for (acc, &word) in out.iter_mut().zip(self.row_words(row)) {
                *acc ^= word;
            }
        }
    }
}

/// A batch of Pauli strings packed as two [`BitPlane`]s — the symplectic
/// x and z components — with shot-major lanes (see the module docs for
/// the layout).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PauliBitplanes {
    x: BitPlane,
    z: BitPlane,
}

impl PauliBitplanes {
    /// An all-identity batch of `lanes` strings over `num_qubits` qubits.
    pub fn new(num_qubits: usize, lanes: usize) -> PauliBitplanes {
        PauliBitplanes {
            x: BitPlane::new(num_qubits, lanes),
            z: BitPlane::new(num_qubits, lanes),
        }
    }

    /// Resizes to `num_qubits` × `lanes` and resets every lane to the
    /// identity, reusing allocations.
    pub fn reset(&mut self, num_qubits: usize, lanes: usize) {
        self.x.reset(num_qubits, lanes);
        self.z.reset(num_qubits, lanes);
    }

    /// Number of qubits per lane.
    pub fn num_qubits(&self) -> usize {
        self.x.rows()
    }

    /// Number of lanes (shots).
    pub fn lanes(&self) -> usize {
        self.x.lanes()
    }

    /// The x-component plane (bit set for X and Y).
    pub fn x_plane(&self) -> &BitPlane {
        &self.x
    }

    /// The z-component plane (bit set for Z and Y).
    pub fn z_plane(&self) -> &BitPlane {
        &self.z
    }

    /// The operator on `qubit` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `qubit` is out of range.
    #[inline]
    pub fn op(&self, lane: usize, qubit: usize) -> Pauli {
        Pauli::from_components(self.x.get(qubit, lane), self.z.get(qubit, lane))
    }

    /// Sets the operator on `qubit` in lane `lane` (both component bits
    /// are overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `qubit` is out of range.
    #[inline]
    pub fn set_op(&mut self, lane: usize, qubit: usize, op: Pauli) {
        self.x.set(qubit, lane, op.has_x_component());
        self.z.set(qubit, lane, op.has_z_component());
    }

    /// Packs a slice of equal-length strings, one per lane.
    ///
    /// # Panics
    ///
    /// Panics if the strings differ in length.
    pub fn pack(strings: &[PauliString]) -> PauliBitplanes {
        let num_qubits = strings.first().map_or(0, PauliString::len);
        let mut planes = PauliBitplanes::new(num_qubits, strings.len());
        for (lane, s) in strings.iter().enumerate() {
            planes.pack_lane(lane, s);
        }
        planes
    }

    /// Overwrites lane `lane` with the operators of `string`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `string` has the wrong length.
    pub fn pack_lane(&mut self, lane: usize, string: &PauliString) {
        assert_eq!(
            string.len(),
            self.num_qubits(),
            "string length does not match the plane"
        );
        assert!(lane < self.lanes(), "lane out of range");
        // Clear the lane's column in both planes, then set only the
        // support (strings are typically low-weight).
        let word = lane / LANES_PER_WORD;
        let mask = 1u64 << (lane % LANES_PER_WORD);
        let stride = self.x.words_per_row;
        for q in 0..string.len() {
            self.x.bits[q * stride + word] &= !mask;
            self.z.bits[q * stride + word] &= !mask;
        }
        for (q, op) in string.support() {
            let idx = q * stride + word;
            if op.has_x_component() {
                self.x.bits[idx] |= mask;
            }
            if op.has_z_component() {
                self.z.bits[idx] |= mask;
            }
        }
    }

    /// Unpacks lane `lane` into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn unpack_lane_into(&self, lane: usize, out: &mut PauliString) {
        out.reset_identity(self.num_qubits());
        for q in 0..self.num_qubits() {
            let op = self.op(lane, q);
            if !op.is_identity() {
                out.set(q, op);
            }
        }
    }

    /// Unpacks lane `lane` into a fresh [`PauliString`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn unpack_lane(&self, lane: usize) -> PauliString {
        let mut out = PauliString::identity(self.num_qubits());
        self.unpack_lane_into(lane, &mut out);
        out
    }

    /// Multiplies `other` into `self`, every lane at once: the phase-free
    /// Pauli product is a componentwise XOR, so this is one XOR per word
    /// — 64 shots per operation.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn xor_assign(&mut self, other: &PauliBitplanes) {
        assert_eq!(self.num_qubits(), other.num_qubits());
        assert_eq!(self.lanes(), other.lanes());
        for (a, &b) in self.x.bits.iter_mut().zip(other.x.bits.iter()) {
            *a ^= b;
        }
        for (a, &b) in self.z.bits.iter_mut().zip(other.z.bits.iter()) {
            *a ^= b;
        }
    }

    /// Number of non-identity positions in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_weight(&self, lane: usize) -> usize {
        (0..self.num_qubits())
            .filter(|&q| !self.op(lane, q).is_identity())
            .count()
    }
}

/// A batch of syndromes: one bit-row per stabilizer, one lane per shot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyndromeBitplanes {
    /// One row per measure-Z qubit (X-type defects).
    z_flips: BitPlane,
    /// One row per measure-X qubit (Z-type defects).
    x_flips: BitPlane,
}

impl SyndromeBitplanes {
    /// Resizes to `code`'s stabilizer counts × `lanes` and zeroes every
    /// flip, reusing allocations.
    pub fn reset(&mut self, code: &SurfaceCode, lanes: usize) {
        self.z_flips.reset(code.num_measure_z(), lanes);
        self.x_flips.reset(code.num_measure_x(), lanes);
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.z_flips.lanes()
    }

    /// The measure-Z flip plane.
    pub fn z_plane(&self) -> &BitPlane {
        &self.z_flips
    }

    /// The measure-X flip plane.
    pub fn x_plane(&self) -> &BitPlane {
        &self.x_flips
    }

    /// Extracts lane `lane` into a scalar [`Syndrome`], reusing its flip
    /// vectors.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_into(&self, lane: usize, out: &mut Syndrome) {
        assert!(lane < self.lanes(), "lane out of range");
        // One strided pass per plane over the lane's word column.
        let word = lane / LANES_PER_WORD;
        let mask = 1u64 << (lane % LANES_PER_WORD);
        out.z_flips.clear();
        out.z_flips.extend(
            self.z_flips
                .bits
                .iter()
                .skip(word)
                .step_by(self.z_flips.words_per_row.max(1))
                .map(|&w| w & mask != 0)
                .take(self.z_flips.rows),
        );
        out.x_flips.clear();
        out.x_flips.extend(
            self.x_flips
                .bits
                .iter()
                .skip(word)
                .step_by(self.x_flips.words_per_row.max(1))
                .map(|&w| w & mask != 0)
                .take(self.x_flips.rows),
        );
    }

    /// Extracts lane `lane` into a fresh [`Syndrome`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> Syndrome {
        let mut out = Syndrome::default();
        self.lane_into(lane, &mut out);
        out
    }

    /// Builds the per-lane nontriviality mask: bit `l` of `out[w]` is set
    /// exactly when lane `64w + l` has at least one flipped stabilizer —
    /// one OR per word instead of a per-shot scan. `out` is resized and
    /// zeroed first.
    pub fn nontrivial_lanes_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.z_flips.words_per_row(), 0);
        for row in 0..self.z_flips.rows() {
            for (acc, &word) in out.iter_mut().zip(self.z_flips.row_words(row)) {
                *acc |= word;
            }
        }
        for row in 0..self.x_flips.rows() {
            for (acc, &word) in out.iter_mut().zip(self.x_flips.row_words(row)) {
                *acc |= word;
            }
        }
    }
}

impl SurfaceCode {
    /// Extracts the syndromes of every lane in `error` at once: each
    /// stabilizer's flip bit is the parity of its support's component
    /// bits, so one XOR chain over the support's packed rows computes the
    /// flip for 64 shots per word. Bit-identical, lane for lane, to
    /// [`SurfaceCode::extract_syndrome_into`] on the unpacked string.
    ///
    /// # Panics
    ///
    /// Panics if `error` does not have one row per data qubit.
    pub fn extract_syndrome_batch(&self, error: &PauliBitplanes, out: &mut SyndromeBitplanes) {
        assert_eq!(
            error.num_qubits(),
            self.num_data_qubits(),
            "error batch width does not match code"
        );
        out.reset(self, error.lanes());
        for i in 0..self.num_measure_z() {
            xor_support(
                error.x_plane(),
                self.z_stabilizer(i),
                out.z_flips.row_words_mut(i),
            );
        }
        for i in 0..self.num_measure_x() {
            xor_support(
                error.z_plane(),
                self.x_stabilizer(i),
                out.x_flips.row_words_mut(i),
            );
        }
    }

    /// Computes the logical-failure parities of every lane in `residual`
    /// at once. After the call, bit `l` of `x_out[w]` / `z_out[w]` is the
    /// `x` / `z` field [`SurfaceCode::logical_failure`] would report for
    /// lane `64w + l`: a residual flips logical X when it anticommutes
    /// with the logical-Z representative, which is the parity of the
    /// residual's x-components over that support (and dually for z).
    ///
    /// # Panics
    ///
    /// Panics if `residual` does not have one row per data qubit.
    pub fn logical_failure_batch(
        &self,
        residual: &PauliBitplanes,
        x_out: &mut Vec<u64>,
        z_out: &mut Vec<u64>,
    ) {
        assert_eq!(residual.num_qubits(), self.num_data_qubits());
        // Logical-Z support carries Z; only x-components anticommute.
        residual
            .x_plane()
            .xor_rows_into(self.logical_z_support(), x_out);
        // Logical-X support carries X; only z-components anticommute.
        residual
            .z_plane()
            .xor_rows_into(self.logical_x_support(), z_out);
    }
}

fn xor_support(plane: &BitPlane, support: &[usize], out: &mut [u64]) {
    out.fill(0);
    for &q in support {
        for (acc, &word) in out.iter_mut().zip(plane.row_words(q)) {
            *acc ^= word;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{ErrorModel, ErrorSample};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bitplane_set_get_and_word_layout() {
        let mut p = BitPlane::new(3, 70);
        assert_eq!(p.words_per_row(), 2);
        p.set(1, 0, true);
        p.set(1, 69, true);
        assert!(p.get(1, 0));
        assert!(p.get(1, 69));
        assert!(!p.get(1, 1));
        assert_eq!(p.row_words(1)[0], 1);
        assert_eq!(p.row_words(1)[1], 1 << 5);
        p.set(1, 69, false);
        assert!(!p.get(1, 69));
        assert_eq!(p.row_words(1)[1], 0);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let strings = vec![
            PauliString::from_ops(vec![Pauli::I, Pauli::X, Pauli::Y, Pauli::Z]),
            PauliString::from_ops(vec![Pauli::Z, Pauli::I, Pauli::I, Pauli::Y]),
            PauliString::identity(4),
        ];
        let planes = PauliBitplanes::pack(&strings);
        assert_eq!(planes.num_qubits(), 4);
        assert_eq!(planes.lanes(), 3);
        for (lane, s) in strings.iter().enumerate() {
            assert_eq!(&planes.unpack_lane(lane), s);
            assert_eq!(planes.lane_weight(lane), s.weight());
        }
    }

    #[test]
    fn xor_assign_matches_compose() {
        let a = vec![
            PauliString::from_ops(vec![Pauli::X, Pauli::Y, Pauli::I]),
            PauliString::from_ops(vec![Pauli::Z, Pauli::Z, Pauli::Z]),
        ];
        let b = vec![
            PauliString::from_ops(vec![Pauli::Y, Pauli::Y, Pauli::Z]),
            PauliString::from_ops(vec![Pauli::I, Pauli::X, Pauli::Z]),
        ];
        let mut planes = PauliBitplanes::pack(&a);
        planes.xor_assign(&PauliBitplanes::pack(&b));
        for lane in 0..2 {
            assert_eq!(planes.unpack_lane(lane), &a[lane] * &b[lane]);
        }
    }

    #[test]
    fn batch_syndromes_match_scalar_extraction() {
        let code = SurfaceCode::new(5).unwrap();
        let model = ErrorModel::uniform(&code, 0.12, 0.1);
        let mut rng = SmallRng::seed_from_u64(3);
        // 70 shots forces a ragged second word.
        let samples: Vec<ErrorSample> = (0..70).map(|_| model.sample(&mut rng)).collect();
        let paulis: Vec<PauliString> = samples.iter().map(|s| s.pauli.clone()).collect();
        let mut syndromes = SyndromeBitplanes::default();
        code.extract_syndrome_batch(&PauliBitplanes::pack(&paulis), &mut syndromes);
        for (lane, sample) in samples.iter().enumerate() {
            assert_eq!(syndromes.lane(lane), code.extract_syndrome(&sample.pauli));
        }
        let mut nontrivial = Vec::new();
        syndromes.nontrivial_lanes_into(&mut nontrivial);
        for (lane, sample) in samples.iter().enumerate() {
            let bit = nontrivial[lane / LANES_PER_WORD] >> (lane % LANES_PER_WORD) & 1;
            assert_eq!(
                bit == 1,
                !code.extract_syndrome(&sample.pauli).is_trivial(),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn batch_logical_failure_matches_scalar() {
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.3, 0.2);
        let mut rng = SmallRng::seed_from_u64(5);
        let samples: Vec<ErrorSample> = (0..40).map(|_| model.sample(&mut rng)).collect();
        let paulis: Vec<PauliString> = samples.iter().map(|s| s.pauli.clone()).collect();
        let (mut x_mask, mut z_mask) = (Vec::new(), Vec::new());
        code.logical_failure_batch(&PauliBitplanes::pack(&paulis), &mut x_mask, &mut z_mask);
        for (lane, sample) in samples.iter().enumerate() {
            let f = code.logical_failure(&sample.pauli);
            assert_eq!(x_mask[0] >> lane & 1 == 1, f.x, "lane {lane} x");
            assert_eq!(z_mask[0] >> lane & 1 == 1, f.z, "lane {lane} z");
        }
    }
}
