//! Bit-identity golden test for the cluster-growth decoders.
//!
//! Decodes a fixed corpus of Fig. 8-style samples — distances 3, 5, 9 and
//! 15 under four dual-channel noise models, 100 seeded samples each — with
//! the Union-Find and SurfNet decoders through [`Decoder::decode`], and
//! folds every correction Pauli and every scoring bit into one FNV-1a
//! digest. The digest was recorded from the per-round `find`-every-defect
//! growth kernel; any change to which clusters grow in which order, which
//! edges finish growing, or how peeling walks the support moves at least
//! one correction bit and therefore the digest.
//!
//! The workspace equivalence test compares two paths over the same
//! kernel; this test pins the kernel itself.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{Decoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, Pauli, SurfaceCode};

const DISTANCES: [usize; 4] = [3, 5, 9, 15];
/// (Pauli rate, erasure rate) pairs: Fig. 8's erasure rate around its
/// threshold, plus a Pauli-only model.
const RATES: [(f64, f64); 4] = [(0.05, 0.15), (0.0675, 0.15), (0.085, 0.15), (0.06, 0.0)];
const SAMPLES: u64 = 100;
const BASE_SEED: u64 = 150_000;
/// FNV-1a digest of every correction and outcome, recorded from the
/// reference growth kernel.
const GOLDEN_DIGEST: u64 = 0xd9fb_3774_d153_6267;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn growth_decoders_correct_bit_identically() {
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut decodes, mut failures) = (0usize, 0usize);
    for d in DISTANCES {
        let code = SurfaceCode::new(d).expect("code");
        let part = code.core_partition(CoreTopology::Cross);
        for (i, &(p, pe)) in RATES.iter().enumerate() {
            let model = ErrorModel::dual_channel(&code, &part, p, pe);
            let decoders: [Box<dyn Decoder>; 2] = [
                Box::new(UnionFindDecoder::from_model(&code, &model)),
                Box::new(SurfNetDecoder::from_model(&code, &model)),
            ];
            let mut rng = SmallRng::seed_from_u64(BASE_SEED + 100 * d as u64 + i as u64);
            for _ in 0..SAMPLES {
                let sample = model.sample(&mut rng);
                let syndrome = code.extract_syndrome(&sample.pauli);
                for decoder in &decoders {
                    let correction = decoder
                        .decode(&code, &syndrome, &sample.erased)
                        .expect("decode");
                    for pauli in correction.iter() {
                        digest.word(match pauli {
                            Pauli::I => 0,
                            Pauli::X => 1,
                            Pauli::Y => 2,
                            Pauli::Z => 3,
                        });
                    }
                    let outcome = code.score_correction(&sample.pauli, &correction);
                    digest.word(u64::from(outcome.syndrome_cleared));
                    digest.word(u64::from(outcome.logical_failure.x));
                    digest.word(u64::from(outcome.logical_failure.z));
                    decodes += 1;
                    failures += usize::from(!outcome.is_success());
                }
            }
        }
    }
    assert_eq!(
        decodes, 3_200,
        "4 distances x 4 models x 100 samples x 2 decoders"
    );
    assert!(
        failures > 0 && failures < decodes,
        "corpus must mix logical failures and successes ({failures} of {decodes} failed)"
    );
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "corrections moved: digest {:#018x} ({failures} failures)",
        digest.0
    );
}
