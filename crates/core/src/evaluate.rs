//! Turning execution records into decoding outcomes.
//!
//! The network layer reports, for every executed surface-code transfer,
//! the per-segment estimated fidelities and erasure probabilities
//! ([`SegmentOutcome`]). This module builds the corresponding per-qubit
//! error models (Core qubits get the Core channel's numbers, Support
//! qubits the plain channel's), samples the physical errors, decodes at
//! each correction point, and declares the communication successful when
//! no segment suffers a logical error.
//!
//! Decoder construction (graph building, fidelity-to-weight tables) is
//! far more expensive than a single decode, and segments within a trial
//! overwhelmingly share the same Core/Support fidelity signature (the
//! paper's Sec. IV error model is uniform per channel class). The
//! [`DecoderCache`] therefore memoizes one constructed decoder + error
//! model per distinct signature and reuses one [`DecodeWorkspace`] across
//! every shot, so the steady-state decode loop allocates nothing.

use crate::pipeline::PipelineError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use surfnet_decoder::{DecodeWorkspace, Decoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{ErrorModel, LatticeError, Partition, SurfaceCode};
use surfnet_netsim::execution::{ExecutionOutcome, SegmentOutcome};
use surfnet_telemetry::dim::LabelKey;

/// Which decoder the servers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// The SurfNet Decoder (Algorithm 2), the network's default.
    SurfNet,
    /// The Union-Find baseline.
    UnionFind,
}

impl DecoderKind {
    /// Builds this decoder's weighted graphs from the estimated
    /// fidelities in `model`.
    pub fn build(self, code: &SurfaceCode, model: &ErrorModel) -> Box<dyn Decoder + Sync> {
        match self {
            DecoderKind::SurfNet => Box::new(SurfNetDecoder::from_model(code, model)),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::from_model(code, model)),
        }
    }
}

/// Placeholder left by the retired shot-batching path: no fields, no
/// effect. It stays only because `perfbench`'s `traced_trial` copy of the
/// trial pipeline still passes `&cfg.batch` to
/// [`DecoderCache::evaluate_transfers`]; the `perfbench/` change that
/// deletes that copy deletes it too, together with
/// [`crate::TrialConfig::batch`] and the parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig;

/// Builds the per-qubit error model one segment induces on the code.
///
/// # Errors
///
/// Returns a [`LatticeError`] when the segment record carries a fidelity
/// or erasure probability outside `[0, 1]` (the netsim layer clamps at
/// the source, so this indicates a corrupted record).
pub fn segment_error_model(
    code: &SurfaceCode,
    partition: &Partition,
    segment: &SegmentOutcome,
) -> Result<ErrorModel, LatticeError> {
    let n = code.num_data_qubits();
    let mut fidelities = vec![0.0; n];
    let mut erasures = vec![0.0; n];
    for q in 0..n {
        if partition.is_core(q) {
            fidelities[q] = segment.core_fidelity;
            erasures[q] = segment.core_erasure_prob;
        } else {
            fidelities[q] = segment.support_fidelity;
            erasures[q] = segment.support_erasure_prob;
        }
    }
    ErrorModel::from_fidelities(code, &fidelities, &erasures)
}

/// A segment's error-model signature: the four channel probabilities
/// (bit-exact, via [`f64::to_bits`]) plus the decoder kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentKey {
    core_fidelity: u64,
    core_erasure: u64,
    support_fidelity: u64,
    support_erasure: u64,
    decoder: DecoderKind,
}

impl SegmentKey {
    fn new(segment: &SegmentOutcome, decoder: DecoderKind) -> SegmentKey {
        SegmentKey {
            core_fidelity: canonical_bits(segment.core_fidelity),
            core_erasure: canonical_bits(segment.core_erasure_prob),
            support_fidelity: canonical_bits(segment.support_fidelity),
            support_erasure: canonical_bits(segment.support_erasure_prob),
            decoder,
        }
    }
}

/// [`f64::to_bits`] with the two IEEE zeros collapsed onto `+0.0`.
/// `-0.0` and `0.0` compare equal and build identical error models, so
/// their raw bit patterns (which differ in the sign bit) must not be
/// allowed to miss the cache as two distinct signatures.
fn canonical_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// One cached decoder + the error model it was built from.
#[derive(Debug)]
struct CacheEntry {
    model: ErrorModel,
    decoder: Box<dyn Decoder>,
}

/// Per-trial decoder cache: one constructed decoder and [`ErrorModel`]
/// per distinct segment signature, plus one shared [`DecodeWorkspace`]
/// for every shot.
///
/// Build one per trial (signatures are derived from the trial's network,
/// so reuse across trials would only grow the table) and feed every
/// transfer of the trial through [`Self::evaluate_transfer`].
#[derive(Debug, Default)]
pub struct DecoderCache {
    // A Vec with linear scan, not a hash map: a trial produces only a
    // handful of distinct signatures (one per channel-quality class), and
    // scanning a few entries beats hashing four floats every shot — it
    // also keeps iteration order deterministic for telemetry.
    entries: Vec<(SegmentKey, CacheEntry)>,
    workspace: DecodeWorkspace,
}

impl DecoderCache {
    /// An empty cache; decoders are constructed on first use.
    pub fn new() -> DecoderCache {
        DecoderCache::default()
    }

    /// Number of distinct decoders constructed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no decoder has been constructed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entry_index(
        &mut self,
        code: &SurfaceCode,
        partition: &Partition,
        segment: &SegmentOutcome,
        decoder: DecoderKind,
    ) -> Result<usize, LatticeError> {
        let key = SegmentKey::new(segment, decoder);
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            surfnet_telemetry::count!("decoder.cache_hits");
            return Ok(i);
        }
        surfnet_telemetry::count!("decoder.cache_misses");
        let model = segment_error_model(code, partition, segment)?;
        let decoder = decoder.build(code, &model);
        self.entries.push((key, CacheEntry { model, decoder }));
        Ok(self.entries.len() - 1)
    }

    /// Samples and decodes every segment of one executed transfer;
    /// returns whether the communication completed without any logical
    /// error. Bit-identical to constructing a fresh decoder per segment —
    /// same rng draw order, same corrections.
    ///
    /// Error correction happens at the end of every segment (servers) and
    /// at delivery (the receiving user ultimately decodes the logical
    /// qubit), so every segment's accumulated error is decoded against
    /// the code. All segments are sampled and decoded even after a
    /// failure, so the RNG consumption of a transfer depends only on its
    /// segment list, never on decode verdicts.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Lattice`] when a segment record carries a
    /// probability outside `[0, 1]`.
    pub fn evaluate_transfer<R: Rng + ?Sized>(
        &mut self,
        code: &SurfaceCode,
        partition: &Partition,
        outcome: &ExecutionOutcome,
        decoder: DecoderKind,
        rng: &mut R,
    ) -> Result<bool, PipelineError> {
        if !outcome.completed {
            return Ok(false);
        }
        let decodes_fam = surfnet_telemetry::family!("decoder.distance.decodes");
        let errors_fam = surfnet_telemetry::family!("evaluate.segment.logical_errors");
        let dist_key = LabelKey::Distance(code.distance() as u16);
        let mut ok = true;
        for (idx, segment) in outcome.segments.iter().enumerate() {
            let i = self.entry_index(code, partition, segment, decoder)?;
            let DecoderCache { entries, workspace } = self;
            let entry = &entries[i].1;
            let sample = entry.model.sample(rng);
            let result = entry.decoder.decode_sample_with(code, &sample, workspace);
            decodes_fam.incr(dist_key);
            debug_assert!(result.syndrome_cleared);
            if !result.is_success() {
                surfnet_telemetry::event!("evaluate.shot_failed");
                errors_fam.incr(LabelKey::Segment(idx as u32));
                ok = false;
            }
        }
        Ok(ok)
    }

    /// Evaluates a whole slice of transfers in order, returning one
    /// verdict per transfer (`false` for incomplete executions): exactly
    /// [`Self::evaluate_transfer`] on each outcome. `_batch` is the inert
    /// [`BatchConfig`] placeholder.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Lattice`] when a segment record carries a
    /// probability outside `[0, 1]`.
    pub fn evaluate_transfers<R: Rng + ?Sized>(
        &mut self,
        code: &SurfaceCode,
        partition: &Partition,
        outcomes: &[ExecutionOutcome],
        decoder: DecoderKind,
        rng: &mut R,
        _batch: &BatchConfig,
    ) -> Result<Vec<bool>, PipelineError> {
        outcomes
            .iter()
            .map(|o| self.evaluate_transfer(code, partition, o, decoder, rng))
            .collect()
    }
}

/// Samples and decodes every segment of one executed transfer with a
/// transient [`DecoderCache`] (see [`DecoderCache::evaluate_transfer`]).
/// Loops decoding many transfers should hold a cache instead.
///
/// # Errors
///
/// Returns [`PipelineError::Lattice`] when a segment record carries a
/// probability outside `[0, 1]`.
pub fn evaluate_transfer<R: Rng + ?Sized>(
    code: &SurfaceCode,
    partition: &Partition,
    outcome: &ExecutionOutcome,
    decoder: DecoderKind,
    rng: &mut R,
) -> Result<bool, PipelineError> {
    DecoderCache::new().evaluate_transfer(code, partition, outcome, decoder, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use surfnet_lattice::CoreTopology;

    fn code_and_partition() -> (SurfaceCode, Partition) {
        let code = SurfaceCode::new(5).unwrap();
        let partition = code.core_partition(CoreTopology::Cross);
        (code, partition)
    }

    fn segment(core_f: f64, supp_f: f64, supp_e: f64) -> SegmentOutcome {
        SegmentOutcome {
            core_fidelity: core_f,
            support_fidelity: supp_f,
            support_erasure_prob: supp_e,
            core_erasure_prob: 0.0,
            ticks: 3,
            corrected_at_end: true,
        }
    }

    #[test]
    fn model_assigns_channel_rates_by_partition() {
        let (code, part) = code_and_partition();
        let model = segment_error_model(&code, &part, &segment(0.95, 0.85, 0.1)).unwrap();
        for q in 0..code.num_data_qubits() {
            if part.is_core(q) {
                assert!((model.pauli_prob(q) - 0.05).abs() < 1e-12);
                assert_eq!(model.erasure_prob(q), 0.0);
            } else {
                assert!((model.pauli_prob(q) - 0.15).abs() < 1e-12);
                assert!((model.erasure_prob(q) - 0.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn out_of_range_segment_is_an_error_not_a_panic() {
        let (code, part) = code_and_partition();
        assert!(segment_error_model(&code, &part, &segment(1.5, 0.9, 0.1)).is_err());
        let outcome = ExecutionOutcome {
            completed: true,
            latency: 3,
            segments: vec![segment(0.9, 0.8, 1.25)],
        };
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng),
            Err(PipelineError::Lattice(_))
        ));
    }

    #[test]
    fn perfect_segments_always_succeed() {
        let (code, part) = code_and_partition();
        let outcome = ExecutionOutcome {
            completed: true,
            latency: 6,
            segments: vec![segment(1.0, 1.0, 0.0), segment(1.0, 1.0, 0.0)],
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng).unwrap());
    }

    #[test]
    fn incomplete_execution_fails() {
        let (code, part) = code_and_partition();
        let outcome = ExecutionOutcome {
            completed: false,
            latency: 0,
            segments: Vec::new(),
        };
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(
            !evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng).unwrap()
        );
    }

    #[test]
    fn noisy_segments_fail_sometimes_but_not_always() {
        let (code, part) = code_and_partition();
        let outcome = ExecutionOutcome {
            completed: true,
            latency: 3,
            segments: vec![segment(0.92, 0.84, 0.15)],
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let successes = (0..200)
            .filter(|_| {
                evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng).unwrap()
            })
            .count();
        assert!(successes > 20, "successes {successes}");
        assert!(successes < 200, "successes {successes}");
    }

    #[test]
    fn both_decoders_usable() {
        let (code, part) = code_and_partition();
        let outcome = ExecutionOutcome {
            completed: true,
            latency: 3,
            segments: vec![segment(0.98, 0.95, 0.02)],
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng).unwrap();
        let _ =
            evaluate_transfer(&code, &part, &outcome, DecoderKind::UnionFind, &mut rng).unwrap();
    }

    #[test]
    fn cache_reuses_decoders_across_identical_segments() {
        let (code, part) = code_and_partition();
        let outcome = ExecutionOutcome {
            completed: true,
            latency: 9,
            segments: vec![
                segment(0.98, 0.95, 0.02),
                segment(0.98, 0.95, 0.02),
                segment(0.97, 0.94, 0.03),
            ],
        };
        let mut cache = DecoderCache::new();
        let mut rng = SmallRng::seed_from_u64(5);
        cache
            .evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng)
            .unwrap();
        // Two distinct signatures → two constructed decoders, not three.
        assert_eq!(cache.len(), 2);
        cache
            .evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn negative_zero_probability_hits_the_cache() {
        // Regression: the signature used raw f64::to_bits, so a segment
        // with core_erasure_prob == -0.0 missed the 0.0 entry and built a
        // duplicate decoder.
        let (code, part) = code_and_partition();
        let positive = segment(0.98, 0.95, 0.02);
        let mut negative = positive.clone();
        negative.core_erasure_prob = -0.0;
        let outcome = ExecutionOutcome {
            completed: true,
            latency: 6,
            segments: vec![positive, negative],
        };
        let mut cache = DecoderCache::new();
        let mut rng = SmallRng::seed_from_u64(8);
        cache
            .evaluate_transfer(&code, &part, &outcome, DecoderKind::SurfNet, &mut rng)
            .unwrap();
        assert_eq!(cache.len(), 1, "-0.0 and 0.0 must share one cache entry");
    }

    #[test]
    fn cached_path_matches_fresh_construction_bit_for_bit() {
        // A shared cache + workspace must consume the rng identically and
        // return the same verdicts as per-shot construction, for both
        // decoder kinds, whether fed one transfer at a time or as a slice.
        // The slice includes an incomplete transfer, which must fail
        // without drawing from the rng.
        let (code, part) = code_and_partition();
        let outcomes: Vec<ExecutionOutcome> = (0..5)
            .map(|i| ExecutionOutcome {
                completed: i != 2,
                latency: 6,
                segments: vec![
                    segment(0.93, 0.85, 0.12),
                    segment(0.93, 0.85, 0.12),
                    segment(0.96, 0.88, 0.05 + 0.01 * i as f64),
                ],
            })
            .collect();
        for kind in [DecoderKind::SurfNet, DecoderKind::UnionFind] {
            for seed in [11u64, 12, 13] {
                let fresh: Vec<bool> = {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    outcomes
                        .iter()
                        .map(|o| evaluate_transfer(&code, &part, o, kind, &mut rng).unwrap())
                        .collect()
                };
                assert!(!fresh[2], "an incomplete transfer never succeeds");
                let cached: Vec<bool> = {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut cache = DecoderCache::new();
                    outcomes
                        .iter()
                        .map(|o| {
                            cache
                                .evaluate_transfer(&code, &part, o, kind, &mut rng)
                                .unwrap()
                        })
                        .collect()
                };
                let sliced = {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    DecoderCache::new()
                        .evaluate_transfers(&code, &part, &outcomes, kind, &mut rng, &BatchConfig)
                        .unwrap()
                };
                assert_eq!(fresh, sliced, "slice: kind {kind:?} seed {seed}");
                assert_eq!(fresh, cached, "kind {kind:?} seed {seed}");
            }
        }
    }
}
