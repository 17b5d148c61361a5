//! The [`Decoder`] trait and the three complete surface-code decoders:
//! [`MwpmDecoder`] (Algorithm 1), [`UnionFindDecoder`] (the paper's
//! baseline, after \[32\] + \[39\]), and [`SurfNetDecoder`] (Algorithm 2).
//! Each is built from a [`SurfaceCode`] and its [`ErrorModel`].
//!
//! All three decode the two CSS problems independently: X-type errors on
//! the primal graph (measure-Z syndromes) and Z-type errors on the dual
//! graph (measure-X syndromes). A data qubit corrected in both becomes a Y
//! correction.

use crate::cluster::{grow_clusters_into, ClusterScratch};
use crate::graph::{DecodingGraph, GraphEdge, GraphKind};
use crate::mwpm::decode_graph_mwpm_into;
use crate::peeling::{peel_into, PeelScratch};
use crate::weights::{growth_speed, DEFAULT_STEP_SIZE};
use crate::workspace::DecodeWorkspace;
use crate::DecoderError;
use surfnet_lattice::{
    DecodeOutcome, ErrorModel, ErrorSample, Pauli, PauliString, SurfaceCode, Syndrome,
};

/// The trivial-shot fast path of [`Decoder::decode_sample_with`]: a shot
/// with an empty syndrome and no erasures decodes to the identity
/// correction on every kernel (growth, peeling, and matching all start
/// from defects or erasure clusters, and there are none), so the outcome
/// is just the logical parity of the raw error — which can still be a
/// failure when the error is itself a logical operator. Bit-identity to
/// actually running the kernel is pinned by
/// `tests/workspace_equivalence.rs`, whose raw [`Decoder::decode`]
/// reference sees mostly trivial shots from its quiet d=5 model.
fn trivial_fast_path(
    code: &SurfaceCode,
    sample: &ErrorSample,
    syndrome: &Syndrome,
) -> Option<DecodeOutcome> {
    if !syndrome.is_trivial() || sample.erased.iter().any(|&e| e) {
        return None;
    }
    surfnet_telemetry::count!("decoder.trivial_skips");
    Some(DecodeOutcome {
        syndrome_cleared: true,
        logical_failure: code.logical_failure(&sample.pauli),
    })
}

/// A complete surface-code decoder.
///
/// Implementations are constructed against a fixed code + error model (the
/// estimated per-qubit fidelities of Sec. IV-C) and then decode many
/// samples. Each implements `name` and `correction_for_with` only.
pub trait Decoder: std::fmt::Debug {
    /// Human-readable decoder name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Produces a correction from a syndrome and per-qubit erasure flags,
    /// entirely inside `ws` — no per-shot allocations.
    ///
    /// # Errors
    ///
    /// Returns a [`DecoderError`] when the syndrome cannot be decoded
    /// (e.g. unpairable defects on a malformed graph).
    fn correction_for_with<'ws>(
        &self,
        syndrome: &Syndrome,
        erased: &[bool],
        ws: &'ws mut DecodeWorkspace,
    ) -> Result<&'ws PauliString, DecoderError>;

    /// Produces a Pauli correction for the observed syndrome and per-qubit
    /// erasure flags: [`Decoder::correction_for_with`] on a fresh
    /// workspace, so both give bit-identical corrections.
    ///
    /// # Errors
    ///
    /// Returns a [`DecoderError`] when the syndrome cannot be decoded.
    fn decode(
        &self,
        code: &SurfaceCode,
        syndrome: &Syndrome,
        erased: &[bool],
    ) -> Result<PauliString, DecoderError> {
        let mut ws = DecodeWorkspace::new();
        self.correction_for_with(syndrome, erased, &mut ws)?;
        debug_assert_eq!(ws.correction.len(), code.num_data_qubits());
        Ok(ws.correction)
    }

    /// Convenience: extract the syndrome of `sample`, decode it, and score
    /// the correction against the hidden error.
    ///
    /// # Panics
    ///
    /// Panics if decoding fails — used in simulation loops where the graphs
    /// are well-formed by construction.
    fn decode_sample(&self, code: &SurfaceCode, sample: &ErrorSample) -> DecodeOutcome {
        let syndrome = code.extract_syndrome(&sample.pauli);
        #[expect(clippy::expect_used, reason = "the # Panics contract documented above")]
        let correction = self
            .decode(code, &syndrome, &sample.erased)
            .expect("decoding a well-formed surface code sample cannot fail");
        code.score_correction(&sample.pauli, &correction)
    }

    /// [`Decoder::decode_sample`] running entirely inside `ws`, with a fast
    /// path for shots that have no defect and no erasure.
    ///
    /// # Panics
    ///
    /// Panics if decoding fails (same contract as
    /// [`Decoder::decode_sample`]).
    fn decode_sample_with(
        &self,
        code: &SurfaceCode,
        sample: &ErrorSample,
        ws: &mut DecodeWorkspace,
    ) -> DecodeOutcome {
        let mut syndrome = std::mem::take(&mut ws.syndrome);
        code.extract_syndrome_into(&sample.pauli, &mut syndrome);
        let outcome = if let Some(fast) = trivial_fast_path(code, sample, &syndrome) {
            fast
        } else {
            #[expect(clippy::expect_used, reason = "the # Panics contract documented above")]
            let correction = self
                .correction_for_with(&syndrome, &sample.erased, ws)
                .expect("decoding a well-formed surface code sample cannot fail");
            code.score_correction(&sample.pauli, correction)
        };
        ws.syndrome = syndrome;
        outcome
    }
}

/// Cluster-growth + peeling decode of one graph, entirely inside caller
/// buffers. Peeling walks only the clusters that hold a defect, each from
/// the root the full scan of [`crate::peeling::peel`] gives it
/// ([`ClusterScratch::peel_starts`]), so the correction is the full
/// scan's.
fn grow_and_peel(
    graph: &DecodingGraph,
    defects: &[usize],
    speeds: &[f64],
    erased: &[bool],
    cluster: &mut ClusterScratch,
    peel: &mut PeelScratch,
    out: &mut Vec<usize>,
) -> Result<(), DecoderError> {
    let rounds = grow_clusters_into(graph, defects, speeds, erased, cluster)?;
    surfnet_telemetry::count!("decoder.growth_rounds", rounds as u64);
    let starts = cluster.peel_starts().iter().copied();
    peel_into(graph, cluster.grown(), defects, starts, peel, out)
}

/// The state the Union-Find and SurfNet decoders share: both decoding
/// graphs and one growth speed per edge of each, computed once at
/// construction. The two decoders run this one grow-and-peel body and
/// differ only in the speeds.
///
/// A speed never depends on the shot: erased edges start fully grown
/// (`pregrown = erased`, after [32]) and growth reads only the speeds of
/// ungrown frontier edges, so an erased edge's speed is never read.
#[derive(Debug, Clone)]
struct GrowthGraphs {
    primal: DecodingGraph,
    dual: DecodingGraph,
    primal_speeds: Vec<f64>,
    dual_speeds: Vec<f64>,
    num_qubits: usize,
}

impl GrowthGraphs {
    fn new(
        primal: DecodingGraph,
        dual: DecodingGraph,
        num_qubits: usize,
        speed: impl Fn(&GraphEdge) -> f64,
    ) -> GrowthGraphs {
        let speeds = |graph: &DecodingGraph| graph.edges().iter().map(&speed).collect();
        GrowthGraphs {
            primal_speeds: speeds(&primal),
            dual_speeds: speeds(&dual),
            primal,
            dual,
            num_qubits,
        }
    }

    fn correction_for_with<'ws>(
        &self,
        syndrome: &Syndrome,
        erased: &[bool],
        ws: &'ws mut DecodeWorkspace,
    ) -> Result<&'ws PauliString, DecoderError> {
        let DecodeWorkspace {
            cluster,
            peel,
            defects,
            x_fix,
            z_fix,
            correction,
            ..
        } = ws;
        syndrome_defects_into(&syndrome.z_flips, defects);
        grow_and_peel(
            &self.primal,
            defects,
            &self.primal_speeds,
            erased,
            cluster,
            peel,
            x_fix,
        )?;
        syndrome_defects_into(&syndrome.x_flips, defects);
        grow_and_peel(
            &self.dual,
            defects,
            &self.dual_speeds,
            erased,
            cluster,
            peel,
            z_fix,
        )?;
        assemble_correction_into(
            correction,
            self.num_qubits,
            x_fix,
            z_fix,
            &self.primal,
            &self.dual,
        );
        Ok(correction)
    }
}

/// The modified minimum-weight perfect matching decoder (Algorithm 1).
///
/// # Examples
///
/// ```
/// use surfnet_decoder::{Decoder, MwpmDecoder};
/// use surfnet_lattice::{ErrorModel, SurfaceCode};
/// use rand::SeedableRng;
///
/// let code = SurfaceCode::new(5)?;
/// let model = ErrorModel::uniform(&code, 0.04, 0.05);
/// let decoder = MwpmDecoder::from_model(&code, &model);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let outcome = decoder.decode_sample(&code, &model.sample(&mut rng));
/// assert!(outcome.syndrome_cleared);
/// # Ok::<(), surfnet_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MwpmDecoder {
    primal: DecodingGraph,
    dual: DecodingGraph,
    num_qubits: usize,
}

impl MwpmDecoder {
    /// Builds the decoder's weighted graphs from the estimated fidelities
    /// in `model`.
    pub fn from_model(code: &SurfaceCode, model: &ErrorModel) -> MwpmDecoder {
        MwpmDecoder {
            primal: DecodingGraph::from_code(code, model, GraphKind::Primal),
            dual: DecodingGraph::from_code(code, model, GraphKind::Dual),
            num_qubits: code.num_data_qubits(),
        }
    }
}

impl Decoder for MwpmDecoder {
    fn name(&self) -> &'static str {
        "mwpm"
    }

    fn correction_for_with<'ws>(
        &self,
        syndrome: &Syndrome,
        erased: &[bool],
        ws: &'ws mut DecodeWorkspace,
    ) -> Result<&'ws PauliString, DecoderError> {
        let _span = surfnet_telemetry::span!("decoder.mwpm.decode");
        let DecodeWorkspace {
            mwpm,
            defects,
            x_fix,
            z_fix,
            correction,
            ..
        } = ws;
        syndrome_defects_into(&syndrome.z_flips, defects);
        decode_graph_mwpm_into(&self.primal, defects, erased, mwpm, x_fix)?;
        syndrome_defects_into(&syndrome.x_flips, defects);
        decode_graph_mwpm_into(&self.dual, defects, erased, mwpm, z_fix)?;
        assemble_correction_into(
            correction,
            self.num_qubits,
            x_fix,
            z_fix,
            &self.primal,
            &self.dual,
        );
        Ok(correction)
    }
}

/// Combines per-graph corrections into a Pauli string in place
/// (X from the primal graph, Z from the dual; overlaps become Y).
fn assemble_correction_into(
    out: &mut PauliString,
    num_qubits: usize,
    primal_edges: &[usize],
    dual_edges: &[usize],
    primal: &DecodingGraph,
    dual: &DecodingGraph,
) {
    out.reset_identity(num_qubits);
    for &e in primal_edges {
        out.apply(primal.edge(e).qubit, Pauli::X);
    }
    for &e in dual_edges {
        out.apply(dual.edge(e).qubit, Pauli::Z);
    }
}

/// The paper's baseline: the almost-linear-time Union-Find decoder \[32\]
/// with uniform half-edge growth, erased edges pre-seeding the clusters,
/// and the peeling decoder \[39\] for the final correction.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    graphs: GrowthGraphs,
}

impl UnionFindDecoder {
    /// Builds the decoder for `code`, with uniform half-edge growth on both
    /// graphs (Delfosse–Nickerson). The error model is accepted for
    /// interface symmetry; the plain Union-Find decoder ignores fidelity
    /// variations (that is exactly what the SurfNet decoder adds).
    pub fn from_model(code: &SurfaceCode, model: &ErrorModel) -> UnionFindDecoder {
        UnionFindDecoder {
            graphs: GrowthGraphs::new(
                DecodingGraph::from_code(code, model, GraphKind::Primal),
                DecodingGraph::from_code(code, model, GraphKind::Dual),
                code.num_data_qubits(),
                |_| 0.5,
            ),
        }
    }
}

impl Decoder for UnionFindDecoder {
    fn name(&self) -> &'static str {
        "union-find"
    }

    fn correction_for_with<'ws>(
        &self,
        syndrome: &Syndrome,
        erased: &[bool],
        ws: &'ws mut DecodeWorkspace,
    ) -> Result<&'ws PauliString, DecoderError> {
        let _span = surfnet_telemetry::span!("decoder.union_find.decode");
        self.graphs.correction_for_with(syndrome, erased, ws)
    }
}

/// The SurfNet Decoder (Algorithm 2): weighted cluster growth at speed
/// `−r / ln(1 − ρᵢ)` per edge — fastest on erasures (`ρ = 0.5`), faster on
/// the Support part than the Core part — followed by spanning-forest
/// peeling.
#[derive(Debug, Clone)]
pub struct SurfNetDecoder {
    graphs: GrowthGraphs,
    step: f64,
}

impl SurfNetDecoder {
    /// Builds the decoder with the default step size `r = 2/3`.
    pub fn from_model(code: &SurfaceCode, model: &ErrorModel) -> SurfNetDecoder {
        SurfNetDecoder::with_step(code, model, DEFAULT_STEP_SIZE)
    }

    /// Builds the decoder with an explicit step size `r`, which trades
    /// decoding speed against accuracy (Algorithm 2).
    ///
    /// Growth runs at the per-edge weighted speeds `−r / ln(1 − ρ)`, from
    /// each edge's estimated fidelity. Erased edges are known-useless
    /// qubits (maximally mixed states): like the Union-Find baseline they
    /// pre-seed the clusters instead of merely growing fast, otherwise
    /// high-fidelity edges accumulate spurious growth during the rounds
    /// spent crossing erasures.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive.
    pub fn with_step(code: &SurfaceCode, model: &ErrorModel, step: f64) -> SurfNetDecoder {
        assert!(step > 0.0, "step size must be positive");
        SurfNetDecoder {
            graphs: GrowthGraphs::new(
                DecodingGraph::from_code(code, model, GraphKind::Primal),
                DecodingGraph::from_code(code, model, GraphKind::Dual),
                code.num_data_qubits(),
                |edge| growth_speed(edge.fidelity, step),
            ),
            step,
        }
    }

    /// The configured step size `r`.
    pub fn step(&self) -> f64 {
        self.step
    }
}

impl Decoder for SurfNetDecoder {
    fn name(&self) -> &'static str {
        "surfnet"
    }

    fn correction_for_with<'ws>(
        &self,
        syndrome: &Syndrome,
        erased: &[bool],
        ws: &'ws mut DecodeWorkspace,
    ) -> Result<&'ws PauliString, DecoderError> {
        let _span = surfnet_telemetry::span!("decoder.surfnet.decode");
        self.graphs.correction_for_with(syndrome, erased, ws)
    }
}

/// Defect indices from a flip vector, written into a reused buffer.
fn syndrome_defects_into(flips: &[bool], out: &mut Vec<usize>) {
    out.clear();
    out.extend(flips.iter().enumerate().filter(|(_, &f)| f).map(|(i, _)| i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use surfnet_lattice::{Coord, CoreTopology};

    fn all_decoders(code: &SurfaceCode, model: &ErrorModel) -> Vec<Box<dyn Decoder>> {
        vec![
            Box::new(MwpmDecoder::from_model(code, model)),
            Box::new(UnionFindDecoder::from_model(code, model)),
            Box::new(SurfNetDecoder::from_model(code, model)),
        ]
    }

    #[test]
    fn trivial_syndrome_gives_identity_correction() {
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.05, 0.05);
        let syndrome = Syndrome::quiescent(&code);
        let erased = vec![false; code.num_data_qubits()];
        for d in all_decoders(&code, &model) {
            let c = d.decode(&code, &syndrome, &erased).unwrap();
            assert!(c.is_identity(), "{} returned non-identity", d.name());
        }
    }

    #[test]
    fn single_x_error_corrected_by_all_decoders() {
        let code = SurfaceCode::new(5).unwrap();
        let model = ErrorModel::uniform(&code, 0.05, 0.05);
        let q = code.data_qubit_at(Coord::new(4, 4)).unwrap();
        let mut sample = ErrorSample::clean(code.num_data_qubits());
        sample.pauli.set(q, Pauli::X);
        for d in all_decoders(&code, &model) {
            let outcome = d.decode_sample(&code, &sample);
            assert!(outcome.is_success(), "{} failed on single X", d.name());
        }
    }

    #[test]
    fn single_y_error_corrected_by_all_decoders() {
        let code = SurfaceCode::new(5).unwrap();
        let model = ErrorModel::uniform(&code, 0.05, 0.05);
        let q = code.data_qubit_at(Coord::new(3, 5)).unwrap();
        let mut sample = ErrorSample::clean(code.num_data_qubits());
        sample.pauli.set(q, Pauli::Y);
        for d in all_decoders(&code, &model) {
            let outcome = d.decode_sample(&code, &sample);
            assert!(outcome.is_success(), "{} failed on single Y", d.name());
        }
    }

    #[test]
    fn short_chain_corrected_by_all_decoders() {
        // A weight-2 chain is within (d-1)/2 for d=5: all decoders must fix
        // it without a logical error.
        let code = SurfaceCode::new(5).unwrap();
        let model = ErrorModel::uniform(&code, 0.05, 0.05);
        let mut sample = ErrorSample::clean(code.num_data_qubits());
        sample
            .pauli
            .set(code.data_qubit_at(Coord::new(2, 4)).unwrap(), Pauli::X);
        sample
            .pauli
            .set(code.data_qubit_at(Coord::new(4, 4)).unwrap(), Pauli::X);
        for d in all_decoders(&code, &model) {
            let outcome = d.decode_sample(&code, &sample);
            assert!(outcome.is_success(), "{} failed on chain", d.name());
        }
    }

    #[test]
    fn erased_qubits_always_syndrome_cleared() {
        // Any decoder must clear the syndrome even under heavy erasure.
        let code = SurfaceCode::new(5).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &part, 0.05, 0.3);
        let mut rng = SmallRng::seed_from_u64(11);
        for d in all_decoders(&code, &model) {
            for _ in 0..50 {
                let sample = model.sample(&mut rng);
                let outcome = d.decode_sample(&code, &sample);
                assert!(
                    outcome.syndrome_cleared,
                    "{} left residual syndrome",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn decoders_succeed_at_low_error_rates() {
        // Well below threshold on d=7 the logical error rate is tiny; with
        // 100 trials a failure would be a red flag (not a proof, a smoke
        // test with fixed seed).
        let code = SurfaceCode::new(7).unwrap();
        let model = ErrorModel::uniform(&code, 0.01, 0.02);
        let mut rng = SmallRng::seed_from_u64(5);
        for d in all_decoders(&code, &model) {
            let mut failures = 0;
            for _ in 0..100 {
                let sample = model.sample(&mut rng);
                if !d.decode_sample(&code, &sample).is_success() {
                    failures += 1;
                }
            }
            assert!(failures <= 2, "{}: {failures} failures at p=1%", d.name());
        }
    }

    #[test]
    fn surfnet_step_size_configurable() {
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.05, 0.05);
        let d = SurfNetDecoder::with_step(&code, &model, 0.25);
        assert!((d.step() - 0.25).abs() < 1e-12);
        let syndrome = Syndrome::quiescent(&code);
        let erased = vec![false; code.num_data_qubits()];
        assert!(d.decode(&code, &syndrome, &erased).unwrap().is_identity());
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn surfnet_rejects_bad_step() {
        let code = SurfaceCode::new(3).unwrap();
        let model = ErrorModel::uniform(&code, 0.05, 0.05);
        let _ = SurfNetDecoder::with_step(&code, &model, 0.0);
    }
}
