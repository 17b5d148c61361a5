//! Regression tests for the worked examples in the paper (Figs. 3 and 5)
//! and qualitative decoder claims.

use surfnet_decoder::cluster::{grow_clusters, GrowthConfig};
use surfnet_decoder::graph::{DecodingGraph, GraphEdge};
use surfnet_decoder::peeling::peel;
use surfnet_decoder::weights::{growth_speed, DEFAULT_STEP_SIZE, ERASURE_FIDELITY};
use surfnet_decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{Coord, CoreTopology, ErrorModel, ErrorSample, Pauli, SurfaceCode};
use surfnet_netsim::entanglement::purify;

/// Paper Fig. 3: a weight-5-equivalent decoding ambiguity. When an X chain
/// is longer than half the distance, the minimum-weight decoder legally
/// picks the *complement* — clearing the syndrome but flipping the logical
/// operator. This is the logical-error mechanism SurfNet's Core qubits are
/// designed to block.
#[test]
fn fig3_long_chain_decodes_to_logical_error() {
    let code = SurfaceCode::new(5).unwrap();
    let model = ErrorModel::uniform(&code, 0.05, 0.0);
    // X chain of weight 3 down column 4 (rows 2..=6): its endpoints sit one
    // step from the North/South boundaries, so matching each endpoint to
    // the boundary costs 2 edges < pairing them at cost 3.
    let mut sample = ErrorSample::clean(code.num_data_qubits());
    for row in [2usize, 4, 6] {
        let q = code.data_qubit_at(Coord::new(row, 4)).unwrap();
        sample.pauli.set(q, Pauli::X);
    }
    let decoder = MwpmDecoder::from_model(&code, &model);
    let outcome = decoder.decode_sample(&code, &sample);
    assert!(outcome.syndrome_cleared);
    assert!(
        outcome.logical_failure.x,
        "complement decoding must produce a logical X (paper Fig. 3(b))"
    );
}

/// The flip side of Fig. 3: a chain of weight ≤ (d−1)/2 is always corrected.
#[test]
fn fig3_short_chain_decodes_correctly() {
    let code = SurfaceCode::new(5).unwrap();
    let model = ErrorModel::uniform(&code, 0.05, 0.0);
    let mut sample = ErrorSample::clean(code.num_data_qubits());
    for row in [2usize, 4] {
        let q = code.data_qubit_at(Coord::new(row, 4)).unwrap();
        sample.pauli.set(q, Pauli::X);
    }
    let decoder = MwpmDecoder::from_model(&code, &model);
    let outcome = decoder.decode_sample(&code, &sample);
    assert!(outcome.is_success());
}

/// The core SurfNet claim behind Fig. 3 / Sec. IV: raising the fidelity of
/// one qubit per logical axis (the Core) steers the weighted MWPM decoder
/// away from the complement decoding. Same error pattern as
/// `fig3_long_chain_decodes_to_logical_error`, but the rim qubits of the
/// erroneous column belong to a high-fidelity Core — making the boundary
/// detour expensive — so the decoder now pairs the syndromes correctly.
#[test]
fn core_qubits_block_the_logical_error() {
    let code = SurfaceCode::new(5).unwrap();
    let mut model = ErrorModel::uniform(&code, 0.05, 0.0);
    // The complement path runs through (0,4) and (8,4); make those Core
    // with very high fidelity (heavy edges).
    for row in [0usize, 8] {
        let q = code.data_qubit_at(Coord::new(row, 4)).unwrap();
        model.set_pauli_prob(q, 0.0001);
    }
    let mut sample = ErrorSample::clean(code.num_data_qubits());
    for row in [2usize, 4, 6] {
        let q = code.data_qubit_at(Coord::new(row, 4)).unwrap();
        sample.pauli.set(q, Pauli::X);
    }
    let decoder = MwpmDecoder::from_model(&code, &model);
    let outcome = decoder.decode_sample(&code, &sample);
    assert!(
        outcome.is_success(),
        "high-fidelity Core qubits must block the complement decoding"
    );
}

/// Paper Fig. 5: cluster growth with speeds {erasure: 1/2, core: 1/8,
/// support: 1/4}. We reproduce the qualitative behavior on a line: a
/// cluster reaches through an erasure (2 rounds) before it reaches through
/// support (4 rounds) or core (8 rounds) edges.
#[test]
fn fig5_growth_speed_ordering() {
    // boundary(4) -eC- 0 -eE- 1 -eS- 2 -eC2- 3 ... defect at 1 and 0.
    // Line: v0 --erasure-- v1 --support-- v2 --core-- v3, defect at v1 only,
    // boundary unreachable except through v3.
    let g = DecodingGraph::from_edges(
        4,
        vec![
            GraphEdge {
                a: 0,
                b: 1,
                qubit: 0,
                fidelity: 0.9,
            }, // erased below
            GraphEdge {
                a: 1,
                b: 2,
                qubit: 1,
                fidelity: 0.9,
            }, // support
            GraphEdge {
                a: 2,
                b: 3,
                qubit: 2,
                fidelity: 0.9,
            }, // core
            GraphEdge {
                a: 3,
                b: 4,
                qubit: 3,
                fidelity: 0.9,
            }, // to boundary
        ],
    );
    // Fig. 5's illustrative speeds.
    let speeds = vec![0.5, 0.25, 0.125, 0.125];
    // Defects at v0 and v1: they fuse through the erasure after 1 round
    // (0.5 from each side), never needing the slower edges.
    let cfg = GrowthConfig::weighted(speeds.clone());
    let out = grow_clusters(&g, &[0, 1], &cfg).unwrap();
    assert!(out.grown[0]);
    assert!(!out.grown[2], "core edge must not grow for this pattern");
    assert_eq!(out.rounds, 1);

    // Defect at v1 alone: must reach the boundary edge by edge. The
    // erasure fills in 2 rounds, the support edge needs 4 (but only
    // becomes frontier after round... it is frontier from the start: 4
    // rounds), then each core-speed edge needs 8 rounds once it joins the
    // frontier: 4 + 8 + 8 = 20 rounds total.
    let cfg = GrowthConfig::weighted(speeds);
    let out = grow_clusters(&g, &[1], &cfg).unwrap();
    assert!(
        out.grown.iter().all(|&b| b),
        "all edges grow to reach boundary"
    );
    assert_eq!(out.rounds, 20);
    // The peeling decoder then flushes the defect to the boundary.
    let correction = peel(&g, &out.grown, &[1]).unwrap();
    assert_eq!(correction, vec![1, 2, 3]);
}

/// Algorithm 2's speed formula at the paper's operating point: erasures
/// grow faster than Support, Support faster than Core (rates halved on
/// Core, Sec. VI-B).
#[test]
fn alg2_speed_ordering_at_paper_rates() {
    let r = DEFAULT_STEP_SIZE;
    let p = 0.07; // mid-range Pauli rate of Fig. 8
    let support = growth_speed(1.0 - p, r);
    let core = growth_speed(1.0 - p / 2.0, r);
    let erasure = growth_speed(ERASURE_FIDELITY, r);
    assert!(erasure > support && support > core);
}

/// Sec. IV-C purification chain: repeated purification monotonically
/// improves a Core qubit's estimated fidelity toward 1.
#[test]
fn purification_chain_converges_upward() {
    let raw = 0.75;
    let mut rho = raw;
    let mut prev = 0.0;
    for _ in 0..6 {
        rho = purify(rho, raw);
        assert!(rho > prev);
        prev = rho;
    }
    assert!(
        rho > 0.95,
        "six purification rounds should exceed 0.95, got {rho}"
    );
}

/// Below threshold, larger codes should not do *worse* on aggregate. This
/// is a statistical smoke test with fixed seeds and moderate trials; it
/// checks the ordering the paper's Fig. 8 relies on.
#[test]
fn below_threshold_larger_distance_not_worse() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let trials = 300;
    let p = 0.03;
    let pe = 0.05;
    let mut rates = Vec::new();
    for d in [3usize, 7] {
        let code = SurfaceCode::new(d).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &part, p, pe);
        let decoder = UnionFindDecoder::from_model(&code, &model);
        let mut rng = SmallRng::seed_from_u64(99);
        let failures = (0..trials)
            .filter(|_| {
                let s = model.sample(&mut rng);
                !decoder.decode_sample(&code, &s).is_success()
            })
            .count();
        rates.push(failures as f64 / trials as f64);
    }
    assert!(
        rates[1] <= rates[0] + 0.02,
        "d=7 rate {} should not exceed d=3 rate {} below threshold",
        rates[1],
        rates[0]
    );
}

/// All three decoders agree on an unambiguous two-defect pattern.
#[test]
fn decoders_agree_on_unambiguous_pattern() {
    let code = SurfaceCode::new(5).unwrap();
    let model = ErrorModel::uniform(&code, 0.05, 0.0);
    let q = code.data_qubit_at(Coord::new(4, 2)).unwrap();
    let mut sample = ErrorSample::clean(code.num_data_qubits());
    sample.pauli.set(q, Pauli::X);
    let syndrome = code.extract_syndrome(&sample.pauli);
    let erased = vec![false; code.num_data_qubits()];
    let mwpm = MwpmDecoder::from_model(&code, &model)
        .decode(&code, &syndrome, &erased)
        .unwrap();
    let uf = UnionFindDecoder::from_model(&code, &model)
        .decode(&code, &syndrome, &erased)
        .unwrap();
    let sn = SurfNetDecoder::from_model(&code, &model)
        .decode(&code, &syndrome, &erased)
        .unwrap();
    assert_eq!(mwpm, uf);
    assert_eq!(uf, sn);
    assert_eq!(mwpm.get(q), Pauli::X);
}
