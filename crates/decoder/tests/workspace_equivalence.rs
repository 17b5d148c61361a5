//! The reusable-workspace decode path must be bit-identical to the
//! allocating path.
//!
//! `decode_sample_with`/`correction_for_with` reuse caller-owned buffers
//! across shots; `decode_sample`/`decode` build fresh scratch per
//! call. Both must produce the same correction string (not merely an
//! equivalent one) for every decoder kind, with and without erasures, so
//! that the shot-loop cache in `surfnet-core` cannot drift from the
//! reference semantics.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{DecodeWorkspace, Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};

/// Runs `shots` samples through one decoder twice — once per-shot fresh,
/// once through a single long-lived workspace — and asserts the outcomes
/// and corrections match exactly.
fn assert_paths_agree(
    code: &SurfaceCode,
    model: &ErrorModel,
    decoder: &dyn Decoder,
    seed: u64,
    shots: usize,
) {
    let mut ws = DecodeWorkspace::new();
    let mut rng_fresh = SmallRng::seed_from_u64(seed);
    let mut rng_reused = SmallRng::seed_from_u64(seed);
    for shot in 0..shots {
        let sample_fresh = model.sample(&mut rng_fresh);
        let sample_reused = model.sample(&mut rng_reused);
        // Same seed, same draw order: identical samples by construction.
        assert_eq!(sample_fresh.pauli, sample_reused.pauli);
        assert_eq!(sample_fresh.erased, sample_reused.erased);

        let fresh = decoder.decode_sample(code, &sample_fresh);
        let reused = match decoder.name() {
            "mwpm" => MwpmDecoder::from_model(code, model).decode_sample_with(
                code,
                &sample_reused,
                &mut ws,
            ),
            "union-find" => UnionFindDecoder::from_model(code, model).decode_sample_with(
                code,
                &sample_reused,
                &mut ws,
            ),
            "surfnet" => SurfNetDecoder::from_model(code, model).decode_sample_with(
                code,
                &sample_reused,
                &mut ws,
            ),
            other => panic!("unknown decoder {other}"),
        };
        assert_eq!(
            fresh,
            reused,
            "{} diverged on shot {shot} (seed {seed})",
            decoder.name()
        );

        // The corrections themselves (not just the verdict) must match.
        let syndrome = code.extract_syndrome(&sample_fresh.pauli);
        let via_alloc = decoder
            .decode(code, &syndrome, &sample_fresh.erased)
            .expect("allocating decode");
        let via_ws = match decoder.name() {
            "mwpm" => MwpmDecoder::from_model(code, model)
                .correction_for_with(&syndrome, &sample_reused.erased, &mut ws)
                .expect("workspace decode")
                .clone(),
            "union-find" => UnionFindDecoder::from_model(code, model)
                .correction_for_with(&syndrome, &sample_reused.erased, &mut ws)
                .expect("workspace decode")
                .clone(),
            "surfnet" => SurfNetDecoder::from_model(code, model)
                .correction_for_with(&syndrome, &sample_reused.erased, &mut ws)
                .expect("workspace decode")
                .clone(),
            other => panic!("unknown decoder {other}"),
        };
        assert_eq!(
            via_alloc,
            via_ws,
            "{} correction diverged on shot {shot} (seed {seed})",
            decoder.name()
        );
    }
}

#[test]
fn workspace_path_matches_allocating_path_bit_for_bit() {
    for distance in [3, 5] {
        let code = SurfaceCode::new(distance).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        // Pauli noise only, then Pauli + erasures (erasures exercise the
        // pregrown-cluster and erased-edge-weight paths).
        let models = [
            ErrorModel::dual_channel(&code, &part, 0.06, 0.0),
            ErrorModel::dual_channel(&code, &part, 0.05, 0.15),
            ErrorModel::uniform(&code, 0.08, 0.1),
        ];
        for model in &models {
            let decoders: [Box<dyn Decoder>; 3] = [
                Box::new(MwpmDecoder::from_model(&code, model)),
                Box::new(UnionFindDecoder::from_model(&code, model)),
                Box::new(SurfNetDecoder::from_model(&code, model)),
            ];
            for decoder in &decoders {
                for seed in [7, 1234, 999_983] {
                    assert_paths_agree(&code, model, decoder.as_ref(), seed, 8);
                }
            }
        }
    }
}

#[test]
fn one_workspace_serves_all_decoder_kinds_interleaved() {
    // The cache stores one workspace shared by every cached decoder; the
    // buffers must not leak state between decoder kinds or segment models.
    let code = SurfaceCode::new(5).unwrap();
    let part = code.core_partition(CoreTopology::Cross);
    let noisy = ErrorModel::dual_channel(&code, &part, 0.08, 0.2);
    let quiet = ErrorModel::dual_channel(&code, &part, 0.01, 0.0);
    let mut ws = DecodeWorkspace::new();
    let mut rng = SmallRng::seed_from_u64(42);
    for _ in 0..6 {
        for model in [&noisy, &quiet] {
            let sample = model.sample(&mut rng);
            let mwpm = MwpmDecoder::from_model(&code, model);
            let uf = UnionFindDecoder::from_model(&code, model);
            let sn = SurfNetDecoder::from_model(&code, model);
            for (fresh, reused) in [
                (
                    Decoder::decode_sample(&mwpm, &code, &sample),
                    mwpm.decode_sample_with(&code, &sample, &mut ws),
                ),
                (
                    Decoder::decode_sample(&uf, &code, &sample),
                    uf.decode_sample_with(&code, &sample, &mut ws),
                ),
                (
                    Decoder::decode_sample(&sn, &code, &sample),
                    sn.decode_sample_with(&code, &sample, &mut ws),
                ),
            ] {
                assert_eq!(fresh, reused);
                assert!(fresh.syndrome_cleared);
            }
        }
    }
}
