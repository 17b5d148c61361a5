//! Property tests: the blossom matcher against brute force, and
//! whole-decoder invariants on random samples. Each test runs `CASES`
//! seeded cases; case `c` draws its inputs from `SmallRng::seed_from_u64(c)`
//! and every assertion names it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use surfnet_decoder::blossom::{max_weight_matching, min_weight_perfect_matching, WeightedEdge};
use surfnet_decoder::{Decoder, MwpmDecoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};

const CASES: u64 = 64;

/// Exhaustive matching for verification (max weight; optionally perfect).
fn brute_force(n: usize, edges: &[WeightedEdge], require_perfect: bool) -> Option<f64> {
    fn rec(
        v: usize,
        n: usize,
        used: &mut Vec<bool>,
        edges: &[WeightedEdge],
        require_perfect: bool,
    ) -> Option<f64> {
        if v == n {
            return Some(0.0);
        }
        if used[v] {
            return rec(v + 1, n, used, edges, require_perfect);
        }
        let mut best = if require_perfect {
            None
        } else {
            rec(v + 1, n, used, edges, require_perfect)
        };
        for &(a, b, w) in edges {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            if a != v || used[b] {
                continue;
            }
            used[a] = true;
            used[b] = true;
            if let Some(rest) = rec(v + 1, n, used, edges, require_perfect) {
                let cand = w + rest;
                best = Some(best.map_or(cand, |cur: f64| cur.max(cand)));
            }
            used[a] = false;
            used[b] = false;
        }
        best
    }
    rec(0, n, &mut vec![false; n], edges, require_perfect)
}

fn matching_weight(edges: &[WeightedEdge], mate: &[Option<usize>]) -> f64 {
    edges
        .iter()
        .filter(|&&(u, v, _)| mate.get(u).copied().flatten() == Some(v))
        .map(|e| e.2)
        .sum()
}

/// A random graph on 2..=`max_n` vertices: each pair is an edge three
/// times out of four, with an integer weight in 0..40. An empty graph has
/// nothing to match, so it is redrawn.
fn random_graph(rng: &mut SmallRng, max_n: usize) -> (usize, Vec<WeightedEdge>) {
    loop {
        let n = rng.gen_range(2..=max_n);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_range(0..4) != 0 {
                    edges.push((u, v, rng.gen_range(0u32..40) as f64));
                }
            }
        }
        if !edges.is_empty() {
            return (n, edges);
        }
    }
}

#[test]
fn blossom_matches_brute_force() {
    for case in 0..CASES {
        let (n, edges) = random_graph(&mut SmallRng::seed_from_u64(case), 8);
        let mate = max_weight_matching(&edges, false);
        // Validity: symmetric, no self-match.
        for v in 0..mate.len() {
            if let Some(u) = mate[v] {
                assert_eq!(mate[u], Some(v), "case {case}: vertex {v}");
                assert_ne!(u, v, "case {case}: vertex {v}");
            }
        }
        let got = matching_weight(&edges, &mate);
        let want = brute_force(n, &edges, false).unwrap();
        assert!((got - want).abs() < 1e-9, "case {case}: {got} vs {want}");
    }
}

#[test]
fn blossom_max_cardinality_never_smaller() {
    let card = |m: &[Option<usize>]| m.iter().flatten().count();
    for case in 0..CASES {
        let (_, edges) = random_graph(&mut SmallRng::seed_from_u64(case), 8);
        let plain = max_weight_matching(&edges, false);
        let maxcard = max_weight_matching(&edges, true);
        assert!(card(&maxcard) >= card(&plain), "case {case}");
    }
}

#[test]
fn perfect_matching_on_complete_even_graphs() {
    // A complete graph on an even number of vertices with random weights
    // always has a perfect matching; verify minimality against brute force.
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let n = 2 * rng.gen_range(2usize..=4);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v, rng.gen_range(0u32..50) as f64));
            }
        }
        let mate =
            min_weight_perfect_matching(n, &edges).unwrap_or_else(|e| panic!("case {case}: {e}"));
        for v in 0..n {
            assert_eq!(mate[mate[v]], v, "case {case}: vertex {v}");
        }
        let got: f64 = edges
            .iter()
            .filter(|&&(u, v, _)| mate[u] == v)
            .map(|e| e.2)
            .sum();
        // Brute force on the negated weights gives max weight == -min weight.
        let neg: Vec<WeightedEdge> = edges.iter().map(|&(u, v, w)| (u, v, -w)).collect();
        let want = -brute_force(n, &neg, true).unwrap();
        assert!((got - want).abs() < 1e-9, "case {case}: {got} vs {want}");
    }
}

#[test]
fn decoders_always_clear_syndromes() {
    let code = SurfaceCode::new(5).unwrap();
    let part = code.core_partition(CoreTopology::Cross);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (p, pe) = (rng.gen_range(0.0..0.12), rng.gen_range(0.0..0.25));
        let model = ErrorModel::dual_channel(&code, &part, p, pe);
        let sample = model.sample(&mut rng);
        let decoders: [&dyn Decoder; 3] = [
            &MwpmDecoder::from_model(&code, &model),
            &UnionFindDecoder::from_model(&code, &model),
            &SurfNetDecoder::from_model(&code, &model),
        ];
        for d in decoders {
            let outcome = d.decode_sample(&code, &sample);
            assert!(
                outcome.syndrome_cleared,
                "case {case} (p {p}, erasure {pe}): {} left syndrome",
                d.name()
            );
        }
    }
}

#[test]
fn correction_is_supported_on_data_qubits() {
    // The correction string always has exactly one operator slot per
    // data qubit and never touches out-of-range indices (implicitly
    // checked by construction; here we check length and that decode is
    // deterministic for a fixed input).
    let code = SurfaceCode::new(3).unwrap();
    let model = ErrorModel::uniform(&code, 0.08, 0.1);
    let d = SurfNetDecoder::from_model(&code, &model);
    for case in 0..CASES {
        let sample = model.sample(&mut SmallRng::seed_from_u64(case));
        let syndrome = code.extract_syndrome(&sample.pauli);
        let (Ok(c1), Ok(c2)) = (
            d.decode(&code, &syndrome, &sample.erased),
            d.decode(&code, &syndrome, &sample.erased),
        ) else {
            panic!("case {case}: decode failed");
        };
        assert_eq!(c1.len(), code.num_data_qubits(), "case {case}");
        assert_eq!(c1, c2, "case {case}");
    }
}
