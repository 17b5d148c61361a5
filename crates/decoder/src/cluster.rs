//! Weighted cluster growth — the shared engine behind the Union-Find and
//! SurfNet decoders (Algorithm 2).
//!
//! Starting from a singleton cluster per syndrome, clusters with odd
//! syndrome parity grow outward: every frontier edge accumulates growth at
//! its configured speed, and a fully-grown edge fuses the clusters at its
//! endpoints. A cluster that absorbs the boundary vertex becomes neutral
//! (its syndromes can be flushed to the boundary), as does a cluster whose
//! syndrome count turns even. Growth stops when no odd cluster remains; the
//! grown edge set is then handed to the peeling decoder.

use crate::graph::DecodingGraph;
use crate::union_find::UnionFind;
use crate::DecoderError;

/// Per-edge growth configuration.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// Fractional growth added to a frontier edge per round per incident
    /// odd cluster. The SurfNet decoder uses `−r / ln(1 − ρ)` (erasures
    /// fastest); the Union-Find baseline uses a uniform half-edge speed.
    pub speeds: Vec<f64>,
    /// Edges that start fully grown. The Union-Find baseline pre-grows
    /// erased edges (the erasure initializes its clusters, after \[32\]).
    pub pregrown: Vec<bool>,
}

impl GrowthConfig {
    /// Uniform half-edge growth with the given pre-grown set.
    pub fn uniform(num_edges: usize, pregrown: Vec<bool>) -> GrowthConfig {
        assert_eq!(pregrown.len(), num_edges);
        GrowthConfig {
            speeds: vec![0.5; num_edges],
            pregrown,
        }
    }

    /// Weighted speeds, nothing pre-grown.
    pub fn weighted(speeds: Vec<f64>) -> GrowthConfig {
        let n = speeds.len();
        GrowthConfig {
            speeds,
            pregrown: vec![false; n],
        }
    }
}

/// The outcome of cluster growth: which edges ended up inside clusters.
#[derive(Debug, Clone)]
pub struct GrownClusters {
    /// `grown[e]` is true when edge `e` is part of some cluster's support.
    pub grown: Vec<bool>,
    /// Number of growth rounds executed (diagnostic; bounds decoding work).
    pub rounds: usize,
}

/// Reusable buffers for [`grow_clusters_into`]: one allocation on first
/// use, then reused across decodes (every vector is cleared and resized in
/// place).
#[derive(Debug, Default)]
pub struct ClusterScratch {
    uf: UnionFind,
    is_defect: Vec<bool>,
    parity: Vec<usize>,
    touches_boundary: Vec<bool>,
    /// Circular member lists: `next[v]` is the vertex after `v` in its
    /// cluster's cycle, so walking from a root visits its whole cluster.
    next: Vec<usize>,
    /// `min_vertex[root]` is the lowest-index vertex of the root's cluster.
    min_vertex: Vec<usize>,
    growth: Vec<f64>,
    grown: Vec<bool>,
    /// `listed[e] == stamp` once edge `e` has had its growth in the
    /// current cluster step. Never cleared per decode: a stamp only grows,
    /// so an old entry never equals it, and the wrap to 0 resets the array.
    listed: Vec<u32>,
    stamp: u32,
    /// One bit per vertex: the candidate roots of the next growth round,
    /// then the roots of the clusters that hold a defect. Empty between
    /// uses.
    root_bits: Vec<u64>,
    /// The current round's odd, boundary-free roots, in ascending order.
    roots: Vec<usize>,
    /// Edges that finished growing in the current cluster step.
    newly_grown: Vec<usize>,
    /// Where peeling starts its trees ([`ClusterScratch::peel_starts`]).
    peel_starts: Vec<usize>,
}

impl ClusterScratch {
    /// The grown edge set left behind by the last [`grow_clusters_into`]
    /// call (one flag per edge of that graph).
    pub fn grown(&self) -> &[bool] {
        &self.grown
    }

    /// The BFS start vertices under which [`crate::peeling::peel_into`]
    /// over [`ClusterScratch::grown`] gives the full scan's correction for
    /// the last [`grow_clusters_into`] call's defects: the boundary if a
    /// defect's cluster holds it, then the lowest-index vertex of every
    /// other cluster that holds a defect. The clusters are the connected
    /// components of the grown support, and a component without a defect
    /// adds no correction edge.
    pub fn peel_starts(&self) -> &[usize] {
        &self.peel_starts
    }
}

/// Sets bit `v`.
fn set_bit(bits: &mut [u64], v: usize) {
    bits[v / 64] |= 1 << (v % 64);
}

/// Empties `bits`, calling `f` on every set bit in ascending order.
fn drain_bits(bits: &mut [u64], mut f: impl FnMut(usize)) {
    for (w, word) in bits.iter_mut().enumerate() {
        let mut rest = std::mem::take(word);
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// The stamp of the next cluster step. On the wrap to 0 every entry of
/// `listed` is reset once, so no stale entry can equal a reused stamp.
fn next_stamp(stamp: &mut u32, listed: &mut [u32]) -> u32 {
    *stamp = stamp.wrapping_add(1);
    if *stamp == 0 {
        listed.fill(0);
        *stamp = 1;
    }
    *stamp
}

/// Merges endpoints of a fully grown edge, folding bookkeeping.
fn fuse(
    uf: &mut UnionFind,
    parity: &mut [usize],
    touches_boundary: &mut [bool],
    next: &mut [usize],
    min_vertex: &mut [usize],
    a: usize,
    b: usize,
) {
    let ra = uf.find(a);
    let rb = uf.find(b);
    if ra == rb {
        return;
    }
    let Some(root) = uf.union(ra, rb) else {
        // Unreachable: ra != rb was just checked, so the union merges.
        return;
    };
    parity[root] = (parity[ra] + parity[rb]) % 2;
    touches_boundary[root] = touches_boundary[ra] || touches_boundary[rb];
    min_vertex[root] = min_vertex[ra].min(min_vertex[rb]);
    // Exchanging the successors of one vertex from each cycle splices the
    // two member cycles into one.
    next.swap(ra, rb);
}

/// Grows clusters around `defects` until every cluster is even or touches
/// the boundary.
///
/// # Errors
///
/// Returns [`DecoderError::UnpairableSyndromes`] when an odd number of
/// defects exists in a graph with no boundary edges (nothing can absorb the
/// extra syndrome).
///
/// # Panics
///
/// Panics if `config` vectors don't have one entry per edge, or a defect
/// index is out of range.
pub fn grow_clusters(
    graph: &DecodingGraph,
    defects: &[usize],
    config: &GrowthConfig,
) -> Result<GrownClusters, DecoderError> {
    let mut scratch = ClusterScratch::default();
    let rounds = grow_clusters_into(
        graph,
        defects,
        &config.speeds,
        &config.pregrown,
        &mut scratch,
    )?;
    Ok(GrownClusters {
        grown: scratch.grown,
        rounds,
    })
}

/// Allocation-free variant of [`grow_clusters`]: runs the identical growth
/// algorithm inside `scratch`, leaving the grown edge set in
/// [`ClusterScratch::grown`], the peeling start vertices in
/// [`ClusterScratch::peel_starts`], and returning the round count.
///
/// # Errors
///
/// Returns [`DecoderError::UnpairableSyndromes`] when an odd number of
/// defects exists in a graph with no boundary edges.
///
/// # Panics
///
/// Panics if `speeds`/`pregrown` don't have one entry per edge, or a
/// defect index is out of range.
pub fn grow_clusters_into(
    graph: &DecodingGraph,
    defects: &[usize],
    speeds: &[f64],
    pregrown: &[bool],
    scratch: &mut ClusterScratch,
) -> Result<usize, DecoderError> {
    assert_eq!(speeds.len(), graph.num_edges());
    assert_eq!(pregrown.len(), graph.num_edges());
    let nv = graph.num_vertices();
    let ne = graph.num_edges();
    let boundary = graph.boundary();

    if defects.len() % 2 == 1 && !graph.has_boundary_edges() {
        return Err(DecoderError::UnpairableSyndromes);
    }

    let ClusterScratch {
        uf,
        is_defect,
        parity,
        touches_boundary,
        next,
        min_vertex,
        growth,
        grown,
        listed,
        stamp,
        root_bits,
        roots,
        newly_grown,
        peel_starts,
    } = scratch;

    uf.reset(nv);
    is_defect.clear();
    is_defect.resize(nv, false);
    for &d in defects {
        assert!(d < nv, "defect vertex {d} out of range");
        is_defect[d] = true;
    }
    // Per-root bookkeeping, kept valid for *current* roots only.
    parity.clear();
    parity.resize(nv, 0);
    touches_boundary.clear();
    touches_boundary.resize(nv, false);
    next.clear();
    next.extend(0..nv);
    min_vertex.clear();
    min_vertex.extend(0..nv);
    for &d in defects {
        parity[d] = 1;
    }
    touches_boundary[boundary] = true;
    root_bits.clear();
    root_bits.resize(nv.div_ceil(64), 0);

    growth.clear();
    growth.resize(ne, 0.0);
    grown.clear();
    grown.resize(ne, false);
    listed.resize(ne, 0);

    for e in 0..ne {
        if pregrown[e] {
            grown[e] = true;
            growth[e] = 1.0;
            let edge = graph.edge(e);
            fuse(
                uf,
                parity,
                touches_boundary,
                next,
                min_vertex,
                edge.a,
                edge.b,
            );
        }
    }

    // The round's roots: every odd cluster holds a defect, so the defects'
    // roots cover the first round's odd clusters. A cluster changes parity
    // or boundary contact only by fusing, and every fusion joins the
    // cluster of a root this round grows, so each odd, boundary-free
    // cluster of the next round holds a root from this round's list.
    // Setting the bit of `find(root)` for each of them therefore covers
    // the next round, and walking the bits in ascending order lists each
    // candidate once, in the order a sort would.
    for &d in defects {
        set_bit(root_bits, uf.find(d));
    }
    let mut rounds = 0usize;
    loop {
        roots.clear();
        drain_bits(root_bits, |r| {
            if parity[r] % 2 == 1 && !touches_boundary[r] {
                roots.push(r);
            }
        });
        if roots.is_empty() {
            break;
        }
        rounds += 1;
        // Safety valve: every round adds a positive amount of growth to at
        // least one ungrown frontier edge, so the round count is bounded by
        // total capacity over the minimum speed. A generous cap guards
        // against degenerate configurations (e.g. zero speeds).
        if rounds > 64 * ne + 64 {
            return Err(DecoderError::GrowthStalled);
        }

        // Accumulate this round's growth for every odd cluster, then fuse.
        for i in 0..roots.len() {
            let root = roots[i];
            // `root` may have been fused earlier in this same round; skip
            // stale roots (their members grew under the new root already).
            if uf.find(root) != root || parity[root].is_multiple_of(2) || touches_boundary[root] {
                continue;
            }
            // Each ungrown edge incident to the cluster gets this step's
            // growth once: an edge interior to the cluster is met from both
            // endpoints, and the stamp turns the second meeting away. Edges
            // do not interact, so the order of the member cycle does not
            // matter.
            let step = next_stamp(stamp, listed);
            let mut v = root;
            loop {
                for &e in graph.incident(v) {
                    if !grown[e] && listed[e] != step {
                        listed[e] = step;
                        growth[e] += speeds[e].max(0.0);
                        if growth[e] >= 1.0 {
                            newly_grown.push(e);
                        }
                    }
                }
                v = next[v];
                if v == root {
                    break;
                }
            }
            // Fuse as soon as this cluster finished its round so that
            // "if Ci meets another cluster, fuse together" (Alg. 2 line 7)
            // is honored before the next cluster grows. Finished edges fuse
            // in ascending edge order: the order decides which root survives
            // each union-by-size tie, and so the order clusters grow in.
            newly_grown.sort_unstable();
            for &e in newly_grown.iter() {
                grown[e] = true;
                let edge = graph.edge(e);
                fuse(
                    uf,
                    parity,
                    touches_boundary,
                    next,
                    min_vertex,
                    edge.a,
                    edge.b,
                );
            }
            newly_grown.clear();
        }

        // SURFNET_CHECK: after every round the union-find forest must be
        // acyclic and the per-root bookkeeping consistent with it.
        if crate::check::enabled() {
            crate::check::assert_ok(
                crate::check::check_cluster_invariants(
                    uf,
                    parity,
                    touches_boundary,
                    next,
                    min_vertex,
                    is_defect,
                    boundary,
                    graph,
                    grown,
                ),
                "cluster growth round",
            );
        }

        for &root in roots.iter() {
            set_bit(root_bits, uf.find(root));
        }
    }

    // Peeling starts: the root bits are empty again, and now collect the
    // clusters that hold a defect, the boundary's first.
    peel_starts.clear();
    for &d in defects {
        set_bit(root_bits, uf.find(d));
    }
    let boundary_root = uf.find(boundary);
    if root_bits[boundary_root / 64] & (1 << (boundary_root % 64)) != 0 {
        peel_starts.push(boundary);
    }
    drain_bits(root_bits, |r| {
        if r != boundary_root {
            peel_starts.push(min_vertex[r]);
        }
    });

    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DecodingGraph, GraphEdge, GraphKind};
    use crate::peeling::{peel, peel_into, PeelScratch};
    use crate::weights::{growth_speed, DEFAULT_STEP_SIZE};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use surfnet_lattice::{CoreTopology, ErrorModel, SurfaceCode};

    /// One decoding problem of a Fig. 8 shot: a graph, its defects, the
    /// erased (pre-grown) edges and one decoder's speeds.
    struct Problem {
        graph: DecodingGraph,
        defects: Vec<usize>,
        erased: Vec<bool>,
        speeds: Vec<f64>,
    }

    /// Both graphs of `shots` seeded shots at distance `d` under Fig. 8
    /// noise (15% erasure, Pauli rate `p`), each with the Union-Find
    /// decoder's uniform speeds and with the SurfNet Decoder's.
    fn fig8_problems(d: usize, p: f64, shots: usize, seed: u64) -> Vec<Problem> {
        let code = SurfaceCode::new(d).unwrap();
        let part = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &part, p, 0.15);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut problems = Vec::new();
        for _ in 0..shots {
            let sample = model.sample(&mut rng);
            let syndrome = code.extract_syndrome(&sample.pauli);
            for (kind, flips) in [
                (GraphKind::Primal, &syndrome.z_flips),
                (GraphKind::Dual, &syndrome.x_flips),
            ] {
                let graph = DecodingGraph::from_code(&code, &model, kind);
                let defects: Vec<usize> = (0..flips.len()).filter(|&i| flips[i]).collect();
                for surfnet in [false, true] {
                    let speeds = graph
                        .edges()
                        .iter()
                        .map(|e| {
                            if surfnet {
                                growth_speed(e.fidelity, DEFAULT_STEP_SIZE)
                            } else {
                                0.5
                            }
                        })
                        .collect();
                    problems.push(Problem {
                        graph: graph.clone(),
                        defects: defects.clone(),
                        erased: sample.erased.clone(),
                        speeds,
                    });
                }
            }
        }
        problems
    }

    /// Line graph: 0 -e0- 1 -e1- 2 -e2- boundary(3).
    fn line(fidelity: f64) -> DecodingGraph {
        DecodingGraph::from_edges(
            3,
            vec![
                GraphEdge {
                    a: 0,
                    b: 1,
                    qubit: 0,
                    fidelity,
                },
                GraphEdge {
                    a: 1,
                    b: 2,
                    qubit: 1,
                    fidelity,
                },
                GraphEdge {
                    a: 2,
                    b: 3,
                    qubit: 2,
                    fidelity,
                },
            ],
        )
    }

    #[test]
    fn no_defects_no_growth() {
        let g = line(0.9);
        let out = grow_clusters(&g, &[], &GrowthConfig::uniform(3, vec![false; 3])).unwrap();
        assert!(out.grown.iter().all(|&g| !g));
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn pair_of_defects_fuses_between_them() {
        let g = line(0.9);
        let out = grow_clusters(&g, &[0, 1], &GrowthConfig::uniform(3, vec![false; 3])).unwrap();
        // Both defects grow e0 from each side: fused after one round.
        assert!(out.grown[0]);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn lone_defect_reaches_boundary() {
        let g = line(0.9);
        let out = grow_clusters(&g, &[2], &GrowthConfig::uniform(3, vec![false; 3])).unwrap();
        assert!(out.grown[2], "defect next to boundary should absorb e2");
    }

    #[test]
    fn pregrown_erasure_fuses_immediately() {
        let g = line(0.9);
        let cfg = GrowthConfig::uniform(3, vec![true, false, false]);
        let out = grow_clusters(&g, &[0, 1], &cfg).unwrap();
        // The two defects are already connected by the erased edge: even
        // cluster, zero growth rounds.
        assert_eq!(out.rounds, 0);
        assert!(out.grown[0]);
        assert!(!out.grown[1]);
    }

    #[test]
    fn weighted_speeds_bias_growth_direction() {
        // Defect at vertex 1; edge e0 is slow, e1+e2 fast toward boundary.
        let g = line(0.9);
        let cfg = GrowthConfig::weighted(vec![0.1, 1.0, 1.0]);
        let out = grow_clusters(&g, &[1], &cfg).unwrap();
        assert!(out.grown[1]);
        assert!(out.grown[2]);
        assert!(!out.grown[0], "slow edge should not finish growing");
    }

    #[test]
    fn odd_defects_without_boundary_is_error() {
        let g = DecodingGraph::from_edges(
            3,
            vec![
                GraphEdge {
                    a: 0,
                    b: 1,
                    qubit: 0,
                    fidelity: 0.9,
                },
                GraphEdge {
                    a: 1,
                    b: 2,
                    qubit: 1,
                    fidelity: 0.9,
                },
            ],
        );
        assert!(matches!(
            grow_clusters(&g, &[0], &GrowthConfig::uniform(2, vec![false; 2])),
            Err(DecoderError::UnpairableSyndromes)
        ));
    }

    #[test]
    fn zero_speeds_stall_detected() {
        let g = line(0.9);
        let cfg = GrowthConfig::weighted(vec![0.0, 0.0, 0.0]);
        assert!(matches!(
            grow_clusters(&g, &[0, 1], &cfg),
            Err(DecoderError::GrowthStalled)
        ));
    }

    #[test]
    fn peeling_from_defect_roots_matches_the_full_scan() {
        let (mut cluster, mut peel_scratch) = (ClusterScratch::default(), PeelScratch::default());
        let (mut boundary_free, mut several, mut compared) = (0, 0, 0);
        for (i, d) in [3, 5, 9, 15].into_iter().enumerate() {
            for (j, p) in [0.05, 0.0675, 0.085].into_iter().enumerate() {
                let seed = 380_000 + 10 * i as u64 + j as u64;
                for problem in fig8_problems(d, p, 25, seed) {
                    let Problem {
                        graph,
                        defects,
                        erased,
                        speeds,
                    } = &problem;
                    grow_clusters_into(graph, defects, speeds, erased, &mut cluster).unwrap();
                    let full_scan = peel(graph, cluster.grown(), defects);
                    let mut out = Vec::new();
                    let from_roots = peel_into(
                        graph,
                        cluster.grown(),
                        defects,
                        cluster.peel_starts().iter().copied(),
                        &mut peel_scratch,
                        &mut out,
                    )
                    .map(|()| out);
                    assert_eq!(from_roots, full_scan, "d={d} p={p} defects {defects:?}");
                    let starts = cluster.peel_starts();
                    if !defects.is_empty() && starts.first() != Some(&graph.boundary()) {
                        boundary_free += 1;
                    }
                    several += usize::from(starts.len() >= 2);
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 4 * 3 * 25 * 4);
        // Both shapes the starts take occur: no defect cluster holds the
        // boundary, and several clusters hold defects.
        assert!(
            boundary_free > 0 && several > 0,
            "{boundary_free} {several}"
        );
    }

    #[test]
    fn frontier_stamp_survives_the_wrap() {
        for problem in fig8_problems(9, 0.085, 6, 390_000) {
            let Problem {
                graph,
                defects,
                erased,
                speeds,
            } = &problem;
            // Preset the state 2^32 - 1 cluster steps after every edge was
            // last listed under stamp 1: the first step wraps to stamp 1
            // and must not read those entries as its own.
            let mut scratch = ClusterScratch {
                listed: vec![1; graph.num_edges()],
                stamp: u32::MAX,
                ..ClusterScratch::default()
            };
            let rounds = grow_clusters_into(graph, defects, speeds, erased, &mut scratch).unwrap();
            let fresh = grow_clusters(
                graph,
                defects,
                &GrowthConfig {
                    speeds: speeds.clone(),
                    pregrown: erased.clone(),
                },
            )
            .unwrap();
            assert_eq!(rounds, fresh.rounds);
            assert_eq!(scratch.grown(), &fresh.grown[..]);
            assert!(
                scratch.stamp < 1_000,
                "the stamp wrapped: {}",
                scratch.stamp
            );
        }
    }
}
