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
    growth: Vec<f64>,
    grown: Vec<bool>,
    roots: Vec<usize>,
    frontier: Vec<usize>,
    newly_grown: Vec<usize>,
}

impl ClusterScratch {
    /// The grown edge set left behind by the last [`grow_clusters_into`]
    /// call (one flag per edge of that graph).
    pub fn grown(&self) -> &[bool] {
        &self.grown
    }
}

/// Merges endpoints of a fully grown edge, folding bookkeeping.
fn fuse(
    uf: &mut UnionFind,
    parity: &mut [usize],
    touches_boundary: &mut [bool],
    next: &mut [usize],
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
/// [`ClusterScratch::grown`] and returning the round count.
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
        growth,
        grown,
        roots,
        frontier,
        newly_grown,
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
    for &d in defects {
        parity[d] = 1;
    }
    touches_boundary[boundary] = true;

    growth.clear();
    growth.resize(ne, 0.0);
    grown.clear();
    grown.resize(ne, false);

    for e in 0..ne {
        if pregrown[e] {
            grown[e] = true;
            growth[e] = 1.0;
            let edge = graph.edge(e);
            fuse(uf, parity, touches_boundary, next, edge.a, edge.b);
        }
    }

    // The round's roots: every odd cluster holds a defect, so the defects'
    // roots cover the first round's odd clusters. A cluster changes parity
    // or boundary contact only by fusing, and every fusion joins the
    // cluster of a root this round grows, so each odd, boundary-free
    // cluster of the next round holds a root from this round's list.
    // Mapping the list through `find` therefore covers the next round.
    roots.clear();
    roots.extend(defects.iter().map(|&d| uf.find(d)));
    let mut rounds = 0usize;
    loop {
        roots.sort_unstable();
        roots.dedup();
        roots.retain(|&r| parity[r] % 2 == 1 && !touches_boundary[r]);
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
            // The frontier is sorted and deduplicated before any growth is
            // added, so the order of the member cycle does not matter.
            frontier.clear();
            let mut v = root;
            loop {
                for &e in graph.incident(v) {
                    if !grown[e] {
                        frontier.push(e);
                    }
                }
                v = next[v];
                if v == root {
                    break;
                }
            }
            frontier.sort_unstable();
            frontier.dedup();
            for &e in frontier.iter() {
                // An edge interior to the cluster (both endpoints inside)
                // would be enumerated twice via its two endpoints; dedup
                // above makes the growth increment once per cluster.
                growth[e] += speeds[e].max(0.0);
                if growth[e] >= 1.0 && !grown[e] {
                    grown[e] = true;
                    newly_grown.push(e);
                }
            }
            // Fuse as soon as this cluster finished its round so that
            // "if Ci meets another cluster, fuse together" (Alg. 2 line 7)
            // is honored before the next cluster grows.
            for j in 0..newly_grown.len() {
                let edge = graph.edge(newly_grown[j]);
                fuse(uf, parity, touches_boundary, next, edge.a, edge.b);
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
                    is_defect,
                    boundary,
                    graph,
                    grown,
                ),
                "cluster growth round",
            );
        }

        for root in roots.iter_mut() {
            *root = uf.find(*root);
        }
    }

    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DecodingGraph, GraphEdge};

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
}
