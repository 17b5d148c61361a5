//! `SURFNET_CHECK=1` runtime invariant checkers.
//!
//! Decoder bugs rarely surface as test failures — a union-find forest with
//! a cycle, a blossom "matching" that skips a vertex, or a peeling output
//! that leaves residual syndrome all just shift the logical error rate.
//! These checkers verify the structural invariants at the stage boundaries
//! where they must hold, and panic with a precise message when one breaks.
//!
//! The checks are debug-only and opt-in: in release builds [`enabled`] is a
//! `const fn` returning `false` so every `if check::enabled() { ... }`
//! block folds away entirely; in debug builds it reads the `SURFNET_CHECK`
//! environment variable once. The checker functions themselves are plain
//! `Result`-returning functions so corruption-injection tests can call them
//! directly. The harness ([`enabled`], [`assert_ok`],
//! [`InvariantViolation`]) is [`surfnet_telemetry::check`]'s, shared with
//! `surfnet_lp::check` and the netsim route checker.

use crate::graph::DecodingGraph;
use crate::union_find::UnionFind;
pub use surfnet_telemetry::check::{assert_ok, enabled, InvariantViolation};

fn violation(message: String) -> Result<(), InvariantViolation> {
    Err(InvariantViolation { message })
}

/// Union-find parent array is a forest: every parent index in range, no
/// cycles other than self-loops at roots.
pub fn check_forest(parent: &[usize]) -> Result<(), InvariantViolation> {
    let n = parent.len();
    for (v, &p) in parent.iter().enumerate() {
        if p >= n {
            return violation(format!("parent[{v}] = {p} out of range (len {n})"));
        }
    }
    for start in 0..n {
        // A root is reached in at most n-1 hops; more means a cycle.
        let mut cur = start;
        let mut hops = 0usize;
        while parent[cur] != cur {
            cur = parent[cur];
            hops += 1;
            if hops >= n {
                return violation(format!(
                    "parent chain from {start} never reaches a root (cycle)"
                ));
            }
        }
    }
    Ok(())
}

/// Cluster-growth bookkeeping is consistent with the union-find state
/// after a growth round:
///
/// - the parent array is a forest ([`check_forest`]);
/// - the member cycles `next` partition the vertices: the cycle through
///   each root stays inside the root's set, closes within `n` steps, and
///   has as many members as the set (so every vertex lies on its root's
///   cycle);
/// - `min_vertex[root]` is the lowest-index vertex on the root's cycle;
/// - `parity[root]` equals the defect count of the cluster mod 2;
/// - `touches_boundary[root]` is true exactly for the boundary's cluster;
/// - every grown edge has both endpoints in the same cluster.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per piece of growth state the invariants relate"
)]
pub fn check_cluster_invariants(
    uf: &mut UnionFind,
    parity: &[usize],
    touches_boundary: &[bool],
    next: &[usize],
    min_vertex: &[usize],
    is_defect: &[bool],
    boundary: usize,
    graph: &DecodingGraph,
    grown: &[bool],
) -> Result<(), InvariantViolation> {
    check_forest(uf.parents())?;
    let n = uf.len();
    if next.len() != n {
        return violation(format!(
            "members cycle array has {} entries for {n} vertices",
            next.len()
        ));
    }

    for v in 0..n {
        if uf.find(v) != v {
            continue;
        }
        // Walk the root's cycle; a cycle that never returns to `v` is cut
        // off after n members instead of looping forever.
        let (mut size, mut defects_inside, mut lowest) = (0usize, 0usize, v);
        let mut u = v;
        loop {
            if u >= n || uf.find(u) != v {
                return violation(format!(
                    "members cycle of cluster {v} reaches vertex {u}, which belongs to cluster {}",
                    if u < n { uf.find(u) } else { usize::MAX }
                ));
            }
            size += 1;
            defects_inside += usize::from(is_defect[u]);
            lowest = lowest.min(u);
            u = next[u];
            if u == v {
                break;
            }
            if size == n {
                return violation(format!(
                    "members cycle of cluster {v} never closes within {n} steps"
                ));
            }
        }
        let expected: usize = (0..n).filter(|&u| uf.find(u) == v).count();
        if size != expected {
            return violation(format!(
                "cluster {v} has {expected} vertices but its members cycle lists {size}"
            ));
        }
        if min_vertex[v] != lowest {
            return violation(format!(
                "cluster {v}: min_vertex {} but its lowest member is {lowest}",
                min_vertex[v]
            ));
        }
        if parity[v] % 2 != defects_inside % 2 {
            return violation(format!(
                "cluster {v}: parity {} disagrees with {defects_inside} member defects",
                parity[v]
            ));
        }
        let has_boundary = uf.find(boundary) == v;
        if touches_boundary[v] != has_boundary {
            return violation(format!(
                "cluster {v}: touches_boundary {} but boundary membership is {has_boundary}",
                touches_boundary[v]
            ));
        }
    }

    for (e, &g) in grown.iter().enumerate() {
        if g {
            let edge = graph.edge(e);
            if uf.find(edge.a) != uf.find(edge.b) {
                return violation(format!(
                    "grown edge {e} ({} - {}) spans two clusters",
                    edge.a, edge.b
                ));
            }
        }
    }
    Ok(())
}

/// `mate` is a valid perfect matching over `num_vertices` vertices using
/// only edges from `edges`: an involution with no fixed points, covering
/// every vertex, and every matched pair is an actual edge.
pub fn check_perfect_matching(
    num_vertices: usize,
    edges: &[(usize, usize, f64)],
    mate: &[usize],
) -> Result<(), InvariantViolation> {
    if mate.len() != num_vertices {
        return violation(format!(
            "mate has {} entries for {num_vertices} vertices",
            mate.len()
        ));
    }
    let pairs: std::collections::BTreeSet<(usize, usize)> = edges
        .iter()
        .map(|&(a, b, _)| (a.min(b), a.max(b)))
        .collect();
    for (v, &m) in mate.iter().enumerate() {
        if m >= num_vertices {
            return violation(format!("mate[{v}] = {m} out of range"));
        }
        if m == v {
            return violation(format!("vertex {v} is matched to itself"));
        }
        if mate[m] != v {
            return violation(format!(
                "matching is not an involution: mate[{v}] = {m} but mate[{m}] = {}",
                mate[m]
            ));
        }
        if !pairs.contains(&(v.min(m), v.max(m))) {
            return violation(format!(
                "matched pair ({v}, {m}) is not an edge of the path graph"
            ));
        }
    }
    Ok(())
}

/// Applying `correction` flips exactly the syndrome: for every non-boundary
/// vertex, the parity of incident correction edges equals its defect flag.
/// (The boundary absorbs any parity.)
pub fn check_correction_annihilates(
    graph: &DecodingGraph,
    correction: &[usize],
    defects: &[usize],
) -> Result<(), InvariantViolation> {
    let nv = graph.num_vertices();
    let boundary = graph.boundary();
    let mut parity = vec![false; nv];
    for &e in correction {
        if e >= graph.num_edges() {
            return violation(format!("correction edge {e} out of range"));
        }
        let edge = graph.edge(e);
        parity[edge.a] = !parity[edge.a];
        parity[edge.b] = !parity[edge.b];
    }
    let mut defect = vec![false; nv];
    for &d in defects {
        defect[d] = true;
    }
    for v in 0..nv {
        if v == boundary {
            continue;
        }
        if parity[v] != defect[v] {
            return violation(format!(
                "vertex {v}: correction parity {} but defect flag {}",
                parity[v], defect[v]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphEdge;

    fn line(n: usize) -> DecodingGraph {
        DecodingGraph::from_edges(
            n,
            (0..n)
                .map(|i| GraphEdge {
                    a: i,
                    b: i + 1,
                    qubit: i,
                    fidelity: 0.9,
                })
                .collect(),
        )
    }

    /// `min_vertex` of clusters whose roots are their lowest members.
    const LOWEST: [usize; 4] = [0, 1, 2, 3];

    #[test]
    fn healthy_forest_passes() {
        assert_eq!(check_forest(&[0, 0, 1, 3]), Ok(()));
    }

    #[test]
    fn corrupted_forest_cycle_fires() {
        // 1 -> 2 -> 1 cycle.
        let err = check_forest(&[0, 2, 1]).unwrap_err();
        assert!(err.message.contains("cycle"), "{err}");
    }

    #[test]
    fn corrupted_forest_out_of_range_fires() {
        assert!(check_forest(&[0, 9]).is_err());
    }

    #[test]
    fn cluster_invariants_healthy_state_passes() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        let root = uf.union(0, 1).unwrap();
        let mut parity = vec![0usize; 4];
        let mut next: Vec<usize> = (0..4).collect();
        let mut touches = vec![false; 4];
        touches[3] = true;
        parity[root] = 0; // two defects fused: even
        next.swap(0, 1); // splice the two member cycles
        let is_defect = vec![true, true, false, false];
        let grown = vec![true, false, false];
        assert_eq!(
            check_cluster_invariants(
                &mut uf, &parity, &touches, &next, &LOWEST, &is_defect, 3, &g, &grown
            ),
            Ok(())
        );
    }

    #[test]
    fn corrupted_parity_fires() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        let root = uf.union(0, 1).unwrap();
        let mut parity = vec![0usize; 4];
        parity[root] = 1; // lie: cluster holds two defects
        let mut next: Vec<usize> = (0..4).collect();
        next.swap(0, 1);
        let mut touches = vec![false; 4];
        touches[3] = true;
        let is_defect = vec![true, true, false, false];
        let err = check_cluster_invariants(
            &mut uf,
            &parity,
            &touches,
            &next,
            &LOWEST,
            &is_defect,
            3,
            &g,
            &[false; 3],
        )
        .unwrap_err();
        assert!(err.message.contains("parity"), "{err}");
    }

    #[test]
    fn corrupted_min_vertex_fires() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        // Equal sizes: vertex 2 absorbs vertex 1, so the root is not the
        // cluster's lowest member, and a fusion that never folded
        // `min_vertex` still reads 2 there.
        let root = uf.union(2, 1).unwrap();
        assert_eq!(root, 2);
        let mut next: Vec<usize> = (0..4).collect();
        next.swap(1, 2);
        let mut touches = vec![false; 4];
        touches[3] = true;
        let mut check = |min_vertex: &[usize]| {
            check_cluster_invariants(
                &mut uf,
                &[0; 4],
                &touches,
                &next,
                min_vertex,
                &[false; 4],
                3,
                &g,
                &[false, true, false],
            )
        };
        let err = check(&LOWEST).unwrap_err();
        assert!(
            err.message
                .contains("min_vertex 2 but its lowest member is 1"),
            "{err}"
        );
        assert_eq!(check(&[0, 1, 1, 3]), Ok(()));
    }

    #[test]
    fn corrupted_members_partition_fires() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        uf.union(0, 1);
        // cycles never spliced: the absorbed vertex still closes its own.
        let next: Vec<usize> = (0..4).collect();
        let mut touches = vec![false; 4];
        touches[3] = true;
        let err = check_cluster_invariants(
            &mut uf,
            &[0; 4],
            &touches,
            &next,
            &LOWEST,
            &[false; 4],
            3,
            &g,
            &[false; 3],
        )
        .unwrap_err();
        assert!(
            err.message.contains("members") || err.message.contains("owns"),
            "{err}"
        );
    }

    #[test]
    fn corrupted_member_cycle_fires_without_hanging() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        let root = uf.union(0, 1).unwrap();
        let other = if root == 0 { 1 } else { 0 };
        let mut touches = vec![false; 4];
        touches[3] = true;
        let mut check = |next: &[usize]| {
            check_cluster_invariants(
                &mut uf,
                &[0; 4],
                &touches,
                next,
                &LOWEST,
                &[false; 4],
                3,
                &g,
                &[false; 3],
            )
            .unwrap_err()
        };
        // The cycle leaks into vertex 2's singleton cluster.
        let mut next: Vec<usize> = (0..4).collect();
        next[root] = other;
        next[other] = 2;
        next[2] = root;
        let err = check(&next);
        assert!(err.message.contains("belongs to cluster 2"), "{err}");
        // The cycle from the root ends in a self-loop and never returns.
        let mut next: Vec<usize> = (0..4).collect();
        next[root] = other;
        let err = check(&next);
        assert!(err.message.contains("never closes"), "{err}");
    }

    #[test]
    fn corrupted_boundary_flag_fires() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        // Nothing fused; claim cluster 0 touches the boundary.
        let mut touches = vec![false; 4];
        touches[3] = true;
        touches[0] = true;
        let next: Vec<usize> = (0..4).collect();
        let err = check_cluster_invariants(
            &mut uf,
            &[0; 4],
            &touches,
            &next,
            &LOWEST,
            &[false; 4],
            3,
            &g,
            &[false; 3],
        )
        .unwrap_err();
        assert!(err.message.contains("touches_boundary"), "{err}");
    }

    #[test]
    fn grown_edge_spanning_clusters_fires() {
        let g = line(3);
        let mut uf = UnionFind::new(g.num_vertices());
        let next: Vec<usize> = (0..4).collect();
        let mut touches = vec![false; 4];
        touches[3] = true;
        // Edge 0 marked grown but endpoints 0 and 1 were never fused.
        let err = check_cluster_invariants(
            &mut uf,
            &[0; 4],
            &touches,
            &next,
            &LOWEST,
            &[false; 4],
            3,
            &g,
            &[true, false, false],
        )
        .unwrap_err();
        assert!(err.message.contains("spans two clusters"), "{err}");
    }

    #[test]
    fn valid_matching_passes() {
        let edges = vec![(0, 1, 1.0), (2, 3, 1.0), (0, 2, 5.0)];
        assert_eq!(check_perfect_matching(4, &edges, &[1, 0, 3, 2]), Ok(()));
    }

    #[test]
    fn matching_fixed_point_fires() {
        let edges = vec![(0, 1, 1.0)];
        let err = check_perfect_matching(2, &edges, &[0, 1]).unwrap_err();
        assert!(err.message.contains("matched to itself"), "{err}");
    }

    #[test]
    fn matching_non_involution_fires() {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)];
        let err = check_perfect_matching(4, &edges, &[1, 2, 3, 0]).unwrap_err();
        assert!(err.message.contains("involution"), "{err}");
    }

    #[test]
    fn matching_on_non_edge_fires() {
        // (0,3) and (1,2) are not edges of this path graph.
        let edges = vec![(0, 1, 1.0), (2, 3, 1.0)];
        let err = check_perfect_matching(4, &edges, &[3, 2, 1, 0]).unwrap_err();
        assert!(err.message.contains("not an edge"), "{err}");
    }

    #[test]
    fn annihilation_valid_correction_passes() {
        let g = line(3);
        // Defects at 0 and 2; correction e0+e1 connects them.
        assert_eq!(check_correction_annihilates(&g, &[0, 1], &[0, 2]), Ok(()));
        // Lone defect at 2 flushed over e2 into the boundary (vertex 3).
        assert_eq!(check_correction_annihilates(&g, &[2], &[2]), Ok(()));
    }

    #[test]
    fn residual_syndrome_fires() {
        let g = line(3);
        // Correction e0 pairs 0-1, but the defect sits at 2.
        let err = check_correction_annihilates(&g, &[0], &[2]).unwrap_err();
        assert!(err.message.contains("parity"), "{err}");
    }

    #[test]
    fn out_of_range_correction_edge_fires() {
        let g = line(3);
        assert!(check_correction_annihilates(&g, &[7], &[]).is_err());
    }
}
