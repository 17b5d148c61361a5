//! The peeling decoder (Delfosse–Zémor \[39\]).
//!
//! Given the grown cluster support and the syndrome, the peeling decoder
//! finds a correction inside the support in linear time: build a spanning
//! forest of the support (rooting trees at the boundary whenever the
//! cluster touches it), then peel leaves inward — a leaf carrying a
//! syndrome contributes its tree edge to the correction and flips the
//! syndrome of its parent.

use crate::graph::DecodingGraph;
use crate::DecoderError;

/// Reusable buffers for [`peel_into`]: allocated once, cleared and resized
/// in place on every decode.
#[derive(Debug, Default)]
pub struct PeelScratch {
    defect: Vec<bool>,
    visited: Vec<bool>,
    parent_edge: Vec<usize>,
    /// BFS visit order; doubles as the BFS queue.
    order: Vec<usize>,
}

/// Runs the peeling decoder over the `support` edge set.
///
/// Returns the edge indices of the correction.
///
/// # Errors
///
/// Returns [`DecoderError::UnpairableSyndromes`] if a connected component
/// of the support holds an odd number of defects and no boundary vertex —
/// the cluster-growth stage is required to prevent this.
///
/// # Panics
///
/// Panics if `support` does not have one flag per edge or a defect index is
/// out of range.
pub fn peel(
    graph: &DecodingGraph,
    support: &[bool],
    defects: &[usize],
) -> Result<Vec<usize>, DecoderError> {
    let mut scratch = PeelScratch::default();
    let mut correction = Vec::new();
    peel_into(graph, support, defects, &mut scratch, &mut correction)?;
    Ok(correction)
}

/// Allocation-free variant of [`peel`]: runs the identical peeling pass
/// inside `scratch`, writing the correction edge indices into `out`
/// (cleared first).
///
/// # Errors
///
/// Returns [`DecoderError::UnpairableSyndromes`] if a connected component
/// of the support holds an odd number of defects and no boundary vertex.
///
/// # Panics
///
/// Panics if `support` does not have one flag per edge or a defect index is
/// out of range.
pub fn peel_into(
    graph: &DecodingGraph,
    support: &[bool],
    defects: &[usize],
    scratch: &mut PeelScratch,
    out: &mut Vec<usize>,
) -> Result<(), DecoderError> {
    surfnet_telemetry::count!("decoder.peeling_passes");
    let _span = surfnet_telemetry::span!("decoder.peel");
    assert_eq!(support.len(), graph.num_edges());
    let nv = graph.num_vertices();
    let boundary = graph.boundary();
    let PeelScratch {
        defect,
        visited,
        parent_edge,
        order,
    } = scratch;
    defect.clear();
    defect.resize(nv, false);
    for &d in defects {
        assert!(d < nv, "defect vertex {d} out of range");
        defect[d] = true;
    }

    const NONE: usize = usize::MAX;
    visited.clear();
    visited.resize(nv, false);
    parent_edge.clear();
    parent_edge.resize(nv, NONE);
    order.clear();

    // BFS over support edges. Start from the boundary so trees containing
    // it are rooted there (syndromes can then be flushed into the
    // boundary); remaining components are rooted arbitrarily. `order`
    // doubles as the FIFO queue: `head` is the next vertex to expand.
    for start in std::iter::once(boundary).chain(0..nv) {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut head = order.len();
        order.push(start);
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &e in graph.incident(v) {
                if !support[e] {
                    continue;
                }
                let u = graph.edge(e).other(v);
                if !visited[u] {
                    visited[u] = true;
                    parent_edge[u] = e;
                    order.push(u);
                }
            }
        }
    }

    // Peel leaves inward: reverse BFS order guarantees children before
    // parents.
    out.clear();
    for &v in order.iter().rev() {
        let e = parent_edge[v];
        if e == NONE {
            // Root: any residual defect here is an error unless the root is
            // the boundary (which absorbs parity).
            if defect[v] && v != boundary {
                return Err(DecoderError::UnpairableSyndromes);
            }
            continue;
        }
        if defect[v] {
            out.push(e);
            defect[v] = false;
            let p = graph.edge(e).other(v);
            defect[p] = !defect[p];
        }
    }
    out.sort_unstable();

    // SURFNET_CHECK: peeling must leave zero residual syndrome.
    if crate::check::enabled() {
        crate::check::assert_ok(
            crate::check::check_correction_annihilates(graph, out, defects),
            "peeling correction",
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DecodingGraph, GraphEdge};

    fn line() -> DecodingGraph {
        DecodingGraph::from_edges(
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
                GraphEdge {
                    a: 2,
                    b: 3,
                    qubit: 2,
                    fidelity: 0.9,
                },
            ],
        )
    }

    #[test]
    fn empty_support_no_defects() {
        let g = line();
        assert_eq!(peel(&g, &[false; 3], &[]).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn adjacent_pair_corrected_by_single_edge() {
        let g = line();
        let support = vec![true, false, false];
        assert_eq!(peel(&g, &support, &[0, 1]).unwrap(), vec![0]);
    }

    #[test]
    fn distant_pair_corrected_by_path() {
        let g = line();
        let support = vec![true, true, false];
        assert_eq!(peel(&g, &support, &[0, 2]).unwrap(), vec![0, 1]);
    }

    #[test]
    fn lone_defect_flushed_to_boundary() {
        let g = line();
        let support = vec![false, false, true];
        assert_eq!(peel(&g, &support, &[2]).unwrap(), vec![2]);
    }

    #[test]
    fn defect_far_from_boundary_uses_full_path() {
        let g = line();
        let support = vec![false, true, true];
        assert_eq!(peel(&g, &support, &[1]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn cycle_support_pairs_defects_inside() {
        // Square cycle 0-1-2-... wait, build 4 vertices + boundary 4.
        let g = DecodingGraph::from_edges(
            4,
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
                GraphEdge {
                    a: 2,
                    b: 3,
                    qubit: 2,
                    fidelity: 0.9,
                },
                GraphEdge {
                    a: 3,
                    b: 0,
                    qubit: 3,
                    fidelity: 0.9,
                },
            ],
        );
        let support = vec![true, true, true, true];
        let correction = peel(&g, &support, &[0, 2]).unwrap();
        // Spanning tree of the cycle drops one edge; the correction pairs
        // the two defects along tree paths. Applying it must clear both:
        // verify by parity check on each vertex.
        let mut parity = [0usize; 5];
        for &e in &correction {
            let edge = g.edge(e);
            parity[edge.a] += 1;
            parity[edge.b] += 1;
        }
        assert_eq!(parity[0] % 2, 1);
        assert_eq!(parity[2] % 2, 1);
        assert_eq!(parity[1] % 2, 0);
        assert_eq!(parity[3] % 2, 0);
    }

    #[test]
    fn odd_component_without_boundary_errors() {
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
        let support = vec![true, true];
        assert!(matches!(
            peel(&g, &support, &[0]),
            Err(DecoderError::UnpairableSyndromes)
        ));
    }

    #[test]
    fn defect_outside_support_errors() {
        let g = line();
        // Defect at 0 but support only covers e2: unreachable defect.
        let support = vec![false, false, true];
        assert!(peel(&g, &support, &[0]).is_err());
    }
}
