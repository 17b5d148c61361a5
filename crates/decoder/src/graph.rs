//! Weighted decoding graphs (paper Sec. IV-C).
//!
//! Each surface code is decoded as a graph `G = {V, E, W}`: vertices are
//! measurement qubits of one kind, each edge is a data qubit, and weights
//! derive from the per-qubit estimated fidelities. A single *virtual
//! boundary vertex* (index [`DecodingGraph::boundary`]) absorbs all edges
//! that terminate on the code boundary; decoders may connect syndromes to it
//! instead of pairing them.

use crate::weights::{edge_weight, erasure_weight};
use surfnet_lattice::{EdgeEnd, ErrorModel, SurfaceCode};

/// Which of the two CSS decoding problems a graph represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Vertices are measure-Z qubits; edges carry X-type error components.
    Primal,
    /// Vertices are measure-X qubits; edges carry Z-type error components.
    Dual,
}

/// One edge of a decoding graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEdge {
    /// First endpoint (vertex index; may be the boundary vertex).
    pub a: usize,
    /// Second endpoint (vertex index; may be the boundary vertex).
    pub b: usize,
    /// The data qubit this edge represents, as an index the caller
    /// understands (for code-derived graphs, the data qubit index).
    pub qubit: usize,
    /// Estimated fidelity `ρ` of the data qubit (before any erasure).
    pub fidelity: f64,
}

impl GraphEdge {
    /// The endpoint opposite to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this edge.
    #[expect(
        clippy::panic,
        reason = "documented contract — callers iterate incident edges, so v is always an endpoint"
    )]
    pub fn other(&self, v: usize) -> usize {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            panic!("vertex {v} is not an endpoint of edge {self:?}")
        }
    }
}

/// A weighted decoding graph with a single virtual boundary vertex.
///
/// Vertices `0 .. num_checks` are measurement qubits; vertex
/// [`DecodingGraph::boundary`] (== `num_checks`) is the virtual boundary.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    num_checks: usize,
    edges: Vec<GraphEdge>,
    /// `adj[v]` lists edge indices incident to vertex `v` (boundary
    /// included as the last entry).
    adj: Vec<Vec<usize>>,
}

impl DecodingGraph {
    /// Builds a graph from explicit edges over `num_checks` check vertices.
    ///
    /// Use vertex index `num_checks` for the boundary. Intended for tests
    /// and for custom geometries; code-derived graphs come from
    /// [`DecodingGraph::from_code`].
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex beyond the boundary index or a
    /// fidelity outside `[0, 1]`.
    pub fn from_edges(num_checks: usize, edges: Vec<GraphEdge>) -> DecodingGraph {
        let mut adj = vec![Vec::new(); num_checks + 1];
        for (i, e) in edges.iter().enumerate() {
            assert!(
                e.a <= num_checks && e.b <= num_checks,
                "edge endpoint out of range: {e:?}"
            );
            assert!(
                (0.0..=1.0).contains(&e.fidelity),
                "edge fidelity outside [0,1]: {e:?}"
            );
            adj[e.a].push(i);
            if e.b != e.a {
                adj[e.b].push(i);
            }
        }
        DecodingGraph {
            num_checks,
            edges,
            adj,
        }
    }

    /// Builds the primal or dual decoding graph of an unrotated planar
    /// surface code, taking per-qubit estimated fidelities from `model`
    /// (`ρ = 1 − p_pauli`, paper Sec. IV-C).
    pub fn from_code(code: &SurfaceCode, model: &ErrorModel, kind: GraphKind) -> DecodingGraph {
        let num_checks = match kind {
            GraphKind::Primal => code.num_measure_z(),
            GraphKind::Dual => code.num_measure_x(),
        };
        let boundary = num_checks;
        let to_vertex = |end: EdgeEnd| match end {
            EdgeEnd::Check(i) => i,
            EdgeEnd::Boundary(_) => boundary,
        };
        let edges = (0..code.num_data_qubits())
            .map(|q| {
                let (a, b) = match kind {
                    GraphKind::Primal => code.z_edge(q),
                    GraphKind::Dual => code.x_edge(q),
                };
                GraphEdge {
                    a: to_vertex(a),
                    b: to_vertex(b),
                    qubit: q,
                    fidelity: model.estimated_fidelity(q),
                }
            })
            .collect();
        DecodingGraph::from_edges(num_checks, edges)
    }

    /// Number of check (non-boundary) vertices.
    pub fn num_checks(&self) -> usize {
        self.num_checks
    }

    /// Index of the virtual boundary vertex.
    pub fn boundary(&self) -> usize {
        self.num_checks
    }

    /// Total number of vertices including the boundary.
    pub fn num_vertices(&self) -> usize {
        self.num_checks + 1
    }

    /// All edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Edge `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn edge(&self, i: usize) -> &GraphEdge {
        &self.edges[i]
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge indices incident to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn incident(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// The weight of edge `i` for a sample where `erased[i]` flags erasure:
    /// erased edges use `ρ = 0.5`, others the stored fidelity.
    ///
    /// # Panics
    ///
    /// Panics if `erased` does not have one flag per edge.
    pub fn sample_weight(&self, i: usize, erased: &[bool]) -> f64 {
        assert_eq!(erased.len(), self.edges.len());
        if erased[i] {
            erasure_weight()
        } else {
            edge_weight(self.edges[i].fidelity)
        }
    }

    /// Whether the graph has any edge touching the boundary vertex.
    pub fn has_boundary_edges(&self) -> bool {
        !self.adj[self.boundary()].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfnet_lattice::{ErrorModel, SurfaceCode};

    fn graphs_for(d: usize) -> (SurfaceCode, DecodingGraph, DecodingGraph) {
        let code = SurfaceCode::new(d).unwrap();
        let model = ErrorModel::uniform(&code, 0.1, 0.0);
        let primal = DecodingGraph::from_code(&code, &model, GraphKind::Primal);
        let dual = DecodingGraph::from_code(&code, &model, GraphKind::Dual);
        (code, primal, dual)
    }

    #[test]
    fn code_graphs_have_one_edge_per_data_qubit() {
        let (code, primal, dual) = graphs_for(5);
        assert_eq!(primal.num_edges(), code.num_data_qubits());
        assert_eq!(dual.num_edges(), code.num_data_qubits());
        assert_eq!(primal.num_checks(), code.num_measure_z());
        assert_eq!(dual.num_checks(), code.num_measure_x());
    }

    #[test]
    fn boundary_degree_matches_rim_qubits() {
        // The primal graph's boundary absorbs the 2d top/bottom row data
        // qubits (d each).
        let (code, primal, dual) = graphs_for(5);
        let d = code.distance();
        assert_eq!(primal.incident(primal.boundary()).len(), 2 * d);
        assert_eq!(dual.incident(dual.boundary()).len(), 2 * d);
    }

    #[test]
    fn check_degrees_match_geometry() {
        // Measure-Z qubits in the leftmost/rightmost columns have 3
        // incident data qubits; all others have 4. There are 2(d−1) such
        // rim checks.
        let (code, primal, _) = graphs_for(5);
        let d = code.distance();
        let mut three = 0;
        let mut four = 0;
        for v in 0..primal.num_checks() {
            match primal.incident(v).len() {
                3 => three += 1,
                4 => four += 1,
                deg => panic!("unexpected check degree {deg}"),
            }
        }
        assert_eq!(three, 2 * (d - 1));
        assert_eq!(four, primal.num_checks() - 2 * (d - 1));
    }

    #[test]
    fn erasure_overrides_weight() {
        let (_, primal, _) = graphs_for(3);
        let mut erased = vec![false; primal.num_edges()];
        let w_clean = primal.sample_weight(0, &erased);
        erased[0] = true;
        let w_erased = primal.sample_weight(0, &erased);
        assert!((w_erased - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(w_clean > w_erased); // fidelity 0.9 > 0.5
    }

    #[test]
    fn from_edges_builds_adjacency() {
        let edges = vec![
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
                a: 0,
                b: 3,
                qubit: 2,
                fidelity: 0.8,
            }, // boundary edge
        ];
        let g = DecodingGraph::from_edges(3, edges);
        assert_eq!(g.incident(0), &[0, 2]);
        assert_eq!(g.incident(1), &[0, 1]);
        assert_eq!(g.boundary(), 3);
        assert!(g.has_boundary_edges());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_vertex() {
        DecodingGraph::from_edges(
            2,
            vec![GraphEdge {
                a: 0,
                b: 5,
                qubit: 0,
                fidelity: 0.9,
            }],
        );
    }

    #[test]
    fn edge_other_endpoint() {
        let e = GraphEdge {
            a: 3,
            b: 7,
            qubit: 0,
            fidelity: 0.5,
        };
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }
}
