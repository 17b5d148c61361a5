//! Maximum-weight matching in general graphs (the blossom algorithm).
//!
//! Algorithm 1 of the paper reduces SurfNet error correction to a
//! minimum-weight perfect matching problem and solves it with "Blossom"
//! (Edmonds' algorithm \[37\]). This module is a from-scratch Rust
//! implementation of Galil's O(n³) formulation, following the well-known
//! array-based organization of van Rantwijk's reference implementation:
//! primal-dual with S/T labels, blossom shrinking/expansion, and the four
//! dual-adjustment cases.
//!
//! [`max_weight_matching`] computes a maximum-weight matching; with
//! `max_cardinality = true` it maximizes cardinality first, which — after
//! negating weights — yields minimum-weight *perfect* matchings
//! ([`min_weight_perfect_matching`]) as Algorithm 1 requires.

const NONE: usize = usize::MAX;

/// An undirected weighted edge `(u, v, weight)`.
pub type WeightedEdge = (usize, usize, f64);

/// Computes a maximum-weight matching of the given edges.
///
/// Vertices are `0 ..= max vertex id in edges`. Returns `mate` where
/// `mate[v] = Some(u)` when `v` is matched to `u`, `None` when exposed.
///
/// When `max_cardinality` is true the matching has maximum cardinality
/// among all matchings, and maximum weight among those.
///
/// # Panics
///
/// Panics if an edge is a self-loop or a weight is NaN.
///
/// # Examples
///
/// ```
/// use surfnet_decoder::blossom::max_weight_matching;
/// // Triangle plus pendant: best weight picks the two disjoint edges.
/// let mate = max_weight_matching(&[(0, 1, 2.0), (1, 2, 2.5), (2, 3, 2.0)], false);
/// assert_eq!(mate[0], Some(1));
/// assert_eq!(mate[2], Some(3));
/// ```
pub fn max_weight_matching(edges: &[WeightedEdge], max_cardinality: bool) -> Vec<Option<usize>> {
    Matcher::new(edges, max_cardinality).run()
}

/// Computes a minimum-weight *perfect* matching.
///
/// # Errors
///
/// Returns `Err(MatchingError::NoPerfectMatching)` if the graph admits no
/// perfect matching (odd component, isolated vertex, …).
///
/// # Examples
///
/// ```
/// use surfnet_decoder::blossom::min_weight_perfect_matching;
/// let edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 0.1)];
/// let mate = min_weight_perfect_matching(4, &edges)?;
/// // The cheap diagonal cannot be used: a perfect matching must cover all
/// // four vertices, so it picks two opposite sides of the square.
/// assert!(mate[0] == 1 || mate[0] == 3);
/// assert_eq!(mate[mate[0]], 0);
/// # Ok::<(), surfnet_decoder::blossom::MatchingError>(())
/// ```
pub fn min_weight_perfect_matching(
    num_vertices: usize,
    edges: &[WeightedEdge],
) -> Result<Vec<usize>, MatchingError> {
    let mut neg = Vec::new();
    let mut out = Vec::new();
    min_weight_perfect_matching_into(num_vertices, edges, &mut neg, &mut out)?;
    Ok(out)
}

/// Buffer-reusing variant of [`min_weight_perfect_matching`]: the negated
/// edge list is built in `neg` and the matching written into `out` (both
/// cleared first), so repeated decodes amortize those two allocations.
///
/// # Errors
///
/// Returns `Err(MatchingError::NoPerfectMatching)` if the graph admits no
/// perfect matching.
pub fn min_weight_perfect_matching_into(
    num_vertices: usize,
    edges: &[WeightedEdge],
    neg: &mut Vec<WeightedEdge>,
    out: &mut Vec<usize>,
) -> Result<(), MatchingError> {
    if !num_vertices.is_multiple_of(2) {
        return Err(MatchingError::NoPerfectMatching);
    }
    // Negate weights: a max-weight max-cardinality matching of the negated
    // graph is a min-weight perfect matching when one exists.
    neg.clear();
    neg.extend(edges.iter().map(|&(u, v, w)| (u, v, -w)));
    let mate = Matcher::with_vertices(num_vertices, neg, true).run();
    out.clear();
    out.resize(num_vertices, 0);
    for v in 0..num_vertices {
        match mate.get(v).copied().flatten() {
            Some(u) => out[v] = u,
            None => return Err(MatchingError::NoPerfectMatching),
        }
    }
    Ok(())
}

/// Errors from matching computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatchingError {
    /// The graph has no perfect matching.
    NoPerfectMatching,
}

impl std::fmt::Display for MatchingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchingError::NoPerfectMatching => write!(f, "graph has no perfect matching"),
        }
    }
}

impl std::error::Error for MatchingError {}

/// Internal primal-dual state of one matching computation.
///
/// Blossoms are numbered `nvertex .. 2*nvertex`; endpoint `p` denotes edge
/// `p / 2` oriented so that `endpoint[p]` is the vertex it points at.
struct Matcher {
    nvertex: usize,
    edges: Vec<WeightedEdge>,
    max_cardinality: bool,
    endpoint: Vec<usize>,
    neighbend: Vec<Vec<usize>>,
    mate: Vec<usize>,
    label: Vec<u8>,
    labelend: Vec<usize>,
    inblossom: Vec<usize>,
    blossomparent: Vec<usize>,
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<usize>,
    blossomendps: Vec<Vec<usize>>,
    bestedge: Vec<usize>,
    blossombestedges: Vec<Vec<usize>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<f64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
}

impl Matcher {
    fn new(edges: &[WeightedEdge], max_cardinality: bool) -> Matcher {
        let nvertex = edges
            .iter()
            .map(|&(u, v, _)| u.max(v) + 1)
            .max()
            .unwrap_or(0);
        Matcher::with_vertices(nvertex, edges, max_cardinality)
    }

    fn with_vertices(nvertex: usize, edges: &[WeightedEdge], max_cardinality: bool) -> Matcher {
        for &(u, v, w) in edges {
            assert!(u != v, "self-loop edge ({u}, {v})");
            assert!(u < nvertex && v < nvertex, "edge endpoint out of range");
            assert!(!w.is_nan(), "NaN edge weight");
        }
        let nedge = edges.len();
        let maxweight = edges.iter().map(|e| e.2).fold(0.0f64, f64::max);
        let mut endpoint = Vec::with_capacity(2 * nedge);
        for e in edges {
            endpoint.push(e.0);
            endpoint.push(e.1);
        }
        let mut neighbend = vec![Vec::new(); nvertex];
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            neighbend[i].push(2 * k + 1);
            neighbend[j].push(2 * k);
        }
        let mut dualvar = vec![maxweight; nvertex];
        dualvar.extend(std::iter::repeat_n(0.0, nvertex));
        Matcher {
            nvertex,
            edges: edges.to_vec(),
            max_cardinality,
            endpoint,
            neighbend,
            mate: vec![NONE; nvertex],
            label: vec![0; 2 * nvertex],
            labelend: vec![NONE; 2 * nvertex],
            inblossom: (0..nvertex).collect(),
            blossomparent: vec![NONE; 2 * nvertex],
            blossomchilds: vec![Vec::new(); 2 * nvertex],
            blossombase: (0..nvertex)
                .chain(std::iter::repeat_n(NONE, nvertex))
                .collect(),
            blossomendps: vec![Vec::new(); 2 * nvertex],
            bestedge: vec![NONE; 2 * nvertex],
            blossombestedges: vec![Vec::new(); 2 * nvertex],
            unusedblossoms: (nvertex..2 * nvertex).collect(),
            dualvar,
            allowedge: vec![false; nedge],
            queue: Vec::new(),
        }
    }

    #[inline]
    fn slack(&self, k: usize) -> f64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2.0 * wt
    }

    /// All vertices contained (recursively) in blossom `b`.
    fn blossom_leaves(&self, b: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![b];
        while let Some(t) = stack.pop() {
            if t < self.nvertex {
                out.push(t);
            } else {
                stack.extend(self.blossomchilds[t].iter().copied());
            }
        }
        out
    }

    /// Assigns label `t` (1 = S, 2 = T) to the top-level blossom of `w`,
    /// reached through endpoint `p`.
    fn assign_label(&mut self, w: usize, t: u8, p: usize) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            // S-blossom: schedule all its vertices for scanning.
            self.queue.extend(self.blossom_leaves(b));
        } else {
            // T-blossom: its base's mate becomes an S-vertex.
            let base = self.blossombase[b];
            debug_assert_ne!(self.mate[base], NONE);
            let mate_p = self.mate[base];
            self.assign_label(self.endpoint[mate_p], 1, mate_p ^ 1);
        }
    }

    /// Traces back from vertices `v` and `w` to find the closest common
    /// ancestor blossom of the alternating trees; returns its base vertex
    /// or `NONE` when the trees have different roots (an augmenting path).
    fn scan_blossom(&mut self, v: usize, w: usize) -> usize {
        let mut path = Vec::new();
        let mut base = NONE;
        let mut v = v;
        let mut w = w;
        loop {
            if v == NONE && w == NONE {
                break;
            }
            if v != NONE {
                let b = self.inblossom[v];
                if self.label[b] & 4 != 0 {
                    base = self.blossombase[b];
                    break;
                }
                debug_assert_eq!(self.label[b], 1);
                path.push(b);
                self.label[b] = 5;
                debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b]]);
                if self.labelend[b] == NONE {
                    v = NONE;
                } else {
                    let t = self.endpoint[self.labelend[b]];
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], 2);
                    debug_assert_ne!(self.labelend[bt], NONE);
                    v = self.endpoint[self.labelend[bt]];
                }
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for b in path {
            self.label[b] = 1;
        }
        base
    }

    /// Shrinks the cycle through edge `k` and common-ancestor base `base`
    /// into a new blossom.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        #[expect(
            clippy::expect_used,
            reason = "nvertex spare ids are preallocated and every blossom absorbs >= 3 children, so at most nvertex/2 can ever be live"
        )]
        let b = self.unusedblossoms.pop().expect("ran out of blossom ids");
        self.blossombase[b] = base;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b;
        let mut path = Vec::new();
        let mut endps = Vec::new();
        while bv != bb {
            self.blossomparent[bv] = b;
            path.push(bv);
            endps.push(self.labelend[bv]);
            debug_assert_ne!(self.labelend[bv], NONE);
            v = self.endpoint[self.labelend[bv]];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb {
            self.blossomparent[bw] = b;
            path.push(bw);
            endps.push(self.labelend[bw] ^ 1);
            debug_assert_ne!(self.labelend[bw], NONE);
            w = self.endpoint[self.labelend[bw]];
            bw = self.inblossom[w];
        }
        debug_assert_eq!(self.label[bb], 1);
        self.blossomchilds[b] = path.clone();
        self.blossomendps[b] = endps;
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0.0;
        for leaf in self.blossom_leaves(b) {
            if self.label[self.inblossom[leaf]] == 2 {
                self.queue.push(leaf);
            }
            self.inblossom[leaf] = b;
        }
        // Recompute best-edge lists for delta-3 bookkeeping.
        let mut bestedgeto = vec![NONE; 2 * self.nvertex];
        for &bv in &path {
            let nblists: Vec<Vec<usize>> = if self.blossombestedges[bv].is_empty() {
                self.blossom_leaves(bv)
                    .into_iter()
                    .map(|leaf| self.neighbend[leaf].iter().map(|p| p / 2).collect())
                    .collect()
            } else {
                vec![self.blossombestedges[bv].clone()]
            };
            for nblist in nblists {
                for k2 in nblist {
                    let (mut i, mut j, _) = self.edges[k2];
                    if self.inblossom[j] == b {
                        std::mem::swap(&mut i, &mut j);
                    }
                    let bj = self.inblossom[j];
                    if bj != b
                        && self.label[bj] == 1
                        && (bestedgeto[bj] == NONE || self.slack(k2) < self.slack(bestedgeto[bj]))
                    {
                        bestedgeto[bj] = k2;
                    }
                    let _ = i;
                }
            }
            self.blossombestedges[bv].clear();
            self.bestedge[bv] = NONE;
        }
        self.blossombestedges[b] = bestedgeto.into_iter().filter(|&k2| k2 != NONE).collect();
        self.bestedge[b] = NONE;
        for idx in 0..self.blossombestedges[b].len() {
            let k2 = self.blossombestedges[b][idx];
            if self.bestedge[b] == NONE || self.slack(k2) < self.slack(self.bestedge[b]) {
                self.bestedge[b] = k2;
            }
        }
    }

    /// Expands blossom `b`, undoing its shrinking. When `endstage` is true
    /// the blossom is being dismantled after a stage; otherwise it is a
    /// T-blossom whose dual reached zero mid-stage.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = self.blossomchilds[b].clone();
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0.0 {
                self.expand_blossom(s, endstage);
            } else {
                for leaf in self.blossom_leaves(s) {
                    self.inblossom[leaf] = s;
                }
            }
        }
        if !endstage && self.label[b] == 2 {
            // The blossom was reached through labelend[b]; relabel its
            // children along the even-length path to the base.
            debug_assert_ne!(self.labelend[b], NONE);
            let entrychild = self.inblossom[self.endpoint[self.labelend[b] ^ 1]];
            let childs_len = self.blossomchilds[b].len() as isize;
            #[expect(
                clippy::expect_used,
                reason = "labelend points at an edge into this blossom, so its endpoint's sub-blossom is one of the childs by construction"
            )]
            let mut j = self.blossomchilds[b]
                .iter()
                .position(|&c| c == entrychild)
                .expect("entry child not found") as isize;
            let (jstep, endptrick): (isize, usize) = if j & 1 != 0 {
                j -= childs_len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let mut p = self.labelend[b];
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[p ^ 1]] = 0;
                let idx = Self::wrap(j - endptrick as isize, childs_len);
                let q = self.blossomendps[b][idx] ^ endptrick ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p);
                // Step to the next S-sub-blossom; its forward edge is allowed.
                self.allowedge[self.blossomendps[b][idx] / 2] = true;
                j += jstep;
                let idx = Self::wrap(j - endptrick as isize, childs_len);
                p = self.blossomendps[b][idx] ^ endptrick;
                // Step to the next T-sub-blossom.
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping to its mate.
            let bv = self.blossomchilds[b][Self::wrap(j, childs_len)];
            self.label[self.endpoint[p ^ 1]] = 2;
            self.label[bv] = 2;
            self.labelend[self.endpoint[p ^ 1]] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NONE;
            // Continue along the blossom until reaching the entry child,
            // resetting labels of unlabeled sub-blossoms.
            j += jstep;
            while self.blossomchilds[b][Self::wrap(j, childs_len)] != entrychild {
                let bv = self.blossomchilds[b][Self::wrap(j, childs_len)];
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut labeled_vertex = NONE;
                for leaf in self.blossom_leaves(bv) {
                    if self.label[leaf] != 0 {
                        labeled_vertex = leaf;
                        break;
                    }
                }
                if labeled_vertex != NONE {
                    let v = labeled_vertex;
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base_mate = self.mate[self.blossombase[bv]];
                    self.label[self.endpoint[base_mate]] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossomchilds[b].clear();
        self.blossomendps[b].clear();
        self.blossombase[b] = NONE;
        self.blossombestedges[b].clear();
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }

    #[inline]
    fn wrap(j: isize, len: isize) -> usize {
        (((j % len) + len) % len) as usize
    }

    /// Swaps matched/unmatched edges inside blossom `b` so that its base
    /// becomes vertex `v`.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b {
            t = self.blossomparent[t];
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        let childs_len = self.blossomchilds[b].len() as isize;
        #[expect(
            clippy::expect_used,
            reason = "t is the sub-blossom of b containing v, found by walking blossomparent, so it is one of b's childs"
        )]
        let i = self.blossomchilds[b]
            .iter()
            .position(|&c| c == t)
            .expect("child not found") as isize;
        let mut j = i;
        let (jstep, endptrick): (isize, usize) = if i & 1 != 0 {
            j -= childs_len;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += jstep;
            let t = self.blossomchilds[b][Self::wrap(j, childs_len)];
            let idx = Self::wrap(j - endptrick as isize, childs_len);
            let p = self.blossomendps[b][idx] ^ endptrick;
            if t >= self.nvertex {
                self.augment_blossom(t, self.endpoint[p]);
            }
            j += jstep;
            let t = self.blossomchilds[b][Self::wrap(j, childs_len)];
            if t >= self.nvertex {
                self.augment_blossom(t, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = p ^ 1;
            self.mate[self.endpoint[p ^ 1]] = p;
        }
        self.blossomchilds[b].rotate_left(Self::wrap(i, childs_len));
        self.blossomendps[b].rotate_left(Self::wrap(i, childs_len));
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]];
        debug_assert_eq!(self.blossombase[b], v);
    }

    /// Augments the matching along the path through tight edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (mut s, mut p) in [(v, 2 * k + 1), (w, 2 * k)] {
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs]]);
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs]];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert_ne!(self.labelend[bt], NONE);
                s = self.endpoint[self.labelend[bt]];
                let j = self.endpoint[self.labelend[bt] ^ 1];
                debug_assert_eq!(self.blossombase[bt], t);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = self.labelend[bt] ^ 1;
            }
        }
    }

    fn run(mut self) -> Vec<Option<usize>> {
        let _span = surfnet_telemetry::span!("decoder.blossom.match");
        let nvertex = self.nvertex;
        if nvertex == 0 {
            return Vec::new();
        }
        for _ in 0..nvertex {
            surfnet_telemetry::count!("decoder.blossom_stages");
            // Start of a stage: clear all labels and best-edge caches.
            self.label.iter_mut().for_each(|l| *l = 0);
            self.bestedge.iter_mut().for_each(|e| *e = NONE);
            for b in nvertex..2 * nvertex {
                self.blossombestedges[b].clear();
            }
            self.allowedge.iter_mut().for_each(|a| *a = false);
            self.queue.clear();
            for v in 0..nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    let neigh = self.neighbend[v].clone();
                    let mut did_augment = false;
                    for p in neigh {
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0.0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0.0 {
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                self.assign_label(w, 2, p ^ 1);
                            } else if self.label[self.inblossom[w]] == 1 {
                                let base = self.scan_blossom(v, w);
                                if base != NONE {
                                    self.add_blossom(base, k);
                                } else {
                                    self.augment_matching(k);
                                    augmented = true;
                                    did_augment = true;
                                    break;
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = p ^ 1;
                            }
                        } else if self.label[self.inblossom[w]] == 1 {
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE || kslack < self.slack(self.bestedge[b]) {
                                self.bestedge[b] = k;
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE || kslack < self.slack(self.bestedge[w]))
                        {
                            self.bestedge[w] = k;
                        }
                    }
                    if did_augment {
                        break;
                    }
                }
                if augmented {
                    break;
                }

                // No augmenting path found under the current duals: adjust.
                let mut deltatype: i8 = -1;
                let mut delta = 0.0f64;
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                if !self.max_cardinality {
                    deltatype = 1;
                    delta = self.dualvar[..nvertex]
                        .iter()
                        .fold(f64::INFINITY, |a, &b| a.min(b))
                        .max(0.0);
                }
                for v in 0..nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.slack(self.bestedge[v]);
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                for b in 0..2 * nvertex {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let d = self.slack(self.bestedge[b]) / 2.0;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b];
                        }
                    }
                }
                for b in nvertex..2 * nvertex {
                    if self.blossombase[b] != NONE
                        && self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && (deltatype == -1 || self.dualvar[b] < delta)
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }
                if deltatype == -1 {
                    // No further progress possible (max-cardinality mode);
                    // make the optimum-verification duals non-negative.
                    deltatype = 1;
                    delta = self.dualvar[..nvertex]
                        .iter()
                        .fold(f64::INFINITY, |a, &b| a.min(b))
                        .max(0.0);
                }
                for v in 0..nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in nvertex..2 * nvertex {
                    if self.blossombase[b] != NONE && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                match deltatype {
                    1 => break,
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j, _) = self.edges[deltaedge];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let (i, _, _) = self.edges[deltaedge];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => self.expand_blossom(deltablossom, false),
                    _ => unreachable!(),
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand all S-blossoms with zero dual.
            for b in nvertex..2 * nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] != NONE
                    && self.label[b] == 1
                    && self.dualvar[b] == 0.0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
        (0..nvertex)
            .map(|v| {
                if self.mate[v] == NONE {
                    None
                } else {
                    Some(self.endpoint[self.mate[v]])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_weight(edges: &[WeightedEdge], mate: &[Option<usize>]) -> f64 {
        edges
            .iter()
            .filter(|&&(u, v, _)| mate[u] == Some(v))
            .map(|e| e.2)
            .sum()
    }

    /// Exhaustive maximum-weight matching for small graphs.
    fn brute_force(n: usize, edges: &[WeightedEdge], require_perfect: bool) -> Option<f64> {
        fn rec(
            v: usize,
            n: usize,
            used: &mut Vec<bool>,
            edges: &[WeightedEdge],
            require_perfect: bool,
        ) -> Option<f64> {
            if v == n {
                if require_perfect && used.iter().any(|&u| !u) {
                    return None;
                }
                return Some(0.0);
            }
            if used[v] {
                return rec(v + 1, n, used, edges, require_perfect);
            }
            let mut best: Option<f64> = if require_perfect {
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
                    best = Some(match best {
                        Some(cur) => cur.max(cand),
                        None => cand,
                    });
                }
                used[a] = false;
                used[b] = false;
            }
            best
        }
        rec(0, n, &mut vec![false; n], edges, require_perfect)
    }

    fn assert_valid_matching(n: usize, mate: &[Option<usize>]) {
        for v in 0..n {
            if let Some(u) = mate[v] {
                assert_eq!(mate[u], Some(v), "asymmetric matching at {v} <-> {u}");
                assert_ne!(u, v);
            }
        }
    }

    #[test]
    fn empty_graph() {
        assert!(max_weight_matching(&[], false).is_empty());
    }

    #[test]
    fn single_edge() {
        let mate = max_weight_matching(&[(0, 1, 1.0)], false);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn negative_weight_edge_skipped_without_maxcardinality() {
        let mate = max_weight_matching(&[(0, 1, -1.0)], false);
        assert_eq!(mate, vec![None, None]);
    }

    #[test]
    fn negative_weight_edge_taken_with_maxcardinality() {
        let mate = max_weight_matching(&[(0, 1, -1.0)], true);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn path_prefers_middle_when_heaviest() {
        // 0-1 (2), 1-2 (5), 2-3 (2): taking the middle edge alone (5)
        // beats the two outer edges (4).
        let mate = max_weight_matching(&[(0, 1, 2.0), (1, 2, 5.0), (2, 3, 2.0)], false);
        assert_eq!(mate[1], Some(2));
        assert_eq!(mate[0], None);
        // With max cardinality the outer pair wins despite lower weight.
        let mate = max_weight_matching(&[(0, 1, 2.0), (1, 2, 5.0), (2, 3, 2.0)], true);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[2], Some(3));
    }

    #[test]
    fn triangle_with_tail_forms_blossom() {
        // Classic blossom test: odd cycle 0-1-2 plus tail 2-3.
        let edges = [(0, 1, 6.0), (0, 2, 10.0), (1, 2, 5.0), (2, 3, 4.0)];
        let mate = max_weight_matching(&edges, false);
        assert_valid_matching(4, &mate);
        let got = total_weight(&edges, &mate);
        let want = brute_force(4, &edges, false).unwrap();
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn van_rantwijk_nested_blossom_case() {
        // Creates a nested S-blossom, relabels as T-blossom, expands.
        let edges = [
            (1, 2, 9.0),
            (1, 3, 8.0),
            (2, 3, 10.0),
            (1, 4, 5.0),
            (4, 5, 4.0),
            (1, 6, 3.0),
        ];
        let mate = max_weight_matching(&edges, false);
        assert_valid_matching(7, &mate);
        assert_eq!(mate[2], Some(3));
        assert_eq!(mate[4], Some(5));
        assert_eq!(mate[1], Some(6));
    }

    #[test]
    fn van_rantwijk_t_blossom_expansion() {
        // S-blossom, relabeled as T-blossom; augmenting path through it.
        let edges = [
            (1, 2, 8.0),
            (1, 3, 8.0),
            (2, 3, 10.0),
            (3, 4, 12.0),
            (4, 5, 12.0),
            (5, 6, 14.0),
            (6, 7, 12.0),
            (7, 8, 12.0),
            (8, 9, 14.0),
            (9, 10, 12.0),
            (10, 11, 12.0),
            (5, 9, 14.0),
            (4, 8, 11.0),
        ];
        let mate = max_weight_matching(&edges, false);
        assert_valid_matching(12, &mate);
        let got = total_weight(&edges, &mate);
        let want = brute_force(12, &edges, false).unwrap();
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn van_rantwijk_nasty_blossom_augmentation() {
        // Blossom with five children, augmenting path exits through it.
        let edges = [
            (1, 2, 45.0),
            (1, 5, 45.0),
            (2, 3, 50.0),
            (3, 4, 45.0),
            (4, 5, 50.0),
            (1, 6, 30.0),
            (3, 9, 35.0),
            (4, 8, 35.0),
            (5, 7, 26.0),
            (9, 10, 5.0),
        ];
        let mate = max_weight_matching(&edges, false);
        assert_valid_matching(11, &mate);
        let got = total_weight(&edges, &mate);
        let want = brute_force(11, &edges, false).unwrap();
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn min_weight_perfect_matching_square() {
        let edges = [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (0, 2, 0.1),
        ];
        let mate = min_weight_perfect_matching(4, &edges).unwrap();
        assert!(mate[0] == 1 || mate[0] == 3);
        assert_eq!(mate[mate[0]], 0);
    }

    #[test]
    fn min_weight_perfect_matching_detects_impossible() {
        // Odd vertex count.
        assert_eq!(
            min_weight_perfect_matching(3, &[(0, 1, 1.0), (1, 2, 1.0)]),
            Err(MatchingError::NoPerfectMatching)
        );
        // Isolated vertex.
        assert_eq!(
            min_weight_perfect_matching(4, &[(0, 1, 1.0), (1, 2, 1.0)]),
            Err(MatchingError::NoPerfectMatching)
        );
    }

    #[test]
    fn min_weight_picks_cheapest_pairing() {
        // Complete graph on 4 vertices with one expensive pairing.
        let edges = [
            (0, 1, 10.0),
            (2, 3, 10.0),
            (0, 2, 1.0),
            (1, 3, 1.0),
            (0, 3, 4.0),
            (1, 2, 4.0),
        ];
        let mate = min_weight_perfect_matching(4, &edges).unwrap();
        assert_eq!(mate[0], 2);
        assert_eq!(mate[1], 3);
    }

    #[test]
    fn random_graphs_match_brute_force() {
        // Deterministic pseudo-random small graphs, both modes.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for trial in 0..60 {
            let n = 2 + (trial % 7);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() < 0.7 {
                        edges.push((u, v, (next() * 20.0).round()));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let mate = max_weight_matching(&edges, false);
            // `mate` covers 0..=max vertex id; isolated top vertices are absent.
            assert_valid_matching(mate.len(), &mate);
            let got = total_weight(&edges, &mate);
            let want = brute_force(n, &edges, false).unwrap();
            assert!(
                (got - want).abs() < 1e-9,
                "trial {trial}: got {got}, want {want}, edges {edges:?}"
            );
        }
    }
}
