//! Maximum-weight matching in general graphs — the Blossom algorithm.
//!
//! This is the primal–dual `O(n³)` variant (Galil's exposition of Edmonds'
//! algorithm): alternating-tree growth with blossom shrinking, and dual
//! adjustments that keep all reduced costs non-negative. Edge weights are
//! non-negative integers, which keeps the duals exactly integral (every
//! dual update is a multiple of ½, so duals are stored doubled implicitly
//! by doubling edge weights in the reduced-cost computation).
//!
//! The algorithm finds a matching of **maximum total weight** — not
//! necessarily maximum cardinality: a node stays single when no pairing
//! increases the total. That is exactly the semantics Muri's grouping
//! needs (a job with interleaving efficiency 0 against everyone should run
//! alone).
//!
//! Correctness is established in tests by comparison against the exact
//! subset-DP oracle on thousands of random graphs (see `oracle.rs` and the
//! crate's property tests).

use crate::graph::{DenseGraph, Matching};
use crate::sparse_graph::IncidentRows;
use std::collections::VecDeque;

const INF: i64 = i64::MAX / 4;

/// Compute a maximum-weight matching of `graph` with the Blossom
/// algorithm in `O(n³)` time and `O(n²)` space.
///
/// ```
/// use muri_matching::{maximum_weight_matching, DenseGraph};
///
/// // A path 0-1-2-3 where greedy would grab the middle edge (10) and
/// // strand both ends; the optimum takes the two outer edges (9 + 9).
/// let mut g = DenseGraph::new(4);
/// g.set_weight(0, 1, 9);
/// g.set_weight(1, 2, 10);
/// g.set_weight(2, 3, 9);
/// let m = maximum_weight_matching(&g);
/// assert_eq!(m.total_weight, 18);
/// assert_eq!(m.pairs(), vec![(0, 1), (2, 3)]);
/// ```
pub fn maximum_weight_matching(graph: &DenseGraph) -> Matching {
    let n = graph.len();
    if n < 2 {
        return Matching::empty(n);
    }
    solve(graph)
}

/// Blossom over any row-readable graph: the one solver behind the dense
/// and CSR entry points. Callers handle `n < 2`.
pub(crate) fn solve<G: IncidentRows>(graph: &G) -> Matching {
    let mut solver = Solver::new(graph);
    solver.solve();
    solver.into_matching_stored()
}

#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    u: usize,
    v: usize,
    w: i64,
}

/// True when at least `pos_pairs` out of `n·(n−1)/2` possible edges —
/// half or more — carry positive weight.
fn is_dense(n: usize, pos_pairs: usize) -> bool {
    n >= 2 && pos_pairs * 4 >= n * (n - 1)
}

/// Internal solver state. Node ids are 1-based; ids `1..=n` are original
/// nodes, ids `n+1..=n_x` are (possibly nested) blossoms. Id 0 is "none".
struct Solver {
    n: usize,
    n_x: usize,
    g: Vec<Vec<Edge>>,
    /// Positive-weight neighbours of each original node, ascending id.
    /// Tree growth and slack scans touch only real edges through this,
    /// so phases cost `O(E)` instead of `O(n²)` on sparse (pruned)
    /// inputs; the dense bookkeeping matrix `g` is still what blossom
    /// contraction reads and writes. Empty (never built) when `dense`.
    adj: Vec<Vec<usize>>,
    /// True when at least half of all possible edges carry positive
    /// weight. Unpruned inputs take the direct matrix-scan fast path in
    /// `set_slack` and the tree-growth BFS: on dense graphs the
    /// adjacency indirection only adds cache misses and the per-node
    /// `Vec` allocations dominate small instances. Both scans visit
    /// positive neighbours in ascending id order, so the two paths are
    /// bit-identical.
    dense: bool,
    lab: Vec<i64>,
    mate: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower: Vec<Vec<usize>>,
    flower_from: Vec<Vec<usize>>,
    s: Vec<i8>,
    vis: Vec<u32>,
    vis_clock: u32,
    q: VecDeque<usize>,
}

impl Solver {
    /// Build the solver from any row-readable graph. The bookkeeping
    /// matrix gets an `Edge { u, v, w }` for every `(u, v)` pair in
    /// `[1, n]²`, absent edges with `w = 0`, and the adjacency lists
    /// inherit the rows' ascending column order, so a `DenseGraph` and a
    /// `SparseGraph` holding the same edges solve bit-identically.
    fn new<G: IncidentRows>(graph: &G) -> Self {
        let n = graph.node_count();
        let cap = 2 * n + 1;
        let mut g = vec![vec![Edge::default(); cap]; cap];
        let mut degree_sum = 0usize;
        let mut weights = vec![0i64; n];
        for (u, row) in g.iter_mut().enumerate().take(n + 1).skip(1) {
            graph.weight_row(u - 1, &mut weights);
            for (v, e) in row.iter_mut().enumerate().take(n + 1).skip(1) {
                let w = weights[v - 1];
                degree_sum += usize::from(w > 0);
                *e = Edge { u, v, w };
            }
        }
        let dense = is_dense(n, degree_sum / 2);
        let mut adj = vec![Vec::new(); cap];
        if !dense {
            let mut incident = Vec::new();
            for (u, nbrs) in adj.iter_mut().enumerate().take(n + 1).skip(1) {
                incident.clear();
                graph.incident(u - 1, &mut incident);
                nbrs.extend(incident.iter().map(|&(_, v)| v + 1));
            }
        }
        Solver {
            n,
            n_x: n,
            g,
            adj,
            dense,
            lab: vec![0; cap],
            mate: vec![0; cap],
            slack: vec![0; cap],
            st: vec![0; cap],
            pa: vec![0; cap],
            flower: vec![Vec::new(); cap],
            flower_from: vec![vec![0; n + 1]; cap],
            s: vec![-1; cap],
            vis: vec![0; cap],
            vis_clock: 0,
            q: VecDeque::new(),
        }
    }

    /// Reduced cost of edge `e` (doubled weights keep duals integral).
    fn e_delta(&self, e: Edge) -> i64 {
        self.lab[e.u] + self.lab[e.v] - self.g[e.u][e.v].w * 2
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0 || self.e_delta(self.g[u][x]) < self.e_delta(self.g[self.slack[x]][x])
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        if !self.dense && x <= self.n {
            // Original node, sparse input: its positive edges are exactly
            // its adjacency list (g[u][x] is symmetric to g[x][u] for
            // originals).
            for i in 0..self.adj[x].len() {
                let u = self.adj[x][i];
                if self.st[u] != x && self.s[self.st[u]] == 0 {
                    self.update_slack(u, x);
                }
            }
        } else {
            // Blossom (g[u][x] is contraction bookkeeping) or dense
            // input: scan the matrix row directly, ascending — the same
            // visit order the adjacency walk would take.
            for u in 1..=self.n {
                if self.g[u][x].w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                    self.update_slack(u, x);
                }
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            let members = self.flower[x].clone();
            for t in members {
                self.q_push(t);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let members = self.flower[x].clone();
            for t in members {
                self.set_st(t, b);
            }
        }
    }

    /// Position of sub-blossom `xr` inside blossom `b`, normalizing the
    /// cycle direction so the position is even (the template's `get_pr`).
    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pos = self.flower[b].iter().position(|&x| x == xr);
        debug_assert!(pos.is_some(), "xr must be a member of blossom b");
        let pr = pos.unwrap_or(0);
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        self.mate[u] = self.g[u][v].v;
        if u > self.n {
            let e = self.g[u][v];
            let xr = self.flower_from[u][e.u];
            let pr = self.get_pr(u, xr);
            for i in 0..pr {
                let (a, b) = (self.flower[u][i], self.flower[u][i ^ 1]);
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pa_xnv = self.pa[xnv];
            self.set_match(xnv, self.st[pa_xnv]);
            u = self.st[pa_xnv];
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_clock += 1;
        let t = self.vis_clock;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.st[self.mate[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b][x].w = 0;
            self.g[x][b].w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b][x] = 0;
        }
        let members = self.flower[b].clone();
        for xs in members {
            for x in 1..=self.n_x {
                if self.g[b][x].w == 0 || self.e_delta(self.g[xs][x]) < self.e_delta(self.g[b][x]) {
                    self.g[b][x] = self.g[xs][x];
                    self.g[x][b] = self.g[x][xs];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs][x] != 0 {
                    self.flower_from[b][x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let members = self.flower[b].clone();
        for t in members {
            self.set_st(t, t);
        }
        let xr = self.flower_from[b][self.g[b][self.pa[b]].u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.g[xns][xs].u;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in pr + 1..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Returns true if an augmenting path was applied.
    fn on_found_edge(&mut self, e: Edge) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.s[v] == -1 {
            self.pa[v] = e.u;
            self.s[v] = 1;
            let nu = self.st[self.mate[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grow alternating trees / adjust duals until either an
    /// augmenting path is found (true) or no profitable augmentation
    /// remains (false).
    fn matching_phase(&mut self) -> bool {
        for x in 1..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.mate[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.q.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.q.pop_front() {
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                if self.dense {
                    for v in 1..=self.n {
                        if self.g[u][v].w > 0 && self.st[u] != self.st[v] {
                            if self.e_delta(self.g[u][v]) == 0 {
                                if self.on_found_edge(self.g[u][v]) {
                                    return true;
                                }
                            } else {
                                let sv = self.st[v];
                                self.update_slack(u, sv);
                            }
                        }
                    }
                } else {
                    for i in 0..self.adj[u].len() {
                        let v = self.adj[u][i];
                        if self.st[u] != self.st[v] {
                            if self.e_delta(self.g[u][v]) == 0 {
                                if self.on_found_edge(self.g[u][v]) {
                                    return true;
                                }
                            } else {
                                let sv = self.st[v];
                                self.update_slack(u, sv);
                            }
                        }
                    }
                }
            }
            let mut d = INF;
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(self.g[self.slack[x]][x]);
                    if self.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return false;
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b {
                    match self.s[b] {
                        0 => self.lab[b] += d * 2,
                        1 => self.lab[b] -= d * 2,
                        _ => {}
                    }
                }
            }
            self.q.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(self.g[self.slack[x]][x]) == 0
                    && self.on_found_edge(self.g[self.slack[x]][x])
                {
                    return true;
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn solve(&mut self) {
        for u in 0..=self.n {
            self.st[u] = u;
            self.flower[u].clear();
        }
        let mut w_max = 0;
        for u in 1..=self.n {
            for v in 1..=self.n {
                self.flower_from[u][v] = if u == v { u } else { 0 };
                w_max = w_max.max(self.g[u][v].w);
            }
        }
        for u in 1..=self.n {
            self.lab[u] = w_max;
        }
        while self.matching_phase() {}
    }

    /// Extract the matching using the weights stored in the solver's own
    /// bookkeeping matrix (original-node cells are never overwritten by
    /// blossom contraction), so the input graph is not needed again.
    fn into_matching_stored(self) -> Matching {
        let mut m = Matching::empty(self.n);
        for u in 1..=self.n {
            if self.mate[u] != 0 {
                m.mate[u - 1] = Some(self.mate[u] - 1);
                if self.mate[u] < u {
                    m.total_weight += self.g[self.mate[u]][u].w;
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DenseGraph;
    use crate::oracle::exact_maximum_weight_matching;

    fn graph(n: usize, edges: &[(usize, usize, i64)]) -> DenseGraph {
        let mut g = DenseGraph::new(n);
        for &(u, v, w) in edges {
            g.set_weight(u, v, w);
        }
        g
    }

    #[test]
    fn trivial_graphs() {
        assert_eq!(maximum_weight_matching(&DenseGraph::new(0)).total_weight, 0);
        assert_eq!(maximum_weight_matching(&DenseGraph::new(1)).total_weight, 0);
        let g = graph(2, &[(0, 1, 5)]);
        let m = maximum_weight_matching(&g);
        assert_eq!(m.total_weight, 5);
        assert_eq!(m.pairs(), vec![(0, 1)]);
        m.validate(&g).unwrap();
    }

    #[test]
    fn prefers_heavy_pairing_over_greedy() {
        // Greedy takes (1,2)=10 and strands 0 and 3; optimal takes
        // (0,1)=9 and (2,3)=9.
        let g = graph(4, &[(1, 2, 10), (0, 1, 9), (2, 3, 9)]);
        let m = maximum_weight_matching(&g);
        assert_eq!(m.total_weight, 18);
        m.validate(&g).unwrap();
    }

    #[test]
    fn leaves_nodes_single_when_unprofitable() {
        // A triangle: only one pair can match.
        let g = graph(3, &[(0, 1, 4), (1, 2, 6), (0, 2, 5)]);
        let m = maximum_weight_matching(&g);
        assert_eq!(m.total_weight, 6);
        assert_eq!(m.unmatched(), vec![0]);
        m.validate(&g).unwrap();
    }

    #[test]
    fn odd_cycle_blossom_case() {
        // 5-cycle with a pendant: forces blossom shrinking.
        let g = graph(
            6,
            &[
                (0, 1, 8),
                (1, 2, 8),
                (2, 3, 8),
                (3, 4, 8),
                (4, 0, 8),
                (2, 5, 3),
            ],
        );
        let m = maximum_weight_matching(&g);
        let oracle = exact_maximum_weight_matching(&g);
        assert_eq!(m.total_weight, oracle.total_weight);
        m.validate(&g).unwrap();
    }

    #[test]
    fn matches_oracle_on_petersen_like_graph() {
        let edges: Vec<(usize, usize, i64)> = vec![
            (0, 1, 3),
            (1, 2, 7),
            (2, 3, 2),
            (3, 4, 9),
            (4, 0, 4),
            (0, 5, 6),
            (1, 6, 1),
            (2, 7, 8),
            (3, 8, 5),
            (4, 9, 2),
            (5, 7, 4),
            (7, 9, 6),
            (9, 6, 3),
            (6, 8, 7),
            (8, 5, 2),
        ];
        let g = graph(10, &edges);
        let m = maximum_weight_matching(&g);
        let oracle = exact_maximum_weight_matching(&g);
        assert_eq!(m.total_weight, oracle.total_weight);
        m.validate(&g).unwrap();
    }

    #[test]
    fn handles_zero_weight_edges_as_absent() {
        let g = graph(4, &[(0, 1, 0), (2, 3, 5)]);
        let m = maximum_weight_matching(&g);
        assert_eq!(m.total_weight, 5);
        assert_eq!(m.pairs(), vec![(2, 3)]);
    }

    #[test]
    fn large_complete_graph_runs() {
        // Smoke test: complete graph on 60 nodes with deterministic
        // pseudo-random weights; verify against the greedy lower bound and
        // structural validity.
        let n = 60;
        let mut g = DenseGraph::new(n);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for u in 0..n {
            for v in u + 1..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                g.set_weight(u, v, (x % 1000) as i64 + 1);
            }
        }
        let m = maximum_weight_matching(&g);
        m.validate(&g).unwrap();
        let greedy = crate::greedy::greedy_matching(&g);
        assert!(m.total_weight >= greedy.total_weight);
        // Complete even graph with positive weights: perfect matching.
        assert_eq!(m.num_pairs(), n / 2);
    }
}
