//! Compressed-sparse-row candidate graphs — matching without the n×n
//! matrix.
//!
//! `DenseGraph` materializes every cell of the weight matrix, which is an
//! 80 GB allocation at 100k nodes before a single weight is computed. A
//! [`SparseGraph`] stores only the edges that exist (CSR adjacency:
//! `row_ptr` offsets into parallel `cols`/`weights` arrays, each row's
//! columns ascending), so a candidate graph with `O(n·m)` edges costs
//! `O(n·m)` memory end-to-end through Blossom, greedy, and the
//! a-posteriori loss certificate.
//!
//! Determinism contract: a `SparseGraph` and the `DenseGraph` holding the
//! same edge set produce **bit-identical** matchings through every entry
//! point here. The Blossom solver's sparse constructor initializes its
//! bookkeeping exactly as the dense one does, and CSR rows keep the same
//! ascending neighbour order the dense row scan visits — this is pinned
//! by tests and relied on by the scheduler's byte-identity CI smoke.
//!
//! This file also holds the one top-m prune pass (see [`crate::sparse`]
//! for the certificate it computes): both
//! [`crate::pruned_maximum_weight_matching`] and
//! [`pruned_maximum_weight_matching_sparse`] run it, reading dense or CSR
//! rows through the same row-access trait and solving the kept edges as
//! a `SparseGraph`.
//!
//! All weights enter as scaled `i64` fixed-point (see `graph.rs`); this
//! file is on the muri-lint D004 float-free decision path.

use std::cmp::Reverse;

use crate::blossom;
use crate::graph::{DenseGraph, Matching};
use crate::greedy::{self, greedy_matching_on_edges};
use crate::sparse::{loss_certificate_holds, PruneCertificate, PruneConfig, PruneOutcome};

/// An undirected weighted graph in compressed-sparse-row form. Only
/// positive-weight edges are stored; both directions of each edge are
/// present so `neighbors(u)` is a single slice lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseGraph {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<i64>,
}

impl SparseGraph {
    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        SparseGraph {
            n,
            row_ptr: vec![0; n + 1],
            cols: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Build from an edge list `(w, u, v)` with `u < v`. Non-positive
    /// weights are skipped (absent edges), duplicate pairs must not
    /// occur. Cost is `O(E log d_max)`; rows come out ascending by
    /// column regardless of input order, so construction order never
    /// leaks into matching results.
    pub fn from_edges(n: usize, edges: &[(i64, usize, usize)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(w, u, v) in edges {
            if w <= 0 {
                continue;
            }
            debug_assert!(u < v && v < n, "edge ({u}, {v}) out of range for n = {n}");
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut row_ptr = vec![0usize; n + 1];
        for u in 0..n {
            row_ptr[u + 1] = row_ptr[u] + deg[u];
        }
        let total = row_ptr[n];
        let mut cols = vec![0u32; total];
        let mut weights = vec![0i64; total];
        let mut cursor: Vec<usize> = row_ptr[..n].to_vec();
        for &(w, u, v) in edges {
            if w <= 0 {
                continue;
            }
            cols[cursor[u]] = v as u32;
            weights[cursor[u]] = w;
            cursor[u] += 1;
            cols[cursor[v]] = u as u32;
            weights[cursor[v]] = w;
            cursor[v] += 1;
        }
        // Sort each row by column id so neighbour walks are ascending.
        let mut scratch: Vec<(u32, i64)> = Vec::new();
        for u in 0..n {
            let (lo, hi) = (row_ptr[u], row_ptr[u + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(weights[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for (i, &(c, w)) in scratch.iter().enumerate() {
                cols[lo + i] = c;
                weights[lo + i] = w;
            }
        }
        SparseGraph {
            n,
            row_ptr,
            cols,
            weights,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.cols.len() / 2
    }

    /// True if any edge is present.
    pub fn has_edges(&self) -> bool {
        !self.cols.is_empty()
    }

    /// `u`'s neighbours as parallel `(columns, weights)` slices, columns
    /// ascending.
    pub fn neighbors(&self, u: usize) -> (&[u32], &[i64]) {
        let (lo, hi) = (self.row_ptr[u], self.row_ptr[u + 1]);
        (&self.cols[lo..hi], &self.weights[lo..hi])
    }

    /// Number of neighbours of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.row_ptr[u + 1] - self.row_ptr[u]
    }

    /// Weight of edge `(u, v)`, `0` when absent. Order-insensitive.
    pub fn weight(&self, u: usize, v: usize) -> i64 {
        let (cols, weights) = self.neighbors(u);
        match cols.binary_search(&(v as u32)) {
            Ok(i) => weights[i],
            Err(_) => 0,
        }
    }

    /// Heaviest weight incident to `u` (`0` when isolated).
    pub fn max_incident(&self, u: usize) -> i64 {
        self.neighbors(u).1.iter().copied().max().unwrap_or(0)
    }

    /// Undirected edge list `(w, u, v)` with `u < v`, ordered by
    /// `(u asc, v asc)`.
    pub fn edges(&self) -> Vec<(i64, usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.n {
            let (cols, weights) = self.neighbors(u);
            for (&c, &w) in cols.iter().zip(weights) {
                let v = c as usize;
                if v > u {
                    out.push((w, u, v));
                }
            }
        }
        out
    }
}

/// Exact maximum-weight matching on a CSR graph — Blossom without ever
/// building a `DenseGraph`. Bit-identical to running
/// [`crate::maximum_weight_matching`] on the equivalent dense graph.
pub fn maximum_weight_matching_sparse(g: &SparseGraph) -> Matching {
    let n = g.len();
    if n < 2 {
        return Matching::empty(n);
    }
    blossom::solve(g)
}

/// Greedy ½-approximate matching on a CSR graph. Bit-identical to the
/// dense [`crate::greedy_matching`] on the equivalent graph.
pub fn greedy_matching_sparse(g: &SparseGraph) -> Matching {
    greedy::on_rows(g)
}

/// Round-robin selection of `m` neighbours from an incident list sorted
/// by (weight desc, cyclic distance asc): sweep `s` takes the
/// `(s+1)`-th-nearest edge of each distinct weight level in level order,
/// heaviest first, until `m` edges are chosen or the list is exhausted.
/// Each selected `(w, v)` entry is handed to `take`.
///
/// With all-distinct weights every level holds one edge and this is
/// exactly plain top-m. With heavy ties (many jobs sharing a profile),
/// plain top-m would spend all `m` slots on one equal-weight level —
/// funneling every node of a class onto the same few partners and
/// collapsing the pruned matching far below the dense optimum precisely
/// on the workloads pruning is meant to accelerate. Round-robin keeps a
/// nearest representative of each of the top `m` levels, so any
/// cross-class pairing plan the dense optimum uses remains realizable in
/// the pruned graph.
fn select_diversified(
    sorted_incident: &[(i64, usize)],
    m: usize,
    mut take: impl FnMut((i64, usize)),
) {
    if m == 0 || sorted_incident.is_empty() {
        return;
    }
    // Level boundaries: runs of equal weight in the sorted order.
    let mut levels: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=sorted_incident.len() {
        if i == sorted_incident.len() || sorted_incident[i].0 != sorted_incident[start].0 {
            levels.push((start, i));
            start = i;
        }
    }
    let mut chosen = 0;
    for sweep in 0.. {
        let mut advanced = false;
        for &(lo, hi) in &levels {
            if lo + sweep < hi {
                advanced = true;
                take(sorted_incident[lo + sweep]);
                chosen += 1;
                if chosen == m {
                    return;
                }
            }
        }
        if !advanced {
            return;
        }
    }
}

/// The row access the prune pass needs. Implemented by the dense matrix
/// and the CSR graph, so both run the one pass below.
pub(crate) trait IncidentRows {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Number of positive-weight neighbours of `u`.
    fn degree(&self, u: usize) -> usize;
    /// Append `u`'s positive-weight incident edges `(w, v)` to `out`,
    /// ascending `v`.
    fn incident(&self, u: usize, out: &mut Vec<(i64, usize)>);
    /// Write `u`'s weight row (0 for absent edges) into `out`.
    fn weight_row(&self, u: usize, out: &mut [i64]);
}

impl IncidentRows for DenseGraph {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn degree(&self, u: usize) -> usize {
        self.row(u).iter().filter(|&&w| w > 0).count()
    }

    fn incident(&self, u: usize, out: &mut Vec<(i64, usize)>) {
        let row = self.row(u).iter().enumerate();
        out.extend(row.filter(|&(_, &w)| w > 0).map(|(v, &w)| (w, v)));
    }

    fn weight_row(&self, u: usize, out: &mut [i64]) {
        out.copy_from_slice(self.row(u));
    }
}

/// The one top-m prune pass behind both public entry points: rank each
/// node's incident edges, keep the diversified top-m plus the
/// keep-threshold prefix (union semantics), solve Blossom on the kept
/// edges in CSR form, and certify the result. `exact` solves the
/// unpruned graph for the small-graph shortcut and the fallback.
pub(crate) fn prune_and_solve<G: IncidentRows>(
    g: &G,
    cfg: &PruneConfig,
    exact: impl Fn(&G) -> Matching,
) -> PruneOutcome {
    let n = g.node_count();
    if cfg.is_disabled() || n <= cfg.top_m + 1 {
        // Nothing can be dropped: every incident edge is in every
        // node's top-m (or pruning is off).
        let matching = exact(g);
        let edges = (0..n).map(|u| g.degree(u) as u64).sum::<u64>() / 2;
        return PruneOutcome {
            certificate: PruneCertificate {
                kept_edges: edges,
                dropped_edges: 0,
                pruned_weight: matching.total_weight,
                dropped_bound: 0,
                holds: true,
            },
            matching,
            fell_back: false,
        };
    }
    let keep_w = cfg.keep_weight();
    let mut incident: Vec<(i64, usize)> = Vec::with_capacity(n);
    let mut kept: Vec<(i64, usize, usize)> = Vec::new();
    let mut degree_sum: u64 = 0;
    let mut half_max: i128 = 0;
    for u in 0..n {
        incident.clear();
        g.incident(u, &mut incident);
        degree_sum += incident.len() as u64;
        // Heaviest first; ties by cyclic distance `(v − u) mod n` from u
        // so equal weights spread across partners instead of piling onto
        // the lowest ids. Rotating the ascending row to start after u
        // puts it in cyclic-distance order, which the stable sort keeps
        // within each weight.
        let after_u = incident.partition_point(|&(_, v)| v < u);
        incident.rotate_left(after_u);
        incident.sort_by_key(|&(w, _)| Reverse(w));
        half_max += i128::from(incident.first().map_or(0, |&(w, _)| w));
        let edge = |(w, v): (i64, usize)| (w, u.min(v), u.max(v));
        // Threshold-kept edges are a prefix of the sorted order.
        let heavy = incident.iter().take_while(|&&(w, _)| w >= keep_w);
        kept.extend(heavy.map(|&e| edge(e)));
        select_diversified(&incident, cfg.top_m, |e| kept.push(edge(e)));
    }
    // An edge survives if either endpoint selected it.
    kept.sort_unstable_by_key(|&(_, u, v)| (u, v));
    kept.dedup_by_key(|e| (e.1, e.2));
    let dropped_edges = degree_sum / 2 - kept.len() as u64;
    let matching = maximum_weight_matching_sparse(&SparseGraph::from_edges(n, &kept));
    let w_p = matching.total_weight;
    let (dropped_bound, holds) = if dropped_edges == 0 {
        (0, true)
    } else {
        let half_max_sum = i64::try_from(half_max / 2).unwrap_or(i64::MAX);
        let half_max_bound = half_max_sum.saturating_sub(w_p).max(0);
        if loss_certificate_holds(w_p, half_max_bound, cfg.loss_bound) {
            (half_max_bound, true)
        } else {
            let split_bound = dropped_greedy_weight(g, &kept).saturating_mul(2);
            let bound = split_bound.min(half_max_bound);
            (bound, loss_certificate_holds(w_p, bound, cfg.loss_bound))
        }
    };
    let certificate = PruneCertificate {
        kept_edges: kept.len() as u64,
        dropped_edges,
        pruned_weight: w_p,
        dropped_bound,
        holds,
    };
    if holds {
        PruneOutcome {
            matching,
            certificate,
            fell_back: false,
        }
    } else {
        PruneOutcome {
            matching: exact(g),
            certificate,
            fell_back: true,
        }
    }
}

/// Greedy matching weight over the edges of `g` missing from `kept`
/// (sorted by `(u, v)`) — the split bound's `greedy(D)`.
fn dropped_greedy_weight<G: IncidentRows>(g: &G, kept: &[(i64, usize, usize)]) -> i64 {
    let n = g.node_count();
    let mut dropped: Vec<(i64, usize, usize)> = Vec::new();
    let mut incident: Vec<(i64, usize)> = Vec::with_capacity(n);
    let mut next_kept = kept.iter().map(|&(_, u, v)| (u, v)).peekable();
    for u in 0..n {
        incident.clear();
        g.incident(u, &mut incident);
        for &(w, v) in incident.iter().filter(|&&(_, v)| v > u) {
            if next_kept.next_if_eq(&(u, v)).is_none() {
                dropped.push((w, u, v));
            }
        }
    }
    greedy_matching_on_edges(n, &mut dropped).total_weight
}

impl IncidentRows for SparseGraph {
    fn node_count(&self) -> usize {
        self.n
    }

    fn degree(&self, u: usize) -> usize {
        SparseGraph::degree(self, u)
    }

    fn incident(&self, u: usize, out: &mut Vec<(i64, usize)>) {
        let (cols, weights) = self.neighbors(u);
        out.extend(
            weights
                .iter()
                .copied()
                .zip(cols.iter().map(|&c| c as usize)),
        );
    }

    fn weight_row(&self, u: usize, out: &mut [i64]) {
        out.fill(0);
        let (cols, weights) = self.neighbors(u);
        for (&c, &w) in cols.iter().zip(weights) {
            out[c as usize] = w;
        }
    }
}

/// Maximum-weight matching on a CSR graph via diversified top-m pruning
/// with the same a-posteriori certificate as the dense
/// [`crate::pruned_maximum_weight_matching`]: `W_p` within `loss_bound`
/// of the *unpruned* optimum of `g`, or an exact re-run on the unpruned
/// sparse graph with `fell_back = true`. Both entry points run the same
/// prune pass, so on a CSR graph holding a dense graph's edges the kept
/// set, certificate, and matching are bit-identical to the dense path.
pub fn pruned_maximum_weight_matching_sparse(g: &SparseGraph, cfg: &PruneConfig) -> PruneOutcome {
    prune_and_solve(g, cfg, maximum_weight_matching_sparse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blossom::maximum_weight_matching;
    use crate::graph::DenseGraph;
    use crate::greedy::greedy_matching;
    use crate::sparse::pruned_maximum_weight_matching;

    fn det_weight(seed: u64, bound: i64) -> i64 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        (x % bound as u64) as i64
    }

    /// Dense and CSR graphs over the same deterministic edge set; density
    /// is controlled so both solver paths (adjacency walk and matrix
    /// scan) are exercised.
    fn paired_graphs(n: usize, seed: u64, keep_mod: u64) -> (DenseGraph, SparseGraph) {
        let mut dense = DenseGraph::new(n);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                let key = seed ^ ((u as u64) << 32) ^ v as u64;
                if !key.is_multiple_of(keep_mod) {
                    continue;
                }
                let w = det_weight(key, 1000) + 1;
                dense.set_weight(u, v, w);
                edges.push((w, u, v));
            }
        }
        (dense, SparseGraph::from_edges(n, &edges))
    }

    #[test]
    fn csr_rows_are_ascending_and_symmetric() {
        let (_, g) = paired_graphs(20, 7, 2);
        for u in 0..g.len() {
            let (cols, _) = g.neighbors(u);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
            for &c in cols {
                assert_eq!(g.weight(u, c as usize), g.weight(c as usize, u));
            }
        }
        assert_eq!(g.edges().len(), g.edge_count());
    }

    #[test]
    fn from_edges_is_input_order_invariant() {
        let edges = vec![(5, 0, 3), (2, 1, 2), (9, 0, 1), (4, 2, 3)];
        let mut shuffled = edges.clone();
        shuffled.reverse();
        assert_eq!(
            SparseGraph::from_edges(4, &edges),
            SparseGraph::from_edges(4, &shuffled)
        );
    }

    #[test]
    fn blossom_sparse_matches_dense_bit_identically() {
        for &(n, keep_mod) in &[(2usize, 1u64), (9, 1), (16, 1), (17, 3), (24, 2), (31, 5)] {
            for seed in 0..6 {
                let (dense, sparse) = paired_graphs(n, seed, keep_mod);
                let md = maximum_weight_matching(&dense);
                let ms = maximum_weight_matching_sparse(&sparse);
                assert_eq!(md, ms, "n={n} seed={seed} keep_mod={keep_mod}");
                ms.validate(&dense).unwrap();
            }
        }
    }

    #[test]
    fn greedy_sparse_matches_dense_bit_identically() {
        for seed in 0..8 {
            let (dense, sparse) = paired_graphs(21, seed, 2);
            assert_eq!(greedy_matching(&dense), greedy_matching_sparse(&sparse));
        }
    }

    #[test]
    fn pruned_sparse_matches_dense_pruned_path_on_complete_graphs() {
        for seed in 0..6 {
            let (dense, sparse) = paired_graphs(18, seed, 1);
            let cfg = PruneConfig {
                top_m: 4,
                loss_bound: 0.05,
                keep_threshold: 2.0, // dense path's threshold never fires
            };
            let d = pruned_maximum_weight_matching(&dense, &cfg);
            let s = pruned_maximum_weight_matching_sparse(&sparse, &cfg);
            assert_eq!(d.matching, s.matching, "seed={seed}");
            assert_eq!(d.certificate, s.certificate, "seed={seed}");
            assert_eq!(d.fell_back, s.fell_back, "seed={seed}");
        }
    }

    #[test]
    fn pruned_sparse_certificate_is_sound_vs_exact() {
        use crate::oracle::exact_maximum_weight_matching;
        for seed in 0..20 {
            let n = 10 + (seed as usize % 5);
            let (dense, sparse) = paired_graphs(n, seed, 1);
            let cfg = PruneConfig::new(3, 0.05);
            let out = pruned_maximum_weight_matching_sparse(&sparse, &cfg);
            let exact = exact_maximum_weight_matching(&dense);
            if out.fell_back {
                assert_eq!(out.matching.total_weight, exact.total_weight);
            } else {
                assert!(out.certificate.dense_upper_bound() >= exact.total_weight);
                assert!(
                    20 * out.matching.total_weight >= 19 * exact.total_weight,
                    "seed {seed}: sparse pruned below certified bound"
                );
            }
        }
    }

    #[test]
    fn small_graph_shortcut_is_exact() {
        let (dense, sparse) = paired_graphs(6, 11, 1);
        let out = pruned_maximum_weight_matching_sparse(&sparse, &PruneConfig::default());
        assert!(!out.fell_back);
        assert_eq!(out.certificate.dropped_edges, 0);
        assert_eq!(out.matching, maximum_weight_matching(&dense));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        assert_eq!(
            maximum_weight_matching_sparse(&SparseGraph::empty(0)).total_weight,
            0
        );
        assert_eq!(
            maximum_weight_matching_sparse(&SparseGraph::empty(5)).total_weight,
            0
        );
        let g = SparseGraph::from_edges(2, &[(7, 0, 1)]);
        let m = maximum_weight_matching_sparse(&g);
        assert_eq!(m.total_weight, 7);
        assert_eq!(m.pairs(), vec![(0, 1)]);
    }
}
