//! Greedy matching — the ½-approximation baseline.
//!
//! Sorts edges by descending weight and takes every edge whose endpoints
//! are both free. Muri's "without Blossom" ablation (Fig. 11) replaces
//! optimal matching with priority-order packing; this greedy matcher is
//! the classical quality baseline the Blossom result must dominate in
//! tests and benches.

use crate::graph::{DenseGraph, Matching};
use crate::sparse_graph::IncidentRows;

/// Greedy maximum-weight matching (≥ ½ of optimal). Pruned callers
/// that already hold a candidate edge list should use
/// [`greedy_matching_on_edges`] and skip the row scan entirely.
pub fn greedy_matching(g: &DenseGraph) -> Matching {
    on_rows(g)
}

/// Greedy matching over any row-readable graph: collect each edge once
/// (`u < v`) from the positive incident rows, then pick greedily. The
/// dense and CSR entry points share it.
pub(crate) fn on_rows<G: IncidentRows>(g: &G) -> Matching {
    let n = g.node_count();
    let mut edges: Vec<(i64, usize, usize)> = Vec::new();
    let mut row = Vec::new();
    for u in 0..n {
        row.clear();
        g.incident(u, &mut row);
        edges.extend(row.iter().filter(|&&(_, v)| v > u).map(|&(w, v)| (w, u, v)));
    }
    greedy_matching_on_edges(n, &mut edges)
}

/// Greedy matching over an explicit edge list `(w, u, v)` with `u < v`
/// — the sparse entry point. Sorts `edges` in place with the same
/// deterministic tie-break as [`greedy_matching`] (descending weight,
/// then ascending node ids), so the dense and sparse paths pick identical
/// matchings for identical edge sets.
pub fn greedy_matching_on_edges(n: usize, edges: &mut [(i64, usize, usize)]) -> Matching {
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut m = Matching::empty(n);
    for &(w, u, v) in edges.iter() {
        if m.mate[u].is_none() && m.mate[v].is_none() {
            m.mate[u] = Some(v);
            m.mate[v] = Some(u);
            m.total_weight += w;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_takes_heaviest_first() {
        let mut g = DenseGraph::new(4);
        g.set_weight(0, 1, 9);
        g.set_weight(1, 2, 10);
        g.set_weight(2, 3, 9);
        let m = greedy_matching(&g);
        // Greedy grabs (1,2)=10 and strands 0 and 3 — suboptimal by design.
        assert_eq!(m.total_weight, 10);
        assert_eq!(m.pairs(), vec![(1, 2)]);
        m.validate(&g).unwrap();
    }

    #[test]
    fn greedy_is_deterministic_on_ties() {
        let mut g = DenseGraph::new(4);
        g.set_weight(0, 1, 5);
        g.set_weight(2, 3, 5);
        g.set_weight(0, 3, 5);
        let a = greedy_matching(&g);
        let b = greedy_matching(&g);
        assert_eq!(a, b);
        assert_eq!(a.total_weight, 10);
    }

    #[test]
    fn greedy_empty() {
        let m = greedy_matching(&DenseGraph::new(3));
        assert_eq!(m.total_weight, 0);
        assert_eq!(m.num_pairs(), 0);
    }

    #[test]
    fn edge_list_entry_matches_dense_scan() {
        let mut g = DenseGraph::new(6);
        g.set_weight(0, 1, 5);
        g.set_weight(2, 3, 5);
        g.set_weight(0, 3, 5);
        g.set_weight(4, 5, 2);
        let dense = greedy_matching(&g);
        let mut edges = vec![(5, 0, 1), (5, 2, 3), (5, 0, 3), (2, 4, 5)];
        let sparse = greedy_matching_on_edges(6, &mut edges);
        assert_eq!(dense, sparse);
        sparse.validate(&g).unwrap();
    }
}
