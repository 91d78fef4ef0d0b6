//! Bounded top-m edge pruning ("sparsification") for cold-start Blossom.
//!
//! The scheduler's cold path runs the `O(n³)` Blossom solver on a complete
//! γ-graph. Most of those edges are irrelevant: a node is matched to at
//! most one partner, and heavy edges dominate the optimum. This module
//! keeps, per node, only the `m` heaviest incident edges (plus any edge at
//! or above an absolute keep-threshold), runs Blossom on the pruned graph,
//! and then certifies the result a-posteriori:
//!
//! Let `W_p` be the (exact) maximum matching weight on the pruned graph
//! and `D` the set of dropped edges. Two independent upper bounds on the
//! dense optimum are combined:
//!
//! 1. **Split bound.** Any dense matching `M*` splits into `M*_K` (kept
//!    edges — a matching of the pruned graph, so `w(M*_K) ≤ W_p`) and
//!    `M*_D` (a matching inside `D`, so `w(M*_D) ≤ OPT(D) ≤ 2·greedy(D)`
//!    by the ½-approximation guarantee). Hence
//!    `OPT_dense ≤ W_p + 2·greedy(D)`.
//! 2. **Half-max-sum bound.** Each matched edge `(u, v)` weighs at most
//!    `½·(max_w(u) + max_w(v))` and each node is matched at most once, so
//!    `OPT_dense ≤ ⌊½·Σ_u max_w(u)⌋` — and the maxima are free, the
//!    candidate ranking already sorts every node's incident edges.
//!
//! With `U = min(2·greedy(D), ⌊½·Σ max⌋ − W_p)` the certificate is
//! `OPT_dense ≤ W_p + U`, so the pruned result is within the configured
//! loss bound `ε` whenever
//!
//! ```text
//! W_p ≥ (1 − ε) · (W_p + U)   ⟺   ε·W_p ≥ (1 − ε)·U
//! ```
//!
//! The split bound wins on near-empty drops; the half-max-sum bound wins
//! on dense near-uniform graphs, where many dropped edges are individually
//! heavy but the matching as a whole still captures almost every node's
//! best partner. The inequality is monotone in `U`, so the split bound —
//! a sort and greedy pass over every dropped edge — is only computed when
//! the free half-max-sum bound alone cannot certify; the verdict is the
//! one `min` would give (see [`PruneCertificate::dropped_bound`]).
//!
//! When the certificate cannot guarantee the bound, the solver falls back
//! to the exact Blossom run — correctness never depends on pruning.
//!
//! There is one prune pass for both graph forms (in [`crate::sparse_graph`],
//! on the float-free decision path): it reads incident edges through one
//! row-access trait (dense matrix rows or CSR rows), keeps the selected
//! edges as a sorted edge list, and solves them on a
//! [`crate::SparseGraph`]. No n×n keep bitmap or second dense matrix is
//! built.

use crate::blossom::maximum_weight_matching;
use crate::graph::{weight_from_f64, DenseGraph, Matching};
use crate::sparse_graph::prune_and_solve;

/// Default number of heaviest incident edges kept per node.
pub const DEFAULT_PRUNE_TOP_M: usize = 8;

/// Default maximum fraction of matching weight pruning may sacrifice
/// (ε = 0.05 ⇒ the pruned matching is certified ≥ 95 % of optimal).
pub const DEFAULT_PRUNE_LOSS_BOUND: f64 = 0.05;

/// Default absolute keep-threshold: edges with γ at or above this score
/// always survive pruning regardless of per-node rank.
pub const DEFAULT_KEEP_THRESHOLD: f64 = 0.95;

/// Fixed-point denominator used to evaluate the loss-bound inequality in
/// integer arithmetic (deterministic across platforms).
const LOSS_BOUND_SCALE: i128 = 1_000_000;

/// Configuration for the sparsification pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneConfig {
    /// Keep each node's `top_m` heaviest incident edges. `0` disables
    /// pruning entirely (the dense path runs unconditionally).
    pub top_m: usize,
    /// Maximum fraction of the optimal matching weight the pruned result
    /// may lose before the solver falls back to the dense run.
    pub loss_bound: f64,
    /// Edges whose γ score is at or above this threshold are always kept.
    pub keep_threshold: f64,
}

impl PruneConfig {
    /// Config with the given `top_m` and `loss_bound` and the default
    /// keep-threshold.
    pub fn new(top_m: usize, loss_bound: f64) -> Self {
        PruneConfig {
            top_m,
            loss_bound,
            keep_threshold: DEFAULT_KEEP_THRESHOLD,
        }
    }

    /// True if this config disables pruning.
    pub fn is_disabled(&self) -> bool {
        self.top_m == 0
    }

    /// The keep-threshold as a scaled fixed-point weight — the only form
    /// the float-free (D004) candidate builders may consume it in.
    pub fn keep_weight(&self) -> i64 {
        weight_from_f64(self.keep_threshold.clamp(0.0, 1.0))
    }
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig::new(DEFAULT_PRUNE_TOP_M, DEFAULT_PRUNE_LOSS_BOUND)
    }
}

/// A-posteriori quality certificate for a pruned Blossom run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneCertificate {
    /// Edges surviving the pruning pass.
    pub kept_edges: u64,
    /// Edges removed by the pruning pass.
    pub dropped_edges: u64,
    /// Exact maximum matching weight on the pruned graph.
    pub pruned_weight: i64,
    /// Upper bound on the weight the dense optimum can exceed `W_p` by.
    /// Which bound is reported depends on how the verdict was reached:
    ///
    /// * `0` when nothing was dropped (the pruned graph is the graph);
    /// * the half-max-sum bound `⌊½·Σ_u max_w(u)⌋ − W_p` when it alone
    ///   certifies the loss bound — the split bound is then never
    ///   computed;
    /// * otherwise `min(2·greedy(D), ⌊½·Σ_u max_w(u)⌋ − W_p)`, the
    ///   tighter of the split and half-max-sum bounds.
    ///
    /// Every case is a valid bound, so [`Self::dense_upper_bound`] is
    /// never below the dense optimum, and `holds` is the verdict the
    /// tighter `min` would give (the inequality is monotone in the bound).
    pub dropped_bound: i64,
    /// True if the certificate guarantees the configured loss bound.
    pub holds: bool,
}

impl PruneCertificate {
    /// A valid upper bound on the *dense* optimum implied by the
    /// certificate: `W_p + dropped_bound`.
    pub fn dense_upper_bound(&self) -> i64 {
        self.pruned_weight.saturating_add(self.dropped_bound)
    }
}

/// Result of [`pruned_maximum_weight_matching`].
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// The matching to use (pruned, or dense when the fallback fired).
    pub matching: Matching,
    /// The certificate computed for the pruned run.
    pub certificate: PruneCertificate,
    /// True if the dense solver re-ran because the certificate could not
    /// guarantee the loss bound.
    pub fell_back: bool,
}

/// Evaluate `ε·W ≥ (1 − ε)·U` in fixed-point integer arithmetic so the
/// verdict is deterministic across platforms and never subject to float
/// rounding near the boundary. `W` is the achieved matching weight and
/// `U` an upper bound on how much weight the unrestricted optimum can
/// exceed it by; public so composed certificates (sharding + pruning)
/// evaluate the exact same inequality.
pub fn loss_certificate_holds(achieved_weight: i64, dropped_bound: i64, loss_bound: f64) -> bool {
    if dropped_bound == 0 {
        return true;
    }
    let eps = (loss_bound.clamp(0.0, 1.0) * LOSS_BOUND_SCALE as f64).round() as i128;
    i128::from(achieved_weight) * eps >= i128::from(dropped_bound) * (LOSS_BOUND_SCALE - eps)
}

/// Maximum-weight matching via top-m pruning with a certified loss bound.
///
/// Runs Blossom on the pruned graph; if the a-posteriori certificate
/// cannot guarantee the matching is within `cfg.loss_bound` of the dense
/// optimum, re-runs Blossom on the dense graph and returns that result
/// with `fell_back = true`. When nothing is dropped the pruned run *is*
/// the dense run, so steady-state results are bit-identical. Bit-identical
/// to [`crate::pruned_maximum_weight_matching_sparse`] on the CSR graph
/// holding the same edges: both run the same pass.
pub fn pruned_maximum_weight_matching(g: &DenseGraph, cfg: &PruneConfig) -> PruneOutcome {
    prune_and_solve(g, cfg, maximum_weight_matching)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::exact_maximum_weight_matching;

    fn det_weight(seed: u64, bound: i64) -> i64 {
        // Small xorshift so tests are reproducible without RNG deps.
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        (x % bound as u64) as i64
    }

    fn random_graph(n: usize, seed: u64) -> DenseGraph {
        let mut g = DenseGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                let w = det_weight(seed ^ ((u as u64) << 32) ^ v as u64, 1000);
                if w > 0 {
                    g.set_weight(u, v, w);
                }
            }
        }
        g
    }

    #[test]
    fn nothing_dropped_on_small_graphs() {
        // n ≤ top_m + 1: every incident edge is in every node's top-m.
        let g = random_graph(8, 42);
        let out = pruned_maximum_weight_matching(&g, &PruneConfig::default());
        assert_eq!(out.certificate.dropped_edges, 0);
        assert_eq!(out.matching, maximum_weight_matching(&g));
    }

    #[test]
    fn pruned_matches_dense_when_certificate_trivial() {
        let g = random_graph(9, 7);
        let out = pruned_maximum_weight_matching(&g, &PruneConfig::default());
        assert!(!out.fell_back);
        assert!(out.certificate.holds);
        let dense = maximum_weight_matching(&g);
        assert_eq!(out.matching, dense);
    }

    #[test]
    fn union_semantics_keeps_edge_ranked_by_either_endpoint() {
        // Star-ish: node 0 has many heavy neighbours; node 5's only edge
        // is to 0 and is light. With m=1 node 0 ranks only its heaviest,
        // but node 5 ranks (0,5) first, so the edge must survive.
        let mut g = DenseGraph::new(6);
        for v in 1..5 {
            g.set_weight(0, v, 1000 - v as i64);
        }
        g.set_weight(0, 5, 3);
        let cfg = PruneConfig {
            top_m: 1,
            loss_bound: 0.05,
            keep_threshold: 2.0, // never triggers
        };
        // Every star edge is some leaf's top-1, so all five survive.
        let out = pruned_maximum_weight_matching(&g, &cfg);
        assert_eq!(out.certificate.kept_edges, 5);
        assert_eq!(out.certificate.dropped_edges, 0);
    }

    #[test]
    fn keep_threshold_retains_heavy_edges_beyond_top_m() {
        let mut g = DenseGraph::new(4);
        // All edges above the 0.95 keep-threshold; m=1 would drop some of
        // them by rank, but the threshold keeps every one.
        let heavy = weight_from_f64(0.97);
        for u in 0..4 {
            for v in u + 1..4 {
                g.set_weight(u, v, heavy + (u + v) as i64);
            }
        }
        let cfg = PruneConfig {
            top_m: 1,
            loss_bound: 0.05,
            keep_threshold: 0.95,
        };
        let out = pruned_maximum_weight_matching(&g, &cfg);
        assert_eq!(out.certificate.dropped_edges, 0);
    }

    #[test]
    fn certificate_boundary_is_exact() {
        // ε = 0.05: holds iff 5·W_p ≥ 95·U (scaled). Check both sides of
        // the boundary exactly.
        assert!(loss_certificate_holds(19, 1, 0.05));
        assert!(!loss_certificate_holds(18, 1, 0.05));
        assert!(loss_certificate_holds(0, 0, 0.05));
        assert!(!loss_certificate_holds(1_000_000, 1, 0.0));
        assert!(loss_certificate_holds(1, 1_000_000, 1.0));
    }

    #[test]
    fn fallback_fires_when_bound_cannot_hold() {
        // A cycle of equal heavy edges with m too small to keep enough of
        // them: the pruned matching misses weight the dropped edges could
        // recover, so with a strict bound the dense run must fire.
        let n = 12;
        let mut g = DenseGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                g.set_weight(u, v, 500 + ((u * 31 + v * 17) % 400) as i64);
            }
        }
        let cfg = PruneConfig {
            top_m: 1,
            loss_bound: 0.0, // zero tolerance: any dropped weight ⇒ fallback
            keep_threshold: 2.0,
        };
        let out = pruned_maximum_weight_matching(&g, &cfg);
        assert!(out.certificate.dropped_edges > 0);
        assert!(!out.certificate.holds);
        assert!(out.fell_back);
        let dense = maximum_weight_matching(&g);
        assert_eq!(out.matching.total_weight, dense.total_weight);
    }

    #[test]
    fn certified_results_meet_loss_bound_vs_oracle() {
        for seed in 0..40 {
            let n = 10 + (seed as usize % 6);
            let g = random_graph(n, seed);
            let cfg = PruneConfig {
                top_m: 3,
                loss_bound: 0.05,
                keep_threshold: 2.0,
            };
            let out = pruned_maximum_weight_matching(&g, &cfg);
            let exact = exact_maximum_weight_matching(&g);
            if out.fell_back {
                assert_eq!(out.matching.total_weight, exact.total_weight);
            } else {
                // Certified: ≥ (1 − ε) of the true optimum. For ε = 0.05
                // that is 20·W_p ≥ 19·OPT, checked exactly in integers.
                assert!(
                    20 * out.matching.total_weight >= 19 * exact.total_weight,
                    "seed {seed}: pruned {} < 95% of exact {}",
                    out.matching.total_weight,
                    exact.total_weight
                );
                // And the certificate's upper bound is sound.
                assert!(out.certificate.dense_upper_bound() >= exact.total_weight);
            }
        }
    }

    #[test]
    fn disabled_config_runs_dense() {
        let g = random_graph(10, 3);
        let cfg = PruneConfig::new(0, 0.05);
        assert!(cfg.is_disabled());
        let out = pruned_maximum_weight_matching(&g, &cfg);
        assert!(!out.fell_back);
        assert_eq!(out.certificate.dropped_edges, 0);
        assert_eq!(out.matching, maximum_weight_matching(&g));
    }
}
