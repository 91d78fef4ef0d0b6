#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! The dense prune pass against a frozen copy of the implementation it
//! replaced.
//!
//! [`frozen`] below is the original dense sparsification pass, kept
//! verbatim in behaviour: an n×n keep bitmap, a second pruned
//! `DenseGraph`, Blossom on that matrix, and an always-computed greedy
//! split bound. The live `pruned_maximum_weight_matching` must reproduce
//! its matching, kept/dropped edge counts, verdict and fallback flag
//! exactly, on random graphs and on heavy-tie graphs built from a few
//! profile classes (the scheduler's real shape). Its reported
//! `dropped_bound` may be looser — the split bound is skipped when the
//! half-max-sum bound alone certifies — but never below the frozen one.

use muri_matching::{
    greedy_matching_on_edges, loss_certificate_holds, maximum_weight_matching,
    pruned_maximum_weight_matching, DenseGraph, Matching, PruneConfig,
};
use proptest::prelude::*;

/// The frozen dense prune pass.
mod frozen {
    use super::*;

    /// What the frozen pass reports.
    pub struct Outcome {
        pub matching: Matching,
        pub kept_edges: u64,
        pub dropped_edges: u64,
        pub dropped_bound: i64,
        pub holds: bool,
        pub fell_back: bool,
    }

    fn select_diversified(sorted_incident: &[(i64, usize)], m: usize) -> Vec<usize> {
        let mut chosen = Vec::with_capacity(m.min(sorted_incident.len()));
        if m == 0 || sorted_incident.is_empty() {
            return chosen;
        }
        let mut levels: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for i in 1..=sorted_incident.len() {
            if i == sorted_incident.len() || sorted_incident[i].0 != sorted_incident[start].0 {
                levels.push((start, i));
                start = i;
            }
        }
        let mut sweep = 0;
        while chosen.len() < m {
            let mut advanced = false;
            for &(lo, hi) in &levels {
                if lo + sweep < hi {
                    advanced = true;
                    chosen.push(sorted_incident[lo + sweep].1);
                    if chosen.len() == m {
                        return chosen;
                    }
                }
            }
            if !advanced {
                return chosen;
            }
            sweep += 1;
        }
        chosen
    }

    pub fn pruned_maximum_weight_matching(g: &DenseGraph, cfg: &PruneConfig) -> Outcome {
        let n = g.len();
        let m = cfg.top_m;
        let keep_w = cfg.keep_weight();
        let mut keep = vec![false; n * n];
        let mut incident: Vec<(i64, usize)> = Vec::new();
        let mut max_sum: i128 = 0;
        for u in 0..n {
            incident.clear();
            for (v, &w) in g.row(u).iter().enumerate() {
                if w > 0 && v != u {
                    incident.push((w, v));
                }
            }
            let dist = |v: usize| (v + n - u) % n;
            incident.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(dist(a.1).cmp(&dist(b.1))));
            max_sum += i128::from(incident.first().map_or(0, |&(w, _)| w));
            for &(_, v) in incident.iter().take_while(|&&(w, _)| w >= keep_w) {
                keep[u * n + v] = true;
            }
            for v in select_diversified(&incident, m) {
                keep[u * n + v] = true;
            }
        }
        let mut pruned = DenseGraph::new(n);
        let mut kept = 0u64;
        let mut dropped = Vec::new();
        for u in 0..n {
            for (v, &w) in g.row(u).iter().enumerate().skip(u + 1) {
                if w <= 0 {
                    continue;
                }
                if keep[u * n + v] || keep[v * n + u] {
                    pruned.set_weight(u, v, w);
                    kept += 1;
                } else {
                    dropped.push((w, u, v));
                }
            }
        }
        let half_max_sum = i64::try_from(max_sum / 2).unwrap_or(i64::MAX);
        let matching = maximum_weight_matching(&pruned);
        let dropped_edges = dropped.len() as u64;
        let split_bound = greedy_matching_on_edges(n, &mut dropped)
            .total_weight
            .saturating_mul(2);
        let half_max_bound = half_max_sum.saturating_sub(matching.total_weight).max(0);
        let dropped_bound = split_bound.min(half_max_bound);
        let holds = loss_certificate_holds(matching.total_weight, dropped_bound, cfg.loss_bound);
        let (matching, fell_back) = if holds {
            (matching, false)
        } else {
            (maximum_weight_matching(g), true)
        };
        Outcome {
            matching,
            kept_edges: kept,
            dropped_edges,
            dropped_bound,
            holds,
            fell_back,
        }
    }
}

/// Random graph on `n ∈ [0, 24]` nodes with random density and weights.
fn arb_random_graph() -> impl Strategy<Value = DenseGraph> {
    (0usize..=24).prop_flat_map(|n| {
        let m = n * n.saturating_sub(1) / 2;
        proptest::collection::vec((0u8..=3, 1i64..=1000), m).prop_map(move |ws| {
            let mut g = DenseGraph::new(n);
            let mut it = ws.into_iter();
            for u in 0..n {
                for v in u + 1..n {
                    let (keep, w) = it.next().expect("enough weights");
                    if keep > 0 {
                        g.set_weight(u, v, w);
                    }
                }
            }
            g
        })
    })
}

/// Complete heavy-tie graph: every node draws one of `c ≤ 4` classes and
/// an edge weighs a function of its two classes only, the way a round
/// graph built from a few profile classes looks.
fn arb_class_graph() -> impl Strategy<Value = DenseGraph> {
    (1usize..=4).prop_flat_map(|c| {
        (
            proptest::collection::vec(0..c, 0..=40),
            proptest::collection::vec(0i64..=6, c * c),
        )
            .prop_map(move |(class_of, table)| {
                let n = class_of.len();
                DenseGraph::build_symmetric(n, |u, v| {
                    let (a, b) = (class_of[u], class_of[v]);
                    table[a.min(b) * c + a.max(b)] * 100
                })
            })
    })
}

fn arb_config() -> impl Strategy<Value = PruneConfig> {
    (
        1usize..=8,
        prop_oneof![Just(0.0), Just(0.01), Just(0.05), Just(0.2)],
        prop_oneof![Just(2.0), Just(0.0004)],
    )
        .prop_map(|(top_m, loss_bound, keep_threshold)| PruneConfig {
            top_m,
            loss_bound,
            keep_threshold,
        })
}

fn assert_matches_frozen(g: &DenseGraph, cfg: &PruneConfig) {
    let live = pruned_maximum_weight_matching(g, cfg);
    let old = frozen::pruned_maximum_weight_matching(g, cfg);
    assert_eq!(live.matching, old.matching);
    assert_eq!(live.certificate.kept_edges, old.kept_edges);
    assert_eq!(live.certificate.dropped_edges, old.dropped_edges);
    assert_eq!(live.certificate.holds, old.holds);
    assert_eq!(live.fell_back, old.fell_back);
    assert!(live.certificate.dropped_bound >= old.dropped_bound);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn random_graphs_match_the_frozen_pass(g in arb_random_graph(), cfg in arb_config()) {
        assert_matches_frozen(&g, &cfg);
    }

    #[test]
    fn heavy_tie_graphs_match_the_frozen_pass(g in arb_class_graph(), cfg in arb_config()) {
        assert_matches_frozen(&g, &cfg);
    }
}
