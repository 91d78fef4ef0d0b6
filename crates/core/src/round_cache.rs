//! Cross-pass memoization of per-round grouping state.
//!
//! A round-1 miss costs a class-table graph build (one γ evaluation per
//! ordered profile-class pair, then an n×n fill) plus the matcher: the
//! certified top-m prune pass, which solves the kept edges as a CSR
//! graph and re-solves the dense graph only when its loss certificate
//! fails. The matcher dominates (`O(n³)` Blossom vs an `O(n²)` fill), and
//! the scheduler presents the *same* bucket contents pass after pass
//! whenever no job arrived, finished, or was preempted in between.
//!
//! The memo (`RoundMemo`) is owned by one [`crate::Planner`], which
//! serves one config, so every knob that shapes round-1 state (group-size
//! cap, ordering policy, efficiency threshold, matcher, sparsification
//! and sharding settings) is fixed per memo. The key is therefore
//! exactly the bucket's profile list, in priority order, and an entry
//! memoizes:
//!
//! * the round-1 dense edge-weight graph (the prune pass reads it but
//!   never stores a pruned copy);
//! * the round-1 matching;
//! * the round-1 sharded plan, for buckets on the sharded planner path
//!   (which never builds a dense graph);
//! * the final multi-round groups, so an exactly repeated
//!   [`crate::Planner::multi_round_grouping`] call returns without
//!   touching the matcher at all.
//!
//! Merged rounds are not memoized: their graphs are rebuilt from the
//! merged nodes' class table, which costs a handful of γ lookups.
//!
//! The free-GPU count and the worker count are deliberately **not** part
//! of the key: round-1 state does not depend on either (capacity only
//! decides which matched pairs get *accepted*, and grouping output is
//! identical for every worker count).
//!
//! Lookups hash the borrowed profile slice without allocating; the owned
//! key is only materialized on insert. Eviction is the same segmented
//! scheme as [`crate::gamma_cache`], but budgeted by graph *cells*
//! rather than entry count, since one 1000-node graph outweighs
//! thousands of small ones.
//!
//! An exact-key memo rather than "reuse a bucket's state until one of
//! its jobs changes": SRSF and 2D-LAS re-rank buckets on passes with no
//! arrival or completion, and most hits return to a profile list last
//! seen several lookups earlier (DESIGN.md §8).

use crate::gamma_cache::{CacheStats, Segmented};
use muri_matching::{DenseGraph, Matching};
use muri_workload::StageProfile;
use std::rc::Rc;

/// Graph cells per segment (a cell is one `i64` weight). Two segments
/// bound resident graph memory at ~2 × 8 M × 8 B = 128 MB worst case.
const DEFAULT_SEGMENT_CELL_BUDGET: usize = 8_000_000;

/// Matched pairs `(u, v, w)` of one sharded planning round.
pub(crate) type ShardedPairs = Vec<(usize, usize, i64)>;

#[derive(Default)]
struct RoundEntry {
    /// `None` for entries created by the sharded planner, which never
    /// materializes a dense round graph; [`RoundMemo::round1`] fills it
    /// lazily if the dense path is ever asked for the same key.
    graph: Option<Rc<DenseGraph>>,
    any_edge: bool,
    matching: Option<Rc<Matching>>,
    groups: Option<Rc<Vec<Vec<usize>>>>,
    /// The round-1 sharded plan (only successful — certified — plans are
    /// memoized).
    sharded: Option<Rc<ShardedPairs>>,
}

impl RoundEntry {
    /// Graph cells held (a sharded pair counts three).
    fn cells(&self) -> usize {
        let graph = self.graph.as_ref().map_or(0, |g| g.len() * g.len());
        let sharded = self.sharded.as_ref().map_or(0, |p| p.len() * 3);
        graph + sharded
    }
}

/// Memoized round-1 state handed back to the grouping loop.
pub(crate) struct Round1 {
    pub graph: Rc<DenseGraph>,
    /// `None` iff the graph has no edges (matching would be empty).
    pub matching: Option<Rc<Matching>>,
}

/// One planner's round memo, keyed by a bucket's profile list.
pub(crate) struct RoundMemo {
    entries: Segmented<Vec<StageProfile>, RoundEntry>,
}

impl RoundMemo {
    pub(crate) fn new() -> Self {
        RoundMemo::with_cell_budget(DEFAULT_SEGMENT_CELL_BUDGET)
    }

    /// A memo whose segments each hold about `budget` graph cells.
    pub(crate) fn with_cell_budget(budget: usize) -> Self {
        RoundMemo {
            entries: Segmented::new(budget, |profiles, entry| entry.cells() + profiles.len()),
        }
    }

    /// Fetch — building on miss — the round-1 graph and matching for a
    /// singleton-node profile list. `build` constructs the edge-weight
    /// graph; `solve` runs the matcher and is only invoked when the
    /// graph has at least one edge (and at most once per entry).
    pub(crate) fn round1(
        &mut self,
        profiles: &[StageProfile],
        build: impl FnOnce() -> DenseGraph,
        solve: impl FnOnce(&DenseGraph) -> Matching,
    ) -> Round1 {
        if let Some(entry) = self.entries.lookup(profiles) {
            let graph = match &entry.graph {
                Some(g) => Rc::clone(g),
                None => {
                    // Sharded-only entry asked for the dense round (the
                    // certificate-failure fallback): fill the graph
                    // lazily.
                    let g = Rc::new(build());
                    entry.any_edge = g.has_edges();
                    entry.graph = Some(Rc::clone(&g));
                    g
                }
            };
            if entry.any_edge && entry.matching.is_none() {
                entry.matching = Some(Rc::new(solve(&graph)));
            }
            return Round1 {
                graph,
                matching: entry.matching.clone(),
            };
        }
        let graph = Rc::new(build());
        let any_edge = graph.has_edges();
        let matching = any_edge.then(|| Rc::new(solve(&graph)));
        let entry = RoundEntry {
            graph: Some(Rc::clone(&graph)),
            any_edge,
            matching: matching.clone(),
            ..RoundEntry::default()
        };
        self.entries.insert(profiles.to_vec(), entry);
        Round1 { graph, matching }
    }

    /// Fetch — computing on miss — the memoized round-1 **sharded** plan
    /// for a singleton-node profile list. `compute` runs the sharded
    /// planner and may return `None` (certificate failure at fallback
    /// scale); failures are never memoized, so the subsequent dense round
    /// starts clean and a later identical call re-attempts nothing (it
    /// goes dense through [`round1`](Self::round1), which reuses this
    /// entry).
    pub(crate) fn sharded_round1(
        &mut self,
        profiles: &[StageProfile],
        compute: impl FnOnce() -> Option<ShardedPairs>,
    ) -> Option<Rc<ShardedPairs>> {
        if let Some(entry) = self.entries.lookup(profiles) {
            if let Some(pairs) = &entry.sharded {
                return Some(Rc::clone(pairs));
            }
            let pairs = Rc::new(compute()?);
            entry.sharded = Some(Rc::clone(&pairs));
            return Some(pairs);
        }
        let pairs = Rc::new(compute()?);
        let entry = RoundEntry {
            sharded: Some(Rc::clone(&pairs)),
            ..RoundEntry::default()
        };
        self.entries.insert(profiles.to_vec(), entry);
        Some(pairs)
    }

    /// The memoized final groups for an exactly repeated grouping call,
    /// if any. Counts a hit only when found, and never a miss.
    pub(crate) fn final_groups(&mut self, profiles: &[StageProfile]) -> Option<Vec<Vec<usize>>> {
        let groups = Vec::clone(self.entries.peek_mut(profiles)?.groups.as_ref()?);
        self.entries.hits += 1;
        Some(groups)
    }

    /// Record the final groups for this key so the next identical call
    /// skips the rounds entirely. A no-op if the entry has been evicted
    /// since [`round1`](Self::round1) (cannot happen within one grouping
    /// call).
    pub(crate) fn store_final_groups(&mut self, profiles: &[StageProfile], groups: &[Vec<usize>]) {
        if let Some(entry) = self.entries.peek_mut(profiles) {
            entry.groups = Some(Rc::new(groups.to_vec()));
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.entries.stats()
    }
}

/// No-op, kept for callers outside the workspace that emptied the old
/// per-thread round memo between runs. The memo now belongs to each
/// [`crate::Planner`], so a fresh planner starts empty and nothing
/// outlives it.
pub fn reset() {}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_workload::SimDuration;

    fn profile(a: u64, b: u64) -> StageProfile {
        StageProfile::new(
            SimDuration::from_micros(a),
            SimDuration::from_micros(b),
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
        )
    }

    fn toy_graph(n: usize) -> DenseGraph {
        DenseGraph::build_symmetric(n, |u, v| (u + v) as i64)
    }

    fn toy_matching(g: &DenseGraph) -> Matching {
        muri_matching::greedy_matching(g)
    }

    #[test]
    fn round1_memoizes_graph_and_matching() {
        let mut memo = RoundMemo::with_cell_budget(1_000_000);
        let ps = vec![profile(1, 2), profile(2, 1), profile(3, 3)];
        let mut builds = 0;
        let mut solves = 0;
        for _ in 0..3 {
            let r = memo.round1(
                &ps,
                || {
                    builds += 1;
                    toy_graph(3)
                },
                |g| {
                    solves += 1;
                    toy_matching(g)
                },
            );
            assert!(r.matching.is_some());
        }
        assert_eq!(builds, 1, "graph must be built once");
        assert_eq!(solves, 1, "matching must be solved once");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn final_groups_round_trip() {
        let mut memo = RoundMemo::with_cell_budget(1_000_000);
        let ps = vec![profile(1, 2), profile(2, 1)];
        assert_eq!(memo.final_groups(&ps), None);
        memo.round1(&ps, || toy_graph(2), toy_matching);
        let groups = vec![vec![0, 1]];
        memo.store_final_groups(&ps, &groups);
        assert_eq!(memo.final_groups(&ps), Some(groups));
        // A different profile list has no entry.
        assert_eq!(memo.final_groups(&ps[..1]), None);
    }

    #[test]
    fn cell_budget_bounds_residency_but_keeps_promoted_entries() {
        // Budget of ~2 ten-node graphs per segment.
        let mut memo = RoundMemo::with_cell_budget(200);
        let keep = vec![profile(999, 1); 10];
        memo.round1(&keep, || toy_graph(10), toy_matching);
        for i in 0..20u64 {
            let ps = vec![profile(i + 1, 2 * i + 3); 10];
            memo.round1(&ps, || toy_graph(10), toy_matching);
            // Touch `keep` so it keeps getting promoted across rotations.
            let mut rebuilt = false;
            memo.round1(
                &keep,
                || {
                    rebuilt = true;
                    toy_graph(10)
                },
                toy_matching,
            );
            assert!(!rebuilt, "promoted entry was evicted at insert {i}");
        }
        let s = memo.stats();
        assert!(s.entries <= 6, "memo must stay within budget: {s:?}");
    }
}
