//! Property tests for the grouping pipeline's equivalence guarantees:
//!
//! * `merged_efficiency` is **bit-identical** under every permutation of
//!   the member set for the permutation-invariant policies (Best/Worst),
//!   and matches the direct (uncached) computation within float
//!   tolerance — so the cache's key canonicalization is both exact and
//!   semantically honest;
//! * grouping output is **byte-identical across worker counts** (1, 2,
//!   4) for both `multi_round_grouping` and `capacity_aware_grouping`.
//!   Each run plans on a fresh planner, so each worker count really
//!   computes from scratch rather than replaying the first run's memo.

use muri_core::grouping::{capacity_aware_grouping, BucketInput};
use muri_core::{merged_efficiency, multi_round_grouping, Planner};
use muri_core::{GroupingConfig, GroupingMode};
use muri_interleave::{policy_efficiency, OrderingPolicy};
use muri_workload::{SimDuration, StageProfile};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = StageProfile> {
    (1u64..=50, 1u64..=50, 1u64..=50, 1u64..=50).prop_map(|(s, c, g, n)| {
        StageProfile::new(
            SimDuration::from_millis(s),
            SimDuration::from_millis(c),
            SimDuration::from_millis(g),
            SimDuration::from_millis(n),
        )
    })
}

/// All permutations of `0..n` for `n <= 4`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    assert!(n <= 4);
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..n).collect();
    // Heap-free lexicographic enumeration: small n, recursion is fine.
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    rec(&mut Vec::new(), &mut idx, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_efficiency_is_permutation_invariant(
        profiles in proptest::collection::vec(arb_profile(), 1..=4),
    ) {
        for policy in [OrderingPolicy::Best, OrderingPolicy::Worst] {
            let reference = merged_efficiency(&profiles, policy);
            for perm in permutations(profiles.len()) {
                let permuted: Vec<StageProfile> =
                    perm.iter().map(|&i| profiles[i]).collect();
                // Cache canonicalization: exact at the bit level.
                let cached = merged_efficiency(&permuted, policy);
                prop_assert_eq!(
                    cached.to_bits(),
                    reference.to_bits(),
                    "cached γ differs across permutations: {} vs {}",
                    cached,
                    reference
                );
                // Semantic honesty: the direct, uncached computation on
                // the permuted order agrees within float tolerance.
                let direct = policy_efficiency(&permuted, policy);
                prop_assert!(
                    (direct - reference).abs() < 1e-9,
                    "direct γ {} diverges from canonical {}",
                    direct,
                    reference
                );
            }
        }
    }

    #[test]
    fn grouping_with_and_without_round_cache_agree(
        profiles in proptest::collection::vec(arb_profile(), 2..=16),
    ) {
        // A warm round memo must return exactly what a cold run computes.
        let cfg = GroupingConfig::default();
        let mut planner = Planner::for_grouping(cfg);
        let cold = planner.multi_round_grouping(&profiles);
        let warm = planner.multi_round_grouping(&profiles);
        prop_assert_eq!(&cold, &warm);
        let recomputed = multi_round_grouping(&profiles, &cfg);
        prop_assert_eq!(&cold, &recomputed);
    }
}

proptest! {
    // Sizes reach past the parallel threshold (64 nodes) so the scoped
    // worker path genuinely runs; fewer cases keep Blossom cost sane.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn multi_round_grouping_identical_across_worker_counts(
        profiles in proptest::collection::vec(arb_profile(), 2..=80),
        mode_greedy in any::<bool>(),
        max_group_size in 2usize..=4,
    ) {
        let mode = if mode_greedy {
            GroupingMode::GreedyMatching
        } else {
            GroupingMode::Blossom
        };
        let mut reference: Option<Vec<Vec<usize>>> = None;
        for workers in [1usize, 2, 4] {
            let cfg = GroupingConfig {
                mode,
                max_group_size,
                workers,
                ..GroupingConfig::default()
            };
            let groups = multi_round_grouping(&profiles, &cfg);
            match &reference {
                None => reference = Some(groups),
                Some(r) => prop_assert_eq!(
                    r,
                    &groups,
                    "multi_round_grouping diverged at workers={}",
                    workers
                ),
            }
        }
    }

    #[test]
    fn capacity_aware_grouping_identical_across_worker_counts(
        big_bucket in proptest::collection::vec(arb_profile(), 1..=72),
        small_buckets in proptest::collection::vec(
            proptest::collection::vec(arb_profile(), 1..=12),
            0..=2,
        ),
        free_gpus in 1u32..=24,
        mode_greedy in any::<bool>(),
    ) {
        let mut bucket_profiles = vec![big_bucket];
        bucket_profiles.extend(small_buckets);
        let mode = if mode_greedy {
            GroupingMode::GreedyMatching
        } else {
            GroupingMode::Blossom
        };
        let buckets: Vec<BucketInput> = bucket_profiles
            .iter()
            .enumerate()
            .map(|(i, profiles)| BucketInput {
                gpus: 1 << (bucket_profiles.len() - 1 - i),
                profiles: profiles.clone(),
            })
            .collect();
        let mut reference: Option<Vec<Vec<Vec<usize>>>> = None;
        for workers in [1usize, 2, 4] {
            let cfg = GroupingConfig {
                mode,
                workers,
                ..GroupingConfig::default()
            };
            let grouped = capacity_aware_grouping(&buckets, free_gpus, &cfg);
            match &reference {
                None => reference = Some(grouped),
                Some(r) => prop_assert_eq!(
                    r,
                    &grouped,
                    "capacity_aware_grouping diverged at workers={}",
                    workers
                ),
            }
        }
    }
}
