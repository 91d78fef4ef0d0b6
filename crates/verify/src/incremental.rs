//! Auditing incremental re-plans against the full cold re-plan oracle.
//!
//! The daemon's incremental planner (`muri_core::Planner::plan_incremental`)
//! re-solves only the GPU classes invalidated by the triggering arrival
//! or completion, with a full certified re-plan as fallback. Its
//! contract, checked here on a caller-provided snapshot:
//!
//! 1. the produced plan is *legal* — all of [`audit_plan`]'s invariants
//!    hold against the full candidate set;
//! 2. a non-fallback pass only places jobs from dirty classes;
//! 3. a non-fallback pass never strands capacity: no unplanned
//!    candidate fits in the GPUs the plan left unused (otherwise the
//!    planner was obliged to fall back);
//! 4. the certified loss bound holds:
//!    `utility ≥ full_utility − min_unplanned_demand + 1`, where
//!    utility is Σ planned GPU demand. (Proof sketch: the full plan is
//!    capacity-bounded, `full_utility ≤ free_gpus`, and by check 3
//!    every unplanned candidate's demand exceeds the unused capacity,
//!    so `free_gpus − utility ≤ min_unplanned_demand − 1`.)
//!
//! The snapshot carries precomputed inputs (notably the oracle's
//! utility) so this crate never calls back into `muri-core` — the
//! auditor stays independent of the code under audit, and the crate
//! graph stays acyclic.

use std::collections::BTreeSet;

use muri_workload::JobId;

use crate::plan::{audit_plan, PlanContext, PlannedGroupRef};
use crate::violation::{AuditReport, Violation};

/// Everything one incremental planning pass produced, plus the oracle
/// result it is certified against.
#[derive(Debug)]
pub struct IncrementalSnapshot<'a> {
    /// Free-GPU capacity the pass planned against.
    pub free_gpus: u32,
    /// Maximum members per group (the pack factor).
    pub max_group_size: usize,
    /// Every candidate visible to the pass, in priority order:
    /// `(job, GPU demand, class-was-dirty)`.
    pub candidates: Vec<(JobId, u32, bool)>,
    /// The plan the incremental pass produced.
    pub plan: Vec<PlannedGroupRef<'a>>,
    /// Σ planned GPU demand of a full cold re-plan over the same
    /// candidates and capacity (the oracle, computed by the caller).
    pub full_utility: u32,
    /// Whether the pass fell back to a full re-plan (checks 2 and 3
    /// are then vacuous — the plan saw every candidate).
    pub fell_back: bool,
}

/// Audit one incremental planning pass. See the module docs for the
/// four checks.
pub fn audit_incremental(snap: &IncrementalSnapshot) -> AuditReport {
    let ctx = PlanContext {
        free_gpus: snap.free_gpus,
        max_group_size: snap.max_group_size,
        candidates: snap.candidates.iter().map(|&(j, d, _)| (j, d)).collect(),
    };
    let mut report = audit_plan(&snap.plan, &ctx);
    report.checks += 1;

    let planned: BTreeSet<JobId> = snap.plan.iter().flat_map(|p| p.group.job_ids()).collect();
    let utility: u32 = snap.plan.iter().map(|p| p.num_gpus).sum();

    if !snap.fell_back {
        let remaining = snap.free_gpus.saturating_sub(utility);
        for &(job, num_gpus, dirty) in &snap.candidates {
            if planned.contains(&job) {
                if !dirty {
                    report.push(Violation::IncrementalOutsideDirty { job, num_gpus });
                }
            } else if num_gpus <= remaining {
                report.push(Violation::IncrementalStrandedCapacity {
                    job,
                    demanded: num_gpus,
                    remaining,
                });
            }
        }
    }

    let min_unplanned = snap
        .candidates
        .iter()
        .filter(|(j, _, _)| !planned.contains(j))
        .map(|&(_, d, _)| d)
        .min();
    let bound = match min_unplanned {
        // utility ≥ full_utility − min_unplanned + 1.
        Some(d) => (snap.full_utility.saturating_add(1)).saturating_sub(d),
        // Everything planned: utility equals total demand, which any
        // capacity-respecting full plan cannot exceed.
        None => snap.full_utility,
    };
    if utility < bound {
        report.push(Violation::IncrementalLossBound {
            utility,
            full_utility: snap.full_utility,
            bound,
        });
    }
    report
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use muri_interleave::{GroupMember, InterleaveGroup, OrderingPolicy};
    use muri_workload::{SimDuration, StageProfile};

    fn profile() -> StageProfile {
        StageProfile::new(
            SimDuration::ZERO,
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            SimDuration::ZERO,
        )
    }

    fn group(ids: &[u32]) -> InterleaveGroup {
        InterleaveGroup::form(
            ids.iter()
                .map(|&i| GroupMember {
                    job: JobId(i),
                    profile: profile(),
                })
                .collect(),
            OrderingPolicy::Best,
        )
    }

    #[test]
    fn clean_incremental_pass() {
        // Dirty class 2: jobs 1 and 2 planned together; job 3 (class 4,
        // clean) does not fit the 1 remaining GPU.
        let g = group(&[1, 2]);
        let snap = IncrementalSnapshot {
            free_gpus: 3,
            max_group_size: 4,
            candidates: vec![
                (JobId(1), 2, true),
                (JobId(2), 2, true),
                (JobId(3), 4, false),
            ],
            plan: vec![PlannedGroupRef {
                group: &g,
                num_gpus: 2,
            }],
            full_utility: 2,
            fell_back: false,
        };
        let report = audit_incremental(&snap);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn planning_outside_dirty_classes_is_flagged() {
        let g = group(&[3]);
        let snap = IncrementalSnapshot {
            free_gpus: 4,
            max_group_size: 4,
            candidates: vec![(JobId(3), 4, false)],
            plan: vec![PlannedGroupRef {
                group: &g,
                num_gpus: 4,
            }],
            full_utility: 4,
            fell_back: false,
        };
        let report = audit_incremental(&snap);
        assert_eq!(report.count_kind("IncrementalOutsideDirty"), 1, "{report}");
    }

    #[test]
    fn stranded_capacity_without_fallback_is_flagged() {
        // 4 GPUs free, nothing planned, yet a 2-GPU candidate waits in a
        // clean class — the planner was obliged to fall back.
        let snap = IncrementalSnapshot {
            free_gpus: 4,
            max_group_size: 4,
            candidates: vec![(JobId(5), 2, false)],
            plan: vec![],
            full_utility: 2,
            fell_back: false,
        };
        let report = audit_incremental(&snap);
        assert_eq!(
            report.count_kind("IncrementalStrandedCapacity"),
            1,
            "{report}"
        );
        // Stranding also breaks the loss bound here: 0 < 2 − 2 + 1.
        assert_eq!(report.count_kind("IncrementalLossBound"), 1, "{report}");
    }

    #[test]
    fn fallback_pass_skips_dirty_and_stranding_checks() {
        let g = group(&[5]);
        let snap = IncrementalSnapshot {
            free_gpus: 4,
            max_group_size: 4,
            candidates: vec![(JobId(5), 2, false), (JobId(6), 4, false)],
            plan: vec![PlannedGroupRef {
                group: &g,
                num_gpus: 2,
            }],
            full_utility: 2,
            fell_back: true,
        };
        let report = audit_incremental(&snap);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn loss_bound_violation_is_flagged() {
        // A claimed "fallback" that planned nothing while the oracle
        // fills all 4 GPUs with the queued 1-GPU job and friends:
        // bound = 4 − 1 + 1 = 4 > 0. Fallback skips the stranding
        // check, so only the loss bound fires — the bound holds for
        // fallback passes too (a true fallback equals the oracle).
        let snap = IncrementalSnapshot {
            free_gpus: 4,
            max_group_size: 4,
            candidates: vec![(JobId(9), 1, false)],
            plan: vec![],
            full_utility: 4,
            fell_back: true,
        };
        let report = audit_incremental(&snap);
        assert_eq!(report.count_kind("IncrementalLossBound"), 1, "{report}");
        assert_eq!(report.count_kind("IncrementalStrandedCapacity"), 0);
    }

    #[test]
    fn all_candidates_planned_meets_trivial_bound() {
        let g = group(&[1]);
        let snap = IncrementalSnapshot {
            free_gpus: 2,
            max_group_size: 4,
            candidates: vec![(JobId(1), 2, true)],
            plan: vec![PlannedGroupRef {
                group: &g,
                num_gpus: 2,
            }],
            full_utility: 2,
            fell_back: false,
        };
        let report = audit_incremental(&snap);
        assert!(report.is_clean(), "{report}");
    }
}
