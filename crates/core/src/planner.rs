//! The planner: one scheduling config plus the state its passes carry
//! from one pass to the next.
//!
//! Algorithm 1 re-runs multi-round matching at every scheduling pass, and
//! consecutive passes mostly see the same buckets. A [`Planner`] owns
//! everything that makes the repeats cheap — the γ memo
//! ([`crate::gamma_cache`]), the round memo ([`crate::round_cache`]) and
//! the dirty-class set of incremental planning — and is built from one
//! [`SchedulerConfig`], so the memos never mix state from different
//! configs. The simulator's engine and the daemon each own one; the free
//! functions [`crate::plan_schedule`], [`crate::multi_round_grouping`]
//! and [`crate::grouping::capacity_aware_grouping`] plan once on a fresh
//! planner. The memos change how fast a pass runs, never what it plans.
//!
//! ## Incremental re-planning
//!
//! The batch simulator re-plans the world at every pass; an always-on
//! daemon sustaining 10k+ submissions/sec need not. Because grouping
//! never crosses GPU-count buckets (§4.2), an arrival or completion
//! only invalidates the planning problem *inside its own GPU class* —
//! the other classes' queues and profiles are untouched. The planner
//! tracks which classes are dirty ([`Planner::mark`]), and
//! [`Planner::plan_incremental`] re-solves just those classes against
//! the current free capacity.
//!
//! What couples classes is *capacity*: freed GPUs may admit a job from
//! a class nothing marked. The planner therefore certifies each
//! incremental result with a stranding check — if any unplanned
//! candidate (from the full set) fits in the capacity the incremental
//! plan left unused, it discards the result and falls back to a full
//! re-plan. The surviving fast path carries a provable utility bound
//! (utility = Σ planned GPU demand):
//!
//! ```text
//! utility(incremental) ≥ utility(full) − min_unplanned_demand + 1
//! ```
//!
//! since `utility(full) ≤ free_gpus` and every unplanned candidate's
//! demand exceeds the unused capacity. `muri_verify::audit_incremental`
//! checks exactly this contract; with the `audit` feature, debug
//! builds run it (against a freshly computed full oracle) after every
//! incremental pass.

use std::collections::BTreeSet;

use muri_telemetry::TelemetrySink;
use muri_workload::{JobId, SimTime};

use crate::gamma_cache::GammaMemo;
use crate::grouping::GroupingConfig;
use crate::policy::{PendingJob, PolicyKind};
use crate::round_cache::RoundMemo;
use crate::scheduler::{PlannedGroup, SchedulerConfig};

/// How a scheduling pass derives its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Re-plan the world every pass (the simulator's historical
    /// behavior, and the fixture-pinned default).
    #[default]
    Full,
    /// Re-solve only dirty GPU classes, with the certified stranding
    /// fallback to a full re-plan.
    Incremental,
}

/// Counters describing how the incremental fast path is doing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Incremental passes attempted.
    pub passes: u64,
    /// Passes that fell back to a full re-plan (stranding, or an
    /// explicit mark-all after faults/topology changes).
    pub fallbacks: u64,
    /// Passes whose dirty set restricted the solve to a strict subset
    /// of the candidates.
    pub restricted: u64,
}

/// Outcome of one incremental planning pass.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    /// The plan to start (same shape as [`Planner::plan_pass`]'s).
    pub plan: Vec<PlannedGroup>,
    /// Whether the pass fell back to a full re-plan.
    pub fell_back: bool,
}

/// One scheduling config and the memo and dirty-class state its planning
/// passes share. See the module docs.
pub struct Planner {
    pub(crate) cfg: SchedulerConfig,
    pub(crate) gamma: GammaMemo,
    pub(crate) rounds: RoundMemo,
    /// GPU classes marked dirty since the last pass.
    dirty: BTreeSet<u32>,
    /// Every class is dirty (faults, machine churn, quota edits).
    all_dirty: bool,
    stats: IncrementalStats,
}

impl Planner {
    /// A planner for `cfg` with empty memos and no dirty classes.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Planner {
            cfg,
            gamma: GammaMemo::new(cfg.grouping.ordering),
            rounds: RoundMemo::new(),
            dirty: BTreeSet::new(),
            all_dirty: false,
            stats: IncrementalStats::default(),
        }
    }

    /// A planner for grouping calls alone
    /// ([`multi_round_grouping`](Self::multi_round_grouping),
    /// [`capacity_aware_grouping`](Self::capacity_aware_grouping)), which
    /// read nothing of the config but `grouping`.
    pub fn for_grouping(grouping: GroupingConfig) -> Self {
        Planner::new(SchedulerConfig {
            grouping,
            ..SchedulerConfig::preset(PolicyKind::MuriL)
        })
    }

    /// Mark one GPU class dirty.
    pub fn mark(&mut self, num_gpus: u32) {
        self.dirty.insert(num_gpus);
    }

    /// Mark every class dirty (faults, machine churn, quota edits —
    /// anything whose blast radius is not a single class).
    pub fn mark_all(&mut self) {
        self.all_dirty = true;
    }

    /// Whether `num_gpus` is currently marked dirty.
    pub fn is_dirty(&self, num_gpus: u32) -> bool {
        self.all_dirty || self.dirty.contains(&num_gpus)
    }

    /// Incremental fast-path counters so far.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Forget all marks: a full pass has seen every class.
    pub(crate) fn spend_marks(&mut self) {
        self.dirty.clear();
        self.all_dirty = false;
    }

    /// Plan like [`plan_pass`](Self::plan_pass), but re-solving only the
    /// GPU classes marked dirty; falls back to a full re-plan when the
    /// restricted solve would strand capacity. Spends the marks in
    /// either case — the produced plan is current as of `now`.
    pub fn plan_incremental(
        &mut self,
        candidates: &[PendingJob],
        free_gpus: u32,
        now: SimTime,
        sink: &TelemetrySink,
    ) -> IncrementalOutcome {
        self.stats.passes += 1;
        let dirty = std::mem::take(&mut self.dirty);
        if std::mem::take(&mut self.all_dirty) {
            return self.fall_back(candidates, free_gpus, now, sink);
        }
        let dirty_candidates: Vec<PendingJob> = candidates
            .iter()
            .filter(|c| dirty.contains(&c.num_gpus))
            .copied()
            .collect();
        if dirty_candidates.len() < candidates.len() {
            self.stats.restricted += 1;
        }
        let plan = if dirty_candidates.is_empty() {
            Vec::new()
        } else {
            self.plan_pass(&dirty_candidates, free_gpus, now, sink)
        };

        // Stranding check over the *full* candidate set: freed capacity may
        // admit a job from a class nothing marked.
        let planned: BTreeSet<JobId> = plan.iter().flat_map(|p| p.group.job_ids()).collect();
        let used: u32 = plan.iter().map(|p| p.num_gpus).sum();
        let remaining = free_gpus.saturating_sub(used);
        let stranded = candidates
            .iter()
            .any(|c| !planned.contains(&c.id) && c.num_gpus <= remaining);
        if stranded {
            return self.fall_back(candidates, free_gpus, now, sink);
        }

        #[cfg(feature = "audit")]
        self.debug_audit_incremental(candidates, free_gpus, now, &plan, &dirty);
        IncrementalOutcome {
            plan,
            fell_back: false,
        }
    }

    /// The full re-plan an incremental pass falls back to.
    fn fall_back(
        &mut self,
        candidates: &[PendingJob],
        free_gpus: u32,
        now: SimTime,
        sink: &TelemetrySink,
    ) -> IncrementalOutcome {
        self.stats.fallbacks += 1;
        IncrementalOutcome {
            plan: self.plan_pass(candidates, free_gpus, now, sink),
            fell_back: true,
        }
    }

    /// Debug-build hook (audit feature): check the incremental contract —
    /// legality, dirty confinement, no stranding, and the loss bound vs a
    /// freshly computed full oracle — and abort on any violation.
    #[cfg(feature = "audit")]
    fn debug_audit_incremental(
        &mut self,
        candidates: &[PendingJob],
        free_gpus: u32,
        now: SimTime,
        plan: &[PlannedGroup],
        dirty: &BTreeSet<u32>,
    ) {
        if cfg!(debug_assertions) {
            let oracle = self.plan_pass(candidates, free_gpus, now, &TelemetrySink::disabled());
            let full_utility: u32 = oracle.iter().map(|p| p.num_gpus).sum();
            // audit_plan's priority check reads candidate order as priority
            // order, so hand it the policy-sorted view.
            let mut sorted: Vec<PendingJob> = candidates.to_vec();
            self.cfg.policy.sort(&mut sorted, now);
            let snap = muri_verify::IncrementalSnapshot {
                free_gpus,
                max_group_size: self.cfg.pack_factor(),
                candidates: sorted
                    .iter()
                    .map(|c| (c.id, c.num_gpus, dirty.contains(&c.num_gpus)))
                    .collect(),
                plan: plan
                    .iter()
                    .map(|p| muri_verify::PlannedGroupRef {
                        group: &p.group,
                        num_gpus: p.num_gpus,
                    })
                    .collect(),
                full_utility,
                fell_back: false,
            };
            let report = muri_verify::audit_incremental(&snap);
            debug_assert!(
                report.is_clean(),
                "Planner::plan_incremental broke its contract:\n{report}"
            );
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use muri_workload::{SimDuration, StageProfile};

    fn job(id: u32, num_gpus: u32, remaining_secs: u64, profile: StageProfile) -> PendingJob {
        PendingJob {
            id: JobId(id),
            num_gpus,
            profile,
            submit_time: SimTime::ZERO,
            attained: SimDuration::ZERO,
            remaining: SimDuration::from_secs(remaining_secs),
            deadline: None,
        }
    }

    fn cpu_heavy() -> StageProfile {
        StageProfile::from_secs_f64(0.0, 2.0, 1.0, 0.0)
    }

    fn gpu_heavy() -> StageProfile {
        StageProfile::from_secs_f64(0.0, 1.0, 2.0, 0.0)
    }

    fn planner() -> Planner {
        Planner::new(SchedulerConfig::preset(PolicyKind::MuriL))
    }

    fn plan_incremental(
        planner: &mut Planner,
        candidates: &[PendingJob],
        free: u32,
    ) -> IncrementalOutcome {
        planner.plan_incremental(candidates, free, SimTime::ZERO, &TelemetrySink::disabled())
    }

    fn plan_full(candidates: &[PendingJob], free: u32) -> Vec<PlannedGroup> {
        crate::plan_schedule(
            &SchedulerConfig::preset(PolicyKind::MuriL),
            candidates,
            free,
            SimTime::ZERO,
        )
    }

    #[test]
    fn empty_dirty_set_with_no_fitting_candidate_plans_nothing() {
        let mut planner = planner();
        // 8-GPU job queued, 4 GPUs free: nothing fits, nothing dirty.
        let candidates = [job(1, 8, 100, cpu_heavy())];
        let out = plan_incremental(&mut planner, &candidates, 4);
        assert!(out.plan.is_empty());
        assert!(!out.fell_back);
    }

    #[test]
    fn dirty_class_is_resolved_and_matches_full_plan_on_that_class() {
        let mut planner = planner();
        planner.mark(2);
        let candidates = [
            job(1, 2, 100, cpu_heavy()),
            job(2, 2, 100, gpu_heavy()),
            // 8-GPU class untouched and unfittable with 4 free GPUs.
            job(3, 8, 100, cpu_heavy()),
        ];
        let out = plan_incremental(&mut planner, &candidates, 4);
        assert!(!out.fell_back);
        let planned: Vec<JobId> = out.plan.iter().flat_map(|p| p.group.job_ids()).collect();
        assert!(planned.contains(&JobId(1)) && planned.contains(&JobId(2)));
        // The dirty set is spent.
        assert!(!planner.is_dirty(2));
    }

    #[test]
    fn stranding_triggers_full_fallback() {
        let mut planner = planner();
        // Only the (empty) 8-GPU class is dirty, but a 2-GPU job from a
        // clean class fits the free capacity: fallback must fire and
        // plan it.
        planner.mark(8);
        let candidates = [job(1, 2, 100, cpu_heavy())];
        let out = plan_incremental(&mut planner, &candidates, 4);
        assert!(out.fell_back);
        assert_eq!(out.plan.len(), 1);
        assert_eq!(planner.incremental_stats().fallbacks, 1);
    }

    #[test]
    fn mark_all_is_a_full_replan() {
        let mut planner = planner();
        planner.mark_all();
        let candidates = [job(1, 2, 100, cpu_heavy()), job(2, 4, 100, gpu_heavy())];
        let out = plan_incremental(&mut planner, &candidates, 8);
        assert!(out.fell_back);
        assert_eq!(out.plan.len(), plan_full(&candidates, 8).len());
        assert!(!planner.is_dirty(2));
    }

    #[test]
    fn a_full_pass_spends_the_marks() {
        let mut planner = planner();
        planner.mark(2);
        planner.mark_all();
        let candidates = [job(1, 2, 100, cpu_heavy())];
        planner.plan_pass(&candidates, 4, SimTime::ZERO, &TelemetrySink::disabled());
        assert!(!planner.is_dirty(2));
    }

    #[test]
    fn incremental_utility_meets_certified_bound() {
        // Arrival into the 2-GPU class with other classes queued: the
        // incremental utility must stay within min-unplanned-demand of
        // the full oracle.
        let mut planner = planner();
        planner.mark(2);
        let candidates = [
            job(1, 2, 100, cpu_heavy()),
            job(2, 2, 50, gpu_heavy()),
            job(3, 4, 100, cpu_heavy()),
            job(4, 4, 80, gpu_heavy()),
        ];
        let free = 8;
        let out = plan_incremental(&mut planner, &candidates, free);
        let utility: u32 = out.plan.iter().map(|p| p.num_gpus).sum();
        let full_utility: u32 = plan_full(&candidates, free)
            .iter()
            .map(|p| p.num_gpus)
            .sum();
        let planned: BTreeSet<JobId> = out.plan.iter().flat_map(|p| p.group.job_ids()).collect();
        let min_unplanned = candidates
            .iter()
            .filter(|c| !planned.contains(&c.id))
            .map(|c| c.num_gpus)
            .min()
            .unwrap_or(0);
        assert!(
            utility + min_unplanned >= full_utility + u32::from(min_unplanned > 0),
            "utility {utility} vs full {full_utility} (min unplanned {min_unplanned})"
        );
    }
}
