//! Property tests for incremental re-planning (DESIGN.md §11):
//!
//! * **Certified utility bound vs the full oracle.** Across random
//!   arrival/completion sequences, every incremental pass that does not
//!   fall back must satisfy the certified bound
//!   `utility(incremental) ≥ utility(full) − min_unplanned_demand + 1`
//!   against a full cold re-plan of the same candidates; a fallback
//!   pass must match the full oracle exactly.
//! * **No stranding.** Capacity the incremental plan leaves unused
//!   never fits any unplanned candidate.
//!
//! The sequences drive a miniature cluster ledger: arrivals mark their
//! GPU class dirty and enqueue, completions mark and free capacity,
//! planning passes consume the plan (queue → running) exactly as the
//! engine does.

use std::collections::BTreeSet;

use muri_core::{plan_schedule, PendingJob, Planner, PolicyKind, SchedulerConfig};
use muri_telemetry::TelemetrySink;
use muri_workload::{JobId, SimDuration, SimTime, StageProfile};
use proptest::prelude::*;

/// One step of a random daemon history.
#[derive(Debug, Clone)]
enum Op {
    /// Enqueue a job: (profile palette pick, GPU-class exponent, remaining secs).
    Arrival(usize, u32, u64),
    /// Finish a running job (index modulo the running set).
    Completion(usize),
    /// Run a planning pass and consume its plan.
    Plan,
}

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

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Arrival-heavy mix (the vendored prop_oneof is unweighted, so the
    // arrival arm is listed twice).
    let arrival = || (0usize..4, 0u32..=3, 10u64..=500).prop_map(|(p, e, r)| Op::Arrival(p, e, r));
    let op = prop_oneof![
        arrival(),
        arrival(),
        (0usize..16).prop_map(Op::Completion),
        Just(Op::Plan),
    ];
    proptest::collection::vec(op, 4..=40)
}

/// Utility = Σ planned GPU demand (the certified objective).
fn utility(plan: &[muri_core::PlannedGroup]) -> u32 {
    plan.iter().map(|p| p.num_gpus).sum()
}

fn check_pass(
    cfg: &SchedulerConfig,
    queue: &[PendingJob],
    free: u32,
    now: SimTime,
    planner: &mut Planner,
) -> Vec<muri_core::PlannedGroup> {
    let out = planner.plan_incremental(queue, free, now, &TelemetrySink::disabled());
    let full = plan_schedule(cfg, queue, free, now);
    let inc_utility = utility(&out.plan);
    let full_utility = utility(&full);

    let planned: BTreeSet<JobId> = out.plan.iter().flat_map(|p| p.group.job_ids()).collect();
    let used: u32 = out.plan.iter().map(|p| p.num_gpus).sum();
    prop_assert!(used <= free, "plan uses {used} of {free} free GPUs");
    let remaining = free - used;

    // No stranding: every unplanned candidate is too big for what's left.
    for c in queue {
        if !planned.contains(&c.id) {
            prop_assert!(
                c.num_gpus > remaining,
                "job {:?} ({} GPUs) stranded with {remaining} GPUs unused",
                c.id,
                c.num_gpus
            );
        }
    }

    if out.fell_back {
        // A fallback *is* the full plan: identical utility.
        prop_assert_eq!(
            inc_utility,
            full_utility,
            "fallback pass diverged from the oracle"
        );
    } else {
        // The certified bound: utility ≥ full − min_unplanned + 1.
        let min_unplanned = queue
            .iter()
            .filter(|c| !planned.contains(&c.id))
            .map(|c| c.num_gpus)
            .min()
            .unwrap_or(0);
        prop_assert!(
            inc_utility + min_unplanned >= full_utility + u32::from(min_unplanned > 0),
            "incremental utility {inc_utility} below certified bound \
             (full {full_utility}, min unplanned {min_unplanned})"
        );
    }
    out.plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_meets_certified_bound_over_random_histories(
        palette in proptest::collection::vec(arb_profile(), 4),
        ops in arb_ops(),
    ) {
        let cfg = SchedulerConfig::preset(PolicyKind::MuriL);
        let total_gpus = 16u32;
        let mut free = total_gpus;
        let mut queue: Vec<PendingJob> = Vec::new();
        let mut running: Vec<(JobId, u32)> = Vec::new();
        let mut planner = Planner::new(cfg);
        let mut next_id = 0u32;
        let mut now = SimTime::ZERO;

        let run_plan = |queue: &mut Vec<PendingJob>,
                            running: &mut Vec<(JobId, u32)>,
                            free: &mut u32,
                            now: SimTime,
                            planner: &mut Planner| {
            let plan = check_pass(&cfg, queue, *free, now, planner);
            let planned: BTreeSet<JobId> =
                plan.iter().flat_map(|p| p.group.job_ids()).collect();
            for p in &plan {
                *free -= p.num_gpus;
                for id in p.group.job_ids() {
                    let gpus = queue
                        .iter()
                        .find(|c| c.id == id)
                        .map_or(0, |c| c.num_gpus);
                    running.push((id, gpus));
                }
            }
            queue.retain(|c| !planned.contains(&c.id));
        };

        for op in ops {
            now += SimDuration::from_secs(1);
            match op {
                Op::Arrival(pick, exp, remaining_secs) => {
                    let num_gpus = 1u32 << exp;
                    queue.push(PendingJob {
                        id: JobId(next_id),
                        num_gpus,
                        profile: palette[pick % palette.len()],
                        submit_time: now,
                        attained: SimDuration::ZERO,
                        remaining: SimDuration::from_secs(remaining_secs),
                        deadline: None,
                    });
                    next_id += 1;
                    planner.mark(num_gpus);
                }
                Op::Completion(i) => {
                    if !running.is_empty() {
                        let (_, gpus) = running.remove(i % running.len());
                        free += gpus;
                        planner.mark(gpus);
                    }
                }
                Op::Plan => run_plan(&mut queue, &mut running, &mut free, now, &mut planner),
            }
        }
        // Settle the tail so every history ends with a checked pass.
        now += SimDuration::from_secs(1);
        run_plan(&mut queue, &mut running, &mut free, now, &mut planner);
    }
}
