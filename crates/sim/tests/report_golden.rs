#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! Regression pins for [`muri_sim::SimReport`] across refactors:
//!
//! * the disabled-fault path: with every fault feature off (no job MTBF,
//!   no machine faults, no degraded machines, no checkpointing) the
//!   simulator must produce a byte-identical report. Those fixtures were
//!   generated before the fault-domain subsystem landed.
//! * the pruned planning path: a Muri-S run large enough that buckets
//!   outgrow the `n ≤ top_m + 1` shortcut, so the planner really drops
//!   edges, takes certificate fallbacks and re-plans merged rounds. Its
//!   fixture was generated before the class-table round graphs and the
//!   single CSR prune pass landed, so it pins them to the old plans.
//! * the fault and hostile-scenario handlers: Muri-L and Tiresias on a
//!   backlog with every fault feature on (per-job MTBF, machine
//!   fail-stop and transient faults, a degraded machine, periodic
//!   checkpoints, spot evictions with a drain window, two GPU
//!   generations, elastic resizes and SLO deadlines), plus one run of
//!   the live API (submit, cancel of a running job, `checkpoint_all`).
//!   These pin the journal as well as the report, so a reordered
//!   `JobPreempted` / `WorkLost` / `CheckpointTaken` or a shifted RNG
//!   draw shows up even when the report happens to survive it. The
//!   `planning_pass` lines are left out of the journal fixtures: they
//!   carry wall-clock phase timings. These fixtures were generated
//!   before the engine's stop, checkpoint and settle copies were folded.
//!
//! Run with `MURI_BLESS=1` to regenerate a fixture after a *deliberate*
//! behavior change.

use muri_cluster::ClusterSpec;
use muri_core::{gamma_cache, round_cache, PolicyKind, SchedulerConfig};
use muri_engine::VirtualClockQueue;
use muri_sim::{
    simulate, simulate_with_telemetry, CheckpointConfig, EngineCore, FaultConfig, JobPhase,
    SimConfig, SimReport,
};
use muri_telemetry::{Event, Journal, Telemetry, TelemetrySink};
use muri_workload::{philly_like_trace, JobId, JobSpec, ModelKind, SimDuration, SimTime, Trace};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str, policy: PolicyKind) {
    let trace = philly_like_trace(1, 0.02); // deterministic 20-job slice
    let cfg = SimConfig::testbed(SchedulerConfig::preset(policy));
    pin(
        name,
        &simulate(&trace, &cfg),
        "disabled-fault SimReport diverged from the pinned pre-fault-subsystem output",
    );
}

fn pin(name: &str, report: &SimReport, what: &str) {
    pin_text(name, &serde_json::to_string(report).unwrap(), what);
}

fn pin_text(name: &str, json: &str, what: &str) {
    let path = fixture_path(name);
    if std::env::var_os("MURI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .expect("fixture missing — regenerate with MURI_BLESS=1 cargo test");
    assert_eq!(json.trim_end(), pinned.trim_end(), "{name}: {what}");
}

#[test]
fn disabled_path_muril_report_is_pinned() {
    check("report_disabled_muril.json", PolicyKind::MuriL);
}

#[test]
fn disabled_path_srsf_report_is_pinned() {
    check("report_disabled_srsf.json", PolicyKind::Srsf);
}

/// Planner counters summed over every `planning_pass` of a run.
#[derive(Debug, Default, PartialEq, Eq)]
struct PlanCounters {
    /// Matching rounds executed.
    rounds: u64,
    /// Passes that ran a second (merged-node) round.
    merged_passes: u64,
    /// Edges dropped by top-m pruning.
    pruned_edges: u64,
    /// Prune-certificate fallbacks to the exact solve.
    prune_fallbacks: u64,
}

#[test]
fn pruned_path_muris_report_is_pinned() {
    // Fresh memo layers: the counters below count matcher runs, which a
    // round cache warmed by another test on this thread would skip.
    gamma_cache::reset();
    round_cache::reset();
    let trace = philly_like_trace(1, 0.2); // 198 jobs, buckets up to ~90 nodes
    let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriS));
    let sink = TelemetrySink::enabled(Telemetry::new());
    let report = simulate_with_telemetry(&trace, &cfg, &sink);
    let telemetry = sink.into_inner().expect("engine dropped its sink clones");
    assert_eq!(telemetry.journal.dropped(), 0);
    let mut counters = PlanCounters::default();
    for event in telemetry.journal.events() {
        if let Event::PlanningPass { phases, .. } = event {
            counters.rounds += u64::from(phases.matching_rounds);
            counters.merged_passes += u64::from(phases.matching_rounds >= 2);
            counters.pruned_edges += phases.pruned_edges;
            counters.prune_fallbacks += phases.prune_fallbacks;
        }
    }
    // The fixture only guards the pruned path if the run takes it: edges
    // really drop, some certificates fail, and merged rounds re-plan.
    assert_eq!(
        counters,
        PlanCounters {
            rounds: 88,
            merged_passes: 24,
            pruned_edges: 42_965,
            prune_fallbacks: 27,
        }
    );
    pin(
        "report_pruned_muris.json",
        &report,
        "pruned-path SimReport diverged from the pinned pre-class-table output",
    );
}

/// The journal as JSON Lines, minus the `planning_pass` events (their
/// phase timings are wall-clock, so they differ run to run).
fn journal_without_passes(journal: &Journal) -> String {
    let mut out = String::new();
    for ev in journal.events() {
        if !matches!(ev, Event::PlanningPass { .. }) {
            out.push_str(&serde_json::to_string(ev).unwrap());
            out.push('\n');
        }
    }
    out
}

/// A backlog on three machines (24 GPUs): 1-, 2- and 4-GPU jobs across
/// the four bottleneck classes, all submitted at t = 0, so preemption,
/// regrouping and every fault path have queued work to act on.
fn hostile_backlog() -> Trace {
    let models = [
        ModelKind::ShuffleNet,
        ModelKind::A2c,
        ModelKind::Gpt2,
        ModelKind::Vgg16,
    ];
    let gpus = [1, 1, 2, 1, 4, 2];
    let jobs = (0..30)
        .map(|i| {
            JobSpec::from_duration(
                JobId(i as u32),
                models[i % models.len()],
                gpus[i % gpus.len()],
                SimDuration::from_secs(900 + 60 * (i as u64 % 7)),
                SimTime::ZERO,
            )
        })
        .collect();
    Trace::new("hostile-backlog", jobs)
}

/// Every fault feature on at once.
fn hostile_config(policy: PolicyKind) -> SimConfig {
    let mut scheduler = SchedulerConfig::preset(policy);
    scheduler.interval = SimDuration::from_mins(2);
    scheduler.restart_penalty = SimDuration::from_secs(5);
    SimConfig {
        cluster: ClusterSpec::with_machines(3),
        faults: FaultConfig {
            seed: 7,
            mtbf: Some(SimDuration::from_secs(1_500)),
            machine_mtbf: Some(SimDuration::from_secs(2_400)),
            machine_mttr: SimDuration::from_secs(300),
            transient_fraction: 0.5,
            degraded_machines: 1,
            spot_machines: 1,
            spot_mtbe: Some(SimDuration::from_secs(900)),
            spot_warning: SimDuration::from_secs(45),
            spot_downtime: SimDuration::from_secs(120),
            gpu_generations: 2,
            generation_gap: 0.5,
            elastic_fraction: 0.3,
            elastic_interval: Some(SimDuration::from_secs(400)),
            slo_fraction: 0.3,
            slo_slack: 2.0,
            ..FaultConfig::default()
        },
        checkpoint: CheckpointConfig {
            interval: Some(SimDuration::from_secs(300)),
            cost: SimDuration::from_secs(2),
        },
        ..SimConfig::testbed(scheduler)
    }
}

/// Run the hostile backlog under `policy`, check the run really takes
/// every handler these fixtures guard, and pin report and journal.
fn check_hostile(policy: PolicyKind, report_name: &str, journal_name: &str) {
    let sink = TelemetrySink::enabled(Telemetry::new());
    let report = simulate_with_telemetry(&hostile_backlog(), &hostile_config(policy), &sink);
    let telemetry = sink.into_inner().expect("engine dropped its sink clones");
    assert_eq!(telemetry.journal.dropped(), 0);
    let c = telemetry.journal.counts();
    let injected = telemetry
        .journal
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::JobFaulted {
                    kind: muri_telemetry::FaultKind::Injected,
                    ..
                }
            )
        })
        .count();
    assert!(injected > 0, "per-job faults must fire");
    assert!(c.machine_failures > 0, "machines must fail");
    assert!(c.checkpoints > 0, "checkpoints must be taken");
    assert!(c.work_lost > 0, "machine faults must lose work");
    assert!(c.spot_evictions > 0, "spot machines must be evicted");
    assert!(c.elastic_resizes > 0, "elastic jobs must resize");
    assert!(c.preempted > 0, "survivors must be stopped and requeued");
    pin(
        report_name,
        &report,
        "hostile SimReport diverged from the pinned pre-fold output",
    );
    pin_text(
        journal_name,
        &journal_without_passes(&telemetry.journal),
        "hostile journal diverged from the pinned pre-fold output",
    );
}

#[test]
fn hostile_muril_report_and_journal_are_pinned() {
    check_hostile(
        PolicyKind::MuriL,
        "report_hostile_muril.json",
        "journal_hostile_muril.jsonl",
    );
}

#[test]
fn hostile_tiresias_report_and_journal_are_pinned() {
    check_hostile(
        PolicyKind::Tiresias,
        "report_hostile_tiresias.json",
        "journal_hostile_tiresias.jsonl",
    );
}

#[test]
fn live_api_report_and_journal_are_pinned() {
    let mut scheduler = SchedulerConfig::preset(PolicyKind::MuriL);
    scheduler.interval = SimDuration::from_mins(2);
    let cfg = SimConfig {
        cluster: ClusterSpec::with_machines(1),
        checkpoint: CheckpointConfig {
            interval: Some(SimDuration::from_secs(400)),
            cost: SimDuration::from_secs(3),
        },
        ..SimConfig::testbed(scheduler)
    };
    let sink = TelemetrySink::enabled(Telemetry::new());
    let mut q = VirtualClockQueue::new();
    let mut core = EngineCore::new_live(&cfg, "live-api", &mut q);
    core.set_telemetry(sink.clone());
    let models = [ModelKind::Gpt2, ModelKind::Vgg16, ModelKind::A2c];
    for i in 0..10u32 {
        let spec = JobSpec::from_duration(
            JobId(i),
            models[i as usize % models.len()],
            [1, 2, 4][i as usize % 3],
            SimDuration::from_secs(600 + 90 * u64::from(i)),
            SimTime::ZERO + SimDuration::from_secs(30 * u64::from(i)),
        );
        core.submit(spec, &mut q);
    }
    core.advance_to(SimTime::ZERO + SimDuration::from_secs(500), &mut q);
    let victim = JobId(4);
    assert_eq!(
        core.job_status(victim).map(|s| s.phase),
        Some(JobPhase::Running),
        "the cancelled job must be running at cancellation"
    );
    assert!(core.cancel(victim, &mut q));
    core.checkpoint_all();
    core.drive(&mut q);
    let report = core.finalize();
    let telemetry = sink.into_inner().expect("engine dropped its sink clones");
    assert_eq!(telemetry.journal.dropped(), 0);
    pin(
        "report_live_api.json",
        &report,
        "live-API SimReport diverged from the pinned pre-fold output",
    );
    pin_text(
        "journal_live_api.jsonl",
        &journal_without_passes(&telemetry.journal),
        "live-API journal diverged from the pinned pre-fold output",
    );
}
