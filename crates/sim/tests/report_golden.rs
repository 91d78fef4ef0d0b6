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
//!
//! Run with `MURI_BLESS=1` to regenerate a fixture after a *deliberate*
//! behavior change.

use muri_core::{gamma_cache, round_cache, PolicyKind, SchedulerConfig};
use muri_sim::{simulate, simulate_with_telemetry, SimConfig, SimReport};
use muri_telemetry::{Event, Telemetry, TelemetrySink};
use muri_workload::philly_like_trace;
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
    let json = serde_json::to_string(report).unwrap();
    let path = fixture_path(name);
    if std::env::var_os("MURI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .expect("fixture missing — regenerate with MURI_BLESS=1 cargo test");
    assert_eq!(json, pinned.trim_end(), "{name}: {what}");
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
