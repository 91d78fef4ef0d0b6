//! Batch simulations of a workload's traces, untraced and traced.
//!
//! The planner's γ and round caches are thread-local; each simulation
//! empties them first, so it starts cold, as one `muri sim` process does.

use std::time::{Duration, Instant};

use muri_engine::{EventQueue, VirtualClockQueue};
use muri_sim::{EngineCore, SimConfig, SimReport};
use muri_telemetry::{Telemetry, TelemetrySink};
use muri_workload::Trace;

use crate::planner::PlannerTotals;
use crate::timed_queue::{EngineStats, TimedQueue};

/// What the checks and metrics need from one simulation.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Host time of the simulation.
    pub wall: Duration,
    /// FNV-1a digest of the report's JSON.
    pub digest: u64,
    /// Every job finished.
    pub all_finished: bool,
    /// Job completion times, seconds of simulated time.
    pub jcts: Vec<f64>,
    /// Simulated makespan, seconds.
    pub makespan: f64,
}

/// A traced simulation: the run plus what the wrapping queue and the
/// telemetry sink saw.
#[derive(Debug, Clone)]
pub struct TracedSimRun {
    /// The run itself (its wall time includes the tracing).
    pub run: SimRun,
    /// Per-kind engine counts and busy time.
    pub engine: EngineStats,
    /// Planner totals from the planning-pass events.
    pub planner: PlannerTotals,
}

/// Drive one trace through the engine the way `muri_sim::simulate` does,
/// with optional telemetry.
pub fn drive<Q: EventQueue>(
    trace: &Trace,
    cfg: &SimConfig,
    q: &mut Q,
    sink: Option<TelemetrySink>,
) -> SimReport {
    let mut core = EngineCore::from_trace(trace, cfg, q);
    if let Some(sink) = sink {
        core.set_telemetry(sink);
    }
    core.drive(q);
    core.finalize()
}

/// Simulate without tracing, timing the whole call.
pub fn run_untraced(trace: &Trace, cfg: &SimConfig) -> SimRun {
    empty_caches();
    let start = Instant::now();
    let mut q = VirtualClockQueue::new();
    let report = drive(trace, cfg, &mut q, None);
    let wall = start.elapsed();
    summarize(&report, wall)
}

/// Simulate through the wrapping queue with an enabled telemetry sink.
pub fn run_traced(trace: &Trace, cfg: &SimConfig) -> TracedSimRun {
    empty_caches();
    let start = Instant::now();
    let sink = TelemetrySink::enabled(Telemetry::with_journal_capacity(usize::MAX));
    let mut q = TimedQueue::new(VirtualClockQueue::new());
    let report = drive(trace, cfg, &mut q, Some(sink.clone()));
    let engine = q.finish();
    let wall = start.elapsed();
    let planner = sink
        .with(|t| PlannerTotals::from_events(t.journal.events()))
        .unwrap_or_default();
    TracedSimRun {
        run: summarize(&report, wall),
        engine,
        planner,
    }
}

/// Empty this thread's planner caches.
fn empty_caches() {
    muri_core::gamma_cache::reset();
    muri_core::round_cache::reset();
}

fn summarize(report: &SimReport, wall: Duration) -> SimRun {
    SimRun {
        wall,
        digest: digest(report),
        all_finished: report.all_finished(),
        jcts: report.jcts_secs(),
        makespan: report.makespan_secs(),
    }
}

/// FNV-1a over the report's JSON: equal digests mean byte-identical
/// reports.
pub fn digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).unwrap_or_default();
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
