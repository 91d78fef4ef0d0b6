//! The Muri workspace benchmark.
//!
//! One run measures one workload with one seed. An untraced run prints
//! the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer metrics, all taken from outside the program: a wrapping
//! event queue, the planner's planning-pass telemetry, timed calls into
//! `muri_serve`, and client-side HTTP timing. Both check the outputs.
//! See `BENCHMARK.json` at the repository root for the workloads and
//! metrics, and `perfbench/README.md` for how to run it.

pub mod planner;
pub mod report;
pub mod rss;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod timed_queue;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use muri_serve::HttpClient;

use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::serve::Schedule;
use crate::stats::{mean, median, ms, percentile, secs, us};
use crate::timed_queue::KINDS;
use crate::workload::{sub_seed, Workload};

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Traces simulated per untraced run.
    pub traces: u64,
    /// Timed simulations of each trace per untraced run.
    pub repeats: usize,
    /// Size of the simulated traces, as a multiple of trace 1's jobs.
    pub trace_scale: f64,
    /// Daemon sessions per untraced run.
    pub sessions: u64,
    /// Arrivals fed to the daemon per session.
    pub serve_jobs: usize,
    /// Jobs in each op log the timed `--recover` boots replay.
    pub recover_jobs: usize,
    /// Op logs per run, each of a trace of its own.
    pub recoveries: usize,
    /// Timed `--recover` boots of each op log per untraced run.
    pub boots: usize,
    /// Scheduler seconds per wall second of the daemon.
    pub time_scale: f64,
    /// Period of the open-loop status polls.
    pub status_period: Duration,
    /// Set-ups timed per run.
    pub setups: usize,
}

/// Size of the traces the daemon sessions draw their arrivals from.
const SERVE_TRACE_SCALE: f64 = 4.0;

/// First trace index of the daemon sessions' traces, apart from the
/// simulated ones.
const SERVE_TRACE_BASE: u64 = 1 << 32;

/// First trace index of the traces whose op logs the `--recover` boots
/// replay.
const OP_LOG_TRACE_BASE: u64 = 1 << 33;

impl Sizes {
    /// The sizes of a run that measures for about `seconds` seconds on a
    /// 2-core x86-64 box, where a 4x trace takes about 2.6 s under
    /// Muri-S and its op log's recovery boot 0.7 s, and a 1x trace
    /// 0.22 s under Tiresias and its boot 0.09 s.
    pub fn for_run(w: Workload, seconds: u64) -> Sizes {
        // Traces, timed simulations of each, op logs and timed boots of
        // each, at 40 s.
        let (traces, repeats, recoveries, boots) = match w {
            Workload::SimOnline => (4.0, 3, 4.0, 3),
            Workload::SimHostile => (15.0, 6, 6.0, 5),
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let scaled = |n: f64| ((n * seconds as f64 / 40.0).round() as usize).max(1);
        Sizes {
            traces: scaled(traces) as u64,
            repeats,
            trace_scale: w.trace_scale(),
            sessions: 1,
            serve_jobs: 200,
            recover_jobs: 600,
            recoveries: scaled(recoveries),
            boots,
            time_scale: 6_000.0,
            status_period: Duration::from_millis(5),
            setups: 9,
        }
    }
}

/// Everything a run needs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// The `muri` binary, for the `--recover` boot.
    pub muri: PathBuf,
    /// Directory for daemon state; removed at the end.
    pub scratch: PathBuf,
    /// How much work to do.
    pub sizes: Sizes,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: simulations, requests and recovery boots.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
    /// Human-readable lines: failed checks and the trace accounting.
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

/// Run the benchmark once. An error means the run could not be carried
/// out at all.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("creating {}: {e}", opts.scratch.display()))?;
    let result = if opts.traced {
        run_traced(opts)
    } else {
        run_untraced(opts)
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let out = result?;
    let (mut want, mut got): (Vec<&str>, Vec<&str>) = (
        if opts.traced { PER_LAYER } else { END_TO_END }
            .iter()
            .map(|&(name, _)| name)
            .collect(),
        out.metrics.names(),
    );
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err(format!("metrics printed {got:?}, declared {want:?}"));
    }
    Ok(out)
}

/// The inputs of a run, all drawn from its seed: the simulated traces,
/// and the schedules of the daemon sessions, each the first arrivals of
/// a trace of its own.
struct Inputs {
    traces: Vec<muri_workload::Trace>,
    schedules: Vec<Schedule>,
    op_log_traces: Vec<muri_workload::Trace>,
}

impl Inputs {
    fn build(opts: &Options, traces: u64, sessions: u64) -> Inputs {
        let seed = opts.seed;
        let traces = (0..traces)
            .map(|k| workload::philly_trace1(sub_seed(seed, k), opts.sizes.trace_scale))
            .collect();
        let schedules = (0..sessions)
            .map(|j| {
                let trace = workload::philly_trace1(
                    sub_seed(seed, SERVE_TRACE_BASE + j),
                    SERVE_TRACE_SCALE,
                );
                Schedule::from_trace(
                    &trace,
                    opts.sizes.serve_jobs,
                    opts.sizes.time_scale,
                    opts.sizes.status_period,
                )
            })
            .collect();
        let op_log_traces = (0..opts.sizes.recoveries as u64)
            .map(|i| {
                workload::philly_trace1(sub_seed(seed, OP_LOG_TRACE_BASE + i), SERVE_TRACE_SCALE)
            })
            .collect();
        Inputs {
            traces,
            schedules,
            op_log_traces,
        }
    }
}

/// Build the inputs and boot a fresh durable daemon until it answers
/// `/v1/healthz`, then stop it: what every run pays before measuring.
fn set_up(
    opts: &Options,
    traces: u64,
    sessions: u64,
    dir: &Path,
) -> Result<(Inputs, Duration), String> {
    let start = Instant::now();
    let inputs = Inputs::build(opts, traces, sessions);
    let cfg = serve::server_config(opts.workload, opts.sizes.time_scale, dir, false);
    let bound = muri_serve::bind(cfg).map_err(|e| format!("binding the daemon: {e}"))?;
    let addr = bound.addr().to_string();
    let took = std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let answered = loop {
            match HttpClient::connect(&addr).and_then(|mut c| c.get("/v1/healthz")) {
                Ok((200, _)) => break Ok(start.elapsed()),
                Ok(other) => break Err(format!("healthz answered {other:?}")),
                Err(_) if start.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => break Err(format!("healthz: {e}")),
            }
        };
        let stopped = HttpClient::connect(&addr)
            .and_then(|mut c| c.post("/v1/shutdown", "{}"))
            .map_err(|e| format!("shutdown: {e}"));
        let joined = server.join();
        let took = answered?;
        stopped?;
        match joined {
            Ok(Ok(())) => Ok(took),
            _ => Err("set-up daemon did not stop cleanly".to_string()),
        }
    })?;
    Ok((inputs, took))
}

fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let sizes = &opts.sizes;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut inputs = None;
    for i in 0..sizes.setups.max(1) {
        let dir = opts.scratch.join(format!("setup-{i}"));
        let (built, took) = set_up(opts, sizes.traces, sizes.sessions, &dir)?;
        setups.push(secs(took));
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    // Every trace is simulated `repeats` times and every op log booted
    // `boots` times, in rounds, so that the samples of one input lie
    // apart in time; the `--recover` boots are spread between the
    // simulations. The host's slow spells only ever add time, so an
    // input's time is its fastest sample, and the metric is the median
    // over the inputs.
    let logs = op_logs(opts, &inputs.op_log_traces)?;
    let traces = inputs.traces.len();
    let sims = traces * sizes.repeats.max(1);
    let boots = logs.len() * sizes.boots.max(1);
    let mut walls = vec![f64::INFINITY; traces];
    let mut recover = vec![f64::INFINITY; logs.len()];
    let mut boot = |b: usize, out: &mut Outcome| -> Result<(), String> {
        let i = b % logs.len();
        if let Some(took) = recover_boot(opts, &logs[i], i, out)? {
            recover[i] = recover[i].min(took);
        }
        Ok(())
    };
    let mut booted = 0;
    let mut runs: Vec<sim::SimRun> = Vec::with_capacity(traces);
    for s in 0..sims {
        let k = s % traces;
        let cfg = w.sim_config(sub_seed(opts.seed, k as u64));
        let run = sim::run_untraced(&inputs.traces[k], &cfg);
        out.attempted += 1;
        out.check(run.all_finished, || {
            format!("trace {k}: not every job finished")
        });
        eprintln!(
            "trace {k}: {} jobs, digest {:016x}, {:.3} s",
            inputs.traces[k].len(),
            run.digest,
            secs(run.wall)
        );
        walls[k] = walls[k].min(secs(run.wall));
        if let Some(first) = runs.get(k) {
            out.check(run.digest == first.digest, || {
                format!(
                    "trace {k}: report digest {:016x} differs from {:016x}",
                    run.digest, first.digest
                )
            });
        } else {
            runs.push(run);
        }
        // Boot `b` has its turn after simulation `s` once
        // `b * sims <= s * boots`.
        while booted < boots && booted * sims <= s * boots {
            boot(booted, &mut out)?;
            booted += 1;
        }
    }
    for b in booted..boots {
        boot(b, &mut out)?;
    }
    eprintln!("recover (fastest boot of each op log): {recover:?} s");
    // The sessions' latencies are printed but not reported: see
    // perfbench/README.md on why they are not steady enough to gate.
    for (j, sched) in inputs.schedules.iter().enumerate() {
        let http = serve_and_recover(opts, sched, &format!("serve-{j}"), &mut out)?;
        let submit: Vec<f64> = http.submit_lat.iter().map(|d| ms(*d)).collect();
        let status: Vec<f64> = http.status_lat.iter().map(|d| ms(*d)).collect();
        eprintln!(
            "session {j}: {} submits, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; \
             {} status polls, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            submit.len(),
            percentile(&submit, 50.0),
            percentile(&submit, 90.0),
            percentile(&submit, 99.0),
            status.len(),
            percentile(&status, 50.0),
            percentile(&status, 90.0),
            percentile(&status, 99.0),
        );
    }
    eprintln!("wall (fastest simulation of each trace): {walls:?} s");
    let avg_jcts: Vec<f64> = runs.iter().map(|r| mean(&r.jcts)).collect();
    let p99_jcts: Vec<f64> = runs.iter().map(|r| percentile(&r.jcts, 99.0)).collect();
    let makespans: Vec<f64> = runs.iter().map(|r| r.makespan).collect();
    // A boot that failed its check left no sample.
    let recover: Vec<f64> = recover.into_iter().filter(|t| t.is_finite()).collect();

    let m = &mut out.metrics;
    m.set("wall_s", median(&walls));
    m.set("avg_jct_s", mean(&avg_jcts));
    m.set("p99_jct_s", mean(&p99_jcts));
    m.set("makespan_s", mean(&makespans));
    m.set("recover_s", median(&recover));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", rss::peak_rss_mb());
    Ok(out)
}

/// A recovery op log on disk and the last job id it issued.
struct OpLog {
    dir: PathBuf,
    last: u32,
}

/// Write the op log of each recovery trace: a virtual-clock
/// `ServeCore` with the daemon's configuration runs the trace's first
/// arrivals to completion. Logs of different traces spread the replay's
/// own seed-to-seed variation over the boots, as the simulated traces do.
fn op_logs(opts: &Options, traces: &[muri_workload::Trace]) -> Result<Vec<OpLog>, String> {
    traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let dir = opts.scratch.join(format!("op-log-{i}"));
            let last = serve::build_op_log(opts.workload, trace, opts.sizes.recover_jobs, &dir)?;
            Ok(OpLog { dir, last })
        })
        .collect()
}

/// Boot `muri serve --recover` on a fresh copy of op log `i`; returns
/// the boot's seconds, or `None` when it failed its check.
fn recover_boot(
    opts: &Options,
    log: &OpLog,
    i: usize,
    out: &mut Outcome,
) -> Result<Option<f64>, String> {
    let w = opts.workload;
    let jobs = opts.sizes.recover_jobs;
    let copy = opts.scratch.join(format!("op-log-{i}-boot"));
    let _ = std::fs::remove_dir_all(&copy);
    serve::copy_dir(&log.dir, &copy)?;
    out.attempted += 1;
    match serve::recover_with_binary(&opts.muri, w, opts.sizes.time_scale, &copy, log.last) {
        Ok(r) => {
            out.check(r.submits == jobs as u64, || {
                format!("recovered daemon replayed {} submits of {jobs}", r.submits)
            });
            Ok(Some(secs(r.ready)))
        }
        Err(e) => {
            out.check(false, || format!("recovery of op log {i}: {e}"));
            Ok(None)
        }
    }
}

/// The HTTP session, then a `--recover` boot on a copy of the state it
/// left, with their checks.
fn serve_and_recover(
    opts: &Options,
    sched: &Schedule,
    tag: &str,
    out: &mut Outcome,
) -> Result<serve::HttpOutcome, String> {
    let w = opts.workload;
    let state = opts.scratch.join(tag);
    let http = serve::http_session(w, sched, &state)?;
    out.attempted += http.sent;
    out.failed += http.refused + http.errors;
    if http.refused + http.errors > 0 {
        out.notes.push(format!(
            "{} submits refused, {} requests errored",
            http.refused, http.errors
        ));
    }
    for p in &http.problems {
        out.check(false, || p.clone());
    }
    out.check(http.terminal == http.accepted.len(), || {
        format!(
            "{} of {} accepted jobs reached a terminal phase",
            http.terminal,
            http.accepted.len()
        )
    });
    let Some(&probe) = http.accepted.last() else {
        out.check(false, || "the daemon accepted no job".to_string());
        return Ok(http);
    };
    let copy = opts.scratch.join(format!("{tag}-recover"));
    serve::copy_dir(&state, &copy)?;
    out.attempted += 1;
    match serve::recover_with_binary(&opts.muri, w, sched.time_scale, &copy, probe) {
        Ok(r) => out.check(r.submits == http.accepted.len() as u64, || {
            format!(
                "recovered daemon replayed {} submits, {} were acknowledged",
                r.submits,
                http.accepted.len()
            )
        }),
        Err(e) => out.check(false, || format!("recovery: {e}")),
    }
    Ok(http)
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (inputs, _) = set_up(opts, 1, 1, &opts.scratch.join("setup"))?;
    let sched = &inputs.schedules[0];
    let trace = &inputs.traces[0];
    let cfg = w.sim_config(sub_seed(opts.seed, 0));

    // The same trace untraced and traced, twice each in turn: equal
    // digests show the wrapping queue and the sink leave the schedule
    // alone, and the faster of each pair bounds the tracing overhead.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        plain.push(sim::run_untraced(trace, &cfg));
        traced.push(sim::run_traced(trace, &cfg));
    }
    out.attempted += 4;
    let digest = plain[0].digest;
    out.check(
        plain
            .iter()
            .chain(traced.iter().map(|t| &t.run))
            .all(|r| r.all_finished),
        || "not every job finished".to_string(),
    );
    for r in plain.iter().chain(traced.iter().map(|t| &t.run)) {
        out.check(r.digest == digest, || {
            format!("report digest {:016x} differs from {digest:016x}", r.digest)
        });
    }
    let fastest = |walls: Vec<Duration>| walls.into_iter().min().map_or(0.0, secs);
    let plain_wall = fastest(plain.iter().map(|r| r.wall).collect());
    let traced_wall = fastest(traced.iter().map(|t| t.run.wall).collect());
    let traced = traced
        .into_iter()
        .min_by_key(|t| t.run.wall)
        .ok_or("no traced run")?;

    // The daemon's core, called directly; then the daemon over HTTP and
    // its recovery, timed call by call and as a whole.
    let core = serve::core_session(w, sched, &opts.scratch.join("core"))?;
    out.attempted += core.submit.len() as u64;
    for p in &core.problems {
        out.check(false, || format!("core session: {p}"));
    }
    let http = serve_and_recover(opts, sched, "serve", &mut out)?;
    let logs = op_logs(opts, &inputs.op_log_traces)?;
    let mut recovered = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        recovered.extend(recover_boot(opts, log, i, &mut out)?);
    }
    let calls_dir = opts.scratch.join("op-log-calls");
    serve::copy_dir(&logs[0].dir, &calls_dir)?;
    let calls = serve::recover_calls(w, sched.time_scale, &calls_dir)?;
    out.check(calls.audit_clean, || {
        "recovery replay audit found violations".to_string()
    });
    out.check(calls.submits == opts.sizes.recover_jobs as u64, || {
        format!(
            "replay found {} submits of {}",
            calls.submits, opts.sizes.recover_jobs
        )
    });

    let m = &mut out.metrics;
    let p = &traced.planner;
    let e = &traced.engine;
    let us_s = |v: u64| v as f64 / 1e6;
    m.set("matching.solve_s", us_s(p.matching_us));
    m.set("matching.rounds", p.rounds as f64);
    m.set("matching.pruned_edges", p.pruned_edges as f64);
    m.set("matching.prune_fallbacks", p.prune_fallbacks as f64);
    m.set("matching.prune_fallback_ratio", p.prune_fallback_ratio());
    m.set("core.passes", p.passes as f64);
    m.set("core.plan_s", us_s(p.plan_us()));
    m.set("core.sort_s", us_s(p.sort_us));
    m.set("core.grouping_s", us_s(p.grouping_us));
    m.set("core.graph_build_s", us_s(p.graph_build_us));
    m.set("core.candidates_mean", p.candidates_mean());
    m.set("core.candidates_max", p.candidates_max as f64);
    m.set("core.round_cache.hit_ratio", p.round_hit_ratio());
    m.set("core.gamma_cache.hit_ratio", p.gamma_hit_ratio());
    m.set("core.shards", p.shards as f64);
    let busy = secs(e.busy());
    let plan = us_s(p.plan_us());
    m.set("engine.events", e.events() as f64);
    m.set("engine.busy_s", busy);
    m.set("engine.queue_peak", e.queue_peak as f64);
    m.set("engine.self_s", busy - plan);
    for (i, kind) in KINDS.iter().enumerate() {
        m.set(&format!("engine.{kind}.n"), e.count[i] as f64);
        m.set(&format!("engine.{kind}_s"), secs(e.busy[i]));
    }

    let to_us = |xs: &[Duration]| xs.iter().map(|d| us(*d)).collect::<Vec<_>>();
    let submit_us = to_us(&core.submit);
    let sync_us = to_us(&core.sync);
    let pump_after_us = to_us(&core.pump_after_submit);
    let pump_ms: Vec<f64> = core.pump.iter().map(|d| ms(*d)).collect();
    let pump_s: f64 = core.pump.iter().map(|d| secs(*d)).sum();
    let status_s: f64 = core.status.iter().map(|d| secs(*d)).sum();
    let submit_s: f64 = core.submit.iter().map(|d| secs(*d)).sum();
    let sync_s: f64 = core.sync.iter().map(|d| secs(*d)).sum();
    m.set("serve.core.submit_p50_us", percentile(&submit_us, 50.0));
    m.set("serve.core.submit_p99_us", percentile(&submit_us, 99.0));
    m.set("serve.core.pump_s", pump_s);
    m.set("serve.core.pump_p99_ms", percentile(&pump_ms, 99.0));
    m.set(
        "serve.core.status_p99_us",
        percentile(&to_us(&core.status), 99.0),
    );
    m.set("serve.core.plan_s", us_s(core.planner.plan_us()));
    m.set("serve.core.matching_s", us_s(core.planner.matching_us));
    m.set("serve.journal.syncs", core.sync.len() as f64);
    m.set("serve.journal.sync_p50_us", percentile(&sync_us, 50.0));
    m.set("serve.journal.sync_p99_us", percentile(&sync_us, 99.0));
    let http_submit_us: Vec<f64> = to_us(&http.submit_lat);
    m.set(
        "serve.wire.submit_overhead_p50_us",
        percentile(&http_submit_us, 50.0)
            - percentile(&submit_us, 50.0)
            - percentile(&pump_after_us, 50.0)
            - percentile(&sync_us, 50.0),
    );
    m.set("serve.refused", http.refused as f64);
    m.set("recover.ops", calls.ops as f64);
    m.set("recover.load_s", secs(calls.load));
    m.set("recover.replay_s", secs(calls.replay));
    m.set("recover.audit_s", secs(calls.audit));
    m.set("loadgen.sent", http.sent as f64);
    m.set("loadgen.failed", (http.refused + http.errors) as f64);
    let lag_ms: Vec<f64> = http.lag.iter().map(|d| ms(*d)).collect();
    m.set("loadgen.lag_p99_ms", percentile(&lag_ms, 99.0));
    let http_status_ms: Vec<f64> = http.status_lat.iter().map(|d| ms(*d)).collect();
    m.set(
        "loadgen.submit_p50_ms",
        percentile(&http_submit_us, 50.0) / 1e3,
    );
    m.set(
        "loadgen.submit_p90_ms",
        percentile(&http_submit_us, 90.0) / 1e3,
    );
    m.set(
        "loadgen.submit_p99_ms",
        percentile(&http_submit_us, 99.0) / 1e3,
    );
    m.set("loadgen.status_p50_ms", percentile(&http_status_ms, 50.0));
    m.set("loadgen.status_p90_ms", percentile(&http_status_ms, 90.0));
    m.set("loadgen.status_p99_ms", percentile(&http_status_ms, 99.0));
    m.set("telemetry.overhead_s", traced_wall - plain_wall);
    m.set("trace.unaccounted_s", traced_wall - busy);

    // Self time of each layer as a share of the traced wall time.
    let share = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    let matching = us_s(p.matching_us);
    let graph = us_s(p.graph_build_us);
    m.set("share.sim.matching", share(matching, traced_wall));
    m.set("share.sim.graph_build", share(graph, traced_wall));
    m.set(
        "share.sim.planner_self",
        share(plan - matching - graph, traced_wall),
    );
    m.set("share.sim.engine_self", share(busy - plan, traced_wall));
    m.set(
        "share.sim.unaccounted",
        share(traced_wall - busy, traced_wall),
    );
    let core_wall = secs(core.wall);
    m.set("share.serve.submit", share(submit_s, core_wall));
    m.set("share.serve.pump", share(pump_s, core_wall));
    m.set("share.serve.journal", share(sync_s, core_wall));
    m.set("share.serve.status", share(status_s, core_wall));
    m.set(
        "share.serve.idle",
        share(core_wall - submit_s - pump_s - sync_s - status_s, core_wall),
    );
    let ready = median(&recovered);
    m.set("share.recover.load", share(secs(calls.load), ready));
    m.set("share.recover.replay", share(secs(calls.replay), ready));
    m.set("share.recover.audit", share(secs(calls.audit), ready));

    out.notes
        .extend(accounting(&out.metrics, traced_wall, core_wall, ready));
    Ok(out)
}

/// The trace accounting table: each layer's self time as a share of the
/// wall time it ran in, with layers that did no work flagged.
fn accounting(m: &Metrics, sim_wall: f64, core_wall: f64, ready: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "trace accounting (sim wall {sim_wall:.3} s, core session {core_wall:.3} s, recover {ready:.3} s):"
    )];
    for &(name, _, value) in m.rows() {
        if name.starts_with("share.") {
            lines.push(format!("  {name:<28} {:6.2} %", value * 100.0));
        }
    }
    let zero: Vec<&str> = m
        .rows()
        .iter()
        .filter(|(name, _, v)| {
            *v == 0.0
                && (name.ends_with("_s") || name.ends_with(".n") || *name == "core.shards")
                && !name.starts_with("share.")
        })
        .map(|(name, _, _)| *name)
        .collect();
    lines.push(format!(
        "  zero work: {}",
        if zero.is_empty() {
            "none".to_string()
        } else {
            zero.join(", ")
        }
    ));
    lines
}
