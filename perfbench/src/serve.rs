//! The durable daemon, driven from the outside.
//!
//! * [`http_session`] boots `muri_serve` in this process on a loopback
//!   port with a durable state directory and feeds it a trace's arrivals
//!   open-loop: one thread and one connection submit, one thread and one
//!   connection poll job status. Every request is timed from when it was
//!   due, so a stall also delays the requests queued behind it.
//! * [`core_session`] replays the same schedule straight into a
//!   `ServeCore`, the way the daemon's scheduler thread calls it, and
//!   times each call (traced runs only).
//! * [`recover_with_binary`] launches `muri serve --recover` on a copy
//!   of the state directory and times it until the recovered state
//!   answers.
//! * [`recover_calls`] times the library calls a recovery boot makes.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use muri_core::PlanMode;
use muri_serve::journal::{self, OpRecord, DEFAULT_SNAPSHOT_EVERY};
use muri_serve::{HttpClient, RecoverBoot, ServeCore, ServeLimits, ServerConfig, SubmitRequest};
use muri_sim::JobPhase;
use muri_telemetry::{Journal, TelemetrySink};
use muri_verify::{ReplayOp, ReplayOpKind, ReplayedState};
use muri_workload::Trace;

use crate::planner::PlannerTotals;
use crate::workload::{Workload, MACHINES};

/// HTTP worker threads of the daemon (`muri serve --workers 2`).
pub const WORKERS: usize = 2;

/// Open-job bounds of the daemon (`--max-open` and `--tenant-depth`),
/// above the most jobs a session holds open, so that no submit is
/// refused: refusals are failures of the run.
pub const OPEN_JOBS: usize = 4096;

/// The daemon's admission bounds.
pub fn limits() -> ServeLimits {
    ServeLimits {
        max_open_jobs: OPEN_JOBS,
        tenant_depth: OPEN_JOBS,
        ..ServeLimits::default()
    }
}

/// How long a daemon may take to print its address or to exit.
const PROCESS_LIMIT: Duration = Duration::from_secs(60);

/// One submission and when it is due, relative to the session start.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due offset from the session start.
    pub due: Duration,
    /// The request body.
    pub req: SubmitRequest,
}

/// The open-loop schedule of a session.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Submissions in due order.
    pub arrivals: Vec<Arrival>,
    /// Period of the status polls, which run while submissions do.
    pub status_period: Duration,
    /// Scheduler seconds per wall second (`--time-scale`).
    pub time_scale: f64,
}

impl Schedule {
    /// The first `jobs` arrivals of `trace`, their trace times divided
    /// by `time_scale`.
    pub fn from_trace(
        trace: &Trace,
        jobs: usize,
        time_scale: f64,
        status_period: Duration,
    ) -> Self {
        let first = trace.jobs.first().map(|j| j.submit_time);
        let arrivals = trace
            .jobs
            .iter()
            .take(jobs)
            .map(|j| {
                let offset = first.map_or(0.0, |f| j.submit_time.since(f).as_secs_f64());
                Arrival {
                    due: Duration::from_secs_f64(offset / time_scale),
                    req: SubmitRequest {
                        tenant: None,
                        model: j.model.name().to_string(),
                        num_gpus: j.num_gpus,
                        iterations: j.iterations,
                    },
                }
            })
            .collect();
        Schedule {
            arrivals,
            status_period,
            time_scale,
        }
    }
}

/// The daemon configuration of `muri serve --machines 8 --policy P
/// --workers 2 --max-open 4096 --tenant-depth 4096 --time-scale F
/// --state DIR`.
pub fn server_config(w: Workload, time_scale: f64, state: &Path, recover: bool) -> ServerConfig {
    let mut cfg = ServerConfig::new(w.serve_config());
    cfg.workers = WORKERS;
    cfg.limits = limits();
    cfg.time_scale = time_scale;
    cfg.state_dir = Some(state.to_string_lossy().into_owned());
    cfg.recover = recover;
    cfg
}

/// What the load generator saw.
#[derive(Debug, Clone, Default)]
pub struct HttpOutcome {
    /// Submit latency from due to response, per accepted submit.
    pub submit_lat: Vec<Duration>,
    /// Status latency from due to response, per answered poll.
    pub status_lat: Vec<Duration>,
    /// How late each request was sent after it was due.
    pub lag: Vec<Duration>,
    /// Job ids the daemon acknowledged, in order.
    pub accepted: Vec<u32>,
    /// Requests sent (submits and status polls).
    pub sent: u64,
    /// Submits refused with 429, 503 or 409.
    pub refused: u64,
    /// Requests that errored or answered unexpectedly.
    pub errors: u64,
    /// Accepted jobs terminal before shutdown, after the cancel sweep.
    pub terminal: usize,
    /// Problems that make the run incorrect.
    pub problems: Vec<String>,
}

/// Boot the daemon in this process, feed it `sched`, cancel what is
/// still open when the last arrival has been answered, and shut it down.
/// The jobs of a trace run for hours of scheduler time; the cancel sweep
/// bounds the session to its arrival window.
pub fn http_session(w: Workload, sched: &Schedule, state: &Path) -> Result<HttpOutcome, String> {
    let bound = muri_serve::bind(server_config(w, sched.time_scale, state, false))
        .map_err(|e| format!("binding the daemon: {e}"))?;
    let addr = bound.addr().to_string();
    std::thread::scope(|s| {
        let server = s.spawn(move || bound.run());
        let out = drive_session(&addr, sched);
        let stopped = shutdown(&addr);
        let joined = match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        };
        let mut out = out?;
        if let Err(e) = stopped.and(joined) {
            out.problems.push(e);
        }
        Ok(out)
    })
}

fn shutdown(addr: &str) -> Result<(), String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connecting for shutdown: {e}"))?;
    match c.post("/v1/shutdown", "{}") {
        Ok((200, _)) => Ok(()),
        Ok((st, body)) => Err(format!("shutdown answered {st}: {body}")),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}

fn drive_session(addr: &str, sched: &Schedule) -> Result<HttpOutcome, String> {
    let mut submitter = HttpClient::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut poller = HttpClient::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let accepted: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let submits_done = AtomicBool::new(false);
    let start = Instant::now();
    let (mut sub, polled) = std::thread::scope(|s| {
        let poll = s.spawn(|| poll_status(&mut poller, sched, start, &accepted, &submits_done));
        let sub = submit_all(&mut submitter, sched, start, &accepted);
        submits_done.store(true, Ordering::SeqCst);
        let polled = poll.join().unwrap_or_default();
        (sub, polled)
    });
    sub.status_lat = polled.status_lat;
    sub.lag.extend(polled.lag);
    sub.sent += polled.sent;
    sub.errors += polled.errors;
    sub.accepted = accepted.into_inner().unwrap_or_default();
    let unique: BTreeSet<u32> = sub.accepted.iter().copied().collect();
    if unique.len() != sub.accepted.len() {
        sub.problems.push(format!(
            "{} job ids acknowledged but only {} distinct",
            sub.accepted.len(),
            unique.len()
        ));
    }
    let ids = sub.accepted.clone();
    sub.terminal = settle(&mut poller, &ids, &mut sub);
    Ok(sub)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn submit_all(
    c: &mut HttpClient,
    sched: &Schedule,
    start: Instant,
    accepted: &Mutex<Vec<u32>>,
) -> HttpOutcome {
    let mut out = HttpOutcome::default();
    for a in &sched.arrivals {
        let due = start + a.due;
        sleep_until(due);
        out.lag.push(Instant::now().saturating_duration_since(due));
        out.sent += 1;
        let body = serde_json::to_string(&a.req).unwrap_or_default();
        let resp = c.post("/v1/jobs", &body);
        let lat = due.elapsed();
        match resp {
            Ok((200, body)) => match serde_json::from_str::<muri_serve::SubmitResponse>(&body) {
                Ok(r) if r.accepted && r.job.is_some() => {
                    out.submit_lat.push(lat);
                    if let (Some(id), Ok(mut ids)) = (r.job, accepted.lock()) {
                        ids.push(id);
                    }
                }
                _ => out.errors += 1,
            },
            Ok((409 | 429 | 503, _)) => out.refused += 1,
            Ok(_) | Err(_) => out.errors += 1,
        }
    }
    out
}

fn poll_status(
    c: &mut HttpClient,
    sched: &Schedule,
    start: Instant,
    accepted: &Mutex<Vec<u32>>,
    submits_done: &AtomicBool,
) -> HttpOutcome {
    let mut out = HttpOutcome::default();
    let mut k = 0u32;
    while !submits_done.load(Ordering::SeqCst) {
        let due = start + sched.status_period * k;
        k += 1;
        sleep_until(due);
        let id = {
            let Ok(ids) = accepted.lock() else { break };
            if ids.is_empty() {
                continue;
            }
            ids[k as usize % ids.len()]
        };
        out.lag.push(Instant::now().saturating_duration_since(due));
        out.sent += 1;
        match c.get(&format!("/v1/jobs/{id}")) {
            Ok((200, _)) => out.status_lat.push(due.elapsed()),
            Ok(_) | Err(_) => out.errors += 1,
        }
    }
    out
}

fn phase_of(body: &str) -> Option<String> {
    let v: serde_json::Value = serde_json::from_str(body).ok()?;
    match v.get("status").and_then(|s| s.get("phase")) {
        Some(serde_json::Value::Str(p)) => Some(p.clone()),
        _ => None,
    }
}

fn is_terminal(phase: &str) -> bool {
    matches!(phase, "finished" | "cancelled" | "rejected")
}

/// End the session: cancel every accepted job that is still queued or
/// running, then check that every accepted job is terminal. Returns how
/// many are.
fn settle(c: &mut HttpClient, ids: &[u32], out: &mut HttpOutcome) -> usize {
    let mut terminal = 0;
    for &id in ids {
        let path = format!("/v1/jobs/{id}");
        let mut phase = status_phase(c, &path, out);
        if phase.as_deref().is_some_and(|p| !is_terminal(p)) {
            out.sent += 1;
            // 404: the job became terminal before the cancel landed.
            match c.post(&format!("{path}/cancel"), "") {
                Ok((200 | 404, _)) => {}
                other => {
                    out.errors += 1;
                    out.problems.push(format!("cancel of job {id}: {other:?}"));
                }
            }
            phase = status_phase(c, &path, out);
        }
        match phase {
            Some(p) if is_terminal(&p) => terminal += 1,
            other => out.problems.push(format!(
                "job {id} is not terminal after its cancel: {other:?}"
            )),
        }
    }
    terminal
}

fn status_phase(c: &mut HttpClient, path: &str, out: &mut HttpOutcome) -> Option<String> {
    out.sent += 1;
    match c.get(path) {
        Ok((200, body)) => phase_of(&body),
        other => {
            out.errors += 1;
            out.problems.push(format!("status {path}: {other:?}"));
            None
        }
    }
}

/// Per-call timings of one core session.
#[derive(Debug, Clone, Default)]
pub struct CoreOutcome {
    /// `ServeCore::submit` calls.
    pub submit: Vec<Duration>,
    /// `ServeCore::pump` calls.
    pub pump: Vec<Duration>,
    /// `ServeCore::pump` calls right after a submit.
    pub pump_after_submit: Vec<Duration>,
    /// `ServeCore::sync_journal` calls that had records to commit.
    pub sync: Vec<Duration>,
    /// Op records committed so far.
    pub committed: usize,
    /// `ServeCore::status` calls.
    pub status: Vec<Duration>,
    /// Host time of the session up to its cancel sweep.
    pub wall: Duration,
    /// Planner totals from the core's telemetry journal.
    pub planner: PlannerTotals,
    /// Problems that make the run incorrect.
    pub problems: Vec<String>,
}

/// Replay `sched` into a `ServeCore` on this thread, calling it as the
/// daemon's scheduler thread does: each command, then a pump, then a
/// group commit; between commands, a pump and a commit whenever a queued
/// event comes due. The session ends with the same cancel sweep as
/// [`http_session`].
pub fn core_session(w: Workload, sched: &Schedule, state: &Path) -> Result<CoreOutcome, String> {
    let cfg = w.serve_config();
    let mut core = ServeCore::live(&cfg, Vec::new(), PlanMode::Full, sched.time_scale, limits());
    core.attach_durable(state, DEFAULT_SNAPSHOT_EVERY)
        .map_err(|e| format!("state dir: {e}"))?;
    let mut out = CoreOutcome::default();
    let mut ids: Vec<u32> = Vec::new();
    let mut refused: Vec<String> = Vec::new();
    let start = Instant::now();
    let mut k = 0u32;
    for a in &sched.arrivals {
        let due = start + a.due;
        // Status polls due before this arrival.
        loop {
            let poll_due = start + sched.status_period * k;
            if poll_due > due {
                break;
            }
            idle_until(&mut core, poll_due, &mut out)?;
            k += 1;
            if !ids.is_empty() {
                let id = ids[k as usize % ids.len()];
                let t = Instant::now();
                let view = core.status(id);
                out.status.push(t.elapsed());
                if view.is_none() {
                    out.problems
                        .push(format!("no status for accepted job {id}"));
                }
            }
        }
        idle_until(&mut core, due, &mut out)?;
        let t = Instant::now();
        let resp = core.submit(&a.req);
        out.submit.push(t.elapsed());
        let t = Instant::now();
        core.pump();
        let pumped = t.elapsed();
        out.pump.push(pumped);
        out.pump_after_submit.push(pumped);
        timed_sync(&mut core, &mut out)?;
        match resp.job {
            Some(id) if resp.accepted => ids.push(id),
            _ => refused.push(resp.reason.unwrap_or_default()),
        }
    }
    if let Some(first) = refused.first() {
        out.problems.push(format!(
            "{} submits refused, the first: {first}",
            refused.len()
        ));
    }
    out.wall = start.elapsed();
    // The cancel sweep the load generator ends its session with.
    for &id in &ids {
        let open = core
            .status(id)
            .is_some_and(|v| matches!(v.status.phase, JobPhase::Queued | JobPhase::Running));
        if open {
            core.cancel(id);
            core.sync_journal()
                .map_err(|e| format!("journal sync: {e}"))?;
        }
    }
    if !core.is_done() {
        out.problems
            .push("jobs still open after the cancel sweep".to_string());
    }
    core.shutdown();
    let events = Journal::from_jsonl(&core.journal_jsonl())?;
    out.planner = PlannerTotals::from_events(&events);
    Ok(out)
}

/// Sleep until `until`, pumping and committing whenever a queued event
/// comes due first.
fn idle_until(core: &mut ServeCore, until: Instant, out: &mut CoreOutcome) -> Result<(), String> {
    loop {
        let now = Instant::now();
        if now >= until {
            return Ok(());
        }
        let wake = core
            .next_wakeup()
            .map(|d| now + d + Duration::from_millis(1));
        match wake {
            Some(w) if w < until => {
                sleep_until(w);
                let t = Instant::now();
                core.pump();
                out.pump.push(t.elapsed());
                timed_sync(core, out)?;
            }
            _ => sleep_until(until),
        }
    }
}

fn timed_sync(core: &mut ServeCore, out: &mut CoreOutcome) -> Result<(), String> {
    let t = Instant::now();
    core.sync_journal()
        .map_err(|e| format!("journal sync: {e}"))?;
    let took = t.elapsed();
    // A commit with no new records is a no-op; count only real ones.
    let recorded = core.history().len();
    if recorded > out.committed {
        out.committed = recorded;
        out.sync.push(took);
    }
    Ok(())
}

/// Kills and reaps the child if it is still running when dropped.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// What a `muri serve --recover` boot showed.
#[derive(Debug, Clone)]
pub struct RecoverOutcome {
    /// From launching the binary until the recovered state answered.
    pub ready: Duration,
    /// Submits the daemon reports having replayed.
    pub submits: u64,
}

/// Launch `muri serve --recover` on `state` and time it until
/// `/v1/healthz` answers and a status read of `probe` (an acknowledged
/// job) answers from the recovered state; then shut it down.
pub fn recover_with_binary(
    muri: &Path,
    w: Workload,
    time_scale: f64,
    state: &Path,
    probe: u32,
) -> Result<RecoverOutcome, String> {
    let mut cmd = Command::new(muri);
    cmd.args(["serve", "--port", "0", "--machines"])
        .arg(MACHINES.to_string())
        .args(["--policy", w.policy_flag(), "--workers"])
        .arg(WORKERS.to_string())
        .arg("--max-open")
        .arg(OPEN_JOBS.to_string())
        .arg("--tenant-depth")
        .arg(OPEN_JOBS.to_string())
        .arg("--time-scale")
        .arg(time_scale.to_string())
        .arg("--state")
        .arg(state)
        .arg("--recover");
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = Reaped(
        cmd.spawn()
            .map_err(|e| format!("launching {}: {e}", muri.display()))?,
    );
    let (tx, rx) = mpsc::channel::<String>();
    let stdout = child.0.stdout.take();
    let stderr = child.0.stderr.take();
    std::thread::scope(|s| {
        if let Some(out) = stdout {
            let tx = tx.clone();
            s.spawn(move || {
                for line in BufReader::new(out).lines().map_while(Result::ok) {
                    let _ = tx.send(line);
                }
            });
        }
        let errors = s.spawn(move || {
            let mut text = String::new();
            if let Some(err) = stderr {
                for line in BufReader::new(err).lines().map_while(Result::ok) {
                    text.push_str(&line);
                    text.push('\n');
                }
            }
            text
        });
        drop(tx);
        let result = boot_and_stop(&rx, start, probe);
        let result = match result {
            Ok(r) => match wait_exit(&mut child.0) {
                Ok(()) => Ok(r),
                Err(e) => Err(e),
            },
            Err(e) => {
                let _ = child.0.kill();
                Err(e)
            }
        };
        let _ = child.0.wait();
        let stderr_text = errors.join().unwrap_or_default();
        result.map_err(|e| format!("{e}; daemon stderr: {}", stderr_text.trim()))
    })
}

fn boot_and_stop(
    rx: &mpsc::Receiver<String>,
    start: Instant,
    probe: u32,
) -> Result<RecoverOutcome, String> {
    let limit = start + PROCESS_LIMIT;
    let mut addr = None;
    let mut submits = None;
    while addr.is_none() {
        let line = rx
            .recv_timeout(limit.saturating_duration_since(Instant::now()))
            .map_err(|_| "the recovering daemon never printed its address".to_string())?;
        addr = line
            .split_once("listening on http://")
            .map(|(_, a)| a.trim().to_string());
    }
    let addr = addr.unwrap_or_default();
    let mut client = loop {
        if let Ok(mut c) = HttpClient::connect(&addr) {
            if matches!(c.get("/v1/healthz"), Ok((200, _))) {
                break c;
            }
        }
        if Instant::now() > limit {
            return Err("healthz never answered".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    match client.get(&format!("/v1/jobs/{probe}")) {
        Ok((200, _)) => {}
        other => return Err(format!("recovered daemon lost job {probe}: {other:?}")),
    }
    let ready = start.elapsed();
    while submits.is_none() {
        let line = rx
            .recv_timeout(limit.saturating_duration_since(Instant::now()))
            .map_err(|_| "the recovering daemon never reported its replay".to_string())?;
        submits = parse_recovered_submits(&line);
    }
    match client.post("/v1/shutdown", "{}") {
        Ok((200, _)) => {}
        other => return Err(format!("shutdown of the recovered daemon: {other:?}")),
    }
    Ok(RecoverOutcome {
        ready,
        submits: submits.unwrap_or(0),
    })
}

/// The submit count of the daemon's `recovered N ops (S submits, ...`
/// boot line.
fn parse_recovered_submits(line: &str) -> Option<u64> {
    let rest = line.split_once(" ops (")?.1;
    rest.split_once(" submits")?.0.trim().parse().ok()
}

fn wait_exit(child: &mut Child) -> Result<(), String> {
    let limit = Instant::now() + PROCESS_LIMIT;
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("recovered daemon exited with {status}")),
            Ok(None) if Instant::now() < limit => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => return Err("recovered daemon did not exit after shutdown".to_string()),
            Err(e) => return Err(format!("waiting for the recovered daemon: {e}")),
        }
    }
}

/// Write the durable state of a daemon that was fed the first `jobs`
/// arrivals of `trace` and ran them to completion: a virtual-clock
/// `ServeCore` with the daemon's configuration, so the op log's content
/// depends only on the trace. Returns the last job id issued.
pub fn build_op_log(w: Workload, trace: &Trace, jobs: usize, state: &Path) -> Result<u32, String> {
    let cfg = w.serve_config();
    let mut core = ServeCore::deterministic(
        &cfg,
        "op-log",
        Vec::new(),
        PlanMode::Full,
        TelemetrySink::disabled(),
    );
    core.set_limits(limits());
    core.attach_durable(state, DEFAULT_SNAPSHOT_EVERY)
        .map_err(|e| format!("state dir: {e}"))?;
    let sync = |core: &mut ServeCore| {
        core.sync_journal()
            .map_err(|e| format!("journal sync: {e}"))
    };
    let mut last = None;
    for j in trace.jobs.iter().take(jobs) {
        core.advance_to(j.submit_time);
        let resp = core.submit(&SubmitRequest {
            tenant: None,
            model: j.model.name().to_string(),
            num_gpus: j.num_gpus,
            iterations: j.iterations,
        });
        if !resp.accepted {
            return Err(format!("op-log build: submit refused: {:?}", resp.reason));
        }
        last = resp.job;
        sync(&mut core)?;
    }
    core.run_to_completion();
    sync(&mut core)?;
    core.shutdown();
    last.ok_or_else(|| "op-log build: no job".to_string())
}

/// Per-call cost of the library work a recovery boot does.
#[derive(Debug, Clone, Default)]
pub struct RecoverCalls {
    /// Ops replayed.
    pub ops: u64,
    /// `journal::load_state`.
    pub load: Duration,
    /// `ServeCore::recover` with a live clock, as the daemon boots.
    pub replay: Duration,
    /// Building the replay record and `muri_verify::audit_recovery_replay`.
    pub audit: Duration,
    /// Submits replayed.
    pub submits: u64,
    /// The audit found violations.
    pub audit_clean: bool,
}

/// Time one call of each recovery step on `state`.
pub fn recover_calls(w: Workload, time_scale: f64, state: &Path) -> Result<RecoverCalls, String> {
    let cfg = w.serve_config();
    let t = Instant::now();
    let (snapshot, log) = journal::load_state(state)?;
    let load = t.elapsed();
    let boot = RecoverBoot {
        cfg: &cfg,
        name: "live".to_string(),
        tenants: Vec::new(),
        plan_mode: PlanMode::Full,
        limits: limits(),
        live_time_scale: Some(time_scale),
        sink: TelemetrySink::disabled(),
    };
    let t = Instant::now();
    let (core, summary) = ServeCore::recover(boot, &snapshot, &log)?;
    let replay = t.elapsed();
    let t = Instant::now();
    let audit_clean = audit_replay(&core);
    let audit = t.elapsed();
    Ok(RecoverCalls {
        ops: summary.ops,
        load,
        replay,
        audit,
        submits: summary.submits,
        audit_clean,
    })
}

/// The replay audit `muri serve --recover` runs before it binds.
fn audit_replay(core: &ServeCore) -> bool {
    let ops: Vec<ReplayOp> = core
        .history()
        .iter()
        .filter_map(|op| {
            let kind = match op {
                OpRecord::Submit { spec, .. } => ReplayOpKind::Submit { job: spec.id.0 },
                OpRecord::Cancel { job, shed, .. } => ReplayOpKind::Cancel {
                    job: *job,
                    shed: *shed,
                },
                OpRecord::Config { .. } => ReplayOpKind::Config,
                OpRecord::Checkpoint { .. } => ReplayOpKind::Checkpoint,
                OpRecord::Complete { job, .. } => ReplayOpKind::Complete { job: *job },
                OpRecord::Header { .. } => return None,
            };
            Some(ReplayOp {
                seq: op.seq().unwrap_or(0),
                time_us: op.time().map_or(0, muri_workload::SimTime::as_micros),
                kind,
            })
        })
        .collect();
    let mut state = ReplayedState {
        next_id: core.next_id(),
        ..ReplayedState::default()
    };
    for id in 0..core.next_id() {
        if let Some(view) = core.status(id) {
            match view.status.phase {
                JobPhase::Finished | JobPhase::Cancelled | JobPhase::Rejected => {
                    state.terminal.push(id);
                }
                JobPhase::Queued | JobPhase::Running => state.open.push(id),
            }
        }
    }
    muri_verify::audit_recovery_replay(&ops, &state).is_clean()
}

/// Copy the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", from.display()))?;
        let path: PathBuf = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", path.display()))?;
        }
    }
    Ok(())
}
