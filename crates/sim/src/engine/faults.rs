//! Fault and hostile-scenario handlers of [`EngineCore`]: per-job
//! faults, periodic checkpoints, machine faults and repairs, spot
//! warnings, evictions and restores, and elastic resizes, together with
//! the arming of their event chains. They share the core's state and its
//! two group routines, `EngineCore::stop_group` (§5 group-aware
//! recovery) and `EngineCore::checkpoint_group`; the event loop's
//! `EventHandler::handle` dispatches to them.

use super::{EngineCore, Stop};
use muri_cluster::FaultKind;
use muri_cluster::FaultReport;
use muri_engine::{EventQueue, SchedulerEvent};
use muri_telemetry::Event;
use muri_workload::{JobId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Exponential gap with the given mean: `-mean · ln(u)`, `u ∈ [ε, 1)`.
fn exp_gap(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Largest power of two ≤ `n` (0 for 0) — elastic resizes stay on
/// power-of-two GPU counts within the cluster.
fn prev_power_of_two(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        1 << (31 - n.leading_zeros())
    }
}

impl EngineCore {
    pub(super) fn arm_machine_faults(&mut self, q: &mut dyn EventQueue) {
        if let Some(mtbf) = self.cfg.faults.machine_mtbf {
            for m in 0..self.cfg.cluster.machines {
                let gap = exp_gap(&mut self.machine_rng, mtbf);
                q.schedule(SimTime::ZERO + gap, SchedulerEvent::MachineFailed(m));
            }
        }
    }

    /// Arm the first eviction cycle of every spot machine.
    pub(super) fn arm_spot(&mut self, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() {
            return;
        }
        for m in 0..self.cfg.cluster.machines {
            if self.spot[m as usize] {
                self.arm_spot_cycle(m, q);
            }
        }
    }

    /// Schedule one eviction cycle of spot machine `m`: exactly one RNG
    /// draw per cycle, so the eviction schedule is identical whether the
    /// warning window is zero or not (what the drained-vs-lost
    /// comparison relies on). With a warning, the warning fires at the
    /// drawn instant and the eviction exactly one window later.
    fn arm_spot_cycle(&mut self, m: u32, q: &mut dyn EventQueue) {
        let Some(mtbe) = self.cfg.faults.spot_mtbe else {
            return;
        };
        let gap = exp_gap(&mut self.spot_rng, mtbe);
        let at = self.now + gap;
        let warning = self.cfg.faults.spot_warning;
        if warning.is_zero() {
            q.schedule(at, SchedulerEvent::SpotEvicted(m));
        } else {
            q.schedule(at, SchedulerEvent::SpotWarning(m));
            q.schedule(at + warning, SchedulerEvent::SpotEvicted(m));
        }
    }

    pub(super) fn on_fault(
        &mut self,
        gid: usize,
        version: u64,
        job: JobId,
        q: &mut dyn EventQueue,
    ) {
        // The job may have completed exactly at the fault boundary.
        if !self.group_version_matches(gid, version) || !self.settle_running(gid, job, q) {
            return;
        }
        // Group-aware recovery (§5): the faulted member is terminated
        // and restarted; the survivors cannot keep the interleave cycle
        // going around the hole, so they are gracefully stopped —
        // progress and attained service intact — and requeued for the
        // next pass to regroup.
        self.stop_group(gid, Stop::JobFault(job));
        self.dirty = true;
        self.inc.mark_all();
        self.fill_pass(q);
    }

    /// Terminate a running job under a fault, route the report through
    /// the worker monitor (§5), and requeue the job.
    ///
    /// Machine-level faults destroy device state: progress rolls back to
    /// the last durable point (checkpoint or graceful stop) and the lost
    /// work is accounted. Per-job injected faults model a process crash
    /// whose state survives on the still-healthy machine, so the job
    /// resumes where it stopped and pays only the flat restart penalty.
    /// Returns the work lost (zero for injected faults).
    pub(super) fn fault_job(
        &mut self,
        job: JobId,
        kind: FaultKind,
        machine: Option<u32>,
    ) -> SimDuration {
        let now = self.now;
        let mut lost = 0u64;
        let mut wasted = SimDuration::ZERO;
        if let Some(j) = self.jobs.get_mut(&job) {
            if kind.is_machine() {
                lost = j.done_iters.saturating_sub(j.saved_iters);
                wasted = j.truth.iteration_time() * lost;
                j.done_iters = j.saved_iters;
            } else {
                j.saved_iters = j.done_iters;
            }
            j.faults += 1;
        }
        if lost > 0 {
            self.sink.emit(|| Event::WorkLost {
                time: now,
                job,
                iterations: lost,
                wasted,
            });
        }
        // Always routed (not sink-gated): the report feeds machine
        // health, which feeds placement — behavior must be identical
        // with telemetry on or off.
        self.monitor.report_fault(FaultReport {
            job,
            time: now,
            kind,
            machine,
        });
        self.queue.push(job);
        wasted
    }

    pub(super) fn on_checkpoint(&mut self, gid: usize, version: u64, q: &mut dyn EventQueue) {
        if !self.group_version_matches(gid, version) {
            return;
        }
        self.advance_and_reap(gid, q);
        // A reap that changed membership bumped the version and started
        // a fresh checkpoint chain — this stale chain ends here.
        if !self.group_version_matches(gid, version) {
            if self.dirty {
                self.fill_pass(q);
            }
            return;
        }
        let Some(interval) = self.cfg.checkpoint.interval else {
            return;
        };
        self.checkpoint_group(gid, self.cfg.checkpoint.cost);
        q.schedule(
            self.now + interval,
            SchedulerEvent::CheckpointDue {
                gid: gid as u32,
                version,
            },
        );
        if self.dirty {
            self.fill_pass(q);
        }
    }

    pub(super) fn on_machine_fail(&mut self, m: u32, q: &mut dyn EventQueue) {
        let Some(mtbf) = self.cfg.faults.machine_mtbf else {
            return;
        };
        if self.done() {
            // Drain stale machine events without re-arming, so the run
            // terminates once the workload does.
            return;
        }
        let transient = self.machine_rng.gen_range(0.0..1.0) < self.cfg.faults.transient_fraction;
        let kind = if transient {
            FaultKind::MachineTransient
        } else {
            FaultKind::MachineFailStop
        };
        // Cascade: every group with a GPU on machine `m` loses all its
        // members — the interleave cycle cannot survive a hole.
        let mut jobs_hit = 0u32;
        for gid in 0..self.groups.len() {
            if self.group_on_machine(gid, m) {
                jobs_hit += self.stop_group(gid, Stop::MachineFault(kind, m)).0;
            }
        }
        let now = self.now;
        self.sink.emit(|| Event::MachineFailed {
            time: now,
            machine: m,
            transient,
            jobs_hit,
        });
        // One health strike per machine failure (not one per victim).
        self.monitor.record_machine_fault(m, now);
        if transient {
            let gap = exp_gap(&mut self.machine_rng, mtbf);
            q.schedule(self.now + gap, SchedulerEvent::MachineFailed(m));
        } else {
            self.cluster.set_down(m, true);
            let repair = exp_gap(&mut self.machine_rng, self.cfg.faults.machine_mttr);
            q.schedule(self.now + repair, SchedulerEvent::MachineRecovered(m));
        }
        self.sync_banned();
        self.dirty = true;
        self.inc.mark_all();
        self.fill_pass(q);
    }

    pub(super) fn on_machine_recover(&mut self, m: u32, q: &mut dyn EventQueue) {
        let Some(mtbf) = self.cfg.faults.machine_mtbf else {
            return;
        };
        self.cluster.set_down(m, false);
        let now = self.now;
        self.sink.emit(|| Event::MachineRecovered {
            time: now,
            machine: m,
        });
        if self.done() {
            return;
        }
        let gap = exp_gap(&mut self.machine_rng, mtbf);
        q.schedule(self.now + gap, SchedulerEvent::MachineFailed(m));
        self.dirty = true;
        self.inc.mark_all();
        self.fill_pass(q);
    }

    // ------------------------------------------------- hostile scenarios

    /// Advance eviction warning on spot machine `m`: drain every hosted
    /// group to a checkpoint so the eviction destroys nothing past the
    /// drain point — but only when the checkpoint cost fits inside the
    /// warning window (a drain that cannot persist in time saves nothing
    /// and must not claim to).
    pub(super) fn on_spot_warning(&mut self, m: u32, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() || self.done() {
            return;
        }
        self.spot_warned[m as usize] = Some(self.now);
        self.spot_drained[m as usize] = 0;
        let cost = self.cfg.checkpoint.cost;
        if cost > self.cfg.faults.spot_warning {
            return;
        }
        let mut drained = 0u64;
        for gid in 0..self.groups.len() {
            if self.group_on_machine(gid, m) {
                // Settle progress, then persist it — the group pauses
                // for the checkpoint cost, like a periodic checkpoint.
                self.advance_and_reap(gid, q);
                drained += self.checkpoint_group(gid, cost);
            }
        }
        self.spot_drained[m as usize] = drained;
        if self.dirty {
            self.fill_pass(q);
        }
    }

    /// Spot machine `m` is evicted: every hosted group cascades (device
    /// state is destroyed, so jobs roll back to their last durable mark
    /// — the drain point, if a warning fired), the machine leaves the
    /// placement mask, and capacity returns after the configured
    /// downtime.
    pub(super) fn on_spot_evict(&mut self, m: u32, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() {
            return;
        }
        if self.done() {
            // Drain stale spot events without re-arming, so the run
            // terminates once the workload does.
            return;
        }
        let drained = std::mem::take(&mut self.spot_drained[m as usize]);
        let mut wasted = SimDuration::ZERO;
        for gid in 0..self.groups.len() {
            if self.group_on_machine(gid, m) {
                let stop = Stop::MachineFault(FaultKind::MachineFailStop, m);
                wasted += self.stop_group(gid, stop).1;
            }
        }
        let now = self.now;
        self.sink.emit(|| Event::SpotEvicted {
            time: now,
            machine: m,
            drained,
            wasted,
        });
        #[cfg(feature = "audit")]
        {
            let warned_at = self.spot_warned[m as usize];
            self.spot_records.push(muri_verify::SpotEvictionRecord {
                machine: m,
                warned_at,
                evicted_at: now,
                warning_us: self.cfg.faults.spot_warning.as_micros(),
                checkpoint_cost_us: self.cfg.checkpoint.cost.as_micros(),
                drained,
                wasted_us: wasted.as_micros(),
            });
        }
        self.spot_warned[m as usize] = None;
        self.cluster.set_down(m, true);
        q.schedule(
            self.now + self.cfg.faults.spot_downtime,
            SchedulerEvent::SpotRestored(m),
        );
        self.dirty = true;
        self.inc.mark_all();
        self.fill_pass(q);
    }

    /// Evicted spot machine `m` returns: capacity rejoins the placement
    /// mask and the next eviction cycle is armed.
    pub(super) fn on_spot_restore(&mut self, m: u32, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() {
            return;
        }
        self.cluster.set_down(m, false);
        if self.done() {
            return;
        }
        self.arm_spot_cycle(m, q);
        self.dirty = true;
        self.inc.mark_all();
        self.fill_pass(q);
    }

    /// Arm the next resize event of elastic job `job` at `epoch`.
    pub(super) fn arm_resize(&mut self, job: JobId, epoch: u64, q: &mut dyn EventQueue) {
        let Some(interval) = self.cfg.faults.elastic_interval else {
            return;
        };
        let gap = exp_gap(&mut self.elastic_rng, interval);
        q.schedule(self.now + gap, SchedulerEvent::ElasticResize { job, epoch });
    }

    /// Elastic job `job` reaches a resize point: double or halve its GPU
    /// demand (seeded coin, power-of-two within the cluster) and
    /// re-bucket it live. A queued job simply changes class; a running
    /// job's group is gracefully stopped — every member keeps attained
    /// service and durable progress — and requeued for the next pass to
    /// regroup under the new demand.
    pub(super) fn on_elastic_resize(&mut self, job: JobId, epoch: u64, q: &mut dyn EventQueue) {
        if !self.cfg.faults.elastic_active() {
            return;
        }
        // One coin per resize event, drawn before any early return so
        // the stream position never depends on scheduler state.
        let grow = self.elastic_rng.gen_range(0.0..1.0) < 0.5;
        let Some(state) = self.jobs.get(&job) else {
            return;
        };
        if state.resize_epoch != epoch
            || state.finish.is_some()
            || state.remaining_iters() == 0
            || self.cancelled.contains(&job)
        {
            // Stale chain, finished, or cancelled: the chain ends here.
            return;
        }
        let from = state.spec.num_gpus;
        let total = self.cluster.spec().total_gpus();
        let cap = prev_power_of_two(total);
        let base = if from.is_power_of_two() {
            from
        } else {
            prev_power_of_two(from.max(1))
        };
        let to = if grow {
            base.saturating_mul(2).min(cap)
        } else {
            (base / 2).max(1)
        };
        if to == from {
            // Pinned at the boundary this time — try again next cycle.
            if let Some(j) = self.jobs.get_mut(&job) {
                j.resize_epoch = epoch + 1;
            }
            self.arm_resize(job, epoch + 1, q);
            return;
        }
        // The audit's "before" snapshot is taken after progress is
        // settled (advance_and_reap credits the in-flight slice) but
        // before the graceful stop — conservation means the stop and
        // requeue themselves must not move attained service.
        #[cfg(feature = "audit")]
        let mut before: Option<(u64, u64)> = None;
        if let Some(gid) = self
            .groups
            .iter()
            .position(|g| g.as_ref().is_some_and(|g| g.members.contains(&job)))
        {
            // The job may complete exactly at the resize boundary, in
            // which case the completion stands and the chain ends.
            if !self.settle_running(gid, job, q) {
                return;
            }
            #[cfg(feature = "audit")]
            {
                let j = &self.jobs[&job];
                before = Some((j.attained.as_micros(), j.saved_iters));
            }
            // Graceful stop of the whole group: the survivors cannot
            // keep the interleave cycle going around the re-bucketed
            // member, so everyone requeues with progress intact.
            self.stop_group(gid, Stop::Graceful);
        }
        #[cfg(feature = "audit")]
        {
            let j = &self.jobs[&job];
            let (attained_before, saved_before) =
                before.unwrap_or((j.attained.as_micros(), j.saved_iters));
            self.elastic_records.push(muri_verify::ElasticResizeRecord {
                job,
                from_gpus: from,
                to_gpus: to,
                attained_before_us: attained_before,
                attained_after_us: j.attained.as_micros(),
                saved_before,
                saved_after: j.saved_iters,
                total_gpus: total,
            });
        }
        self.finish_resize(job, epoch, from, to, q);
    }

    /// Apply the new GPU demand, re-arm the chain, and replan.
    fn finish_resize(
        &mut self,
        job: JobId,
        epoch: u64,
        from: u32,
        to: u32,
        q: &mut dyn EventQueue,
    ) {
        if let Some(j) = self.jobs.get_mut(&job) {
            j.spec.num_gpus = to;
            j.resize_epoch = epoch + 1;
        }
        let now = self.now;
        self.sink.emit(|| Event::ElasticResized {
            time: now,
            job,
            from_gpus: from,
            to_gpus: to,
        });
        self.dirty = true;
        self.inc.mark(from);
        self.inc.mark(to);
        self.arm_resize(job, epoch + 1, q);
        self.fill_pass(q);
    }

    /// Arm the group's checkpoint chain. One chain runs per group
    /// version; a stale chain dies at the handler's version guard.
    pub(super) fn schedule_checkpoint(&mut self, gid: usize, q: &mut dyn EventQueue) {
        let Some(interval) = self.cfg.checkpoint.interval else {
            return;
        };
        let Some(version) = self.groups[gid].as_ref().map(|g| g.version) else {
            return;
        };
        q.schedule(
            self.now + interval,
            SchedulerEvent::CheckpointDue {
                gid: gid as u32,
                version,
            },
        );
    }

    pub(super) fn maybe_schedule_fault(
        &mut self,
        gid: usize,
        ids: &[JobId],
        q: &mut dyn EventQueue,
    ) {
        let Some(mtbf) = self.cfg.faults.mtbf else {
            return;
        };
        let Some(version) = self.groups[gid].as_ref().map(|g| g.version) else {
            return;
        };
        for &job in ids {
            let dt = exp_gap(&mut self.fault_rng, mtbf);
            let ev = SchedulerEvent::JobFault {
                gid: gid as u32,
                version,
                job,
            };
            q.schedule(self.now + dt, ev);
        }
    }
}
