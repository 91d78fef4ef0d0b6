//! A `muri_engine::EventQueue` that wraps another queue and times the
//! engine from the outside.
//!
//! The engine's drive loop alternates `pop` and `handle`, so the host
//! time from one `pop` returning to the next `pop` call is the time the
//! engine spent handling the popped event. The wrapper charges it to the
//! event's kind. It forwards every call unchanged, so the schedule is the
//! one the inner queue produces.

use std::time::{Duration, Instant};

use muri_engine::{EventQueue, SchedulerEvent};
use muri_workload::SimTime;

/// Event kinds the benchmark reports, in metric-name order.
pub const KINDS: [&str; 8] = [
    "submit",
    "complete",
    "tick",
    "fault",
    "machine",
    "checkpoint",
    "spot",
    "elastic",
];

/// Index into [`KINDS`] of an event.
fn kind_of(ev: &SchedulerEvent) -> usize {
    match ev {
        SchedulerEvent::JobSubmitted(_) => 0,
        SchedulerEvent::JobCompleted { .. } => 1,
        SchedulerEvent::PlanRequested => 2,
        SchedulerEvent::JobFault { .. } => 3,
        SchedulerEvent::MachineFailed(_) | SchedulerEvent::MachineRecovered(_) => 4,
        SchedulerEvent::CheckpointDue { .. } => 5,
        SchedulerEvent::SpotWarning(_)
        | SchedulerEvent::SpotEvicted(_)
        | SchedulerEvent::SpotRestored(_) => 6,
        SchedulerEvent::ElasticResize { .. } => 7,
    }
}

/// Per-kind event counts and busy time.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Events popped, by kind.
    pub count: [u64; KINDS.len()],
    /// Host time handling them, by kind.
    pub busy: [Duration; KINDS.len()],
    /// Most events pending at once.
    pub queue_peak: usize,
}

impl EngineStats {
    /// Events of every kind.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Host time handling events of every kind.
    pub fn busy(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// The timing wrapper. Call [`TimedQueue::finish`] after the drive loop
/// returns to charge the last event.
#[derive(Debug)]
pub struct TimedQueue<Q> {
    inner: Q,
    open: Option<(usize, Instant)>,
    stats: EngineStats,
}

impl<Q: EventQueue> TimedQueue<Q> {
    /// Wrap `inner`.
    pub fn new(inner: Q) -> Self {
        TimedQueue {
            inner,
            open: None,
            stats: EngineStats::default(),
        }
    }

    fn close(&mut self, now: Instant) {
        if let Some((kind, since)) = self.open.take() {
            self.stats.busy[kind] += now - since;
        }
    }

    /// Charge the event being handled, and return the totals.
    pub fn finish(&mut self) -> EngineStats {
        self.close(Instant::now());
        self.stats.clone()
    }
}

impl<Q: EventQueue> EventQueue for TimedQueue<Q> {
    fn schedule(&mut self, at: SimTime, ev: SchedulerEvent) {
        self.inner.schedule(at, ev);
        self.stats.queue_peak = self.stats.queue_peak.max(self.inner.len());
    }

    fn pop(&mut self) -> Option<(SimTime, SchedulerEvent)> {
        let now = Instant::now();
        self.close(now);
        let popped = self.inner.pop();
        if let Some((_, ev)) = &popped {
            let kind = kind_of(ev);
            self.stats.count[kind] += 1;
            self.open = Some((kind, now));
        }
        popped
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.inner.peek_time()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}
