//! The metric names the benchmark prints, their units, and the result
//! line.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("avg_jct_s", "s"),
    ("p99_jct_s", "s"),
    ("makespan_s", "s"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matching.solve_s", "s"),
    ("matching.rounds", "count"),
    ("matching.pruned_edges", "count"),
    ("matching.prune_fallbacks", "count"),
    ("matching.prune_fallback_ratio", "ratio"),
    ("core.passes", "count"),
    ("core.plan_s", "s"),
    ("core.sort_s", "s"),
    ("core.grouping_s", "s"),
    ("core.graph_build_s", "s"),
    ("core.candidates_mean", "count"),
    ("core.candidates_max", "count"),
    ("core.round_cache.hit_ratio", "ratio"),
    ("core.gamma_cache.hit_ratio", "ratio"),
    ("core.shards", "count"),
    ("engine.events", "count"),
    ("engine.busy_s", "s"),
    ("engine.queue_peak", "count"),
    ("engine.self_s", "s"),
    ("engine.submit.n", "count"),
    ("engine.submit_s", "s"),
    ("engine.complete.n", "count"),
    ("engine.complete_s", "s"),
    ("engine.tick.n", "count"),
    ("engine.tick_s", "s"),
    ("engine.fault.n", "count"),
    ("engine.fault_s", "s"),
    ("engine.machine.n", "count"),
    ("engine.machine_s", "s"),
    ("engine.checkpoint.n", "count"),
    ("engine.checkpoint_s", "s"),
    ("engine.spot.n", "count"),
    ("engine.spot_s", "s"),
    ("engine.elastic.n", "count"),
    ("engine.elastic_s", "s"),
    ("serve.core.submit_p50_us", "us"),
    ("serve.core.submit_p99_us", "us"),
    ("serve.core.pump_s", "s"),
    ("serve.core.pump_p99_ms", "ms"),
    ("serve.core.status_p99_us", "us"),
    ("serve.core.plan_s", "s"),
    ("serve.core.matching_s", "s"),
    ("serve.journal.syncs", "count"),
    ("serve.journal.sync_p50_us", "us"),
    ("serve.journal.sync_p99_us", "us"),
    ("serve.wire.submit_overhead_p50_us", "us"),
    ("serve.refused", "count"),
    ("recover.ops", "count"),
    ("recover.load_s", "s"),
    ("recover.replay_s", "s"),
    ("recover.audit_s", "s"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.submit_p50_ms", "ms"),
    ("loadgen.submit_p90_ms", "ms"),
    ("loadgen.submit_p99_ms", "ms"),
    ("loadgen.status_p50_ms", "ms"),
    ("loadgen.status_p90_ms", "ms"),
    ("loadgen.status_p99_ms", "ms"),
    ("telemetry.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("share.sim.matching", "ratio"),
    ("share.sim.graph_build", "ratio"),
    ("share.sim.planner_self", "ratio"),
    ("share.sim.engine_self", "ratio"),
    ("share.sim.unaccounted", "ratio"),
    ("share.serve.submit", "ratio"),
    ("share.serve.pump", "ratio"),
    ("share.serve.journal", "ratio"),
    ("share.serve.status", "ratio"),
    ("share.serve.idle", "ratio"),
    ("share.recover.load", "ratio"),
    ("share.recover.replay", "ratio"),
    ("share.recover.audit", "ratio"),
];

/// Metric values of one run, in the order they were set.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Record `value` for `name`, which must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    ///
    /// # Panics
    /// On a name in neither table: that is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let Some(&(name, unit)) = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name)
        else {
            panic!("metric {name:?} is not declared in the metric tables");
        };
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, unit, value));
    }

    /// Names recorded, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|&(n, _, _)| n).collect()
    }

    /// `(name, unit, value)` rows, in order.
    pub fn rows(&self) -> &[(&'static str, &'static str, f64)] {
        &self.values
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .rows()
        .iter()
        .map(|(name, unit, value)| {
            // Rust prints the shortest text that reads back as the same
            // f64, so every measured digit is kept.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
