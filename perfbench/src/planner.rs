//! Planner and matching totals, folded from the `planning_pass` events
//! the scheduler already emits into a `TelemetrySink`.

use muri_telemetry::Event;

/// Sums over every planning pass of one run.
#[derive(Debug, Clone, Default)]
pub struct PlannerTotals {
    /// Planning passes.
    pub passes: u64,
    /// Candidate jobs summed over passes.
    pub candidates_sum: u64,
    /// Most candidates in one pass.
    pub candidates_max: u64,
    /// Priority sort, µs.
    pub sort_us: u64,
    /// Admission scan plus bucketing, µs.
    pub admission_us: u64,
    /// Grouping (graph build and matching included), µs.
    pub grouping_us: u64,
    /// Round-graph edge-weight construction, µs.
    pub graph_build_us: u64,
    /// Matching rounds, µs.
    pub matching_us: u64,
    /// Capacity selection and placement order, µs.
    pub selection_us: u64,
    /// Matching rounds run.
    pub rounds: u64,
    /// Edges the sparsifier dropped.
    pub pruned_edges: u64,
    /// Dense re-runs after a failed prune certificate.
    pub prune_fallbacks: u64,
    /// Shard subproblems planned.
    pub shards: u64,
    /// γ-cache hits and misses.
    pub gamma_hits: u64,
    /// γ-cache misses.
    pub gamma_misses: u64,
    /// Round-cache hits.
    pub round_hits: u64,
    /// Round-cache misses.
    pub round_misses: u64,
}

impl PlannerTotals {
    /// Fold every planning pass among `events`.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut t = PlannerTotals::default();
        for ev in events {
            t.add(ev);
        }
        t
    }

    fn add(&mut self, ev: &Event) {
        let Event::PlanningPass {
            candidates,
            phases: p,
            gamma_cache,
            round_cache,
            ..
        } = ev
        else {
            return;
        };
        self.passes += 1;
        self.candidates_sum += u64::from(*candidates);
        self.candidates_max = self.candidates_max.max(u64::from(*candidates));
        self.sort_us += p.sort_us;
        self.admission_us += p.admission_us + p.bucketing_us;
        self.grouping_us += p.grouping_us;
        self.graph_build_us += p.graph_build_us;
        self.matching_us += p.matching_us;
        self.selection_us += p.selection_us;
        self.rounds += u64::from(p.matching_rounds);
        self.pruned_edges += p.pruned_edges;
        self.prune_fallbacks += p.prune_fallbacks;
        self.shards += p.shards;
        self.gamma_hits += gamma_cache.hits;
        self.gamma_misses += gamma_cache.misses;
        self.round_hits += round_cache.hits;
        self.round_misses += round_cache.misses;
    }

    /// Whole planning passes, µs.
    pub fn plan_us(&self) -> u64 {
        self.sort_us + self.admission_us + self.grouping_us + self.selection_us
    }

    /// Mean candidates per pass.
    pub fn candidates_mean(&self) -> f64 {
        ratio(self.candidates_sum, self.passes)
    }

    /// Share of matching rounds that re-ran dense.
    pub fn prune_fallback_ratio(&self) -> f64 {
        ratio(self.prune_fallbacks, self.rounds)
    }

    /// Share of round-cache lookups answered from the cache.
    pub fn round_hit_ratio(&self) -> f64 {
        ratio(self.round_hits, self.round_hits + self.round_misses)
    }

    /// Share of γ-cache lookups answered from the cache.
    pub fn gamma_hit_ratio(&self) -> f64 {
        ratio(self.gamma_hits, self.gamma_hits + self.gamma_misses)
    }
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
