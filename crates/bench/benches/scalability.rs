//! The §5 scalability claim: "the centralized scheduler can generate a
//! grouping plan for 1,000 jobs in a few seconds, which is negligible
//! compared to the scheduling interval".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use muri_bench::mixed_profiles;
use muri_core::{GroupingConfig, PendingJob, Planner, PolicyKind, SchedulerConfig};
use muri_telemetry::TelemetrySink;
use muri_workload::{JobId, SimDuration, SimTime};
use std::hint::black_box;

/// Steady-state grouping: one planner serves every iteration, so after
/// the first its round memo answers the unchanged queue (the repeated
/// pass between job events).
fn bench_grouping_1000(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    for n in [500usize, 1000] {
        let profiles = mixed_profiles(n);
        let mut planner = Planner::for_grouping(GroupingConfig::default());
        group.bench_with_input(
            BenchmarkId::new("grouping_plan", n),
            &profiles,
            |b, profiles| b.iter(|| planner.multi_round_grouping(black_box(profiles))),
        );
    }
    group.finish();
}

/// Cold-start grouping at n = 1000, dense Blossom vs the default top-m
/// pruned solver. Each iteration builds a fresh planner inside the timed
/// closure, so it pays the full graph-build + matching cost the first
/// scheduling pass after a queue change pays (building the planner is
/// nanoseconds against a multi-millisecond solve). The acceptance
/// criterion compares these two medians: pruned must be ≥ 5× faster.
fn bench_cold_start_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    let profiles = mixed_profiles(1000);
    let dense = GroupingConfig {
        prune_top_m: 0,
        ..GroupingConfig::default()
    };
    let pruned = GroupingConfig::default();
    for (name, cfg) in [
        ("grouping_plan_cold_dense", &dense),
        ("grouping_plan_cold_pruned", &pruned),
    ] {
        group.bench_with_input(BenchmarkId::new(name, 1000), &profiles, |b, profiles| {
            b.iter(|| Planner::for_grouping(*cfg).multi_round_grouping(black_box(profiles)));
        });
    }
    group.finish();
}

/// Sharded cold-start planning at cluster scale (DESIGN.md §8): full
/// multi-round grouping on a fresh planner under the default config.
/// Sharding auto-engages at n >= 1024, so the 1k point doubles as the
/// boundary case and 10k/100k exercise the O(n·m) candidate graph. The
/// size axis is a comma-separated list like `1k,10k,100k` read from
/// `MURI_BENCH_SIZES` (`scripts/bench.sh --sizes`); the default
/// `1k,10k` keeps the harness affordable while still covering the
/// tentpole acceptance point (10k under a second).
fn bench_cold_start_sharded(c: &mut Criterion) {
    let sizes_spec = std::env::var("MURI_BENCH_SIZES").unwrap_or_else(|_| "1k,10k".to_string());
    let mut group = c.benchmark_group("scalability");
    for spec in sizes_spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let n = parse_size(spec);
        let profiles = mixed_profiles(n);
        let cfg = GroupingConfig::default();
        // Large points cost seconds per iteration; scale the sample
        // count down so the 100k point stays in minutes.
        group.sample_size(if n >= 50_000 {
            1
        } else if n >= 5_000 {
            3
        } else {
            10
        });
        group.bench_with_input(
            BenchmarkId::new("grouping_plan_cold", spec),
            &profiles,
            |b, profiles| {
                b.iter(|| Planner::for_grouping(cfg).multi_round_grouping(black_box(profiles)));
            },
        );
    }
    group.finish();
}

/// `"10k"` → 10_000; bare integers pass through.
fn parse_size(spec: &str) -> usize {
    let (digits, mult) = match spec.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1000),
        None => (spec, 1),
    };
    digits
        .parse::<usize>()
        .unwrap_or_else(|_| panic!("bad size {spec:?} in MURI_BENCH_SIZES"))
        * mult
}

fn bench_full_scheduling_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    // A full scheduling pass over a 1,000-job queue on a 64-GPU cluster
    // (priority sort + admission + bucketing + capacity-aware grouping +
    // placement ordering), repeated on one planner as the engine repeats
    // it between job events.
    let profiles = mixed_profiles(1000);
    let pending: Vec<PendingJob> = profiles
        .iter()
        .enumerate()
        .map(|(i, &p)| PendingJob {
            id: JobId(i as u32),
            num_gpus: 1 << (i % 4),
            profile: p,
            submit_time: SimTime::from_secs(i as u64),
            attained: SimDuration::ZERO,
            remaining: SimDuration::from_secs(600 + i as u64),
            deadline: None,
        })
        .collect();
    let mut planner = Planner::new(SchedulerConfig::preset(PolicyKind::MuriS));
    let sink = TelemetrySink::disabled();
    group.bench_function("plan_schedule_1000_jobs_64gpus", |b| {
        b.iter(|| planner.plan_pass(black_box(&pending), 64, SimTime::ZERO, &sink));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_grouping_1000,
    bench_cold_start_pruning,
    bench_cold_start_sharded,
    bench_full_scheduling_pass
);
criterion_main!(benches);
