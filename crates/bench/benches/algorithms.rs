//! Micro-benchmarks of the algorithmic substrates: Blossom matching,
//! interleaving-efficiency math, multi-round grouping, the timeline
//! executor, and trace synthesis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use muri_bench::{backlog_buckets, det_weight, mixed_profiles};
use muri_core::{GroupingConfig, Planner};
use muri_interleave::{choose_ordering, run_timeline, OrderingPolicy, TimelineJob};
use muri_matching::{greedy_matching, maximum_weight_matching, DenseGraph};
use muri_workload::{JobId, SimDuration, SynthConfig};
use std::hint::black_box;

fn random_graph(n: usize) -> DenseGraph {
    let mut g = DenseGraph::new(n);
    let mut seed = 0x5EED ^ n as u64;
    for u in 0..n {
        for v in u + 1..n {
            g.set_weight(u, v, det_weight(&mut seed, 1 << 20));
        }
    }
    g
}

fn bench_blossom(c: &mut Criterion) {
    let mut group = c.benchmark_group("blossom");
    for n in [16usize, 64, 128, 256] {
        let g = random_graph(n);
        group.bench_with_input(BenchmarkId::new("max_weight_matching", n), &g, |b, g| {
            b.iter(|| maximum_weight_matching(black_box(g)));
        });
    }
    let g = random_graph(128);
    group.bench_function("greedy_matching/128", |b| {
        b.iter(|| greedy_matching(black_box(&g)));
    });
    group.finish();
}

fn bench_efficiency(c: &mut Criterion) {
    let mut group = c.benchmark_group("interleave");
    let profiles = mixed_profiles(4);
    group.bench_function("choose_ordering/4jobs", |b| {
        b.iter(|| choose_ordering(black_box(&profiles), OrderingPolicy::Best));
    });
    let pair = mixed_profiles(2);
    group.bench_function("choose_ordering/pair", |b| {
        b.iter(|| choose_ordering(black_box(&pair), OrderingPolicy::Best));
    });
    group.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping");
    group.sample_size(10);
    for n in [32usize, 128, 256] {
        let profiles = mixed_profiles(n);
        // One planner across iterations: the steady-state (memo-hit) path.
        let mut planner = Planner::for_grouping(GroupingConfig::default());
        group.bench_with_input(
            BenchmarkId::new("multi_round", n),
            &profiles,
            |b, profiles| b.iter(|| planner.multi_round_grouping(black_box(profiles))),
        );
    }
    group.finish();
}

fn bench_capacity_aware_backlog(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping");
    group.sample_size(10);
    // 48 jobs in each of four GPU buckets (720 GPUs of demand) against 64
    // free GPUs: the multi-bucket phase-1/phase-2 merge-acceptance path
    // runs for several rounds — the scheduler's worst case under backlog.
    let buckets = backlog_buckets(48);
    let mut planner = Planner::for_grouping(GroupingConfig::default());
    group.bench_function("capacity_aware_backlog", |b| {
        b.iter(|| planner.capacity_aware_grouping(black_box(&buckets), 64));
    });
    group.finish();
}

fn bench_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("timeline");
    group.sample_size(10);
    let profiles = mixed_profiles(4);
    let jobs: Vec<TimelineJob> = profiles
        .iter()
        .enumerate()
        .map(|(i, &p)| TimelineJob {
            id: JobId(i as u32),
            profile: p,
            slots: vec![0],
            initial_delay: SimDuration::ZERO,
            iterations: 200,
        })
        .collect();
    group.bench_function("4jobs_200iters_1slot", |b| {
        b.iter(|| run_timeline(black_box(&jobs), 1, SimDuration::from_hours(24)));
    });
    group.finish();
}

fn bench_synth(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth");
    group.sample_size(20);
    let cfg = SynthConfig {
        num_jobs: 1000,
        ..SynthConfig::default()
    };
    group.bench_function("generate_1000_jobs", |b| {
        b.iter(|| black_box(&cfg).generate());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_blossom,
    bench_efficiency,
    bench_grouping,
    bench_capacity_aware_backlog,
    bench_timeline,
    bench_synth
);
criterion_main!(benches);
