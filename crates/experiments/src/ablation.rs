//! Design-choice analyses (§6.4): Fig. 11 (ordering & Blossom ablation),
//! Fig. 12 (group-size cap), Fig. 13 (workload bottleneck diversity), and
//! Fig. 14 (profiling noise).

use crate::report::ExperimentReport;
use crate::setup::{config_for, run_with, simulation_trace, simulation_trace_t0, Scale};
use crate::table::{f2, Table};
use muri_core::{GroupingMode, PolicyKind};
use muri_interleave::OrderingPolicy;
use muri_sim::{SimConfig, SimReport};
use muri_workload::stats::ratio;
use muri_workload::{ProfilerConfig, SynthConfig, Trace};

fn muri_l_config() -> SimConfig {
    config_for(PolicyKind::MuriL)
}

/// A tabulated metric: its row label and how to read it off a report.
type Metric = (&'static str, fn(&SimReport) -> f64);

/// The two normalized metrics Figs. 11 and 12 tabulate.
const METRICS: [Metric; 2] = [
    ("Normalized average JCT", SimReport::avg_jct_secs),
    ("Normalized makespan", SimReport::makespan_secs),
];

/// One report per (trace, variant): each simulation runs once and feeds
/// both metric tables.
fn run_variants<T>(
    traces: impl Iterator<Item = Trace>,
    variants: &[(T, SimConfig)],
) -> Vec<Vec<SimReport>> {
    traces
        .map(|trace| {
            variants
                .iter()
                .map(|(_, cfg)| run_with(&trace, cfg))
                .collect()
        })
        .collect()
}

/// Fig. 11: Muri-L vs "worst ordering" vs "without Blossom"
/// (priority-order packing) on traces 1–4.
pub fn fig11(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig11",
        "Impact of the scheduling algorithm design (ordering + Blossom)",
    );
    let variants: Vec<(&str, SimConfig)> = vec![
        ("Muri-L", muri_l_config()),
        ("Muri-L w/ worst ordering", {
            let mut c = muri_l_config();
            c.scheduler.grouping.ordering = OrderingPolicy::Worst;
            c
        }),
        ("Muri-L w/o Blossom", {
            let mut c = muri_l_config();
            c.scheduler.grouping.mode = GroupingMode::PriorityPacking;
            c
        }),
    ];
    let reports = run_variants((1..=4).map(|i| simulation_trace(i, scale)), &variants);
    for (metric, f) in METRICS {
        let mut t = Table::new(
            format!("fig11 — {metric} (normalized to Muri-L)"),
            &["Trace", "Muri-L", "w/ worst ordering", "w/o Blossom"],
        );
        for (i, runs) in (1..=4).zip(&reports) {
            let runs: Vec<f64> = runs.iter().map(f).collect();
            t.push_row(vec![
                i.to_string(),
                f2(1.0),
                f2(ratio(runs[1], runs[0])),
                f2(ratio(runs[2], runs[0])),
            ]);
        }
        report.push_table(t);
    }
    report.note(
        "Paper: worst ordering degrades both metrics; dropping Blossom \
         lengthens average JCT by up to 14% and makespan by up to 6%.",
    );
    report
}

/// Fig. 12: maximum jobs per group (2/3/4) vs AntMan, traces 1'–4'.
pub fn fig12(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig12",
        "Impact of the number of jobs in one group (vs AntMan, t0 traces)",
    );
    let mut variants: Vec<(String, SimConfig)> =
        vec![("AntMan".into(), config_for(PolicyKind::AntMan))];
    for cap in 2..=4usize {
        let mut c = muri_l_config();
        c.scheduler.grouping.max_group_size = cap;
        variants.push((format!("Muri-L-{cap}"), c));
    }
    let reports = run_variants((1..=4).map(|i| simulation_trace_t0(i, scale)), &variants);
    for (metric, f) in METRICS {
        let mut t = Table::new(
            format!("fig12 — {metric} (normalized to Muri-L-4)"),
            &["Trace", "AntMan", "Muri-L-2", "Muri-L-3", "Muri-L-4"],
        );
        for (i, runs) in (1..=4).zip(&reports) {
            let runs: Vec<f64> = runs.iter().map(f).collect();
            let base = runs[3];
            t.push_row(vec![
                i.to_string(),
                f2(ratio(runs[0], base)),
                f2(ratio(runs[1], base)),
                f2(ratio(runs[2], base)),
                f2(ratio(runs[3], base)),
            ]);
        }
        report.push_table(t);
    }
    report.note(
        "Paper: Muri beats AntMan at every cap; larger groups help, \
         though 3-job groups can be close to 2-job groups because \
         grouping overhead grows with group size.",
    );
    report
}

/// A trace-1-like workload restricted to the first `classes` bottleneck
/// classes (Fig. 13's x-axis).
fn classed_trace(classes: usize, scale: Scale) -> Trace {
    // Same seed for every class count: arrivals, durations, and GPU
    // counts are identical across the sweep; only the model mix varies.
    let cfg = SynthConfig {
        name: format!("classed-{classes}"),
        num_jobs: Scale(scale.0).count(992),
        seed: 1300,
        target_load: 1.3,
        duration_sigma: 1.2,
        duration_median_secs: 1200.0,
        ..SynthConfig::default()
    }
    .with_bottleneck_classes(classes);
    cfg.generate()
}

/// Fig. 13: impact of workload distribution — number of job types
/// bottlenecked on different resources, 1 through 4.
pub fn fig13(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig13",
        "Impact of workload distribution (number of bottleneck classes)",
    );
    let mut known = Table::new(
        "fig13a — speedup of Muri-S over SRTF (durations known)",
        &["# of job types", "Speedup of average JCT"],
    );
    let mut unknown = Table::new(
        "fig13b — speedup of Muri-L over Tiresias (durations unknown)",
        &["# of job types", "Speedup of average JCT"],
    );
    for classes in 1..=4 {
        let trace = classed_trace(classes, scale);
        let srtf = run_with(&trace, &config_for(PolicyKind::Srtf));
        let muri_s = run_with(&trace, &config_for(PolicyKind::MuriS));
        known.push_row(vec![
            classes.to_string(),
            f2(ratio(srtf.avg_jct_secs(), muri_s.avg_jct_secs())),
        ]);
        let tiresias = run_with(&trace, &config_for(PolicyKind::Tiresias));
        let muri_l = run_with(&trace, &muri_l_config());
        unknown.push_row(vec![
            classes.to_string(),
            f2(ratio(tiresias.avg_jct_secs(), muri_l.avg_jct_secs())),
        ]);
    }
    report.push_table(known);
    report.push_table(unknown);
    report.note(
        "Paper: with one class Muri is only slightly better (limited \
         sharing opportunity); the speedup grows with diversity, reaching \
         2.26x over SRTF and 3.92x over Tiresias at four classes.",
    );
    report
}

/// Fig. 14: profiling-noise sweep on a lightly loaded trace.
pub fn fig14(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new("fig14", "Impact of inaccurate profiling");
    let trace = simulation_trace(1, scale);
    let mut t = Table::new(
        "fig14 — Muri-L normalized to noise 0",
        &[
            "Profiling noise",
            "Normalized average JCT",
            "Normalized makespan",
        ],
    );
    let mut base: Option<(f64, f64)> = None;
    for step in 0..=5 {
        let noise = f64::from(step) * 0.2;
        let mut cfg = muri_l_config();
        cfg.profiler = ProfilerConfig {
            noise,
            reuse_cache: false,
            ..ProfilerConfig::default()
        };
        let r = run_with(&trace, &cfg);
        let (jct, mk) = (r.avg_jct_secs(), r.makespan_secs());
        let (bj, bm) = *base.get_or_insert((jct, mk));
        t.push_row(vec![
            format!("{noise:.1}"),
            f2(ratio(jct, bj)),
            f2(ratio(mk, bm)),
        ]);
    }
    report.push_table(t);
    report.note(
        "Paper: average JCT degrades to ~1.3x at noise 1.0 but stays \
         within 1% below noise 0.2; makespan is flat on the lightly \
         loaded trace.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale(0.008);

    #[test]
    fn fig11_worst_ordering_never_helps() {
        let r = fig11(TINY);
        for row in &r.tables[0].rows {
            let worst: f64 = row[2].parse().unwrap();
            assert!(
                worst >= 0.9,
                "worst ordering should not clearly win: {row:?}"
            );
        }
    }

    #[test]
    fn fig12_has_four_variants() {
        let r = fig12(TINY);
        assert_eq!(r.tables[0].headers.len(), 5);
        assert_eq!(r.tables[0].rows.len(), 4);
    }

    #[test]
    fn fig13_speedups_are_positive() {
        let r = fig13(TINY);
        for t in &r.tables {
            for row in &t.rows {
                let s: f64 = row[1].parse().unwrap();
                assert!(s > 0.3, "{row:?}");
            }
        }
    }

    #[test]
    fn fig14_baseline_row_is_unity() {
        let r = fig14(Scale(0.02));
        let first = &r.tables[0].rows[0];
        assert_eq!(first[1], "1.00");
        assert_eq!(first[2], "1.00");
        assert_eq!(r.tables[0].rows.len(), 6);
    }
}
