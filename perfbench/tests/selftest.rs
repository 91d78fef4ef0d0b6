//! Self-tests of the benchmark: the wrapping queue leaves the schedule
//! alone, and every metric the benchmark prints is declared in
//! `BENCHMARK.json` with the same unit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use muri_engine::VirtualClockQueue;
use muri_perfbench::report::{END_TO_END, PER_LAYER};
use muri_perfbench::sim::{digest, drive};
use muri_perfbench::timed_queue::TimedQueue;
use muri_perfbench::workload::{philly_trace1, Workload};
use muri_perfbench::{run, Options, Sizes};

#[test]
fn wrapping_queue_replays_simulate_byte_identically() {
    let trace = philly_trace1(11, 0.1);
    for w in Workload::ALL {
        let cfg = w.sim_config(11);
        let reference = muri_sim::simulate(&trace, &cfg);
        let mut q = TimedQueue::new(VirtualClockQueue::new());
        let wrapped = drive(&trace, &cfg, &mut q, None);
        let stats = q.finish();
        assert_eq!(
            serde_json::to_string(&reference).expect("report json"),
            serde_json::to_string(&wrapped).expect("report json"),
            "{}: the wrapping queue changed the report",
            w.name()
        );
        assert_eq!(stats.events(), reference.events, "{}", w.name());
        assert!(stats.count[0] > 0, "{}: no submissions counted", w.name());
    }
}

#[test]
fn telemetry_leaves_the_report_alone() {
    let trace = philly_trace1(12, 0.1);
    let cfg = Workload::SimOnline.sim_config(12);
    let plain = muri_perfbench::sim::run_untraced(&trace, &cfg);
    let traced = muri_perfbench::sim::run_traced(&trace, &cfg);
    assert_eq!(plain.digest, traced.run.digest);
    assert!(traced.planner.passes > 0);
    assert_eq!(
        traced.engine.events(),
        muri_sim::simulate(&trace, &cfg).events
    );
    let mut q = VirtualClockQueue::new();
    let report = drive(&trace, &cfg, &mut q, None);
    assert_eq!(digest(&report), plain.digest);
}

/// `BENCHMARK.json`'s metric names and units, by section.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(serde_json::Value::Array(rows)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    rows.iter()
        .map(|row| {
            let field = |k: &str| match row.get(k) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                other => panic!("{section} row without a string {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(rows: &[(&str, &str)]) -> BTreeMap<String, String> {
    rows.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(table(END_TO_END), declared("end_to_end"));
    assert_eq!(table(PER_LAYER), declared("per_layer"));
}

fn tiny_run(w: Workload, traced: bool) -> muri_perfbench::Outcome {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}-{traced}",
        std::process::id(),
        w.name()
    ));
    let opts = Options {
        workload: w,
        seed: 3,
        traced,
        // No `muri` binary here: the recovery boots fail their checks,
        // everything else runs for real.
        muri: PathBuf::from("/nonexistent/muri"),
        scratch,
        sizes: Sizes {
            traces: 2,
            repeats: 2,
            trace_scale: 0.05,
            sessions: 2,
            serve_jobs: 12,
            recover_jobs: 8,
            recoveries: 1,
            boots: 2,
            time_scale: 360_000.0,
            status_period: Duration::from_millis(1),
            setups: 2,
        },
    };
    run(&opts).expect("the run completes")
}

#[test]
fn every_printed_metric_is_declared() {
    for (traced, section, rows) in [
        (false, "end_to_end", END_TO_END),
        (true, "per_layer", PER_LAYER),
    ] {
        let out = tiny_run(Workload::SimOnline, traced);
        let printed: BTreeMap<String, String> = out
            .metrics
            .rows()
            .iter()
            .map(|(n, u, _)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(printed, declared(section), "trace {traced}");
        assert_eq!(printed, table(rows));
        let failed: Vec<&String> = out
            .notes
            .iter()
            .filter(|n| n.starts_with("CHECK FAILED") && !n.contains("recover"))
            .collect();
        assert!(failed.is_empty(), "{failed:?}");
    }
}
