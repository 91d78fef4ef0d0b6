//! `muri-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --muri PATH`
//!
//! Runs one workload once and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`. Progress and
//! the trace accounting go to standard error. `perfbench/run.sh` builds
//! the benchmark and the `muri` binary and passes `--muri`.

use std::path::PathBuf;
use std::process::ExitCode;

use muri_perfbench::report::result_line;
use muri_perfbench::workload::Workload;
use muri_perfbench::{run, Options, Sizes};

fn usage(msg: &str) -> ExitCode {
    eprintln!("muri-perfbench: {msg}");
    eprintln!(
        "usage: muri-perfbench --workload sim-online|sim-hostile \
         --seed N --seconds S --trace 0|1 --muri PATH"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut muri = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
            }
            "--muri" => muri = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown option {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced), Some(muri)) =
        (workload, seed, seconds, traced, muri)
    else {
        return usage("missing or bad option");
    };
    if !muri.is_file() {
        return usage(&format!("no muri binary at {}", muri.display()));
    }
    let opts = Options {
        workload,
        seed,
        traced,
        muri,
        scratch: PathBuf::from(".perfbench-state").join(std::process::id().to_string()),
        sizes: Sizes::for_run(workload, seconds),
    };
    match run(&opts) {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("{note}");
            }
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("muri-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
