//! Runs the paper's experiments in-process: `run_all [<name>…]` runs the
//! named experiments of `experiments::ALL`, or every one when no name is
//! given, sharded across the sweep executor's worker pool (set
//! `HETERONOC_JOBS=1` for the old serial behavior and `HETERONOC_FULL=1`
//! for paper-scale runs). Each experiment's stdout is captured and printed
//! as one contiguous block when it finishes; an unknown name or a panic
//! anywhere makes the whole run exit non-zero.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use heteronoc_bench::sweep::{default_jobs, parallel_map};
use heteronoc_bench::{capture_output, experiments};

fn main() -> ExitCode {
    let mut selected: Vec<(&str, fn())> = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(&entry) = experiments::ALL.iter().find(|(n, _)| *n == name) else {
            let valid: Vec<&str> = experiments::ALL.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "error: unknown experiment '{name}'; valid names: {}",
                valid.join(", ")
            );
            return ExitCode::FAILURE;
        };
        selected.push(entry);
    }
    if selected.is_empty() {
        selected = experiments::ALL.to_vec();
    }

    let jobs = default_jobs();
    println!(
        "running {} experiments on {jobs} worker thread(s)",
        selected.len()
    );

    let results = parallel_map(jobs, selected, |(name, entry)| {
        let (outcome, output) = capture_output(|| catch_unwind(AssertUnwindSafe(entry)));
        // One locked write per experiment keeps blocks contiguous even
        // when several finish close together.
        let mut block = format!("=== {name} ===\n{output}");
        if outcome.is_err() {
            block.push_str(&format!("!!! {name} panicked\n"));
        }
        block.push('\n');
        let mut so = std::io::stdout().lock();
        let _ = so.write_all(block.as_bytes());
        let _ = so.flush();
        (name, outcome.is_ok())
    });

    let failed: Vec<&str> = results
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    if failed.is_empty() {
        println!("all {} experiments completed; see results/", results.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("failed experiments: {failed:?}");
        ExitCode::FAILURE
    }
}
