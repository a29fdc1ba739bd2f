//! Benchmark harness for the HeteroNoC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cmp_apps|noc_ur_sat|noc_low_ckpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Single-threaded. It times calls into the workspace crates' public API
//! from outside, checks every simulation's outputs, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`). See `README.md` beside this crate.

mod measure;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{render_result, Tracer, END_TO_END, PER_LAYER};
use workloads::{RunOpts, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: heteronoc-perfbench --workload <cmp_apps|noc_ur_sat|noc_low_ckpt> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        out_dir,
    };
    let mut tracer = Tracer::new(args.trace);
    let out = workloads::run(args.workload, &opts, &mut tracer);

    for (job, fp) in &out.fingerprints {
        println!("fingerprint {job} seed={} {fp:#018x}", args.seed);
    }
    if args.trace {
        let path = opts.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let line = render_result(out.tally, catalogue, !args.trace, &out.metrics);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload noc_ur_sat --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::NocUrSat,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        let d = parse("--workload cmp_apps").unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload",
            "--workload bogus",
            "--workload cmp_apps --trace 2",
            "--workload cmp_apps --seconds 0",
            "--workload cmp_apps --seconds nan",
            "--workload cmp_apps --seed -1",
            "--workload cmp_apps --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
