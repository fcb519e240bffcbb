//! `deepbench` — end-to-end and per-layer benchmark for the offline, serve
//! and freshness loops (README.md in this directory has the rationale).
//!
//! ```text
//! deepbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! deepbench --selfcheck [--seed N] [--seconds S]
//! deepbench --describe
//! ```
//!
//! A run prints a table on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits non-zero when any check failed.

mod env;
mod fetcher;
mod inputs;
mod metrics;
mod selfcheck;
mod serve;
mod stats;
mod tiers;
mod trace;
mod verify;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Report};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 11;

const USAGE: &str = "usage: deepbench --workload <offline_build|serve_cold|serve_zipf|fresh_mix> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       deepbench --selfcheck \
                     [--seed N] [--seconds S]\n       deepbench --describe";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    describe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
        describe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// Where the trace file goes: beside the build output, inside the checkout.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target
        .join("deepbench")
        .join(format!("{workload}.trace.json"))
}

fn table_row(m: &Metric, value: f64) {
    let bound = if m.bound > 0.0 {
        format!("{:.2}", m.bound)
    } else {
        "-".into()
    };
    eprintln!(
        "  {:<40} {:>16.4} {:<6} {:<7} {}",
        m.name, value, m.unit, m.better, bound
    );
}

/// Print the table on stderr and return the `"metrics"` object.
fn emit(defs: &[Metric], value_of: impl Fn(&str) -> f64) -> String {
    eprintln!(
        "  {:<40} {:>16} {:<6} {:<7} bound",
        "metric", "value", "unit", "better"
    );
    let mut fields = Vec::with_capacity(defs.len());
    for m in defs {
        // JSON has no NaN or infinity; a degenerate ratio reads 0.
        let v = Some(value_of(m.name))
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        table_row(m, v);
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    format!("{{{}}}", fields.join(", "))
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let run = match name {
        "offline_build" => workloads::offline_build::run,
        "serve_cold" => workloads::serve_cold::run,
        "serve_zipf" => workloads::serve_zipf::run,
        "fresh_mix" => workloads::fresh_mix::run,
        other => {
            eprintln!("deepbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let calib_before = env::calibrate_mops();
    let outcome = run(&ctx);
    let calib_after = env::calibrate_mops();
    let stamp = env::stamp_json(name, args.seed, calib_before, calib_after);
    eprintln!("deepbench: env {stamp}");
    eprintln!(
        "deepbench: result_digest {:016x}  checks {} attempted, {} failed",
        outcome.digest.0, outcome.tally.attempted, outcome.tally.failed
    );
    if (calib_after - calib_before).abs() > 0.05 * calib_before {
        eprintln!(
            "deepbench: calibration moved {:.1} -> {:.1} Mops during the run: compare this \
             run with another only as unresolved",
            calib_before, calib_after
        );
    }
    let tally = outcome.tally;
    let metrics = match outcome.report {
        Report::EndToEnd(e) => {
            eprintln!(
                "deepbench: every time below is at reference speed (the calibration loop at \
                 500 Msteps/s), not wall time"
            );
            let rss = env::peak_rss_mb();
            emit(&END_TO_END, |name| match name {
                "setup_s" => e.setup_s,
                "build_s" => e.build_s,
                "coverage" => e.coverage,
                "requests_per_doc" => e.requests_per_doc,
                "qps_1" => e.qps_1,
                "p50_best_us" => e.p50_best_us,
                "p99_best_us" => e.p99_best_us,
                "qps_batch" => e.qps_batch,
                "ingest_docs_per_s" => e.ingest_docs_per_s,
                "peak_rss_mb" => rss,
                other => unreachable!("END_TO_END names {other}, main does not"),
            })
        }
        Report::PerLayer(mut layer, trace) => {
            layer.insert("bench.checks.attempted", tally.attempted as f64);
            layer.insert("bench.checks.failed", tally.failed as f64);
            layer.insert(
                "bench.fail_ratio",
                workloads::ratio(tally.failed as f64, tally.attempted as f64),
            );
            layer.insert(
                "bench.result_digest32",
                (outcome.digest.0 & 0xFFFF_FFFF) as f64,
            );
            layer.insert("env.nproc", env::nproc() as f64);
            layer.insert("env.calib_mops_before", calib_before);
            layer.insert("env.calib_mops_after", calib_after);
            for name in layer.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "workload reported {name}, which PER_LAYER does not list"
                );
            }
            let path = trace_path(name);
            match trace.write_json(&path, &stamp) {
                Ok(()) => eprintln!(
                    "deepbench: {} spans written to {}",
                    trace.spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("deepbench: could not write {}: {e}", path.display()),
            }
            emit(&PER_LAYER, |name| layer.get(name).copied().unwrap_or(0.0))
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("deepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return selfcheck::run(args.seed, args.seconds);
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => {
            eprintln!("deepbench: no --workload given\n{USAGE}");
            eprintln!(
                "workloads: {}",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload serve_cold --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_cold"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let d = parse("--workload fresh_mix").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
