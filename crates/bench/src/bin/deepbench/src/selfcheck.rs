//! `deepbench --selfcheck`: the benchmark measured against itself.
//!
//! Every workload is run as two interleaved sets (A B A B …) of the same
//! program at the same seed, each run a fresh process exactly as the
//! acceptance driver starts it. Per metric: both medians, both quartile
//! spreads, and the gap between the medians as a share of A's, against the
//! metric's bound. A gap over the bound, a count that differs between two
//! runs, a failed check or a digest that moves is a non-zero exit.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Metrics that are counts over fixed inputs: bit-identical at one seed.
const EXACT: [&str; 2] = ["coverage", "requests_per_doc"];

/// Runs in each of the two sets: the ten pairs a comparison needs.
const PAIRS: usize = 10;

/// One child run: metric values, the digest line, and whether it passed.
struct Run {
    metrics: BTreeMap<String, f64>,
    digest: String,
    correct: bool,
    calib: Vec<f64>,
}

/// Pull `"name": {"value": X` pairs out of the result line. The line is
/// this program's own output, so a scanner for its one shape is enough.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let after = &rest[at + marker.len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.insert(name, v);
        }
        rest = &after[end..];
    }
    out
}

fn child(workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stdout.lines().last().unwrap_or_default();
    let field = |key: &str| {
        stderr
            .lines()
            .find_map(|l| l.split_once(key).map(|(_, rest)| rest))
            .unwrap_or_default()
            .to_string()
    };
    let calib = ["\"calib_mops_before\":", "\"calib_mops_after\":"]
        .iter()
        .filter_map(|k| {
            let rest = field(k);
            rest[..rest.find([',', '}']).unwrap_or(rest.len())]
                .parse()
                .ok()
        })
        .collect();
    Ok(Run {
        metrics: parse_metrics(line),
        digest: field("result_digest ")
            .split_whitespace()
            .next()
            .unwrap_or_default()
            .into(),
        correct: line.contains("\"correct\": true"),
        calib,
    })
}

pub fn run(seed: u64, seconds: u64) -> ExitCode {
    let mut broken = 0usize;
    for w in &WORKLOADS {
        let mut sets: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..PAIRS {
            for set in &mut sets {
                match child(w.name, seed, seconds) {
                    Ok(run) => set.push(run),
                    Err(e) => {
                        eprintln!("selfcheck: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("selfcheck: {} pair {}/{PAIRS} done", w.name, pair + 1);
        }
        let [a, b] = &sets;
        let all = || a.iter().chain(b.iter());
        if !all().all(|r| r.correct) {
            println!("{}: a run reported failed checks", w.name);
            broken += 1;
        }
        if !all().all(|r| r.digest == a[0].digest && !r.digest.is_empty()) {
            println!("{}: result_digest differs between runs", w.name);
            broken += 1;
        }
        let calib: Vec<f64> = all().flat_map(|r| r.calib.iter().copied()).collect();
        println!(
            "{} (seed {seed}, {PAIRS} pairs, digest {}, calibration spread {:.3})",
            w.name,
            a[0].digest,
            spread(&calib)
        );
        println!(
            "  {:<20} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}",
            "metric", "median A", "iqr A", "median B", "iqr B", "gap", "bound"
        );
        for m in &END_TO_END {
            let values = |set: &[Run]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if m.better == "lower" {
                mb - ma
            } else {
                ma - mb
            };
            let gap = if ma == 0.0 { 0.0 } else { worse / ma.abs() };
            let moved = EXACT.contains(&m.name)
                && va
                    .iter()
                    .chain(vb.iter())
                    .any(|v| Some(v.to_bits()) != va.first().map(|a| a.to_bits()));
            let verdict = if va.len() != PAIRS || vb.len() != PAIRS {
                broken += 1;
                "MISSING"
            } else if moved {
                broken += 1;
                "NOT EXACT"
            } else if gap.abs() > m.bound {
                broken += 1;
                "OVER BOUND"
            } else {
                ""
            };
            println!(
                "  {:<20} {:>14.4} {:>8.4} {:>14.4} {:>8.4} {:>+8.4} {:>6.2} {verdict}",
                m.name,
                ma,
                spread(&va),
                mb,
                spread(&vb),
                gap,
                m.bound
            );
        }
    }
    if broken == 0 {
        println!("selfcheck: every A/A gap is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {broken} problem(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "qps_1": {"value": 152034.5, "unit": "1/s"}, "coverage": {"value": 1, "unit": "ratio"}}}"#;
        let m = parse_metrics(line);
        assert_eq!(m.len(), 3);
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["qps_1"], 152034.5);
        assert_eq!(m["coverage"], 1.0);
    }
}
