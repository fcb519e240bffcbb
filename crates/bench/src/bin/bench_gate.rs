//! Bench-regression gate: compare a fresh `CRITERION_JSON` dump against the
//! committed `BENCH_*.json` baseline and fail when a gated bench's median
//! regressed beyond the tolerance.
//!
//! ```text
//! bench_gate --baseline BENCH_2026-07-28.json --fresh BENCH_fresh.json \
//!     [--tolerance 0.25] [--ids e01_serve_query,e11_plain_bm25] \
//!     [--report bench-gate-report.txt]
//! bench_gate --baseline-dir baselines/ --fresh BENCH_fresh.json ...
//! ```
//!
//! With `--baseline-dir`, the gate itself selects the newest committed
//! baseline among the directory's `BENCH_*.json` files, using an explicit,
//! locale-independent tie-break (see [`select_newest_baseline`]) instead of
//! whatever order a shell `sort` or `read_dir` happens to produce.
//!
//! Input is the vendored criterion stub's line-oriented JSON (one object per
//! bench: `bench_id`, `min_ns`, `median_ns`, `mean_ns`, `samples`), parsed
//! here with a purpose-built scanner so the gate stays dependency-free.
//!
//! Exit status: `0` when every gated id present in both files is within
//! tolerance; `1` when any gated id regressed or is missing from the fresh
//! run (a silently dropped bench must not pass the gate). Ids missing from
//! the *baseline* are reported as new and skipped — committing the baseline
//! is a deliberate act, the gate never requires it.
//!
//! Below the gated table the report lists every *ungated* fresh bench with
//! the same baseline/fresh/delta columns — improvements (negative deltas)
//! included — so EXPERIMENTS.md delta rows can be filled straight from the
//! CI report. Ungated rows are informational and never fail the gate.

use std::fmt::Write as _;
use std::process::ExitCode;

/// Serving-path benches gated by default: the ids the interned-dictionary /
/// zero-allocation kernel work is accountable for.
const DEFAULT_GATED_IDS: &[&str] = &[
    "e01_serve_query",
    "e01_serve_batch_w1",
    "e01_serve_batch_w4",
    "e11_plain_bm25",
    "e11_annotation_aware",
    "e14_serve_batch_w1",
    "e14_serve_batch_w2",
    "e14_serve_batch_w4",
    "e15_cluster_batch_p1",
    "e15_cluster_batch_p4",
    "e15_cluster_batch_p4_cache",
    "e15_cluster_single_p4",
    "e16_pruning_seq_exhaustive",
    "e16_pruning_seq_blockmax",
    "e16_pruning_cluster_exhaustive",
    "e16_pruning_cluster_blockmax",
    "e17_freshness_query_pending",
    "e17_freshness_query_merged",
    "e17_freshness_query_during_merge",
    "e18_robustness_clean",
    "e18_robustness_fault10",
    "e18_robustness_fault30",
    "e18_robustness_hostile",
];

/// One parsed bench line.
#[derive(Clone, Debug, PartialEq)]
struct BenchLine {
    bench_id: String,
    median_ns: f64,
}

/// Extract the string value of `"key":"..."` from a JSON line.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extract the numeric value of `"key":<number>` from a JSON line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_bench_lines(content: &str) -> Vec<BenchLine> {
    content
        .lines()
        .filter_map(|line| {
            Some(BenchLine {
                bench_id: json_str_field(line, "bench_id")?,
                median_ns: json_num_field(line, "median_ns")?,
            })
        })
        .collect()
}

/// Last-entry-wins lookup (a re-run bench appends a fresh line; the newest
/// measurement is the one that counts).
fn median_of(lines: &[BenchLine], id: &str) -> Option<f64> {
    lines
        .iter()
        .rev()
        .find(|l| l.bench_id == id)
        .map(|l| l.median_ns)
}

/// Pick the newest baseline among `BENCH_*.json` file names.
///
/// "Newest" is the greatest matching name under [`natural_cmp`] — byte
/// order except that digit runs compare as numbers. That rule is explicit
/// and total: the embedded ISO date (`BENCH_YYYY-MM-DD…`) makes it date
/// order; when two baselines share a date the suffixed re-record wins
/// (`BENCH_2026-07-28_pr4.json` over `BENCH_2026-07-28.json`, because `_`
/// sorts after `.`) and a later numeric suffix beats an earlier one even
/// across digit-count boundaries (`_pr10` over `_pr9`, where plain byte
/// order would pick `_pr9`). Always, on every platform — unlike a
/// locale-driven shell `sort` where `LC_COLLATE` may weigh punctuation
/// differently, or a raw directory order.
///
/// Only dated names qualify: the character after `BENCH_` must be a digit,
/// so an undated fresh dump (`BENCH_fresh.json`, whose lowercase `f` would
/// out-sort every date) sharing the directory can never be mistaken for
/// the committed baseline.
fn select_newest_baseline<'a>(names: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    names
        .into_iter()
        .filter(|n| {
            n.starts_with("BENCH_")
                && n.ends_with(".json")
                && n.as_bytes().get(6).is_some_and(u8::is_ascii_digit)
        })
        .max_by(|a, b| natural_cmp(a, b))
}

/// Total order on names: maximal digit runs compare numerically (longer
/// run of significant digits = greater; leading zeros break ties byte-wise
/// so the order stays total), everything else compares byte-wise.
fn natural_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].is_ascii_digit() && b[j].is_ascii_digit() {
            let run = |s: &[u8], mut k: usize| {
                let start = k;
                while k < s.len() && s[k].is_ascii_digit() {
                    k += 1;
                }
                (start, k)
            };
            let (ai, ae) = run(a, i);
            let (bi, be) = run(b, j);
            fn strip(s: &[u8]) -> &[u8] {
                let mut k = 0;
                while k + 1 < s.len() && s[k] == b'0' {
                    k += 1;
                }
                &s[k..]
            }
            let (da, db) = (strip(&a[ai..ae]), strip(&b[bi..be]));
            let ord = da.len().cmp(&db.len()).then_with(|| da.cmp(db));
            if ord != Ordering::Equal {
                return ord;
            }
            // Equal values (possibly differing in leading zeros): fall back
            // to the raw runs so e.g. "07" vs "7" still orders totally.
            let ord = a[ai..ae].cmp(&b[bi..be]);
            if ord != Ordering::Equal {
                return ord;
            }
            (i, j) = (ae, be);
        } else {
            let ord = a[i].cmp(&b[j]);
            if ord != Ordering::Equal {
                return ord;
            }
            (i, j) = (i + 1, j + 1);
        }
    }
    (a.len() - i).cmp(&(b.len() - j))
}

/// Where the baseline comes from: an explicit file, or the newest
/// `BENCH_*.json` of a directory ([`select_newest_baseline`]).
enum BaselineSource {
    File(String),
    Dir(String),
}

struct GateArgs {
    baseline: BaselineSource,
    fresh: String,
    tolerance: f64,
    ids: Vec<String>,
    report: Option<String>,
}

fn parse_args(args: &[String]) -> Result<GateArgs, String> {
    let mut baseline = None;
    let mut baseline_dir = None;
    let mut fresh = None;
    let mut tolerance = 0.25;
    let mut ids: Vec<String> = DEFAULT_GATED_IDS.iter().map(|s| s.to_string()).collect();
    let mut report = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--baseline-dir" => baseline_dir = Some(value("--baseline-dir")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?
            }
            "--ids" => {
                ids = value("--ids")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--report" => report = Some(value("--report")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let baseline = match (baseline, baseline_dir) {
        (Some(file), None) => BaselineSource::File(file),
        (None, Some(dir)) => BaselineSource::Dir(dir),
        (Some(_), Some(_)) => return Err("--baseline and --baseline-dir are exclusive".into()),
        (None, None) => return Err("--baseline or --baseline-dir is required".into()),
    };
    Ok(GateArgs {
        baseline,
        fresh: fresh.ok_or("--fresh is required")?,
        tolerance,
        ids,
        report,
    })
}

/// Resolve a [`BaselineSource`] to a concrete file path.
fn resolve_baseline(source: &BaselineSource) -> Result<String, String> {
    match source {
        BaselineSource::File(f) => Ok(f.clone()),
        BaselineSource::Dir(dir) => {
            let names: Vec<String> = std::fs::read_dir(dir)
                .map_err(|e| format!("cannot read --baseline-dir {dir}: {e}"))?
                .filter_map(|entry| Some(entry.ok()?.file_name().to_str()?.to_string()))
                .collect();
            let chosen = select_newest_baseline(names.iter().map(String::as_str))
                .ok_or_else(|| format!("no BENCH_*.json baseline in {dir}"))?;
            Ok(format!("{dir}/{chosen}"))
        }
    }
}

/// Run the gate over parsed baseline/fresh lines; returns the rendered
/// report and whether the gate passed.
fn run_gate(
    baseline: &[BenchLine],
    fresh: &[BenchLine],
    ids: &[String],
    tolerance: f64,
) -> (String, bool) {
    let mut report = String::new();
    let mut failures = 0usize;
    let _ = writeln!(
        report,
        "bench-regression gate (tolerance: fail if fresh median > baseline median * {:.2})",
        1.0 + tolerance
    );
    let _ = writeln!(
        report,
        "{:<28} {:>14} {:>14} {:>9}  verdict",
        "bench_id", "baseline (ns)", "fresh (ns)", "delta"
    );
    for id in ids {
        let base = median_of(baseline, id);
        let new = median_of(fresh, id);
        let line = match (base, new) {
            (Some(b), Some(n)) => {
                let delta = n / b - 1.0;
                let verdict = if delta > tolerance {
                    failures += 1;
                    "REGRESSED"
                } else if delta < 0.0 {
                    "improved"
                } else {
                    "ok"
                };
                format!(
                    "{id:<28} {b:>14.1} {n:>14.1} {:>+8.1}%  {verdict}",
                    delta * 100.0
                )
            }
            (None, Some(n)) => {
                format!(
                    "{id:<28} {:>14} {n:>14.1} {:>9}  new (no baseline, skipped)",
                    "-", "-"
                )
            }
            (Some(b), None) => {
                failures += 1;
                format!(
                    "{id:<28} {b:>14.1} {:>14} {:>9}  MISSING from fresh run",
                    "-", "-"
                )
            }
            (None, None) => {
                failures += 1;
                format!(
                    "{id:<28} {:>14} {:>14} {:>9}  MISSING from both files",
                    "-", "-", "-"
                )
            }
        };
        let _ = writeln!(report, "{line}");
    }
    // Informational section: every fresh bench outside the gated set, with
    // the same baseline/fresh/delta columns. Improvements (negative deltas)
    // land here too, so EXPERIMENTS.md rows can be filled straight from this
    // report — and a regression here is visible without failing the gate.
    let mut ungated: Vec<&str> = Vec::new();
    for line in fresh {
        let id = line.bench_id.as_str();
        if !ids.iter().any(|g| g == id) && !ungated.contains(&id) {
            ungated.push(id);
        }
    }
    if !ungated.is_empty() {
        let _ = writeln!(
            report,
            "ungated benches (informational, never fail the gate):"
        );
        for id in ungated {
            let new = median_of(fresh, id).expect("id came from the fresh lines");
            let line = match median_of(baseline, id) {
                Some(b) => {
                    let delta = new / b - 1.0;
                    let verdict = if delta < 0.0 {
                        "improved"
                    } else if delta > tolerance {
                        "regressed"
                    } else {
                        "ok"
                    };
                    format!(
                        "{id:<28} {b:>14.1} {new:>14.1} {:>+8.1}%  {verdict}",
                        delta * 100.0
                    )
                }
                None => format!("{id:<28} {:>14} {new:>14.1} {:>9}  new", "-", "-"),
            };
            let _ = writeln!(report, "{line}");
        }
    }
    let _ = writeln!(
        report,
        "gate: {}",
        if failures == 0 {
            "PASS".to_string()
        } else {
            format!("FAIL ({failures} gated bench(es) regressed or missing)")
        }
    );
    (report, failures == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_path = match resolve_baseline(&args.baseline) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let read = |path: &str| -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("bench_gate: cannot read {path}: {e}");
                None
            }
        }
    };
    let (Some(base_raw), Some(fresh_raw)) = (read(&baseline_path), read(&args.fresh)) else {
        return ExitCode::FAILURE;
    };
    let baseline = parse_bench_lines(&base_raw);
    let fresh = parse_bench_lines(&fresh_raw);
    let (mut report, pass) = run_gate(&baseline, &fresh, &args.ids, args.tolerance);
    report = format!("baseline: {baseline_path}\n{report}");
    print!("{report}");
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("bench_gate: cannot write report {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"bench_id\":\"e01_serve_query\",\"min_ns\":1500.0,\"median_ns\":1579.7,\"mean_ns\":1647.7,\"samples\":20}\n",
        "{\"bench_id\":\"e11_plain_bm25\",\"min_ns\":21000.0,\"median_ns\":22474.4,\"mean_ns\":22596.9,\"samples\":20}\n",
    );

    #[test]
    fn parses_stub_json_lines() {
        let lines = parse_bench_lines(SAMPLE);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].bench_id, "e01_serve_query");
        assert!((lines[0].median_ns - 1579.7).abs() < 1e-9);
        assert_eq!(median_of(&lines, "e11_plain_bm25"), Some(22474.4));
        assert_eq!(median_of(&lines, "absent"), None);
    }

    #[test]
    fn rerun_lines_take_the_last_measurement() {
        let twice = format!(
            "{SAMPLE}{}",
            "{\"bench_id\":\"e01_serve_query\",\"min_ns\":1.0,\"median_ns\":999.0,\"mean_ns\":1.0,\"samples\":20}\n"
        );
        let lines = parse_bench_lines(&twice);
        assert_eq!(median_of(&lines, "e01_serve_query"), Some(999.0));
    }

    #[test]
    fn gate_passes_within_tolerance_and_on_improvement() {
        let baseline = parse_bench_lines(SAMPLE);
        let fresh = vec![
            BenchLine {
                bench_id: "e01_serve_query".into(),
                median_ns: 1579.7 * 1.20, // +20% < 25% tolerance
            },
            BenchLine {
                bench_id: "e11_plain_bm25".into(),
                median_ns: 10_000.0, // improvement
            },
        ];
        let ids = vec!["e01_serve_query".to_string(), "e11_plain_bm25".to_string()];
        let (report, pass) = run_gate(&baseline, &fresh, &ids, 0.25);
        assert!(pass, "{report}");
        assert!(report.contains("improved"));
        assert!(report.contains("PASS"));
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        let baseline = parse_bench_lines(SAMPLE);
        let fresh = vec![BenchLine {
            bench_id: "e01_serve_query".into(),
            median_ns: 1579.7 * 1.30,
        }];
        let ids = vec!["e01_serve_query".to_string()];
        let (report, pass) = run_gate(&baseline, &fresh, &ids, 0.25);
        assert!(!pass, "{report}");
        assert!(report.contains("REGRESSED"));
    }

    #[test]
    fn gate_fails_when_gated_bench_missing_from_fresh() {
        let baseline = parse_bench_lines(SAMPLE);
        let ids = vec!["e01_serve_query".to_string()];
        let (report, pass) = run_gate(&baseline, &[], &ids, 0.25);
        assert!(!pass);
        assert!(report.contains("MISSING from fresh run"));
    }

    #[test]
    fn new_bench_without_baseline_is_skipped() {
        let fresh = vec![BenchLine {
            bench_id: "e99_new".into(),
            median_ns: 1.0,
        }];
        let ids = vec!["e99_new".to_string()];
        let (report, pass) = run_gate(&[], &fresh, &ids, 0.25);
        assert!(pass, "{report}");
        assert!(report.contains("new (no baseline, skipped)"));
    }

    #[test]
    fn ungated_benches_report_improvements_without_gating() {
        let baseline = parse_bench_lines(concat!(
            "{\"bench_id\":\"e01_serve_query\",\"min_ns\":1.0,\"median_ns\":1000.0,\"mean_ns\":1.0,\"samples\":20}\n",
            "{\"bench_id\":\"e05_probe\",\"min_ns\":1.0,\"median_ns\":4000.0,\"mean_ns\":1.0,\"samples\":20}\n",
            "{\"bench_id\":\"e06_pipeline\",\"min_ns\":1.0,\"median_ns\":5000.0,\"mean_ns\":1.0,\"samples\":20}\n",
        ));
        let fresh = vec![
            BenchLine {
                bench_id: "e01_serve_query".into(),
                median_ns: 1000.0,
            },
            BenchLine {
                bench_id: "e05_probe".into(),
                median_ns: 2000.0, // -50%: improvement, ungated
            },
            BenchLine {
                bench_id: "e06_pipeline".into(),
                median_ns: 50_000.0, // +900%: regression, but ungated
            },
            BenchLine {
                bench_id: "e16_future".into(),
                median_ns: 7.0, // no baseline at all
            },
        ];
        let ids = vec!["e01_serve_query".to_string()];
        let (report, pass) = run_gate(&baseline, &fresh, &ids, 0.25);
        assert!(pass, "ungated rows must never fail the gate:\n{report}");
        assert!(report.contains("ungated benches"));
        assert!(
            report.contains("e05_probe") && report.contains("-50.0%"),
            "improvement with its delta must be in the report:\n{report}"
        );
        assert!(
            report.contains("e06_pipeline") && report.contains("regressed"),
            "ungated regression is visible but informational:\n{report}"
        );
        assert!(report.contains("e16_future"));
    }

    #[test]
    fn fully_gated_fresh_run_has_no_ungated_section() {
        let baseline = parse_bench_lines(SAMPLE);
        let fresh = parse_bench_lines(SAMPLE);
        let ids = vec!["e01_serve_query".to_string(), "e11_plain_bm25".to_string()];
        let (report, pass) = run_gate(&baseline, &fresh, &ids, 0.25);
        assert!(pass);
        assert!(!report.contains("ungated benches"));
    }

    #[test]
    fn args_parse_and_default() {
        let a = parse_args(&[
            "--baseline".into(),
            "b.json".into(),
            "--fresh".into(),
            "f.json".into(),
        ])
        .unwrap();
        assert_eq!(a.tolerance, 0.25);
        assert_eq!(a.ids.len(), DEFAULT_GATED_IDS.len());
        let b = parse_args(&[
            "--baseline".into(),
            "b".into(),
            "--fresh".into(),
            "f".into(),
            "--tolerance".into(),
            "0.5".into(),
            "--ids".into(),
            "x,y".into(),
            "--report".into(),
            "r.txt".into(),
        ])
        .unwrap();
        assert_eq!(b.tolerance, 0.5);
        assert_eq!(b.ids, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(b.report.as_deref(), Some("r.txt"));
        assert!(parse_args(&["--fresh".into(), "f".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }

    #[test]
    fn baseline_and_baseline_dir_are_exclusive() {
        let both = parse_args(&[
            "--baseline".into(),
            "b".into(),
            "--baseline-dir".into(),
            "d".into(),
            "--fresh".into(),
            "f".into(),
        ]);
        assert!(both.is_err());
        let dir_only = parse_args(&[
            "--baseline-dir".into(),
            "d".into(),
            "--fresh".into(),
            "f".into(),
        ])
        .unwrap();
        assert!(matches!(dir_only.baseline, BaselineSource::Dir(d) if d == "d"));
    }

    #[test]
    fn newest_baseline_same_date_tie_break_is_explicit() {
        // The exact pair from the repo: a same-date re-record must win over
        // the original, deterministically, whatever order the names arrive.
        let a = ["BENCH_2026-07-28.json", "BENCH_2026-07-28_pr4.json"];
        let b = ["BENCH_2026-07-28_pr4.json", "BENCH_2026-07-28.json"];
        assert_eq!(
            select_newest_baseline(a.iter().copied()),
            Some("BENCH_2026-07-28_pr4.json")
        );
        assert_eq!(
            select_newest_baseline(b.iter().copied()),
            Some("BENCH_2026-07-28_pr4.json")
        );
        // And a later suffix beats an earlier one on the same date — also
        // across digit-count boundaries, where byte order would invert.
        assert_eq!(
            select_newest_baseline(
                ["BENCH_2026-07-28_pr5.json", "BENCH_2026-07-28_pr4.json"]
                    .iter()
                    .copied()
            ),
            Some("BENCH_2026-07-28_pr5.json")
        );
        assert_eq!(
            select_newest_baseline(
                ["BENCH_2026-07-28_pr9.json", "BENCH_2026-07-28_pr10.json"]
                    .iter()
                    .copied()
            ),
            Some("BENCH_2026-07-28_pr10.json")
        );
    }

    #[test]
    fn natural_cmp_orders_digit_runs_numerically() {
        use std::cmp::Ordering;
        assert_eq!(natural_cmp("pr9", "pr10"), Ordering::Less);
        assert_eq!(natural_cmp("2026-07-28", "2026-08-01"), Ordering::Less);
        assert_eq!(natural_cmp("a2b", "a2b"), Ordering::Equal);
        assert_eq!(natural_cmp("a2", "a2b"), Ordering::Less);
        // Leading zeros: equal value still orders totally and consistently.
        assert_eq!(natural_cmp("a07", "a7"), Ordering::Less);
        assert_eq!(natural_cmp("a07", "a8"), Ordering::Less);
    }

    #[test]
    fn newest_baseline_prefers_later_dates_over_suffixes() {
        let names = [
            "BENCH_2026-07-28_pr4.json",
            "BENCH_2026-08-01.json",
            "BENCH_2025-12-31_zz.json",
        ];
        assert_eq!(
            select_newest_baseline(names.iter().copied()),
            Some("BENCH_2026-08-01.json")
        );
    }

    #[test]
    fn newest_baseline_ignores_non_matching_names() {
        let names = ["notes.txt", "BENCH_fresh.json.tmp", "bench_2026.json"];
        assert_eq!(select_newest_baseline(names.iter().copied()), None);
        assert!(select_newest_baseline(std::iter::empty()).is_none());
    }

    #[test]
    fn newest_baseline_never_picks_an_undated_fresh_dump() {
        // "BENCH_fresh.json" out-sorts every dated name byte-wise ('f' >
        // any digit); the digit-after-prefix requirement keeps a fresh dump
        // sharing the directory from gating against itself.
        let names = [
            "BENCH_fresh.json",
            "BENCH_2026-07-28_pr4.json",
            "BENCH_2026-07-28.json",
        ];
        assert_eq!(
            select_newest_baseline(names.iter().copied()),
            Some("BENCH_2026-07-28_pr4.json")
        );
        assert_eq!(
            select_newest_baseline(["BENCH_fresh.json"].iter().copied()),
            None
        );
    }
}
