//! `detlint` CLI: walk the workspace, run the rule catalogue, print every
//! unsuppressed finding plus a per-rule summary table, and exit nonzero on
//! any unsuppressed finding (pass `--warn` to report without failing).

use analyzer::rules::RuleId;
use analyzer::{find_workspace_root, scan_workspace};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
detlint — determinism & panic-safety static analyzer (DESIGN.md §17)

USAGE: detlint [OPTIONS]

OPTIONS:
  -D, --deny        fail (exit 1) on unsuppressed findings [default]
      --warn        report findings but exit 0
      --root <DIR>  workspace root (default: nearest ancestor with [workspace])
      --rules <IDS> comma-separated rule filter (names or R-codes)
      --list-rules  print the rule catalogue and exit
  -q, --quiet       suppress per-finding lines (summary only)
  -h, --help        this text
";

struct Args {
    deny: bool,
    root: Option<PathBuf>,
    rules: Option<Vec<RuleId>>,
    quiet: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        deny: true,
        root: None,
        rules: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-D" | "--deny" => args.deny = true,
            "--warn" => args.deny = false,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            "--rules" => {
                let v = it.next().ok_or("--rules needs a comma-separated list")?;
                let mut picked = Vec::new();
                for part in v.split(',') {
                    let part = part.trim();
                    let rule = RuleId::parse(part)
                        .ok_or_else(|| format!("unknown rule `{part}` (try --list-rules)"))?;
                    picked.push(rule);
                }
                args.rules = Some(picked);
            }
            "--list-rules" => {
                for rule in analyzer::rules::RULES {
                    println!("{:<4} {:<22} {}", rule.code(), rule.name(), rule.describe());
                }
                return Ok(None);
            }
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("detlint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let root = args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    });
    let Some(root) = root else {
        eprintln!("detlint: no workspace root found (pass --root)");
        return ExitCode::FAILURE;
    };
    // detlint:allow(wall-clock): the CLI times its own scan for its summary line; never serving logic
    let t0 = Instant::now();
    let mut report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(picked) = &args.rules {
        report
            .findings
            .retain(|f| picked.contains(&f.rule) || f.rule == RuleId::Meta);
    }
    let elapsed = t0.elapsed();
    let mut failing = 0usize;
    for f in report.unsuppressed() {
        failing += 1;
        if !args.quiet {
            println!(
                "{}:{}: {} {}: {}",
                f.path,
                f.line,
                f.rule.code(),
                f.rule.name(),
                f.snippet
            );
        }
    }
    if failing > 0 && !args.quiet {
        println!();
    }
    print!("{}", report.summary_table());
    println!(
        "scanned {} files / {} lines in {:.1} ms — {} unsuppressed finding(s)",
        report.files,
        report.lines,
        elapsed.as_secs_f64() * 1e3,
        failing
    );
    if failing > 0 && args.deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
