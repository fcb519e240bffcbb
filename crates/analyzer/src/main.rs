//! `detlint` CLI: scan the workspace this binary was built from, print every
//! unsuppressed finding plus a per-rule summary table, and exit nonzero on
//! any unsuppressed finding. It takes no arguments, so it runs the same from
//! any directory.

use analyzer::{find_workspace_root, scan_workspace};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("detlint: takes no arguments, got `{arg}`");
        return ExitCode::FAILURE;
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = find_workspace_root(manifest) else {
        eprintln!("detlint: no workspace root above {}", manifest.display());
        return ExitCode::FAILURE;
    };
    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let failing: Vec<_> = report.unsuppressed().collect();
    for f in &failing {
        println!(
            "{}:{}: {} {}: {}",
            f.path,
            f.line,
            f.rule.code(),
            f.rule.name(),
            f.snippet
        );
    }
    if !failing.is_empty() {
        println!();
    }
    print!("{}", report.summary_table());
    println!(
        "scanned {} files / {} lines — {} unsuppressed finding(s)",
        report.files,
        report.lines,
        failing.len()
    );
    if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
