//! `detlint` CLI: scan the workspace this binary was built from, print every
//! finding, and exit nonzero on any. It takes no arguments, so it runs the
//! same from any directory.

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
    let (files, findings) = match scan_workspace(&root) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("detlint: scan failed under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for f in &findings {
        let (code, name) = (f.rule.code(), f.rule.name());
        println!("{}:{}: {code} {name}: {}", f.path, f.line, f.snippet);
    }
    println!("scanned {files} files — {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
