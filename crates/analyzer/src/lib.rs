//! `detlint` — the two determinism and panic-safety rules of this workspace
//! that no compiler lint expresses (DESIGN.md §17).
//!
//! Every serving/surfacing tier of the reproduction carries one contract:
//! parallel execution is **byte-identical** to its sequential reference, and
//! serving paths degrade, never panic. The root `clippy.toml` and the
//! crate-level `deny` lines hold most of its source patterns (std hash
//! containers, std locks, clock reads, `unwrap`/`expect`/`panic!`); detlint
//! keeps the two that need a token match: a literal slice index in serving
//! library code (R3's other half) and a float fold over hash-ordered
//! iteration (R4).
//!
//! Pipeline: [`lexer`] turns each `.rs` file into tokens (comment/string
//! aware, so text inside literals can never fire a rule), the crate-private
//! `scan` marks test regions, and [`rules`] matches the two rules over
//! significant tokens. A finding cannot be suppressed.
//!
//! The `detlint` binary (`cargo run -p analyzer`) walks the workspace and
//! exits nonzero on any finding.

pub mod lexer;
pub mod rules;
mod scan;

use rules::{check_file, Finding, Scope};
use scan::FileScan;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyze one file's source as if at workspace-relative `rel_path` (which
/// decides rule scope). Returns findings in line order.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    check_file(rel_path, Scope::of_path(rel_path), &FileScan::new(src))
}

/// Directories never scanned: build output, vendored dependency stubs
/// (external API stand-ins, not workspace code), VCS metadata, and the
/// analyzer's own known-bad rule fixtures.
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "target" | "vendor" | ".git") || rel.ends_with("tests/fixtures")
}

/// Recursively collect workspace `.rs` files (workspace-relative,
/// `/`-separated), sorted for deterministic report order.
fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        let mut entries: Vec<_> = fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let Ok(sub) = path.strip_prefix(root) else {
                continue;
            };
            let rel_str = sub.to_string_lossy().replace('\\', "/");
            if path.is_dir() {
                let name = sub.file_name().map(|n| n.to_string_lossy());
                if name.is_some_and(|n| n.starts_with('.')) || skip_dir(&rel_str) {
                    continue;
                }
                stack.push(sub.to_path_buf());
            } else if rel_str.ends_with(".rs") {
                files.push(sub.to_path_buf());
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan every workspace `.rs` file under `root`: the number of files
/// scanned and every finding, in path/line order.
pub fn scan_workspace(root: &Path) -> io::Result<(usize, Vec<Finding>)> {
    let files = workspace_rs_files(root)?;
    let mut findings = Vec::new();
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(root.join(rel))?;
        findings.extend(analyze_source(&rel_str, &src));
    }
    Ok((files.len(), findings))
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_decides_which_rules_run() {
        let src = "fn f(xs: &[f64]) -> f64 { xs[0] + score_map.values().sum::<f64>() }\n";
        let serving = analyze_source("crates/index/src/a.rs", src);
        assert_eq!(serving.len(), 2, "{serving:?}");
        let other = analyze_source("crates/common/src/a.rs", src);
        assert_eq!(other.len(), 1, "only the float fold outside serving crates");
        assert_eq!(other[0].rule, rules::RuleId::UnorderedFloatFold);
        assert!(analyze_source("crates/index/tests/a.rs", src).is_empty());
    }
}
