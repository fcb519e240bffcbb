//! `detlint` — a determinism & panic-safety static analyzer for this
//! workspace (DESIGN.md §17).
//!
//! Every serving/surfacing tier of the reproduction carries one contract:
//! parallel execution is **byte-identical** to its sequential reference.
//! That property is enforced dynamically by dump-diff tests and proptests;
//! detlint enforces the *source patterns* that silently break it — unordered
//! std-hash iteration, wall-clock reads, panics in serving paths, unordered
//! float folds, poisoning lock APIs — as a compile-adjacent gate.
//!
//! Pipeline: [`lexer`] turns each `.rs` file into tokens (comment/string
//! aware, so text inside literals can never fire a rule), the crate-private
//! `scan` marks `#[cfg(test)]`/`#[test]` regions and parses `detlint:allow`
//! annotations, [`rules`] matches the catalogue (R1–R5) over significant
//! tokens, and [`Report`] aggregates. Findings are suppressible only by an
//! inline `// detlint:allow(<rule>): <justification>` with a non-empty
//! justification; malformed or unused allows are findings themselves (A0).
//!
//! The `detlint` binary (`cargo run -p analyzer`) walks the workspace and
//! exits nonzero on any unsuppressed finding.

pub mod lexer;
mod report;
pub mod rules;
mod scan;

pub use report::Report;
use rules::{check_file, Scope};
use scan::FileScan;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyze one file's source as if at workspace-relative `rel_path` (which
/// decides rule scope). Returns findings in line order.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<rules::Finding> {
    let scan = FileScan::new(src);
    check_file(rel_path, Scope::of_path(rel_path), &scan)
}

/// Directories never scanned: build output, vendored dependency stubs
/// (external API stand-ins, not workspace code), VCS metadata, and the
/// analyzer's own known-bad rule fixtures.
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "target" | "vendor" | ".git") || rel.ends_with("tests/fixtures")
}

/// Recursively collect workspace `.rs` files (workspace-relative,
/// `/`-separated), sorted for deterministic report order.
pub(crate) fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
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

/// Scan every workspace `.rs` file under `root` and aggregate findings.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in workspace_rs_files(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(root.join(&rel))?;
        report.files += 1;
        report.lines += src.lines().count();
        report.findings.extend(analyze_source(&rel_str, &src));
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule.code()).cmp(&(&b.path, b.line, b.rule.code())));
    Ok(report)
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
        let src = "fn f() { let t = Instant::now(); x.unwrap(); }\n";
        let serving = analyze_source("crates/index/src/a.rs", src);
        assert_eq!(serving.len(), 2, "{serving:?}");
        let other = analyze_source("crates/common/src/a.rs", src);
        assert_eq!(other.len(), 1, "only wall-clock outside serving crates");
        let bench = analyze_source("crates/bench/src/bin/deepbench/src/a.rs", src);
        assert!(bench.is_empty(), "only the deepbench package measures");
        let report = analyze_source("crates/bench/src/bin/report.rs", src);
        assert_eq!(report.len(), 1, "the report binary is not exempt");
    }

    #[test]
    fn test_paths_are_exempt_from_library_rules_but_not_wall_clock() {
        let src = "fn f() { let t = Instant::now(); x.unwrap(); }\n";
        let t = analyze_source("crates/index/tests/a.rs", src);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].rule, rules::RuleId::WallClock);
    }
}
