//! Fixture self-test: each of the two rules must fire on its known-bad
//! fixture, in scope, and nowhere else. This is what makes the CI gate
//! trustworthy — a rule that silently stops matching fails here, not in
//! production review.

use analyzer::analyze_source;
use analyzer::rules::{Finding, RuleId};

fn count(fs: &[Finding], rule: RuleId) -> usize {
    fs.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn r3_fires_on_literal_indexes_in_serving_crates_only() {
    let src = include_str!("fixtures/r3_bad.rs");
    // The kernel's crate and the crate that parses untrusted bytes.
    for path in ["crates/index/src/kernel.rs", "crates/html/src/tokenizer.rs"] {
        let bad = analyze_source(path, src);
        assert_eq!(count(&bad, RuleId::LiteralIndex), 2, "{path}: {bad:?}");
        assert_eq!(bad.len(), 2, "{path}: {bad:?}");
    }
    // Outside the serving crates, and in their tests, R3 does not apply.
    for path in [
        "crates/webworld/src/render.rs",
        "crates/index/tests/kernel.rs",
    ] {
        let other = analyze_source(path, src);
        assert!(other.is_empty(), "{path}: {other:?}");
    }
}

#[test]
fn r4_fires_on_hash_ordered_float_folds_only() {
    let bad = analyze_source(
        "crates/index/src/score.rs",
        include_str!("fixtures/r4_bad.rs"),
    );
    assert_eq!(count(&bad, RuleId::UnorderedFloatFold), 2, "{bad:?}");
    assert_eq!(bad.len(), 2, "slice sum must not fire: {bad:?}");
}

/// The gate itself: the workspace must scan clean.
#[test]
fn workspace_scans_clean() {
    let root = analyzer::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR");
    let (files, findings) = analyzer::scan_workspace(&root).expect("scan workspace");
    assert!(files > 100, "scanned only {files} files");
    assert!(
        findings.is_empty(),
        "detlint findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {}:{} {} {}", f.path, f.line, f.rule.code(), f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
