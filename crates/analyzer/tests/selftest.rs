//! Fixture self-test: every rule in the catalogue must fire on its
//! known-bad fixture, stay silent on the annotated twin, and the allow
//! machinery must flag broken annotations (A0). This is what makes the CI
//! gate trustworthy — a rule that silently stops matching fails here, not
//! in production review.

use analyzer::analyze_source;
use analyzer::rules::{Finding, RuleId};

/// Findings for `src` analyzed as if it lived at `rel_path`.
fn findings(rel_path: &str, src: &str) -> Vec<Finding> {
    analyze_source(rel_path, src)
}

fn count(fs: &[Finding], rule: RuleId, suppressed: bool) -> usize {
    fs.iter()
        .filter(|f| f.rule == rule && f.suppressed == suppressed)
        .count()
}

fn unsuppressed(fs: &[Finding]) -> usize {
    fs.iter().filter(|f| !f.suppressed).count()
}

#[test]
fn r1_fires_on_bad_and_respects_allow_twin() {
    let bad = findings(
        "crates/common/src/fx.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert_eq!(count(&bad, RuleId::NondetIteration, false), 1, "{bad:?}");
    assert_eq!(unsuppressed(&bad), 1, "test module must stay exempt");

    let ok = findings(
        "crates/common/src/fx.rs",
        include_str!("fixtures/r1_allowed.rs"),
    );
    assert_eq!(count(&ok, RuleId::NondetIteration, true), 1, "{ok:?}");
    assert_eq!(unsuppressed(&ok), 0);
}

#[test]
fn r2_fires_on_bad_and_respects_allow_twin() {
    let bad = findings(
        "crates/common/src/clock.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    assert_eq!(count(&bad, RuleId::WallClock, false), 2, "{bad:?}");
    assert_eq!(unsuppressed(&bad), 2, "string mention must not fire");

    let ok = findings(
        "crates/common/src/clock.rs",
        include_str!("fixtures/r2_allowed.rs"),
    );
    assert_eq!(count(&ok, RuleId::WallClock, true), 1, "{ok:?}");
    assert_eq!(unsuppressed(&ok), 0);

    // The same bad source inside the deepbench package is exempt by scope.
    let bench = findings(
        "crates/bench/src/bin/deepbench/src/clock.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    assert_eq!(unsuppressed(&bench), 0, "{bench:?}");
}

#[test]
fn r3_fires_on_bad_and_respects_allow_twin() {
    let bad = findings(
        "crates/index/src/kernel.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert_eq!(count(&bad, RuleId::PanicInServing, false), 4, "{bad:?}");

    let ok = findings(
        "crates/index/src/kernel.rs",
        include_str!("fixtures/r3_allowed.rs"),
    );
    assert_eq!(count(&ok, RuleId::PanicInServing, true), 2, "{ok:?}");
    assert_eq!(unsuppressed(&ok), 0);

    // The crate that parses untrusted bytes is in scope too.
    let html = findings(
        "crates/html/src/tokenizer.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert_eq!(count(&html, RuleId::PanicInServing, false), 4, "{html:?}");

    // Outside the serving crates R3 does not apply at all.
    let other = findings(
        "crates/webworld/src/render.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert_eq!(unsuppressed(&other), 0, "{other:?}");
}

#[test]
fn r4_fires_on_bad_and_respects_allow_twin() {
    let bad = findings(
        "crates/index/src/score.rs",
        include_str!("fixtures/r4_bad.rs"),
    );
    assert_eq!(count(&bad, RuleId::UnorderedFloatFold, false), 2, "{bad:?}");
    assert_eq!(unsuppressed(&bad), 2, "slice sum must not fire");

    let ok = findings(
        "crates/index/src/score.rs",
        include_str!("fixtures/r4_allowed.rs"),
    );
    assert_eq!(count(&ok, RuleId::UnorderedFloatFold, true), 1, "{ok:?}");
    assert_eq!(unsuppressed(&ok), 0);
}

#[test]
fn r5_fires_on_bad_and_respects_allow_twin() {
    let bad = findings(
        "crates/common/src/pool.rs",
        include_str!("fixtures/r5_bad.rs"),
    );
    assert_eq!(count(&bad, RuleId::LockHygiene, false), 2, "{bad:?}");

    let ok = findings(
        "crates/common/src/pool.rs",
        include_str!("fixtures/r5_allowed.rs"),
    );
    assert_eq!(count(&ok, RuleId::LockHygiene, true), 1, "{ok:?}");
    assert_eq!(unsuppressed(&ok), 0);
}

#[test]
fn a0_fires_on_malformed_unknown_and_unused_allows() {
    let bad = findings(
        "crates/common/src/hygiene.rs",
        include_str!("fixtures/a0_bad_allows.rs"),
    );
    assert_eq!(count(&bad, RuleId::Meta, false), 3, "{bad:?}");
    // A malformed allow never suppresses: the clock read stays a finding.
    assert_eq!(count(&bad, RuleId::WallClock, false), 1, "{bad:?}");
}

/// The gate itself: the workspace must scan clean, and every allow in real
/// code must carry a non-empty justification (A0 enforces this — an
/// unjustified allow is an unsuppressed finding, so this assertion covers
/// both halves of the acceptance criterion).
#[test]
fn workspace_scans_clean() {
    let root = analyzer::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR");
    let report = analyzer::scan_workspace(&root).expect("scan workspace");
    let bad: Vec<_> = report.unsuppressed().collect();
    assert!(
        bad.is_empty(),
        "unsuppressed detlint findings:\n{}",
        bad.iter()
            .map(|f| format!("  {}:{} {} {}", f.path, f.line, f.rule.code(), f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
