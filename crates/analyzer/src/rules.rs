//! The detlint rule catalogue (DESIGN.md §17).
//!
//! Every rule guards one load-bearing invariant of the determinism contract:
//! parallel surfacing, sharded/partitioned serving, delta segments and
//! fault-injected builds must all be byte-identical to their sequential
//! reference, and serving paths must degrade, never panic. Rules match on
//! the lexed significant-token stream (never raw text), so string literals
//! and comments cannot fire them, and `#[cfg(test)]` / `#[test]` regions
//! are exempt where a rule targets library code.

use crate::lexer::TokenKind;
use crate::scan::FileScan;

/// Rule identifiers. `Meta` covers annotation hygiene itself: malformed
/// `detlint:allow` comments and allows that suppress nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleId {
    /// R1: std `HashMap`/`HashSet` in library code — unordered iteration
    /// breaks byte-identity; use `FxHashMap`/`FxHashSet` (deterministic
    /// hasher) with sorted or first-appearance iteration.
    NondetIteration,
    /// R2: `Instant::now`/`SystemTime::now` outside the deepbench package —
    /// library code counts work, never measures it, or results depend on
    /// the wall clock.
    WallClock,
    /// R3: `unwrap`/`expect`/panic macros/literal slice-index in `index`,
    /// `surfacer`, `core`, `html` library code — serving paths and the
    /// parser of untrusted bytes return typed errors or degrade; they do
    /// not panic.
    PanicInServing,
    /// R4: float `sum`/`product`/`fold` over hash-map/set iteration — float
    /// addition is non-associative, so hash order changes the result bytes.
    UnorderedFloatFold,
    /// R5: `lock()/read()/write()` followed by `unwrap`/`expect` (use the
    /// non-poisoning `parking_lot` types), or a write guard held across a
    /// thread-pool dispatch.
    LockHygiene,
    /// A0: `detlint:allow` hygiene — malformed annotation, unknown rule
    /// name, empty justification, or an allow that suppresses nothing.
    Meta,
}

/// All suppressible rules, in catalogue order.
pub(crate) const RULES: [RuleId; 5] = [
    RuleId::NondetIteration,
    RuleId::WallClock,
    RuleId::PanicInServing,
    RuleId::UnorderedFloatFold,
    RuleId::LockHygiene,
];

impl RuleId {
    /// Short code (`R1`…`R5`, `A0`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::NondetIteration => "R1",
            RuleId::WallClock => "R2",
            RuleId::PanicInServing => "R3",
            RuleId::UnorderedFloatFold => "R4",
            RuleId::LockHygiene => "R5",
            RuleId::Meta => "A0",
        }
    }

    /// Stable name used in `detlint:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondetIteration => "nondet-iteration",
            RuleId::WallClock => "wall-clock",
            RuleId::PanicInServing => "panic-in-serving",
            RuleId::UnorderedFloatFold => "unordered-float-fold",
            RuleId::LockHygiene => "lock-hygiene",
            RuleId::Meta => "allow-hygiene",
        }
    }

    /// One-line description for the summary table.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::NondetIteration => "std HashMap/HashSet in library code",
            RuleId::WallClock => "wall-clock read outside the deepbench package",
            RuleId::PanicInServing => "panic path in index/surfacer/core/html",
            RuleId::UnorderedFloatFold => "float fold over hash-ordered iteration",
            RuleId::LockHygiene => "poisoning lock use / guard across dispatch",
            RuleId::Meta => "detlint:allow annotation hygiene",
        }
    }

    /// Resolve a name or code as written in an allow annotation.
    pub fn parse(s: &str) -> Option<RuleId> {
        RULES
            .iter()
            .copied()
            .find(|r| r.name().eq_ignore_ascii_case(s) || r.code().eq_ignore_ascii_case(s))
    }
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Scope {
    /// Under `crates/bench/src/bin/deepbench/` (exempt from R2: only the
    /// deepbench package measures).
    pub deepbench: bool,
    /// Path has a `tests`/`benches`/`examples` component — not library
    /// code; only R2 applies.
    pub test_path: bool,
    /// Under `crates/index`, `crates/surfacer`, `crates/core` or
    /// `crates/html` — the crate that parses untrusted bytes (R3 scope).
    pub serving_crate: bool,
}

impl Scope {
    /// Classify a workspace-relative path (`/`-separated).
    pub(crate) fn of_path(rel: &str) -> Scope {
        let comps: Vec<&str> = rel.split('/').collect();
        Scope {
            deepbench: rel.starts_with("crates/bench/src/bin/deepbench/"),
            test_path: comps
                .iter()
                .any(|c| matches!(*c, "tests" | "benches" | "examples")),
            serving_crate: rel.starts_with("crates/index/")
                || rel.starts_with("crates/surfacer/")
                || rel.starts_with("crates/core/")
                || rel.starts_with("crates/html/"),
        }
    }
}

/// One rule hit, before suppression matching.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line (or annotation text for A0).
    pub snippet: String,
    /// True when a matching `detlint:allow` suppressed it.
    pub suppressed: bool,
}

/// Run every applicable rule over `scan`, then resolve `detlint:allow`
/// annotations: each finding on an allow's target line with a matching rule
/// is marked suppressed; malformed or unused allows become A0 findings.
pub(crate) fn check_file(path: &str, scope: Scope, scan: &FileScan<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |rule: RuleId, line: u32| {
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            snippet: scan.snippet(line),
            suppressed: false,
        });
    };
    let library = !scope.test_path;
    let t = &scan.toks;
    for i in 0..t.len() {
        let lib_code = library && !scan.is_test[i];
        if lib_code {
            if let Some(line) = match_nondet_iteration(scan, i) {
                push(RuleId::NondetIteration, line);
            }
            if scope.serving_crate {
                if let Some(line) = match_panic(scan, i) {
                    push(RuleId::PanicInServing, line);
                }
            }
            if let Some(line) = match_float_fold(scan, i) {
                push(RuleId::UnorderedFloatFold, line);
            }
            if let Some(line) = match_lock_hygiene(scan, i) {
                push(RuleId::LockHygiene, line);
            }
        }
        if !scope.deepbench {
            if let Some(line) = match_wall_clock(scan, i) {
                push(RuleId::WallClock, line);
            }
        }
    }
    resolve_allows(path, scan, findings)
}

/// Mark findings suppressed by allows; append A0 findings for malformed or
/// unused annotations. A0 findings are themselves unsuppressible.
fn resolve_allows(path: &str, scan: &FileScan<'_>, mut findings: Vec<Finding>) -> Vec<Finding> {
    let mut used = vec![false; scan.allows.len()];
    for f in &mut findings {
        for (ai, allow) in scan.allows.iter().enumerate() {
            if allow.malformed.is_some() || allow.target_line != f.line {
                continue;
            }
            if allow.rules.iter().any(|r| RuleId::parse(r) == Some(f.rule)) {
                f.suppressed = true;
                used[ai] = true;
            }
        }
    }
    for (ai, allow) in scan.allows.iter().enumerate() {
        let problem = if let Some(msg) = &allow.malformed {
            Some(msg.clone())
        } else if let Some(bad) = allow.rules.iter().find(|r| RuleId::parse(r).is_none()) {
            Some(format!("unknown rule `{bad}` in detlint:allow"))
        } else if !used[ai] {
            Some("unused detlint:allow (no finding on its target line)".into())
        } else {
            None
        };
        if let Some(msg) = problem {
            findings.push(Finding {
                rule: RuleId::Meta,
                path: path.to_string(),
                line: allow.line,
                snippet: msg,
                suppressed: false,
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule.code()));
    findings
}

fn text<'s>(scan: &'s FileScan<'_>, i: usize) -> &'s str {
    scan.toks.get(i).map_or("", |t| t.text)
}

/// `::` is two `:` Punct tokens; true when `i` starts one.
fn is_path_sep(scan: &FileScan<'_>, i: usize) -> bool {
    text(scan, i) == ":" && text(scan, i + 1) == ":"
}

/// R1: `std::collections::HashMap` / `HashSet` — plain path or inside a
/// `use std::collections::{…}` group.
fn match_nondet_iteration(scan: &FileScan<'_>, i: usize) -> Option<u32> {
    if text(scan, i) != "std" || !is_path_sep(scan, i + 1) {
        return None;
    }
    if text(scan, i + 3) != "collections" || !is_path_sep(scan, i + 4) {
        return None;
    }
    match text(scan, i + 6) {
        "HashMap" | "HashSet" => Some(scan.toks[i + 6].line),
        "{" => {
            let mut j = i + 7;
            while j < scan.toks.len() && text(scan, j) != "}" {
                if matches!(text(scan, j), "HashMap" | "HashSet") {
                    return Some(scan.toks[j].line);
                }
                j += 1;
            }
            None
        }
        _ => None,
    }
}

/// R2: `Instant::now` / `SystemTime::now`.
fn match_wall_clock(scan: &FileScan<'_>, i: usize) -> Option<u32> {
    if !matches!(text(scan, i), "Instant" | "SystemTime") {
        return None;
    }
    (is_path_sep(scan, i + 1) && text(scan, i + 3) == "now").then(|| scan.toks[i].line)
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// R3: `.unwrap()`, `.expect(`, panic-family macros, and literal integer
/// indexing (`xs[0]` — the classic "first element exists" panic). Variable
/// indexing is deliberately out of scope: the scoring kernels index by
/// doc id over vectors they sized themselves, and flagging every `xs[i]`
/// would drown the signal (DESIGN.md §17).
fn match_panic(scan: &FileScan<'_>, i: usize) -> Option<u32> {
    let t = text(scan, i);
    // `.unwrap()` / `.expect(` — require the leading `.` so definitions or
    // mentions of identifiers named `unwrap` don't fire.
    if i > 0 && text(scan, i - 1) == "." {
        if t == "unwrap" && text(scan, i + 1) == "(" && text(scan, i + 2) == ")" {
            return Some(scan.toks[i].line);
        }
        if t == "expect" && text(scan, i + 1) == "(" {
            return Some(scan.toks[i].line);
        }
    }
    if PANIC_MACROS.contains(&t) && text(scan, i + 1) == "!" {
        return Some(scan.toks[i].line);
    }
    // Literal index: ident/`)`/`]` followed by `[ <integer> ]`.
    if t == "["
        && i > 0
        && (scan.toks[i - 1].kind == TokenKind::Ident || matches!(text(scan, i - 1), ")" | "]"))
    {
        let idx = scan.toks.get(i + 1)?;
        if idx.kind == TokenKind::Num && !idx.text.contains('.') && text(scan, i + 2) == "]" {
            return Some(idx.line);
        }
    }
    None
}

/// Idents that look like a hash container (receiver heuristic for R4).
fn hashy_ident(t: &str) -> bool {
    let l = t.to_ascii_lowercase();
    l.contains("map") || l.contains("set") || l.contains("hash")
}

/// R4: `<hashy>.values()/keys()/iter()` chained into a float `sum`/
/// `product` turbofish or a `fold` seeded with a float literal, within the
/// same statement.
fn match_float_fold(scan: &FileScan<'_>, i: usize) -> Option<u32> {
    if !(scan.toks[i].kind == TokenKind::Ident && hashy_ident(text(scan, i))) {
        return None;
    }
    if text(scan, i + 1) != "."
        || !matches!(text(scan, i + 2), "values" | "keys" | "iter")
        || text(scan, i + 3) != "("
        || text(scan, i + 4) != ")"
    {
        return None;
    }
    let mut j = i + 5;
    let limit = (i + 80).min(scan.toks.len());
    while j < limit && text(scan, j) != ";" {
        if text(scan, j) == "." {
            // `.sum::<f64>()` / `.product::<f32>()`
            if matches!(text(scan, j + 1), "sum" | "product")
                && is_path_sep(scan, j + 2)
                && text(scan, j + 4) == "<"
                && matches!(text(scan, j + 5), "f32" | "f64")
            {
                return Some(scan.toks[j + 1].line);
            }
            // `.fold(0.0, …)` / `.fold(0f64, …)`
            if text(scan, j + 1) == "fold" && text(scan, j + 2) == "(" {
                let seed = text(scan, j + 3);
                if scan
                    .toks
                    .get(j + 3)
                    .is_some_and(|t| t.kind == TokenKind::Num)
                    && (seed.contains('.') || seed.contains("f3") || seed.contains("f6"))
                {
                    return Some(scan.toks[j + 1].line);
                }
            }
        }
        j += 1;
    }
    None
}

/// Thread-pool dispatch methods a write guard must never be held across.
const DISPATCH_METHODS: [&str; 2] = ["map_init", "map_indices_init"];

/// R5a: `.lock()/.read()/.write()` chained into `unwrap`/`expect` — the std
/// poisoning API; the workspace uses non-poisoning `parking_lot` guards.
/// R5b: a `let`-bound `.write()` guard with a pool dispatch before its
/// scope closes — the dispatch blocks on workers while readers starve.
fn match_lock_hygiene(scan: &FileScan<'_>, i: usize) -> Option<u32> {
    if i > 0
        && text(scan, i - 1) == "."
        && matches!(text(scan, i), "lock" | "read" | "write")
        && text(scan, i + 1) == "("
        && text(scan, i + 2) == ")"
        && text(scan, i + 3) == "."
        && matches!(text(scan, i + 4), "unwrap" | "expect")
    {
        return Some(scan.toks[i].line);
    }
    // R5b anchors on the `let`.
    if text(scan, i) != "let" {
        return None;
    }
    let let_depth = *scan.depth.get(i)?;
    // The binding statement: `let … = … .write() … ;`
    let mut j = i + 1;
    let mut binds_write_guard = false;
    while j < scan.toks.len() && text(scan, j) != ";" {
        if text(scan, j) == "."
            && text(scan, j + 1) == "write"
            && text(scan, j + 2) == "("
            && text(scan, j + 3) == ")"
            // …but not `.write().unwrap()…`: R5a already reports that form.
            && text(scan, j + 4) != "."
        {
            binds_write_guard = true;
        }
        j += 1;
    }
    if !binds_write_guard {
        return None;
    }
    // Scan the rest of the enclosing block for a pool dispatch.
    let mut k = j + 1;
    while k < scan.toks.len() && scan.depth[k] >= let_depth {
        if text(scan, k) == "}" && scan.depth[k] < let_depth {
            break;
        }
        if scan.toks[k].kind == TokenKind::Ident && DISPATCH_METHODS.contains(&text(scan, k)) {
            return Some(scan.toks[k].line);
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_findings(src: &str) -> Vec<(RuleId, bool)> {
        let scan = FileScan::new(src);
        check_file(
            "crates/index/src/x.rs",
            Scope::of_path("crates/index/src/x.rs"),
            &scan,
        )
        .into_iter()
        .map(|f| (f.rule, f.suppressed))
        .collect()
    }

    #[test]
    fn r1_fires_on_plain_and_grouped_imports() {
        assert_eq!(
            lib_findings("use std::collections::HashMap;\n"),
            vec![(RuleId::NondetIteration, false)]
        );
        let grouped = lib_findings("use std::collections::{BTreeMap, HashSet};\n");
        assert_eq!(grouped, vec![(RuleId::NondetIteration, false)]);
        assert!(lib_findings("use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn r2_ignores_strings_and_respects_bench_scope() {
        let src = "fn f() { let t = Instant::now(); let s = \"Instant::now\"; }\n";
        assert_eq!(lib_findings(src), vec![(RuleId::WallClock, false)]);
        let scan = FileScan::new(src);
        let bench = check_file(
            "crates/bench/src/bin/deepbench/src/b.rs",
            Scope::of_path("crates/bench/src/bin/deepbench/src/b.rs"),
            &scan,
        );
        assert!(bench.is_empty());
    }

    #[test]
    fn r3_matches_panic_family_but_not_unwrap_or() {
        assert_eq!(
            lib_findings("fn f() { x.unwrap(); }\n"),
            vec![(RuleId::PanicInServing, false)]
        );
        assert!(lib_findings("fn f() { x.unwrap_or(0); x.unwrap_or_else(id); }\n").is_empty());
        assert_eq!(
            lib_findings("fn f() { panic!(\"boom\"); }\n"),
            vec![(RuleId::PanicInServing, false)]
        );
        assert_eq!(
            lib_findings("fn f(xs: &[u8]) -> u8 { xs[0] }\n"),
            vec![(RuleId::PanicInServing, false)]
        );
        // Array literals and attributes are not index expressions.
        assert!(
            lib_findings("fn f() -> [u8; 2] { [0, 1] }\n#[derive(Debug)]\nstruct S;\n").is_empty()
        );
    }

    #[test]
    fn r3_only_in_serving_crates_and_not_in_tests() {
        let src = "fn f() { x.unwrap(); }\n";
        let scan = FileScan::new(src);
        let out = check_file(
            "crates/webworld/src/x.rs",
            Scope::of_path("crates/webworld/src/x.rs"),
            &scan,
        );
        assert!(out.is_empty());
        // ...and in the crate that parses untrusted bytes, but not its tests.
        for (path, fires) in [
            ("crates/html/src/x.rs", true),
            ("crates/html/tests/x.rs", false),
        ] {
            assert!(Scope::of_path(path).serving_crate);
            let out = check_file(path, Scope::of_path(path), &scan);
            assert_eq!(out.len(), usize::from(fires), "{path}");
        }
        assert!(lib_findings("#[cfg(test)]\nmod t { fn f() { x.unwrap(); } }\n").is_empty());
    }

    #[test]
    fn r4_fires_on_hash_ordered_float_sum() {
        assert_eq!(
            lib_findings(
                "fn f(m: &FxHashMap<u32, f64>) -> f64 { score_map.values().sum::<f64>() }\n"
            ),
            vec![(RuleId::UnorderedFloatFold, false)]
        );
        assert_eq!(
            lib_findings("fn f() { let t = weights_map.iter().fold(0.0, |a, (_, w)| a + w); }\n"),
            vec![(RuleId::UnorderedFloatFold, false)]
        );
        // Sorted vectors folding floats are fine.
        assert!(lib_findings("fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n").is_empty());
    }

    #[test]
    fn r5_poisoning_and_guard_across_dispatch() {
        assert_eq!(
            lib_findings("fn f() { let g = m.lock().unwrap(); }\n"),
            // `.lock().unwrap()` is both a panic path (R3 scope here) and a
            // lock-hygiene violation.
            vec![
                (RuleId::PanicInServing, false),
                (RuleId::LockHygiene, false)
            ]
        );
        let src = "fn f() { let g = state.write(); pool.map_indices_init(n, || (), |_, i| i); drop(g); }\n";
        let hits = lib_findings(src);
        assert!(hits.contains(&(RuleId::LockHygiene, false)), "{hits:?}");
        // Guard released before dispatch: clean.
        assert!(lib_findings(
            "fn f() { { let g = state.write(); } pool.map_indices_init(n, || (), |_, i| i); }\n"
        )
        .iter()
        .all(|(r, _)| *r != RuleId::LockHygiene));
    }

    #[test]
    fn allows_suppress_and_meta_fires_on_bad_allows() {
        let out = lib_findings(
            "// detlint:allow(panic-in-serving): invariant documented here\n\
             fn f() { x.unwrap(); }\n",
        );
        assert_eq!(out, vec![(RuleId::PanicInServing, true)]);
        // Unused and malformed allows surface as A0.
        let out = lib_findings("// detlint:allow(wall-clock): nothing here\nlet a = 1;\n");
        assert_eq!(out, vec![(RuleId::Meta, false)]);
        let out = lib_findings("fn f() { x.unwrap(); } // detlint:allow(panic-in-serving):\n");
        assert!(out.contains(&(RuleId::Meta, false)));
    }
}
