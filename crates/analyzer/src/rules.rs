//! The two detlint rules no clippy lint expresses (DESIGN.md §17).
//!
//! Every other determinism and panic-safety rule of the workspace is lint
//! configuration: `clippy.toml` and the crate-level `deny` lines. These two
//! need a token-level match clippy has no counterpart for. Rules match on the
//! lexed significant-token stream (never raw text), so string literals and
//! comments cannot fire them, and `#[cfg(test)]` / `#[test]` regions and
//! `tests`/`benches`/`examples` paths are exempt: both target library code.
//! A finding cannot be suppressed; the code changes instead.

use crate::lexer::TokenKind;
use crate::scan::FileScan;

/// Rule identifiers, numbered as in the catalogue whose other rules became
/// lints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleId {
    /// R3 (its literal half): `xs[0]` in `index`, `surfacer`, `core` or
    /// `html` library code — the "first element exists" panic.
    /// `clippy::indexing_slicing` would also flag every `xs[i]` over vectors
    /// the kernels sized themselves.
    LiteralIndex,
    /// R4: float `sum`/`product`/`fold` over hash-map/set iteration — float
    /// addition is non-associative, so hash order changes the result bytes.
    /// `clippy::iter_over_hash_type` sees only `for` loops.
    UnorderedFloatFold,
}

impl RuleId {
    /// Short code (`R3`, `R4`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::LiteralIndex => "R3",
            RuleId::UnorderedFloatFold => "R4",
        }
    }

    /// Stable name printed with each finding.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LiteralIndex => "literal-index",
            RuleId::UnorderedFloatFold => "unordered-float-fold",
        }
    }
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scope {
    /// Path has a `tests`/`benches`/`examples` component — not library
    /// code; no rule applies.
    pub test_path: bool,
    /// Under `crates/index`, `crates/surfacer`, `crates/core` or
    /// `crates/html` (R3 scope).
    pub serving_crate: bool,
}

impl Scope {
    /// Classify a workspace-relative path (`/`-separated).
    pub(crate) fn of_path(rel: &str) -> Scope {
        Scope {
            test_path: rel
                .split('/')
                .any(|c| matches!(c, "tests" | "benches" | "examples")),
            serving_crate: ["index", "surfacer", "core", "html"]
                .iter()
                .any(|c| rel.starts_with(&format!("crates/{c}/"))),
        }
    }
}

/// One rule hit.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub snippet: String,
}

/// Run every applicable rule over `scan`, in token order.
pub(crate) fn check_file(path: &str, scope: Scope, scan: &FileScan<'_>) -> Vec<Finding> {
    if scope.test_path {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for i in (0..scan.toks.len()).filter(|&i| !scan.is_test[i]) {
        let literal_index = if scope.serving_crate {
            match_literal_index(scan, i)
        } else {
            None
        };
        let hits = [
            (RuleId::LiteralIndex, literal_index),
            (RuleId::UnorderedFloatFold, match_float_fold(scan, i)),
        ];
        for (rule, line) in hits {
            let Some(line) = line else { continue };
            findings.push(Finding {
                rule,
                path: path.to_string(),
                line,
                snippet: scan.snippet(line),
            });
        }
    }
    findings
}

fn text<'s>(scan: &'s FileScan<'_>, i: usize) -> &'s str {
    scan.toks.get(i).map_or("", |t| t.text)
}

/// `::` is two `:` Punct tokens; true when `i` starts one.
fn is_path_sep(scan: &FileScan<'_>, i: usize) -> bool {
    text(scan, i) == ":" && text(scan, i + 1) == ":"
}

/// R3: an ident, `)` or `]` followed by `[ <integer> ]`. Variable indexing
/// is deliberately out of scope: the scoring kernels index by doc id over
/// vectors they sized themselves.
fn match_literal_index(scan: &FileScan<'_>, i: usize) -> Option<u32> {
    let prev = scan.toks.get(i.checked_sub(1)?)?;
    if text(scan, i) != "[" || !(prev.kind == TokenKind::Ident || matches!(prev.text, ")" | "]")) {
        return None;
    }
    let idx = scan.toks.get(i + 1)?;
    (idx.kind == TokenKind::Num && !idx.text.contains('.') && text(scan, i + 2) == "]")
        .then_some(idx.line)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_findings(src: &str) -> Vec<RuleId> {
        let path = "crates/index/src/x.rs";
        check_file(path, Scope::of_path(path), &FileScan::new(src))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn r3_fires_on_literal_index_only() {
        assert_eq!(
            lib_findings("fn f(xs: &[u8]) -> u8 { xs[0] }\n"),
            vec![RuleId::LiteralIndex]
        );
        assert_eq!(
            lib_findings("fn f() -> u8 { g()[1] + h[2][3] }\n"),
            vec![
                RuleId::LiteralIndex,
                RuleId::LiteralIndex,
                RuleId::LiteralIndex
            ]
        );
        // Variable and float indexes, array literals, types and attributes
        // are not literal index expressions.
        assert!(lib_findings(
            "fn f(xs: &[u8], i: usize) -> [u8; 2] { let _ = xs[i]; [0, 1] }\n\
             #[derive(Debug)]\nstruct S([u8; 4]);\n"
        )
        .is_empty());
        // Text inside strings and comments never fires.
        assert!(lib_findings("fn f() { let s = \"xs[0]\"; } // ys[1]\n").is_empty());
    }

    #[test]
    fn r3_only_in_serving_crates_and_not_in_tests() {
        let scan = FileScan::new("fn f(xs: &[u8]) -> u8 { xs[0] }\n");
        for (path, fires) in [
            ("crates/index/src/x.rs", true),
            ("crates/html/src/x.rs", true),
            ("crates/html/tests/x.rs", false),
            ("crates/webworld/src/x.rs", false),
        ] {
            let out = check_file(path, Scope::of_path(path), &scan);
            assert_eq!(out.len(), usize::from(fires), "{path}");
        }
        assert!(
            lib_findings("#[cfg(test)]\nmod t { fn f(xs: &[u8]) -> u8 { xs[0] } }\n").is_empty()
        );
    }

    #[test]
    fn r4_fires_on_hash_ordered_float_sum() {
        assert_eq!(
            lib_findings(
                "fn f(m: &FxHashMap<u32, f64>) -> f64 { score_map.values().sum::<f64>() }\n"
            ),
            vec![RuleId::UnorderedFloatFold]
        );
        assert_eq!(
            lib_findings("fn f() { let t = weights_map.iter().fold(0.0, |a, (_, w)| a + w); }\n"),
            vec![RuleId::UnorderedFloatFold]
        );
        // Sorted vectors folding floats, and integer folds, are fine.
        assert!(lib_findings("fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n").is_empty());
        assert!(lib_findings("fn f() -> u64 { count_map.values().sum::<u64>() }\n").is_empty());
        // R4 holds outside the serving crates too, but not in tests.
        let path = "crates/webworld/src/x.rs";
        let scan = FileScan::new("fn f() -> f64 { score_map.values().sum::<f64>() }\n");
        assert_eq!(check_file(path, Scope::of_path(path), &scan).len(), 1);
        let path = "crates/webworld/tests/x.rs";
        assert!(check_file(path, Scope::of_path(path), &scan).is_empty());
    }
}
