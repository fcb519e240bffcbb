//! From raw tokens to an analyzable file: significant-token stream, brace
//! depths, `#[cfg(test)]`/`#[test]` region marking, and `detlint:allow`
//! annotation parsing.

use crate::lexer::{lex, Token, TokenKind};

/// A parsed `// detlint:allow(<rule>[, <rule>…]): <justification>` comment.
#[derive(Clone, Debug)]
pub(crate) struct Allow {
    /// Rule ids named in the annotation (as written).
    pub rules: Vec<String>,
    /// Justification text after the closing `):` (trimmed).
    pub justification: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Line whose findings this allow suppresses: the comment's own line for
    /// a trailing comment, otherwise the next line holding any code.
    pub target_line: u32,
    /// Parse problem, if any (empty justification, missing `(...)`).
    pub malformed: Option<String>,
}

/// One file, lexed and annotated, ready for rule matching.
pub(crate) struct FileScan<'a> {
    /// Code tokens only (whitespace and comments stripped).
    pub toks: Vec<Token<'a>>,
    /// Per-token: inside a `#[cfg(test)]` item or `#[test]` fn.
    pub is_test: Vec<bool>,
    /// Per-token: brace `{}` nesting depth *at* the token.
    pub depth: Vec<u32>,
    /// Every `detlint:allow` annotation found in comments.
    pub allows: Vec<Allow>,
    /// Source lines, for finding snippets (index 0 = line 1).
    pub lines: Vec<&'a str>,
}

impl<'a> FileScan<'a> {
    /// Lex and prepare `src` for rule matching.
    pub(crate) fn new(src: &'a str) -> FileScan<'a> {
        let all = lex(src);
        let mut toks = Vec::new();
        for t in &all {
            match t.kind {
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment => {}
                _ => toks.push(*t),
            }
        }
        let depth = depths(&toks);
        let is_test = mark_test_regions(&toks, &depth);
        let allows = collect_allows(&all, &toks);
        FileScan {
            toks,
            is_test,
            depth,
            allows,
            lines: src.lines().collect(),
        }
    }

    /// The trimmed source line `line` (1-based), truncated for display.
    pub(crate) fn snippet(&self, line: u32) -> String {
        let s = self
            .lines
            .get(line as usize - 1)
            .map_or("", |l| l.trim())
            .to_string();
        if s.len() > 100 {
            let mut end = 97;
            while !s.is_char_boundary(end) {
                end -= 1;
            }
            format!("{}...", &s[..end])
        } else {
            s
        }
    }
}

/// Brace nesting depth at each token (the `{` itself sits at the outer
/// depth; tokens after it are one deeper).
fn depths(toks: &[Token<'_>]) -> Vec<u32> {
    let mut out = Vec::with_capacity(toks.len());
    let mut d = 0u32;
    for t in toks {
        match t.text {
            "{" => {
                out.push(d);
                d += 1;
            }
            "}" => {
                d = d.saturating_sub(1);
                out.push(d);
            }
            _ => out.push(d),
        }
    }
    out
}

/// True when the attribute body tokens (between `#[` and `]`) denote test
/// code: `test` itself, or `cfg(test)` / `cfg(all(test, …))`.
fn attr_is_test(body: &[Token<'_>]) -> bool {
    match body.first().map(|t| t.text) {
        Some("test") => true,
        Some("cfg") => body
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "test"),
        _ => false,
    }
}

/// Mark every token inside a `#[cfg(test)]` item or `#[test]` function.
///
/// Strategy: on seeing a test attribute, skip any further attributes, then
/// mark through the end of the next item — its matching `}` if a brace opens
/// first, or the terminating `;` for braceless items (`#[cfg(test)] use x;`).
fn mark_test_regions(toks: &[Token<'_>], depth: &[u32]) -> Vec<bool> {
    let mut test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "#" || toks.get(i + 1).map(|t| t.text) != Some("[") {
            i += 1;
            continue;
        }
        let (body_start, body_end) = match bracket_span(toks, i + 1) {
            Some(span) => span,
            None => break,
        };
        if !attr_is_test(&toks[body_start..body_end]) {
            i = body_end + 1;
            continue;
        }
        // Skip over any further attributes on the same item.
        let mut j = body_end + 1;
        while toks.get(j).map(|t| t.text) == Some("#")
            && toks.get(j + 1).map(|t| t.text) == Some("[")
        {
            match bracket_span(toks, j + 1) {
                Some((_, e)) => j = e + 1,
                None => return test,
            }
        }
        // Mark until the item ends: matching `}` of the first brace opened,
        // or a `;` at the item's own depth before any brace.
        let item_depth = depth.get(j).copied().unwrap_or(0);
        let mut k = j;
        while k < toks.len() {
            test[k] = true;
            if toks[k].text == "{" {
                // Consume to the matching close brace (it sits at
                // `item_depth` again) and stop.
                k += 1;
                while k < toks.len() && !(toks[k].text == "}" && depth[k] == item_depth) {
                    test[k] = true;
                    k += 1;
                }
                if k < toks.len() {
                    test[k] = true;
                }
                break;
            }
            if toks[k].text == ";" && depth[k] == item_depth {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    test
}

/// Token index range `(start, end_exclusive)` of the bracket body whose `[`
/// is at `open`; `None` if unbalanced to EOF.
fn bracket_span(toks: &[Token<'_>], open: usize) -> Option<(usize, usize)> {
    let mut d = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "[" => d += 1,
            "]" => {
                d -= 1;
                if d == 0 {
                    return Some((open + 1, k));
                }
            }
            _ => {}
        }
    }
    None
}

const ALLOW_MARKER: &str = "detlint:allow";

/// Extract `detlint:allow` annotations from comment tokens. `sig` (the
/// significant tokens) decides each allow's target line: a comment sharing
/// its line with code suppresses that line; a comment on its own line
/// suppresses the next line holding code.
fn collect_allows(all: &[Token<'_>], sig: &[Token<'_>]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in all {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // The annotation must *start* the comment (after the `//`/`/*`
        // opener); prose that merely mentions `detlint:allow` — like this
        // sentence — is not an annotation.
        let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix(ALLOW_MARKER) else {
            continue;
        };
        let mut allow = Allow {
            rules: Vec::new(),
            justification: String::new(),
            line: t.line,
            target_line: t.line,
            malformed: None,
        };
        match parse_allow_body(rest) {
            Ok((rules, justification)) => {
                allow.rules = rules;
                allow.justification = justification;
            }
            Err(msg) => allow.malformed = Some(msg),
        }
        let code_on_own_line = sig.iter().any(|s| s.line == t.line);
        if !code_on_own_line {
            // Comment-above style: bind to the next line carrying code.
            allow.target_line = sig
                .iter()
                .map(|s| s.line)
                .find(|&l| l > t.line)
                .unwrap_or(t.line);
        }
        allows.push(allow);
    }
    allows
}

/// Parse `(<rule>[, <rule>…]): <justification>`; both parts are required.
fn parse_allow_body(rest: &str) -> Result<(Vec<String>, String), String> {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("expected `(<rule>)` after detlint:allow".into());
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `(` in detlint:allow".into());
    };
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("no rule named in detlint:allow(...)".into());
    }
    let after = inner[close + 1..].trim_start();
    let Some(justification) = after.strip_prefix(':') else {
        return Err("missing `: <justification>` after detlint:allow(...)".into());
    };
    let justification = justification.trim();
    if justification.is_empty() {
        return Err("empty justification in detlint:allow".into());
    }
    Ok((rules, justification.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let scan = FileScan::new(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn tail() {}\n",
        );
        let unwraps: Vec<bool> = scan
            .toks
            .iter()
            .zip(&scan.is_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true]);
        // Code after the module is back to non-test.
        let tail = scan.toks.iter().position(|t| t.text == "tail").unwrap();
        assert!(!scan.is_test[tail]);
    }

    #[test]
    fn test_attr_fn_is_marked_and_stacked_attrs_skipped() {
        let scan = FileScan::new(
            "#[test]\n#[allow(dead_code)]\nfn t() { a.unwrap(); }\nfn lib() { b.unwrap(); }\n",
        );
        let flags: Vec<bool> = scan
            .toks
            .iter()
            .zip(&scan.is_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let scan = FileScan::new("#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}\n");
        let lib = scan.toks.iter().position(|t| t.text == "lib").unwrap();
        assert!(!scan.is_test[lib]);
        let hm = scan.toks.iter().position(|t| t.text == "HashMap").unwrap();
        assert!(scan.is_test[hm]);
    }

    #[test]
    fn allow_parsing_trailing_and_above() {
        let scan = FileScan::new(
            "let a = 1; // detlint:allow(wall-clock): trailing style\n\
             // detlint:allow(panic-in-serving, lock-hygiene): above style\n\
             let b = 2;\n\
             // detlint:allow(wall-clock) missing colon\n\
             let c = 3;\n",
        );
        assert_eq!(scan.allows.len(), 3);
        assert_eq!(scan.allows[0].target_line, 1);
        assert_eq!(scan.allows[1].target_line, 3);
        assert_eq!(scan.allows[1].rules.len(), 2);
        assert!(scan.allows[2].malformed.is_some());
    }
}
