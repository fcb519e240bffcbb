//! From raw tokens to an analyzable file: the significant-token stream and
//! the `#[cfg(test)]`/`#[test]` regions the rules skip.

use crate::lexer::{lex, Token, TokenKind};

/// One file, lexed and marked, ready for rule matching.
pub(crate) struct FileScan<'a> {
    /// Code tokens only (whitespace and comments stripped).
    pub toks: Vec<Token<'a>>,
    /// Per-token: inside a `#[cfg(test)]` item or `#[test]` fn.
    pub is_test: Vec<bool>,
    /// Source lines, for finding snippets (index 0 = line 1).
    pub lines: Vec<&'a str>,
}

impl<'a> FileScan<'a> {
    /// Lex and prepare `src` for rule matching.
    pub(crate) fn new(src: &'a str) -> FileScan<'a> {
        let toks: Vec<Token<'a>> = lex(src)
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        let is_test = mark_test_regions(&toks);
        FileScan {
            toks,
            is_test,
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
fn mark_test_regions(toks: &[Token<'_>]) -> Vec<bool> {
    let depth = depths(toks);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The test-region flag of each `unwrap` token, in source order.
    fn unwrap_flags(scan: &FileScan<'_>) -> Vec<bool> {
        scan.toks
            .iter()
            .zip(&scan.is_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let scan = FileScan::new(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn tail() {}\n",
        );
        assert_eq!(unwrap_flags(&scan), vec![true]);
        // Code after the module is back to non-test.
        let tail = scan.toks.iter().position(|t| t.text == "tail").unwrap();
        assert!(!scan.is_test[tail]);
    }

    #[test]
    fn test_attr_fn_is_marked_and_stacked_attrs_skipped() {
        let scan =
            FileScan::new("#[test]\n#[inline]\nfn t() { a.unwrap(); }\nfn lib() { b.unwrap(); }\n");
        assert_eq!(unwrap_flags(&scan), vec![true, false]);
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let scan = FileScan::new("#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}\n");
        let lib = scan.toks.iter().position(|t| t.text == "lib").unwrap();
        assert!(!scan.is_test[lib]);
        let hm = scan.toks.iter().position(|t| t.text == "HashMap").unwrap();
        assert!(scan.is_test[hm]);
    }
}
