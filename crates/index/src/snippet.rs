//! Result snippets: the best window of stored text around query terms.

use crate::analysis::analyze_query;
use deepweb_common::text::tokenize;

/// Extract a snippet of at most `window` tokens centred on the densest match
/// region. Falls back to the text's head when nothing matches.
pub fn snippet(text: &str, query: &str, window: usize) -> String {
    let qterms: Vec<String> = analyze_query(query);
    let tokens: Vec<String> = tokenize(text).collect();
    if tokens.is_empty() || window == 0 {
        return String::new();
    }
    let w = window.min(tokens.len());
    if qterms.is_empty() {
        return tokens.get(..w).unwrap_or_default().join(" ");
    }
    // Score each window start by the number of query-term hits inside it,
    // sliding one token at a time: one leaves, the one `w` later enters.
    let is_hit: Vec<usize> = tokens
        .iter()
        .map(|t| usize::from(qterms.iter().any(|q| q == t)))
        .collect();
    let mut hits: usize = is_hit.iter().take(w).sum();
    let mut best = (hits, 0usize);
    for (start, (&leaves, &enters)) in (1..).zip(is_hit.iter().zip(is_hit.iter().skip(w))) {
        hits = hits - leaves + enters;
        if hits > best.0 {
            best = (hits, start);
        }
    }
    tokens.get(best.1..best.1 + w).unwrap_or_default().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centres_on_match() {
        let text = "aaa bbb ccc ddd honda civic eee fff ggg hhh";
        let s = snippet(text, "honda civic", 4);
        assert!(s.contains("honda civic"), "snippet was {s:?}");
    }

    #[test]
    fn falls_back_to_head() {
        let s = snippet("one two three four five", "zzz", 3);
        assert_eq!(s, "one two three");
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(snippet("", "q", 5), "");
        assert_eq!(snippet("a b c", "q", 0), "");
        assert_eq!(snippet("a b c", "", 2), "a b");
    }

    #[test]
    fn dense_region_beats_sparse() {
        let text = "honda xxx xxx xxx xxx xxx honda civic lx xxx";
        let s = snippet(text, "honda civic", 3);
        assert!(s.contains("civic"));
    }
}
