//! Tokenisation and lightweight text analysis shared by the site renderer,
//! the search index and the surfacer's probing logic.
//!
//! The tokenizer is deliberately simple — lowercase alphanumeric runs — since
//! the synthetic web emits ASCII tokens tagged with language codes (see
//! DESIGN.md §7). What matters is that *both* sides of the pipeline (page
//! rendering and page analysis) agree on token boundaries.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::TermId;
use crate::intern::TermDict;

/// English-ish stopwords that the keyword selectors must not propose as form
/// probes and that the index down-weights.
pub(crate) const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "in", "is", "it", "its",
    "of", "on", "or", "that", "the", "to", "was", "were", "will", "with", "you", "your", "all",
    "any", "per", "page", "results", "result", "search", "next", "prev", "home",
];

/// Returns true if `t` is a stopword.
pub fn is_stopword(t: &str) -> bool {
    STOPWORDS.contains(&t)
}

/// Iterate over the raw (case-preserving) alphanumeric token slices of
/// `text` — the allocation-free half of [`tokenize`]. Every yielded slice is
/// a run of ASCII alphanumerics; callers that need the canonical lowercase
/// form write it into a reusable buffer with [`lower_into`] instead of
/// allocating a `String` per token (the serving hot path does exactly that).
pub fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|s| !s.is_empty())
}

/// Write the canonical (ASCII-lowercased) form of a [`raw_tokens`] slice into
/// `buf`, reusing its capacity: one bulk copy, then in-place lowercasing
/// (exact because raw tokens are ASCII-alphanumeric by construction).
pub fn lower_into(buf: &mut String, raw: &str) {
    buf.clear();
    buf.push_str(raw);
    buf.make_ascii_lowercase();
}

/// Iterate over lowercase alphanumeric tokens of `text`.
///
/// Hyphens and underscores split tokens; digits are kept (prices, years and
/// zip codes are first-class tokens in deep-web pages).
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    raw_tokens(text).map(|s| s.to_ascii_lowercase())
}

/// Tokenize into a vector (convenience for tests and small strings).
pub fn tokens(text: &str) -> Vec<String> {
    tokenize(text).collect()
}

/// Term frequency map of `text`.
pub fn term_frequencies(text: &str) -> FxHashMap<String, u32> {
    let mut tf = FxHashMap::default();
    for t in tokenize(text) {
        *tf.entry(t).or_insert(0) += 1;
    }
    tf
}

/// Incrementally built document-frequency table over a corpus.
///
/// Used for two things: (1) the index's IDF weights, (2) the surfacer's
/// "most characteristic terms of a site" seed selection, which scores a
/// site's terms by TF·IDF against the web-wide background.
///
/// Terms are interned into a [`TermDict`] so the counts live in a flat
/// `Vec<u32>` instead of a string-keyed map — the surfacer's keyword
/// selection probes this table once per candidate term per round, and the
/// lookup is one hash plus an index.
#[derive(Default, Clone, Debug)]
pub struct DfTable {
    docs: u64,
    dict: TermDict,
    df: Vec<u32>,
    seen: FxHashSet<TermId>,
    buf: String,
}

impl DfTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document's distinct terms. Tokens stream through one recycled
    /// lowercase buffer (the same discipline as the query scratch); only a
    /// term's *first ever* appearance allocates, inside the dictionary.
    pub fn add_document(&mut self, text: &str) {
        self.docs += 1;
        self.seen.clear();
        for raw in raw_tokens(text) {
            lower_into(&mut self.buf, raw);
            if is_stopword(&self.buf) {
                continue;
            }
            let id = self.dict.intern(&self.buf);
            if id.as_usize() == self.df.len() {
                self.df.push(0);
            }
            if self.seen.insert(id) {
                self.df[id.as_usize()] += 1;
            }
        }
    }

    /// Number of documents added.
    pub fn num_docs(&self) -> u64 {
        self.docs
    }

    /// Document frequency of `term`.
    pub fn df(&self, term: &str) -> u32 {
        self.dict
            .get(term)
            .map(|id| self.df[id.as_usize()])
            .unwrap_or(0)
    }

    /// Smoothed inverse document frequency of `term`.
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.docs as f64;
        let df = self.df(term) as f64;
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Top-`k` terms of `text` ranked by TF·IDF against this background.
    pub fn characteristic_terms(&self, text: &str, k: usize) -> Vec<String> {
        let tf = term_frequencies(text);
        let mut scored: Vec<(f64, String)> = tf
            .into_iter()
            .filter(|(t, _)| !is_stopword(t) && t.len() > 1)
            .map(|(t, f)| ((f as f64).ln_1p() * self.idf(&t), t))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokens("Used Ford-Focus 1993!"),
            vec!["used", "ford", "focus", "1993"]
        );
    }

    #[test]
    fn tokenize_keeps_digits() {
        assert_eq!(
            tokens("zip 94043, price $1,500"),
            vec!["zip", "94043", "price", "1", "500"]
        );
    }

    #[test]
    fn empty_text_no_tokens() {
        assert!(tokens(" .,!").is_empty());
    }

    #[test]
    fn tf_counts() {
        let tf = term_frequencies("honda civic honda");
        assert_eq!(tf["honda"], 2);
        assert_eq!(tf["civic"], 1);
    }

    #[test]
    fn df_idf_orders_rare_terms_higher() {
        let mut df = DfTable::new();
        df.add_document("the cars are red");
        df.add_document("the cars are blue");
        df.add_document("a rare sigmod award");
        assert!(df.idf("sigmod") > df.idf("cars"));
        assert_eq!(df.num_docs(), 3);
    }

    #[test]
    fn characteristic_terms_prefers_site_specific() {
        let mut df = DfTable::new();
        for _ in 0..50 {
            df.add_document("generic page about the weather and news");
        }
        df.add_document("biographies of csail professors stonebraker");
        let top = df.characteristic_terms("biographies of csail professors stonebraker", 3);
        assert!(top.contains(&"csail".to_string()) || top.contains(&"stonebraker".to_string()));
        assert!(!top.contains(&"the".to_string()));
    }
}
