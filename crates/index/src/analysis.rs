//! Query analysis for the index, allocating one `String` per token — the
//! reference spelling that snippets, reports and tests read.
//!
//! Neither hot path calls it: the index build interns raw token slices
//! straight into the dictionary, lowercasing as it hashes (see
//! `Postings::count_document`), and serving tokenises into the recycled
//! buffers of `QueryScratch::analyze` ([`crate::QueryScratch`]). All three agree
//! exactly on token boundaries, lowercasing and the stopword list
//! (`deepweb_common::text`), which is what keeps both byte-identical to this
//! reference.

use deepweb_common::text::{is_stopword, tokenize};

/// Analyse a user query: stopwords removed (queries are short; stopwords only
/// add noise there), order preserved, duplicates kept. Documents keep their
/// stopwords — BM25's IDF already down-weights them, and dropping them would
/// break phrase-ish queries like "the hague".
pub fn analyze_query(text: &str) -> Vec<String> {
    tokenize(text).filter(|t| !is_stopword(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_drops_stopwords() {
        assert_eq!(analyze_query("the Honda Civic"), vec!["honda", "civic"]);
    }

    #[test]
    fn digits_survive() {
        assert_eq!(
            analyze_query("ford focus 1993"),
            vec!["ford", "focus", "1993"]
        );
    }
}
