//! One-pass page facts: what a prober reads off a response, folded straight
//! from the `walker`'s events without building a tree.
//!
//! The visible text is whitespace-normalised as it is appended, and every
//! other textual fact — the title, the first heading, each anchor's label —
//! is a span of it: an element's subtree text is exactly the words appended
//! between its open and its close. Each fact equals what the same read off
//! [`Document::parse`](crate::Document::parse) yields (`tests/fuzz.rs`).

use crate::tokenizer::OpenTag;
use crate::walker::{walk, Visitor};
use std::borrow::Cow;
use std::ops::Range;

/// The facts of one page. Borrows the body for attribute values that need
/// no entity decoding.
#[derive(Debug, Default)]
pub struct PageFacts<'a> {
    /// Visible text: words joined by single spaces.
    text: String,
    /// Byte spans of `text` covered by the elements of interest.
    spans: Vec<Range<usize>>,
    /// Span of the first `<title>`.
    title: Option<usize>,
    /// Span of the first `<h1>`.
    h1: Option<usize>,
    /// Every `<a>` with an `href`, in document order: the first `href`
    /// value and the span of the anchor's subtree.
    anchors: Vec<(Cow<'a, str>, usize)>,
}

impl<'a> PageFacts<'a> {
    /// Read the facts of `html` in one pass.
    pub fn read(html: &'a str) -> Self {
        let mut fold = Fold {
            facts: PageFacts {
                text: String::with_capacity(html.len() / 2),
                ..PageFacts::default()
            },
            depth: 0,
            open: Vec::new(),
        };
        walk(html, &mut fold);
        fold.facts
    }

    /// Text of the first `<title>` (empty when the page has none).
    pub fn title(&self) -> &str {
        self.title.map_or("", |span| self.span_text(span))
    }

    /// Text of the first `<h1>`.
    pub fn h1(&self) -> Option<&str> {
        self.h1.map(|span| self.span_text(span))
    }

    /// `(href, text)` of every `<a>` that has an `href`, in document order.
    /// An outer anchor's text includes that of anchors nested in it.
    pub fn anchors(&self) -> impl Iterator<Item = (&str, &str)> {
        self.anchors
            .iter()
            .map(|(href, span)| (href.as_ref(), self.span_text(*span)))
    }

    /// Visible text of the whole page, whitespace-normalised.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The visible text, in a buffer sized to what it holds.
    pub fn into_text(mut self) -> String {
        self.text.shrink_to_fit();
        self.text
    }

    fn span_text(&self, span: usize) -> &str {
        let words = self
            .spans
            .get(span)
            .and_then(|range| self.text.get(range.clone()))
            .unwrap_or("");
        // A span that starts mid-text starts at the separator.
        words.strip_prefix(' ').unwrap_or(words)
    }
}

/// Visible text of `html`, whitespace-normalised — equal to
/// `Document::parse(html).text()`, without the tree.
pub fn visible_text(html: &str) -> String {
    PageFacts::read(html).into_text()
}

/// Point `first` at `span` unless an earlier element already claimed it.
fn claim_first(first: &mut Option<usize>, span: usize) -> bool {
    first.is_none() && {
        *first = Some(span);
        true
    }
}

/// The visitor that folds a page into its facts.
struct Fold<'a> {
    facts: PageFacts<'a>,
    /// Elements currently open.
    depth: usize,
    /// `(depth, span)` of each open element whose span is still growing.
    open: Vec<(usize, usize)>,
}

impl<'a> Visitor<'a> for Fold<'a> {
    fn open(&mut self, tag: &OpenTag<'a>, void: bool) {
        let facts = &mut self.facts;
        let span = facts.spans.len();
        let wanted = if tag.is("a") {
            let href = tag.attr("href");
            href.map(|href| facts.anchors.push((href, span))).is_some()
        } else if tag.is("title") {
            claim_first(&mut facts.title, span)
        } else {
            tag.is("h1") && claim_first(&mut facts.h1, span)
        };
        if wanted {
            facts.spans.push(facts.text.len()..facts.text.len());
        }
        if !void {
            self.depth += 1;
            if wanted {
                self.open.push((self.depth, span));
            }
        }
    }

    fn text(&mut self, text: Cow<'a, str>) {
        let out = &mut self.facts.text;
        for word in text.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(word);
        }
    }

    /// `script`/`style` bodies are not visible text.
    fn raw_text(&mut self, _text: &'a str) {}

    fn close(&mut self) {
        if let Some(&(depth, span)) = self.open.last() {
            if depth == self.depth {
                self.open.pop();
                if let Some(range) = self.facts.spans.get_mut(span) {
                    range.end = self.facts.text.len();
                }
            }
        }
        self.depth = self.depth.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    #[test]
    fn facts_of_a_results_page() {
        let html = "<html><head><title> Car  search </title></head><body>\
            <h1><b>2</b> results</h1><h1>second</h1>\
            <a href=\"/item?id=7\">Honda &amp; co</a> <a name=top>no href</a>\
            <a href='/results?page=2'>next <i>page</i></a></body></html>";
        let facts = PageFacts::read(html);
        assert_eq!(facts.title(), "Car search");
        assert_eq!(facts.h1(), Some("2 results"));
        let anchors: Vec<_> = facts.anchors().collect();
        assert_eq!(
            anchors,
            vec![
                ("/item?id=7", "Honda & co"),
                ("/results?page=2", "next page")
            ]
        );
        assert_eq!(
            facts.text(),
            "Car search 2 results second Honda & co no href next page"
        );
        assert_eq!(facts.text(), Document::parse(html).text());
    }

    #[test]
    fn absent_facts_read_as_empty() {
        let facts = PageFacts::read("just <b>text</b>");
        assert_eq!(facts.title(), "");
        assert_eq!(facts.h1(), None);
        assert_eq!(facts.anchors().count(), 0);
        assert_eq!(facts.text(), "just text");
        assert_eq!(PageFacts::read("").text(), "");
    }

    #[test]
    fn spans_nest_and_close_by_recovery() {
        // The outer anchor is closed by `</div>`, the inner by the outer's
        // close; the void anchor and the first (self-closing) title are empty.
        let html = "<title/><div><a href=/o>out <a href=/i>in</div> after<a href=/v />x<title>late";
        let facts = PageFacts::read(html);
        assert_eq!(facts.title(), "");
        let anchors: Vec<_> = facts.anchors().collect();
        assert_eq!(anchors, vec![("/o", "out in"), ("/i", "in"), ("/v", "")]);
        assert_eq!(facts.text(), "out in after x late");
    }

    #[test]
    fn raw_text_is_invisible_and_words_never_join_across_tags() {
        let html = "a<script>b</script>c<style>d</style><b>e</b>f 1<2";
        assert_eq!(visible_text(html), "a c e f 1 < 2");
        assert_eq!(visible_text(html), Document::parse(html).text());
    }

    #[test]
    fn href_borrows_unless_it_holds_an_entity() {
        let facts = PageFacts::read("<a href=\"/r?a=1\">x</a><a href=\"/r?a=1&amp;b=2\">y</a>");
        let borrowed: Vec<bool> = facts
            .anchors
            .iter()
            .map(|(href, _)| matches!(href, Cow::Borrowed(_)))
            .collect();
        assert_eq!(borrowed, vec![true, false]);
        assert_eq!(facts.anchors().nth(1), Some(("/r?a=1&b=2", "y")));
    }

    #[test]
    fn into_text_carries_no_slack() {
        let html = format!("<p>{}</p>", "word ".repeat(100));
        let text = PageFacts::read(&html).into_text();
        assert_eq!(text.len(), 499);
        assert_eq!(text.capacity(), text.len());
    }
}
