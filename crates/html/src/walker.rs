//! The open-element-stack walker: the one copy of the recovery rules.
//!
//! [`walk`] drives the [`Lexer`] and turns its flat lexemes into balanced
//! element events for a [`Visitor`]. The rules: void elements (and
//! self-closing tags) never take children; a close tag closes up to its
//! nearest matching open ancestor if one exists, else it is ignored;
//! everything left open at end-of-input is closed implicitly. Every
//! non-void [`Visitor::open`] is therefore paired with exactly one later
//! [`Visitor::close`], innermost first, so a visitor can fold a page in one
//! pass ([`crate::PageFacts`]) or build the tree ([`crate::Document`])
//! without knowing any of this.

use crate::tokenizer::{Lexeme, Lexer, OpenTag};
use std::borrow::Cow;

/// Elements that cannot have children.
const VOID_ELEMENTS: &[&str] = &[
    "br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "wbr",
];

/// Receives a page as balanced element events in document order.
pub(crate) trait Visitor<'a> {
    /// An element starts. A `void` one takes no children and gets no
    /// [`close`](Visitor::close).
    fn open(&mut self, tag: &OpenTag<'a>, void: bool);
    /// Entity-decoded text between tags (may be all whitespace).
    fn text(&mut self, text: Cow<'a, str>);
    /// The verbatim body of the `script`/`style` element just opened.
    fn raw_text(&mut self, text: &'a str);
    /// The innermost open element ends, explicitly or by recovery.
    fn close(&mut self);
}

/// Walk `html`, reporting its elements and text to `visitor`.
pub(crate) fn walk<'a>(html: &'a str, visitor: &mut impl Visitor<'a>) {
    let mut open: Vec<&'a str> = Vec::new();
    for lexeme in Lexer::new(html) {
        match lexeme {
            Lexeme::Text(text) => visitor.text(text),
            Lexeme::RawText(text) => visitor.raw_text(text),
            Lexeme::Comment(_) => {}
            Lexeme::Open(tag) => {
                let void = tag.self_closing || VOID_ELEMENTS.iter().any(|v| tag.is(v));
                visitor.open(&tag, void);
                if !void {
                    open.push(tag.name());
                }
            }
            Lexeme::Close(name) => {
                // No matching open element: a stray close tag, ignored.
                if let Some(pos) = open.iter().rposition(|n| n.eq_ignore_ascii_case(name)) {
                    for _ in open.drain(pos..) {
                        visitor.close();
                    }
                }
            }
        }
    }
    for _ in open {
        visitor.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the events as a bracket string: `(tag`, `tag/`, `)`, `"text"`.
    #[derive(Default)]
    struct Trace(String);

    impl<'a> Visitor<'a> for Trace {
        fn open(&mut self, tag: &OpenTag<'a>, void: bool) {
            let name = tag.name().to_ascii_lowercase();
            self.0 += &if void {
                format!("{name}/ ")
            } else {
                format!("({name} ")
            };
        }
        fn text(&mut self, text: Cow<'a, str>) {
            self.0 += &format!("{text:?} ");
        }
        fn raw_text(&mut self, text: &'a str) {
            self.0 += &format!("raw{text:?} ");
        }
        fn close(&mut self) {
            self.0 += ") ";
        }
    }

    fn trace(html: &str) -> String {
        let mut t = Trace::default();
        walk(html, &mut t);
        t.0.trim_end().to_string()
    }

    #[test]
    fn void_and_self_closing_elements_get_no_close() {
        assert_eq!(trace("<p>a<BR>b<x/></p>"), r#"(p "a" br/ "b" x/ )"#);
    }

    #[test]
    fn close_pops_to_the_nearest_matching_ancestor() {
        assert_eq!(trace("<div><p><b>x</DIV>y"), r#"(div (p (b "x" ) ) ) "y""#);
        // Nearest, not outermost.
        assert_eq!(trace("<i><i>x</i>y"), r#"(i (i "x" ) "y" )"#);
    }

    #[test]
    fn stray_close_is_ignored_and_eof_closes_the_rest() {
        assert_eq!(trace("<div>a</span><b>c"), r#"(div "a" (b "c" ) )"#);
        assert_eq!(trace("</p>"), "");
    }

    #[test]
    fn raw_text_elements_close_like_any_other() {
        assert_eq!(
            trace("<script>1<2</script><style>p{}"),
            r#"(script raw"1<2" ) (style raw"p{}" )"#
        );
        assert_eq!(trace("<!-- c --><!DOCTYPE html>t"), r#""t""#);
    }
}
