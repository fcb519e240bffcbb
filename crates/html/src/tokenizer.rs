//! HTML lexer.
//!
//! Crawler-grade rather than spec-grade: it never panics, never loses text,
//! and degrades gracefully on malformed markup (unterminated tags, stray `<`,
//! unquoted attributes). `script`/`style` bodies are treated as raw text, and
//! character references for the five XML-ish entities are decoded.
//!
//! `Lexer` is the one copy of the grammar. It borrows: a `Lexeme` is a
//! handful of slices over the body, tag and attribute names keep their
//! source case and are compared ASCII-case-insensitively in place,
//! attributes are parsed only when a consumer asks (`OpenTag::attrs`), and
//! entity decoding copies only when a `&` is present. [`tokenize`] collects
//! owned copies for callers that want a vector.

use std::borrow::Cow;

/// One owned lexical token (what [`tokenize`] returns).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// `<tag attr="v" ...>`; `self_closing` for `<tag/>`.
    Open {
        /// Lowercased tag name.
        tag: String,
        /// Attributes in document order (names lowercased).
        attrs: Vec<(String, String)>,
        /// True for `<tag ... />`.
        self_closing: bool,
    },
    /// `</tag>`.
    Close {
        /// Lowercased tag name.
        tag: String,
    },
    /// Text between tags, entity-decoded (`script`/`style` bodies verbatim).
    Text(String),
    /// `<!-- ... -->` (content kept for diagnostics).
    Comment(String),
}

/// One borrowed lexical token: slices over the lexed body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Lexeme<'a> {
    /// `<tag attr="v" ...>`.
    Open(OpenTag<'a>),
    /// `</tag>`: the trimmed, non-empty name in source case.
    Close(&'a str),
    /// Non-empty text between tags, entity-decoded.
    Text(Cow<'a, str>),
    /// The verbatim body of a `script`/`style` element.
    RawText(&'a str),
    /// `<!-- ... -->` content.
    Comment(&'a str),
}

impl From<Lexeme<'_>> for Token {
    fn from(lexeme: Lexeme<'_>) -> Token {
        match lexeme {
            Lexeme::Open(tag) => Token::Open {
                tag: tag.name_lower(),
                attrs: tag.owned_attrs(),
                self_closing: tag.self_closing,
            },
            Lexeme::Close(name) => Token::Close {
                tag: name.to_ascii_lowercase(),
            },
            Lexeme::Text(text) => Token::Text(text.into_owned()),
            Lexeme::RawText(text) => Token::Text(text.to_string()),
            Lexeme::Comment(text) => Token::Comment(text.to_string()),
        }
    }
}

/// An open tag: its name and the unparsed byte span of its attributes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct OpenTag<'a> {
    name: &'a str,
    attrs: &'a str,
    /// True for `<tag ... />` (a `/` anywhere among the attributes of a tag
    /// that is terminated by `>`).
    pub self_closing: bool,
}

impl<'a> OpenTag<'a> {
    /// Lex the open tag at the start of `s` (`<` then an ASCII letter);
    /// returns it with the number of bytes it spans.
    fn lex(s: &'a str) -> (OpenTag<'a>, usize) {
        let after_lt = s.get(1..).unwrap_or("");
        let name_len = after_lt
            .bytes()
            .position(|b| !(b.is_ascii_alphanumeric() || b == b'-'))
            .unwrap_or(after_lt.len());
        let (name, rest) = after_lt.split_at(name_len);
        let mut scan = Attrs::new(rest);
        scan.by_ref().for_each(drop);
        let tag = OpenTag {
            name,
            attrs: &rest[..scan.pos],
            // An unterminated tag is never self-closing.
            self_closing: scan.slash && scan.closed,
        };
        (tag, 1 + name_len + scan.pos)
    }

    /// Tag name in source case.
    pub(crate) fn name(&self) -> &'a str {
        self.name
    }

    /// Tag name lowercased.
    pub(crate) fn name_lower(&self) -> String {
        self.name.to_ascii_lowercase()
    }

    /// True if this tag is `name` (ASCII-case-insensitively).
    pub(crate) fn is(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
    }

    /// `(name, value)` pairs in document order: names in source case,
    /// values not yet entity-decoded.
    pub(crate) fn attrs(&self) -> Attrs<'a> {
        Attrs::new(self.attrs)
    }

    /// Decoded value of the first attribute called `name`.
    pub(crate) fn attr(&self, name: &str) -> Option<Cow<'a, str>> {
        self.attrs()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| decode_entities(v))
    }

    /// Attributes as owned pairs: names lowercased, values decoded.
    pub(crate) fn owned_attrs(&self) -> Vec<(String, String)> {
        self.attrs()
            .map(|(k, v)| (k.to_ascii_lowercase(), decode_entities(v).into_owned()))
            .collect()
    }

    fn is_raw_text(&self) -> bool {
        self.is("script") || self.is("style")
    }
}

/// The attribute grammar, as an iterator over what follows a tag's name.
///
/// The lexer drives it once to find where the tag ends; consumers drive it
/// again over the recorded span when they want the pairs. Attributes with
/// an empty name (`=junk`) are consumed but not yielded.
#[derive(Clone, Debug)]
pub(crate) struct Attrs<'a> {
    s: &'a str,
    pos: usize,
    slash: bool,
    closed: bool,
}

impl<'a> Attrs<'a> {
    fn new(s: &'a str) -> Self {
        Attrs {
            s,
            pos: 0,
            slash: false,
            closed: false,
        }
    }

    /// Advance while `keep` holds; returns the span passed over.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let rest = &self.s[self.pos..];
        let len = rest.bytes().position(|b| !keep(b)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        while !self.closed {
            self.take_while(|b| b.is_ascii_whitespace());
            match self.peek()? {
                b'>' => {
                    self.pos += 1;
                    self.closed = true;
                }
                b'/' => {
                    self.slash = true;
                    self.pos += 1;
                }
                _ => {
                    let name = self.take_while(|b| {
                        !b.is_ascii_whitespace() && b != b'=' && b != b'>' && b != b'/'
                    });
                    self.take_while(|b| b.is_ascii_whitespace());
                    let mut value = "";
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        self.take_while(|b| b.is_ascii_whitespace());
                        value = match self.peek() {
                            Some(quote @ (b'"' | b'\'')) => {
                                self.pos += 1;
                                let quoted = self.take_while(|b| b != quote);
                                // Step over the closing quote, if any.
                                self.pos = (self.pos + 1).min(self.s.len());
                                quoted
                            }
                            _ => self.take_while(|b| !b.is_ascii_whitespace() && b != b'>'),
                        };
                    }
                    if !name.is_empty() {
                        return Some((name, value));
                    }
                }
            }
        }
        None
    }
}

/// Decode `&amp; &lt; &gt; &quot; &#39;/&apos;` and numeric references.
/// Borrows when `s` holds no `&`.
pub(crate) fn decode_entities(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp + 1..];
        // Every decodable name is alphanumerics, `#` and `+`, so the
        // terminating `;` is looked for no further than the name could run.
        let name_len = tail
            .bytes()
            .position(|b| !(b.is_ascii_alphanumeric() || b == b'#' || b == b'+'))
            .unwrap_or(tail.len());
        let decoded = match tail.as_bytes().get(name_len) {
            Some(b';') => decode_entity(&tail[..name_len]),
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &tail[name_len + 1..];
            }
            None => {
                // Not an entity: the `&` is literal.
                out.push('&');
                rest = tail;
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

fn decode_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => name
            .strip_prefix('#')
            .and_then(|n| n.parse::<u32>().ok())
            .and_then(char::from_u32),
    }
}

/// Byte offset in `s` of the first `</name` (name ASCII-case-insensitive,
/// as a prefix: `</scriptx` closes `script`).
fn find_raw_close(s: &str, name: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = s[from..].find("</") {
        let at = from + p;
        let head = s.as_bytes().get(at + 2..at + 2 + name.len());
        if head.is_some_and(|head| head.eq_ignore_ascii_case(name.as_bytes())) {
            return Some(at);
        }
        from = at + 2;
    }
    None
}

/// What the lexer emits next.
#[derive(Clone, Copy, Debug)]
enum State<'a> {
    /// Ordinary markup.
    Data,
    /// Just after a `script`/`style` open tag (its name): raw text follows.
    RawText(&'a str),
    /// Just after a raw-text body whose close tag was found and stepped over.
    RawClose(&'a str),
}

/// Borrowing lexer over an HTML body.
#[derive(Clone, Debug)]
pub(crate) struct Lexer<'a> {
    html: &'a str,
    pos: usize,
    state: State<'a>,
}

impl<'a> Lexer<'a> {
    /// Lex `html` from its start.
    pub(crate) fn new(html: &'a str) -> Self {
        Lexer {
            html,
            pos: 0,
            state: State::Data,
        }
    }

    /// The raw-text rule: everything up to the element's close tag is one
    /// verbatim text; without a close tag, or with one that never reaches
    /// its `>`, the rest of the input is consumed.
    fn raw_text(&mut self, name: &'a str) -> Option<Lexeme<'a>> {
        let rest = &self.html[self.pos..];
        let Some(p) = find_raw_close(rest, name) else {
            self.pos = self.html.len();
            return Some(Lexeme::RawText(rest));
        };
        let closed = rest[p..].find('>');
        self.pos = closed.map_or(self.html.len(), |q| self.pos + p + q + 1);
        if p > 0 {
            if closed.is_some() {
                self.state = State::RawClose(name);
            }
            Some(Lexeme::RawText(&rest[..p]))
        } else {
            closed.map(|_| Lexeme::Close(name))
        }
    }

    /// Ordinary markup: the next lexeme at `pos`.
    fn data(&mut self) -> Option<Lexeme<'a>> {
        while self.pos < self.html.len() {
            let rest = &self.html[self.pos..];
            if !rest.starts_with('<') {
                let len = rest.find('<').unwrap_or(rest.len());
                self.pos += len;
                return Some(Lexeme::Text(decode_entities(&rest[..len])));
            }
            if let Some(body) = rest.strip_prefix("<!--") {
                // An unterminated comment swallows the rest.
                let (len, end) = match body.find("-->") {
                    Some(e) => (e, self.pos + 4 + e + 3),
                    None => (body.len(), self.html.len()),
                };
                self.pos = end;
                return Some(Lexeme::Comment(&body[..len]));
            }
            if rest.starts_with("<!") {
                // Doctype or other declaration: skip to '>'.
                self.pos += rest.find('>').map_or(rest.len(), |p| p + 1);
            } else if let Some(after) = rest.strip_prefix("</") {
                // A close tag that never reaches its '>' ends the input.
                let Some(p) = after.find('>') else {
                    self.pos = self.html.len();
                    break;
                };
                self.pos += 2 + p + 1;
                let name = after[..p].trim();
                if !name.is_empty() {
                    return Some(Lexeme::Close(name));
                }
            } else if rest
                .as_bytes()
                .get(1)
                .is_some_and(|b| b.is_ascii_alphabetic())
            {
                let (tag, len) = OpenTag::lex(rest);
                self.pos += len;
                if tag.is_raw_text() && !tag.self_closing {
                    self.state = State::RawText(tag.name);
                }
                return Some(Lexeme::Open(tag));
            } else {
                // '<' that does not start a tag: literal text.
                self.pos += 1;
                return Some(Lexeme::Text(Cow::Borrowed(&rest[..1])));
            }
        }
        None
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Lexeme<'a>;

    fn next(&mut self) -> Option<Lexeme<'a>> {
        match std::mem::replace(&mut self.state, State::Data) {
            State::Data => self.data(),
            State::RawText(name) => self.raw_text(name),
            State::RawClose(name) => Some(Lexeme::Close(name)),
        }
    }
}

/// Tokenize `html` into a vector of owned tokens.
pub fn tokenize(html: &str) -> Vec<Token> {
    Lexer::new(html).map(Token::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tags_and_text() {
        let toks = tokenize("<p>Hello</p>");
        assert_eq!(
            toks,
            vec![
                Token::Open {
                    tag: "p".into(),
                    attrs: vec![],
                    self_closing: false
                },
                Token::Text("Hello".into()),
                Token::Close { tag: "p".into() },
            ]
        );
    }

    #[test]
    fn attributes_quoted_and_unquoted() {
        let toks = tokenize(r#"<input type="text" name=q value='a b' disabled>"#);
        match &toks[0] {
            Token::Open { tag, attrs, .. } => {
                assert_eq!(tag, "input");
                assert_eq!(
                    attrs,
                    &vec![
                        ("type".to_string(), "text".to_string()),
                        ("name".to_string(), "q".to_string()),
                        ("value".to_string(), "a b".to_string()),
                        ("disabled".to_string(), String::new()),
                    ]
                );
            }
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let toks = tokenize(r#"<a title="a &amp; b">x &lt; y &#169;</a>"#);
        match &toks[0] {
            Token::Open { attrs, .. } => assert_eq!(attrs[0].1, "a & b"),
            t => panic!("unexpected {t:?}"),
        }
        assert_eq!(toks[1], Token::Text("x < y \u{a9}".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize("<!DOCTYPE html><!-- hi --><b>x</b>");
        assert_eq!(toks[0], Token::Comment(" hi ".into()));
        assert!(matches!(&toks[1], Token::Open { tag, .. } if tag == "b"));
    }

    #[test]
    fn script_is_raw_text() {
        let toks = tokenize("<script>if (a<b) {}</script><p>t</p>");
        assert_eq!(toks[1], Token::Text("if (a<b) {}".into()));
        assert_eq!(
            toks[2],
            Token::Close {
                tag: "script".into()
            }
        );
    }

    #[test]
    fn malformed_never_panics() {
        for s in [
            "<",
            "<>",
            "< p>",
            "<a href=",
            "<b",
            "</",
            "<!-- unterminated",
            "a < b",
        ] {
            let _ = tokenize(s);
        }
    }

    #[test]
    fn self_closing() {
        let toks = tokenize("<br/><img src=x />");
        assert!(matches!(
            &toks[0],
            Token::Open {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(&toks[1], Token::Open { tag, self_closing: true, .. } if tag == "img"));
    }

    fn open(tag: &str) -> Token {
        Token::Open {
            tag: tag.into(),
            attrs: vec![],
            self_closing: false,
        }
    }

    fn close(tag: &str) -> Token {
        Token::Close { tag: tag.into() }
    }

    fn text(t: &str) -> Token {
        Token::Text(t.into())
    }

    #[test]
    fn raw_text_close_is_case_insensitive() {
        assert_eq!(
            tokenize("<script>a<b</ScRiPt >x"),
            vec![open("script"), text("a<b"), close("script"), text("x")]
        );
        assert_eq!(
            tokenize("<STYLE>p{}</style>x"),
            vec![open("style"), text("p{}"), close("style"), text("x")]
        );
    }

    #[test]
    fn raw_text_close_matches_as_a_prefix() {
        // `</scriptx>` closes `script`; a close of another element does not.
        assert_eq!(
            tokenize("<script>a</p></scriptx>y"),
            vec![open("script"), text("a</p>"), close("script"), text("y")]
        );
    }

    #[test]
    fn raw_text_close_without_gt_ends_the_input() {
        assert_eq!(
            tokenize("<script>a</script <p>lost"),
            vec![open("script"), text("a"), close("script"), text("lost")]
        );
        assert_eq!(
            tokenize("<script>a</script"),
            vec![open("script"), text("a")]
        );
        assert_eq!(tokenize("<script></script"), vec![open("script")]);
    }

    #[test]
    fn raw_text_without_close_takes_the_rest() {
        assert_eq!(
            tokenize("<style>a <p>b</p>"),
            vec![open("style"), text("a <p>b</p>")]
        );
        // Even when the rest is empty.
        assert_eq!(tokenize("<script>"), vec![open("script"), text("")]);
        // A self-closing raw-text tag has no body.
        assert_eq!(
            tokenize("<script/>a</script>"),
            vec![
                Token::Open {
                    tag: "script".into(),
                    attrs: vec![],
                    self_closing: true
                },
                text("a"),
                close("script")
            ]
        );
    }

    #[test]
    fn unclosed_script_opens_lex_in_linear_time() {
        // 20k unclosed opens: a copy of the rest of the document per open
        // would move 1.6 GB here.
        let hostile = "<script>".repeat(20_000);
        assert_eq!(tokenize(&hostile).len(), 2);
    }

    #[test]
    fn attrs_parse_lazily_from_the_tag_span() {
        let mut lexer = Lexer::new(r#"<A HREF="/x?a=1&amp;b=2" id=k href=/y>t"#);
        let Some(Lexeme::Open(tag)) = lexer.next() else {
            panic!("open tag expected");
        };
        assert!(tag.is("a") && tag.name() == "A");
        assert_eq!(tag.attr("href").as_deref(), Some("/x?a=1&b=2"));
        assert!(matches!(tag.attr("id"), Some(Cow::Borrowed("k"))));
        assert_eq!(tag.attr("missing"), None);
        assert_eq!(lexer.next(), Some(Lexeme::Text(Cow::Borrowed("t"))));
    }

    #[test]
    fn unterminated_tag_is_never_self_closing() {
        assert!(matches!(
            &tokenize("<br/")[0],
            Token::Open {
                self_closing: false,
                ..
            }
        ));
    }

    #[test]
    fn entity_edge_cases() {
        assert_eq!(
            decode_entities("a &amp b; &#x41; &; &#65;&"),
            "a &amp b; &#x41; &; A&"
        );
        assert_eq!(decode_entities("&&&&lt;"), "&&&<");
        assert!(matches!(decode_entities("plain"), Cow::Borrowed("plain")));
    }
}
