//! Fuzz-grade corpus over the HTML stack (tokenizer → DOM → form extraction).
//!
//! The hostile-web tier depends on one invariant: *no markup, however broken,
//! can panic the parser or silently eat visible text*. These properties run
//! 13,500 deterministic cases per `cargo test` across five generators —
//! arbitrary soup for the tokenizer and parser, structured pages put through
//! a tag-level mutation engine (dropped and duplicated close tags stressing
//! the DOM builder's stack recovery, attribute garbage, unbalanced inline
//! markup, interleaved form nesting, tags truncated at EOF), and byte-level
//! prefix truncation. Mutations edit tags only, never text bytes, so the
//! text-preservation property is exact: every visible word of the clean page
//! must survive in the mangled one.
//!
//! Every case of every generator also checks the one-pass reader against
//! the tree: [`PageFacts`] must equal the same facts read off
//! [`Document::parse`] — title, first heading, anchors, visible text.

use deepweb_html::tokenizer::tokenize;
use deepweb_html::{extract_forms, Document, FormBuilder, PageBuilder, PageFacts};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `PageFacts` == the facts of `html` read the slow way off the tree.
fn facts_equal_tree(html: &str) -> Result<(), TestCaseError> {
    let doc = Document::parse(html);
    let title = doc.find("title").map(|t| t.text_content());
    let h1 = doc.find("h1").map(|h| h.text_content());
    let anchors: Vec<(String, String)> = doc
        .find_all("a")
        .into_iter()
        .filter_map(|a| Some((a.attr("href")?.to_string(), a.text_content())))
        .collect();
    let tree = (title.unwrap_or_default(), h1, anchors, doc.text());

    let facts = PageFacts::read(html);
    let folded = (
        facts.title().to_string(),
        facts.h1().map(str::to_string),
        facts
            .anchors()
            .map(|(href, text)| (href.to_string(), text.to_string()))
            .collect::<Vec<_>>(),
        facts.text().to_string(),
    );
    prop_assert!(
        folded == tree,
        "facts differ on {:?}\n folded: {:?}\n   tree: {:?}",
        html,
        folded,
        tree
    );
    prop_assert_eq!(deepweb_html::visible_text(html), tree.3);
    Ok(())
}

/// A well-formed page exercising every extractor: heading, paragraph text,
/// a GET form (text + select + hidden), a link, and — last, so that a
/// dropped close tag swallows no visible word — invisible raw-text bodies.
fn base_page(words: &[String], opts: &[String]) -> String {
    let text = words.join(" ");
    let mut pb = PageBuilder::new("fuzz page");
    pb.h1("listing search");
    pb.p(&text);
    pb.raw(
        &FormBuilder::get("/results")
            .text_box("query:", "q")
            .select("lang:", "lang", opts)
            .hidden("src", "fuzz")
            .build(),
    );
    pb.link("/about", "about this site");
    pb.raw("<style>p{color:red}</style><script>var hidden=1;</script>");
    pb.build()
}

/// Byte spans of every `<...>` run in `html` (unterminated tail included).
fn tag_spans(html: &str) -> Vec<(usize, usize)> {
    let bytes = html.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            let end = bytes[i..]
                .iter()
                .position(|&b| b == b'>')
                .map(|p| i + p + 1)
                .unwrap_or(bytes.len());
            spans.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// Apply one tag-level mutation per op. Text bytes are never touched.
fn mutate(html: &str, ops: &[u32]) -> String {
    let mut out = html.to_string();
    for &op in ops {
        let spans = tag_spans(&out);
        if spans.is_empty() {
            break;
        }
        let (s, e) = spans[(op as usize / 8) % spans.len()];
        let tag: String = out[s..e].to_string();
        match op % 8 {
            // Drop the tag entirely: a removed close leaves its element
            // unclosed; a removed open leaves a stray close downstream.
            0 => out.replace_range(s..e, ""),
            // Duplicate it: stray second close / nested reopen.
            1 => out.insert_str(e, &tag),
            // Attribute garbage inside an open tag. Quotes stay balanced: an
            // unterminated quote legitimately swallows following text into
            // the attribute value (browsers do the same), which would make
            // text loss correct behaviour rather than a parser bug. The
            // never-panic soup properties cover unterminated quotes.
            2 => {
                if tag.starts_with('<') && !tag.starts_with("</") && !tag.starts_with("<!") {
                    out.insert_str(e.saturating_sub(1), " data-x='a&b' onclick=\"go()\" =junk");
                }
            }
            // Unbalanced inline formatting, never closed.
            3 => out.insert_str(e, "<b><i>"),
            // Stray closes with no matching opens.
            4 => out.insert_str(e, "</p></div></span>"),
            // Interleaved form nesting: a second form opens mid-document...
            5 => out.insert_str(e, "<form action=\"/x\" method=\"get\">"),
            // ...or a form closes that never opened.
            6 => out.insert_str(e, "</form>"),
            // Truncated constructs at EOF: an unterminated comment and an
            // unterminated open tag.
            _ => out.push_str("<!-- cut <div class=\"q"),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn tokenizer_never_panics_on_soup(s in "[<>/a-z0-9 \"'=!&;#-]{0,300}") {
        let toks = tokenize(&s);
        // Sanity, not just absence of panics: retokenizing is stable.
        prop_assert_eq!(tokenize(&s), toks);
        facts_equal_tree(&s)?;
        // The same soup inside the elements the facts are read from.
        facts_equal_tree(&format!(
            "<TITLE>{s}</title><h1>{s}</H1><A HREF=\"/item?id=1\">{s}</a><script>{s}</SCRIPT><a href='{s}'>{s}"
        ))?;
    }

    #[test]
    fn parse_and_extract_never_panic_on_soup(
        a in "[<>/a-z \"'=!-]{0,150}",
        b in "[a-z0-9 =\"'<>&]{0,80}",
    ) {
        // Plain soup, and soup framed by form markup so extraction runs deep.
        for html in [
            a.clone(),
            format!("<form action=\"/r\">{a}<input name={b}><select>{b}</form>"),
            format!("<html><body>{b}<form>{a}"),
        ] {
            let doc = Document::parse(&html);
            let _ = doc.text();
            let _ = extract_forms(&doc);
            facts_equal_tree(&html)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]

    #[test]
    fn mangled_pages_keep_every_visible_word(
        words in prop::collection::vec("[a-z]{1,8}", 1..12),
        opts in prop::collection::vec("[a-z]{1,6}", 1..4),
        ops in prop::collection::vec(0u32..1024, 0..8),
    ) {
        let clean = base_page(&words, &opts);
        let mangled = mutate(&clean, &ops);
        facts_equal_tree(&mangled)?;
        let doc = Document::parse(&mangled);
        let _ = extract_forms(&doc);
        let text = doc.text();
        let clean_text = Document::parse(&clean).text();
        for word in clean_text.split_whitespace() {
            prop_assert!(
                text.contains(word),
                "mangled page lost {:?}\n ops: {:?}\n html: {}",
                word, ops, mangled
            );
        }
    }

    #[test]
    fn interleaved_forms_extract_consistently(
        opts in prop::collection::vec("[a-z]{1,6}", 1..4),
        ops in prop::collection::vec(0u32..1024, 0..8),
    ) {
        let clean = base_page(&["alpha".into(), "beta".into()], &opts);
        let mangled = mutate(&clean, &ops);
        facts_equal_tree(&mangled)?;
        let forms = extract_forms(&Document::parse(&mangled));
        for f in &forms {
            // The keep-first dedup invariant holds on any markup: no form
            // ever reports the same input name twice.
            let mut names: Vec<&str> = f.inputs.iter().map(|i| i.name.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            prop_assert!(
                before == names.len(),
                "duplicate input names in {:?}",
                f.inputs
            );
        }
    }

    #[test]
    fn truncated_pages_never_panic(
        words in prop::collection::vec("[a-z]{1,8}", 1..10),
        cut in 0usize..4096,
    ) {
        let full = base_page(&words, &["en".into(), "fr".into()]);
        let mut end = cut.min(full.len());
        while end > 0 && !full.is_char_boundary(end) {
            end -= 1;
        }
        let prefix = &full[..end];
        let _ = tokenize(prefix);
        let doc = Document::parse(prefix);
        let _ = doc.text();
        let _ = extract_forms(&doc);
        facts_equal_tree(prefix)?;
    }
}
