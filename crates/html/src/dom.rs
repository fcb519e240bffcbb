//! DOM-lite tree built from the `walker`'s element events.
//!
//! The tree is for the callers that model structure — forms, tables, label
//! association — and it is the reference [`crate::PageFacts`] is tested
//! against. Malformed markup is recovered by the walker, not here.

use crate::tokenizer::OpenTag;
use crate::walker::{walk, Visitor};
use std::borrow::Cow;

/// A DOM node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// An element with attributes and children.
    Element {
        /// Lowercased tag name.
        tag: String,
        /// Attributes in document order.
        attrs: Vec<(String, String)>,
        /// Child nodes.
        children: Vec<Node>,
    },
    /// A text node.
    Text(String),
}

impl Node {
    /// Attribute value, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        match self {
            Node::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str()),
            Node::Text(_) => None,
        }
    }

    /// All attributes in document order (empty slice for text nodes).
    pub fn attrs(&self) -> &[(String, String)] {
        match self {
            Node::Element { attrs, .. } => attrs,
            Node::Text(_) => &[],
        }
    }

    /// Tag name (`None` for text nodes).
    pub fn tag(&self) -> Option<&str> {
        match self {
            Node::Element { tag, .. } => Some(tag),
            Node::Text(_) => None,
        }
    }

    /// Children (empty slice for text nodes).
    pub fn children(&self) -> &[Node] {
        match self {
            Node::Element { children, .. } => children,
            Node::Text(_) => &[],
        }
    }

    /// Concatenated text of this subtree, whitespace-normalised.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        normalize_ws(&out)
    }

    fn collect_text(&self, out: &mut String) {
        match self {
            Node::Text(t) => {
                out.push_str(t);
                out.push(' ');
            }
            Node::Element { tag, children, .. } => {
                if tag == "script" || tag == "style" {
                    return;
                }
                for c in children {
                    c.collect_text(out);
                }
            }
        }
    }

    /// Depth-first pre-order iterator over this subtree (including self).
    pub fn walk(&self) -> Walk<'_> {
        Walk { stack: vec![self] }
    }

    /// First descendant (or self) with tag `tag`.
    pub fn find(&self, tag: &str) -> Option<&Node> {
        self.walk().find(|n| n.tag() == Some(tag))
    }

    /// All descendants (or self) with tag `tag`, in document order.
    pub fn find_all(&self, tag: &str) -> Vec<&Node> {
        self.walk().filter(|n| n.tag() == Some(tag)).collect()
    }
}

/// Pre-order DOM iterator.
pub struct Walk<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = &'a Node;

    fn next(&mut self) -> Option<&'a Node> {
        let node = self.stack.pop()?;
        if let Node::Element { children, .. } = node {
            for c in children.iter().rev() {
                self.stack.push(c);
            }
        }
        Some(node)
    }
}

/// Collapse whitespace runs to single spaces and trim.
pub(crate) fn normalize_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c);
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// A parsed document: a forest of top-level nodes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Document {
    /// Top-level nodes in document order.
    pub roots: Vec<Node>,
}

impl Document {
    /// Parse HTML into a document. Never fails; bad markup degrades.
    pub fn parse(html: &str) -> Document {
        let mut builder = TreeBuilder::default();
        walk(html, &mut builder);
        Document {
            roots: builder.roots,
        }
    }

    /// Pre-order iterator over all nodes.
    pub fn walk(&self) -> impl Iterator<Item = &Node> {
        self.roots.iter().flat_map(|r| r.walk())
    }

    /// All nodes with tag `tag`, in document order.
    pub fn find_all(&self, tag: &str) -> Vec<&Node> {
        self.walk().filter(|n| n.tag() == Some(tag)).collect()
    }

    /// First node with tag `tag`.
    pub fn find(&self, tag: &str) -> Option<&Node> {
        self.walk().find(|n| n.tag() == Some(tag))
    }

    /// Visible text of the whole document.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.collect_text(&mut out);
        }
        normalize_ws(&out)
    }
}

/// Builds the tree: `open` holds the elements still taking children.
#[derive(Default)]
struct TreeBuilder {
    roots: Vec<Node>,
    open: Vec<Node>,
}

impl TreeBuilder {
    fn push_child(&mut self, child: Node) {
        match self.open.last_mut() {
            Some(Node::Element { children, .. }) => children.push(child),
            _ => self.roots.push(child),
        }
    }
}

impl<'a> Visitor<'a> for TreeBuilder {
    fn open(&mut self, tag: &OpenTag<'a>, void: bool) {
        let node = Node::Element {
            tag: tag.name_lower(),
            attrs: tag.owned_attrs(),
            children: Vec::new(),
        };
        if void {
            self.push_child(node);
        } else {
            self.open.push(node);
        }
    }

    fn text(&mut self, text: Cow<'a, str>) {
        if !text.trim().is_empty() {
            self.push_child(Node::Text(text.into_owned()));
        }
    }

    fn raw_text(&mut self, text: &'a str) {
        self.text(Cow::Borrowed(text));
    }

    fn close(&mut self) {
        if let Some(done) = self.open.pop() {
            self.push_child(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting() {
        let d = Document::parse("<div><p>a</p><p>b</p></div>");
        assert_eq!(d.roots.len(), 1);
        assert_eq!(d.roots[0].children().len(), 2);
        assert_eq!(d.text(), "a b");
    }

    #[test]
    fn void_elements_take_no_children() {
        let d = Document::parse("<p>a<br>b</p>");
        let p = d.find("p").unwrap();
        assert_eq!(p.children().len(), 3);
        assert_eq!(p.children()[1].tag(), Some("br"));
        assert!(p.children()[1].children().is_empty());
    }

    #[test]
    fn unmatched_close_ignored() {
        let d = Document::parse("<div>a</span>b</div>");
        // Both text nodes survive (text nodes join with a space).
        assert_eq!(d.text(), "a b");
    }

    #[test]
    fn implicit_close_of_inner_tags() {
        let d = Document::parse("<ul><li>one<li>two</ul>");
        let ul = d.find("ul").unwrap();
        // Second <li> nests under the first (we don't model optional end
        // tags), but both texts survive and the ul closes correctly.
        assert_eq!(ul.text_content(), "one two");
    }

    #[test]
    fn unclosed_at_eof() {
        let d = Document::parse("<div><b>bold");
        assert_eq!(d.text(), "bold");
        assert!(d.find("b").is_some());
    }

    #[test]
    fn find_all_document_order() {
        let d = Document::parse("<a id=1></a><div><a id=2></a></div><a id=3></a>");
        let ids: Vec<_> = d
            .find_all("a")
            .iter()
            .map(|n| n.attr("id").unwrap())
            .collect();
        assert_eq!(ids, vec!["1", "2", "3"]);
    }

    #[test]
    fn text_skips_script_style() {
        let d = Document::parse("<p>x</p><script>var a=1;</script><style>p{}</style>");
        assert_eq!(d.text(), "x");
    }

    #[test]
    fn attr_lookup() {
        let d = Document::parse(r#"<form action="/search" method="get"></form>"#);
        let f = d.find("form").unwrap();
        assert_eq!(f.attr("action"), Some("/search"));
        assert_eq!(f.attr("method"), Some("get"));
        assert_eq!(f.attr("missing"), None);
    }
}
