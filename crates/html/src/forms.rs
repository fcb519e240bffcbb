//! HTML form extraction: the crawler-side view of a form.
//!
//! This is the raw material the surfacer's `formmodel` works from — names,
//! widget kinds, select options, default values, method and action. Nothing
//! here is semantic; semantics (search box vs typed, ranges, correlations)
//! are inferred downstream, exactly as in the paper.

use crate::dom::{Document, Node};

/// HTTP method of a form.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Submissions encode inputs in the URL — surfaceable.
    Get,
    /// Submissions carry a body — the paper excludes these from surfacing.
    Post,
}

/// The widget kind of one form input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WidgetKind {
    /// `<input type="text">` (free text).
    TextBox,
    /// `<select>` with its option values (first option is the default).
    SelectMenu {
        /// Option values in document order.
        options: Vec<String>,
    },
    /// `<input type="hidden">` with a fixed value.
    Hidden {
        /// The fixed value submitted with the form.
        value: String,
    },
    /// `<input type="checkbox">` with its on-value.
    Checkbox {
        /// Value submitted when checked.
        value: String,
    },
    /// `<input type="password">` — never a surfacing input, but classified
    /// explicitly so hardening can flag password-shaped fields.
    Password,
    /// `<input type="file">` — upload widget, never surfaceable.
    FileUpload,
    /// `<input type="email">` — free text with an address shape.
    Email,
}

/// One named input of a form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtractedInput {
    /// The `name` attribute (submission key).
    pub name: String,
    /// Widget kind.
    pub kind: WidgetKind,
    /// Human label: nearest preceding visible text, lowercased (often the
    /// strongest signal for typed-input recognition).
    pub label: String,
    /// Raw attributes of the widget element in document order. Hardening
    /// inspects these for client-side-only validation (`pattern`,
    /// `maxlength`), event handlers (`on*`), and `autocomplete` misuse.
    pub attrs: Vec<(String, String)>,
}

/// A form as extracted from a page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtractedForm {
    /// Value of the `action` attribute (may be relative).
    pub action: String,
    /// HTTP method (defaults to GET like browsers do).
    pub method: Method,
    /// Inputs in document order (submit buttons excluded). Duplicate names
    /// keep the first occurrence only, so each name maps to exactly one
    /// submission param.
    pub inputs: Vec<ExtractedInput>,
    /// Raw attributes of the `<form>` tag itself (action analysis, `on*`).
    pub attrs: Vec<(String, String)>,
}

impl ExtractedForm {
    /// Input by name.
    pub fn input(&self, name: &str) -> Option<&ExtractedInput> {
        self.inputs.iter().find(|i| i.name == name)
    }
}

/// Extract all forms in `doc`.
pub fn extract_forms(doc: &Document) -> Vec<ExtractedForm> {
    doc.find_all("form").into_iter().map(extract_one).collect()
}

fn extract_one(form: &Node) -> ExtractedForm {
    let action = form.attr("action").unwrap_or("").to_string();
    let method = match form.attr("method").map(str::to_ascii_lowercase).as_deref() {
        Some("post") => Method::Post,
        _ => Method::Get,
    };
    let mut inputs = Vec::new();
    // Walk the form subtree tracking the last visible text seen before each
    // widget — that text is its label.
    let mut last_text = String::new();
    collect_inputs(form, &mut last_text, &mut inputs);
    // Duplicate names would submit duplicate params; keep the first
    // occurrence deterministically (document order). Forms are small, so a
    // linear scan beats a hash set here and keeps this crate free of
    // hash-ordered containers.
    let mut seen: Vec<String> = Vec::new();
    inputs.retain(|i| {
        if seen.contains(&i.name) {
            false
        } else {
            seen.push(i.name.clone());
            true
        }
    });
    ExtractedForm {
        action,
        method,
        inputs,
        attrs: form.attrs().to_vec(),
    }
}

fn collect_inputs(node: &Node, last_text: &mut String, out: &mut Vec<ExtractedInput>) {
    match node {
        Node::Text(t) => {
            let t = t.trim();
            if !t.is_empty() {
                *last_text = t.to_ascii_lowercase();
            }
        }
        Node::Element { tag, children, .. } => {
            match tag.as_str() {
                "input" => {
                    let ty = node.attr("type").unwrap_or("text").to_ascii_lowercase();
                    let name = node.attr("name").unwrap_or("").to_string();
                    if name.is_empty() {
                        return;
                    }
                    let kind = match ty.as_str() {
                        "text" | "search" => Some(WidgetKind::TextBox),
                        "hidden" => Some(WidgetKind::Hidden {
                            value: node.attr("value").unwrap_or("").to_string(),
                        }),
                        "checkbox" => Some(WidgetKind::Checkbox {
                            value: node.attr("value").unwrap_or("on").to_string(),
                        }),
                        "password" => Some(WidgetKind::Password),
                        "file" => Some(WidgetKind::FileUpload),
                        "email" => Some(WidgetKind::Email),
                        // submit / button / radio etc. are not surfacing inputs
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        out.push(ExtractedInput {
                            name,
                            kind,
                            label: last_text.clone(),
                            attrs: node.attrs().to_vec(),
                        });
                    }
                }
                "select" => {
                    let name = node.attr("name").unwrap_or("").to_string();
                    if !name.is_empty() {
                        let options = node
                            .find_all("option")
                            .iter()
                            .map(|o| {
                                o.attr("value")
                                    .map(str::to_string)
                                    .unwrap_or_else(|| o.text_content())
                            })
                            .collect();
                        out.push(ExtractedInput {
                            name,
                            kind: WidgetKind::SelectMenu { options },
                            label: last_text.clone(),
                            attrs: node.attrs().to_vec(),
                        });
                    }
                    return; // don't descend into options as labels
                }
                "textarea" => {
                    let name = node.attr("name").unwrap_or("").to_string();
                    if !name.is_empty() {
                        out.push(ExtractedInput {
                            name,
                            kind: WidgetKind::TextBox,
                            label: last_text.clone(),
                            attrs: node.attrs().to_vec(),
                        });
                    }
                }
                _ => {}
            }
            for c in children {
                collect_inputs(c, last_text, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAR_FORM: &str = r#"
      <form action="/results" method="get">
        Make: <select name="make"><option value="">any</option>
              <option value="honda">Honda</option><option value="ford">Ford</option></select>
        Min Price: <input type="text" name="min_price">
        Max Price: <input type="text" name="max_price">
        Keywords: <input type="search" name="q">
        <input type="hidden" name="lang" value="en">
        <input type="submit" value="Search">
      </form>"#;

    #[test]
    fn extracts_inputs_in_order() {
        let doc = Document::parse(CAR_FORM);
        let forms = extract_forms(&doc);
        assert_eq!(forms.len(), 1);
        let f = &forms[0];
        assert_eq!(f.action, "/results");
        assert_eq!(f.method, Method::Get);
        let names: Vec<_> = f.inputs.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["make", "min_price", "max_price", "q", "lang"]);
    }

    #[test]
    fn select_options_and_default() {
        let doc = Document::parse(CAR_FORM);
        let f = &extract_forms(&doc)[0];
        match &f.input("make").unwrap().kind {
            WidgetKind::SelectMenu { options } => {
                assert_eq!(
                    options,
                    &vec!["".to_string(), "honda".into(), "ford".into()]
                );
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn labels_come_from_preceding_text() {
        let doc = Document::parse(CAR_FORM);
        let f = &extract_forms(&doc)[0];
        assert_eq!(f.input("min_price").unwrap().label, "min price:");
        assert_eq!(f.input("q").unwrap().label, "keywords:");
    }

    #[test]
    fn submit_buttons_excluded_hidden_kept() {
        let doc = Document::parse(CAR_FORM);
        let f = &extract_forms(&doc)[0];
        assert!(f.input("lang").is_some());
        assert!(matches!(
            f.input("lang").unwrap().kind,
            WidgetKind::Hidden { ref value } if value == "en"
        ));
        assert_eq!(f.inputs.len(), 5);
    }

    #[test]
    fn post_method_detected() {
        let doc =
            Document::parse(r#"<form action="/buy" method="POST"><input type=text name=x></form>"#);
        assert_eq!(extract_forms(&doc)[0].method, Method::Post);
    }

    #[test]
    fn nameless_inputs_skipped() {
        let doc = Document::parse(r#"<form action="/s"><input type="text"></form>"#);
        assert!(extract_forms(&doc)[0].inputs.is_empty());
    }

    #[test]
    fn textarea_is_textbox() {
        let doc =
            Document::parse(r#"<form action="/s">Comments <textarea name="c"></textarea></form>"#);
        let f = &extract_forms(&doc)[0];
        assert!(matches!(f.input("c").unwrap().kind, WidgetKind::TextBox));
        assert_eq!(f.input("c").unwrap().label, "comments");
    }

    #[test]
    fn duplicate_names_keep_first() {
        let doc = Document::parse(
            r#"<form action="/s">
              <input type="text" name="q" maxlength="10">
              <input type="hidden" name="q" value="shadow">
              <input type="text" name="other">
              <input type="text" name="other">
            </form>"#,
        );
        let f = &extract_forms(&doc)[0];
        let names: Vec<_> = f.inputs.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["q", "other"]);
        // First occurrence wins: q stays a text box, not the shadowing hidden.
        assert!(matches!(f.input("q").unwrap().kind, WidgetKind::TextBox));
    }

    #[test]
    fn password_file_email_classified() {
        let doc = Document::parse(
            r#"<form action="/s">
              <input type="password" name="pw">
              <input type="file" name="upload">
              <input type="email" name="contact">
              <input type="radio" name="r" value="1">
            </form>"#,
        );
        let f = &extract_forms(&doc)[0];
        assert!(matches!(f.input("pw").unwrap().kind, WidgetKind::Password));
        assert!(matches!(
            f.input("upload").unwrap().kind,
            WidgetKind::FileUpload
        ));
        assert!(matches!(
            f.input("contact").unwrap().kind,
            WidgetKind::Email
        ));
        // Radio still falls through unclassified.
        assert!(f.input("r").is_none());
    }

    #[test]
    fn raw_attrs_preserved_for_hardening() {
        let doc = Document::parse(
            r#"<form action="/s" onsubmit="hijack()">
              <input type="text" name="q" pattern="[0-9]+" maxlength="4" onchange="x()">
            </form>"#,
        );
        let f = &extract_forms(&doc)[0];
        let q = f.input("q").unwrap();
        assert!(q.attrs.iter().any(|(k, v)| k == "pattern" && v == "[0-9]+"));
        assert!(q.attrs.iter().any(|(k, v)| k == "maxlength" && v == "4"));
        assert!(q.attrs.iter().any(|(k, _)| k == "onchange"));
        assert!(f.attrs.iter().any(|(k, _)| k == "onsubmit"));
    }
}
