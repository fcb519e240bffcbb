//! Crawler-side form model.
//!
//! This is what the surfacer knows about a form: only what can be read off
//! the HTML — names, widget kinds, options, method, action — plus the
//! dependent-options table recovered by the "JS emulator" (paper §4.2 notes
//! that a JavaScript emulator exposes make→model style correlations; our
//! emulator is a parser for the declarative `dependentOptions` blob sites
//! embed).
//!
//! A form's action resolves like any href ([`resolve_href`]), so a query
//! string on the action becomes parameters of every submission;
//! [`CrawledForm::submission_url`] renders one, and [`search_form`] is the
//! one "fetch a host's `/search`, model its first form".

use crate::hardening::{
    has_client_validation, is_event_handler, is_password_name, is_token_like, ThreatKind,
};
use crate::probe::resolve_href;
use deepweb_common::Url;
use deepweb_html::{extract_forms, Document, Method, WidgetKind};
use deepweb_webworld::Fetcher;

/// A select's dependent-options table recovered from page JavaScript.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DependentMap {
    /// Controlling input name.
    pub controller: String,
    /// Dependent input name.
    pub dependent: String,
    /// controller value → dependent values.
    pub map: Vec<(String, Vec<String>)>,
}

/// Crawler view of one input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrawledInput {
    /// Parameter name.
    pub name: String,
    /// Nearest preceding label text (lowercased).
    pub label: String,
    /// Widget kind as extracted.
    pub kind: WidgetKind,
    /// Hardening verdict: `Some` when the audit flagged this widget. A
    /// suppressing threat (token, password, file) removes the widget from
    /// probe surface; advisory threats (event handler, client-side
    /// validation) only annotate.
    pub threat: Option<ThreatKind>,
}

impl CrawledInput {
    /// True for free-text widgets.
    pub fn is_text(&self) -> bool {
        matches!(self.kind, WidgetKind::TextBox)
    }

    /// Select options (empty for non-selects), with the empty default
    /// filtered out.
    pub fn options(&self) -> Vec<&str> {
        match &self.kind {
            WidgetKind::SelectMenu { options } => options
                .iter()
                .map(String::as_str)
                .filter(|o| !o.is_empty())
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Crawler view of one form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrawledForm {
    /// Host serving the form.
    pub host: String,
    /// Resolved submission URL (host + action path, plus any parameters the
    /// action's own query string carries).
    pub action_url: Url,
    /// True for POST forms.
    pub post: bool,
    /// Inputs in document order.
    pub inputs: Vec<CrawledInput>,
    /// JS-dependent select pair, if the emulator found one.
    pub dependents: Option<DependentMap>,
    /// Every threat the hardening audit flagged on this form:
    /// `(input name, threat)`, with form-level threats under `"<form>"`.
    pub threats: Vec<(String, ThreatKind)>,
}

impl CrawledForm {
    /// Input by name.
    pub fn input(&self, name: &str) -> Option<&CrawledInput> {
        self.inputs.iter().find(|i| i.name == name)
    }

    /// Hidden `(name, value)` pairs that must ride along on every submission.
    ///
    /// Token-flagged hidden inputs are suppressed: a CSRF/session token in
    /// every generated URL would fork the URL space per crawl and flood the
    /// index with junk.
    pub fn hidden_params(&self) -> Vec<(String, String)> {
        self.inputs
            .iter()
            .filter(|i| i.threat != Some(ThreatKind::HiddenToken))
            .filter_map(|i| match &i.kind {
                WidgetKind::Hidden { value } => Some((i.name.clone(), value.clone())),
                _ => None,
            })
            .collect()
    }

    /// Fillable (probe-able) inputs: non-hidden widgets minus anything the
    /// audit classified as hostile — credential and upload fields, inline
    /// event handlers, and client-side-only validated inputs. Probing a
    /// suppressed widget could only produce junk URLs (the server ignores or
    /// rejects the parameter), and every probe it eats comes out of the
    /// budget honest inputs need. [`ThreatKind::AutocompleteMisuse`] stays
    /// advisory: it marks a data-handling smell, not a junk parameter.
    pub fn fillable_inputs(&self) -> Vec<&CrawledInput> {
        self.inputs
            .iter()
            .filter(|i| !matches!(i.kind, WidgetKind::Hidden { .. }))
            .filter(|i| !Self::suppressing(i))
            .collect()
    }

    fn suppressing(i: &CrawledInput) -> bool {
        matches!(i.kind, WidgetKind::Password | WidgetKind::FileUpload)
            || matches!(
                i.threat,
                Some(
                    ThreatKind::HiddenToken
                        | ThreatKind::PasswordField
                        | ThreatKind::FileInput
                        | ThreatKind::EventHandler
                        | ThreatKind::ClientOnlyValidation
                )
            )
    }

    /// Number of widgets the audit removed from probe surface. Feeds
    /// junk-URL suppression stats.
    pub(crate) fn suppressed_inputs(&self) -> usize {
        self.inputs.iter().filter(|i| Self::suppressing(i)).count()
    }

    /// Build the GET URL a submission would produce (hidden inputs ride
    /// along; assignment order is the form's input order for URL stability).
    pub fn submission_url(&self, assignment: &[(String, String)]) -> Url {
        let mut url = self.action_url.clone();
        for (k, v) in self.hidden_params() {
            url = url.with_param(k, v);
        }
        // Emit in form-input order so the same assignment always yields the
        // same URL string (URL identity = dedup key).
        for input in &self.inputs {
            if let Some((_, v)) = assignment.iter().find(|(k, _)| k == &input.name) {
                if !v.is_empty() {
                    url = url.with_param(input.name.clone(), v.clone());
                }
            }
        }
        url
    }
}

/// Classify one extracted input against the hostile-widget taxonomy.
fn audit_input(i: &deepweb_html::ExtractedInput) -> Option<ThreatKind> {
    match &i.kind {
        WidgetKind::Hidden { value } if is_token_like(value) => {
            return Some(ThreatKind::HiddenToken)
        }
        WidgetKind::Password => return Some(ThreatKind::PasswordField),
        WidgetKind::FileUpload => return Some(ThreatKind::FileInput),
        WidgetKind::TextBox if is_password_name(&i.name) => return Some(ThreatKind::PasswordField),
        _ => {}
    }
    if i.attrs
        .iter()
        .any(|(k, v)| k == "autocomplete" && v == "on" && is_password_name(&i.name))
    {
        return Some(ThreatKind::AutocompleteMisuse);
    }
    if i.attrs.iter().any(|(k, _)| is_event_handler(k)) {
        return Some(ThreatKind::EventHandler);
    }
    if has_client_validation(&i.attrs) {
        return Some(ThreatKind::ClientOnlyValidation);
    }
    None
}

/// Extract every form on a page, resolving actions against `page_url`.
pub fn analyze_page(page_url: &Url, html: &str) -> Vec<CrawledForm> {
    forms_in(page_url, &Document::parse(html))
}

/// The first form on `host`'s `/search` page — where every webworld site
/// keeps its search form. `None` when the page cannot be fetched or carries
/// no form.
pub fn search_form(fetcher: &dyn Fetcher, host: &str) -> Option<CrawledForm> {
    let url = Url::new(host, "/search");
    let html = fetcher.fetch(&url).ok()?.html;
    analyze_page(&url, &html).into_iter().next()
}

/// [`analyze_page`] over an already-parsed page, for callers that read more
/// than the forms off the same [`Document`].
pub fn forms_in(page_url: &Url, doc: &Document) -> Vec<CrawledForm> {
    let dependents = parse_dependent_options(doc);
    extract_forms(doc)
        .into_iter()
        .map(|f| {
            // An empty action submits to the page itself and a bare-relative
            // one is rooted at the host; from there an action resolves like
            // any href, query string included.
            let action = match f.action.as_str() {
                "" => page_url.path.clone(),
                a if a.starts_with('/') || a.starts_with("http://") => a.to_string(),
                a => format!("/{a}"),
            };
            let action_url = resolve_href(page_url, &action)
                .unwrap_or_else(|| Url::new(page_url.host.clone(), "/"));
            let mut threats: Vec<(String, ThreatKind)> = Vec::new();
            // Form-level audit: absolute actions downgrade scheme/host trust,
            // inline handlers can rewrite the submission.
            if f.action.starts_with("http://") {
                threats.push(("<form>".to_string(), ThreatKind::SchemeDowngrade));
            }
            if f.attrs.iter().any(|(k, _)| is_event_handler(k)) {
                threats.push(("<form>".to_string(), ThreatKind::EventHandler));
            }
            let inputs: Vec<CrawledInput> = f
                .inputs
                .iter()
                .map(|i| {
                    let threat = audit_input(i);
                    if let Some(t) = threat {
                        threats.push((i.name.clone(), t));
                    }
                    CrawledInput {
                        name: i.name.clone(),
                        label: i.label.clone(),
                        kind: i.kind.clone(),
                        threat,
                    }
                })
                .collect();
            CrawledForm {
                host: page_url.host.clone(),
                action_url,
                post: f.method == Method::Post,
                inputs,
                dependents: dependents.clone(),
                threats,
            }
        })
        .collect()
}

/// The "JS emulator": recover a `dependentOptions` table from script text.
///
/// Grammar handled (exactly what the simulated sites emit, and a reasonable
/// stand-in for what a real emulator would recover):
/// `var dependentOptions = {"controller":"make","dependent":"model","map":{"honda":["civic",...],...}};`
pub(crate) fn parse_dependent_options(doc: &Document) -> Option<DependentMap> {
    let script = doc
        .find_all("script")
        .iter()
        .map(|s| {
            s.children()
                .iter()
                .filter_map(node_text)
                .collect::<String>()
        })
        .find(|t| t.contains("dependentOptions"))?;
    let controller = capture(&script, "\"controller\":\"", "\"")?;
    let dependent = capture(&script, "\"dependent\":\"", "\"")?;
    let map_body = capture(&script, "\"map\":{", "}}")?;
    let mut map = Vec::new();
    let mut rest = map_body;
    while let Some(k_start) = rest.find('"') {
        let after_key = &rest[k_start + 1..];
        let k_end = after_key.find('"')?;
        let key = after_key[..k_end].to_string();
        let after = &after_key[k_end + 1..];
        let open = after.find('[')?;
        let close = after.find(']')?;
        let vals: Vec<String> = after[open + 1..close]
            .split(',')
            .map(|v| v.trim().trim_matches('"').to_string())
            .filter(|v| !v.is_empty())
            .collect();
        map.push((key, vals));
        rest = after[close + 1..].to_string();
    }
    if map.is_empty() {
        return None;
    }
    Some(DependentMap {
        controller,
        dependent,
        map,
    })
}

fn node_text(n: &deepweb_html::Node) -> Option<String> {
    match n {
        deepweb_html::Node::Text(t) => Some(t.clone()),
        _ => None,
    }
}

fn capture(s: &str, start: &str, end: &str) -> Option<String> {
    let i = s.find(start)? + start.len();
    let j = s[i..].find(end)? + i;
    Some(s[i..j].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"
      <html><body>
      <form action="/results" method="get">
        Make: <select name="make"><option value="">any</option>
          <option value="honda">honda</option></select>
        Model: <select name="model"><option value=""></option></select>
        Keywords: <input type="text" name="q">
        <input type="hidden" name="lang" value="en">
      </form>
      <script>var dependentOptions = {"controller":"make","dependent":"model","map":{"honda":["civic","accord"],"ford":["focus"]}};</script>
      </body></html>"#;

    #[test]
    fn analyze_resolves_action_and_inputs() {
        let url = Url::new("cars.sim", "/search");
        let forms = analyze_page(&url, PAGE);
        assert_eq!(forms.len(), 1);
        let f = &forms[0];
        assert_eq!(f.action_url, Url::new("cars.sim", "/results"));
        assert!(!f.post);
        assert_eq!(f.fillable_inputs().len(), 3);
        assert_eq!(
            f.hidden_params(),
            vec![("lang".to_string(), "en".to_string())]
        );
    }

    #[test]
    fn js_emulator_recovers_dependents() {
        let url = Url::new("cars.sim", "/search");
        let f = &analyze_page(&url, PAGE)[0];
        let dep = f.dependents.as_ref().expect("dependents parsed");
        assert_eq!(dep.controller, "make");
        assert_eq!(dep.dependent, "model");
        assert_eq!(dep.map.len(), 2);
        assert_eq!(
            dep.map[0],
            ("honda".to_string(), vec!["civic".into(), "accord".into()])
        );
    }

    #[test]
    fn options_filter_empty_default() {
        let url = Url::new("cars.sim", "/search");
        let f = &analyze_page(&url, PAGE)[0];
        assert_eq!(f.input("make").unwrap().options(), vec!["honda"]);
        assert!(f.input("model").unwrap().options().is_empty());
    }

    #[test]
    fn page_without_script_has_no_dependents() {
        let url = Url::new("x.sim", "/search");
        let forms = analyze_page(&url, r#"<form action="/r"><input type=text name=q></form>"#);
        assert!(forms[0].dependents.is_none());
    }

    #[test]
    fn empty_action_falls_back_to_page_path() {
        let url = Url::new("x.sim", "/search");
        let forms = analyze_page(&url, r#"<form><input type=text name=q></form>"#);
        assert_eq!(forms[0].action_url, Url::new("x.sim", "/search"));
    }

    #[test]
    fn action_query_string_becomes_params_ahead_of_the_filled_inputs() {
        let url = Url::new("x.sim", "/search");
        let page = r#"<form action="/results?lang=en"><input type=text name=q></form>"#;
        let f = &analyze_page(&url, page)[0];
        assert_eq!(
            f.action_url,
            Url::new("x.sim", "/results").with_param("lang", "en")
        );
        let sub = f.submission_url(&[("q".to_string(), "honda".to_string())]);
        assert_eq!(sub.to_string(), "http://x.sim/results?lang=en&q=honda");
        assert_eq!(Url::parse(&sub.to_string()), Some(sub));
        // A bare-relative action is rooted at the host, query string and all.
        let bare = r#"<form action="results?lang=en"><input type=text name=q></form>"#;
        assert_eq!(analyze_page(&url, bare)[0].action_url, f.action_url);
    }

    #[test]
    fn submission_url_is_deterministic() {
        let f = &analyze_page(&Url::new("cars.sim", "/search"), PAGE)[0];
        // Assignment order must not matter; hidden inputs ride along first.
        let a1 = vec![
            ("make".to_string(), "honda".to_string()),
            ("q".to_string(), "x".to_string()),
        ];
        let mut a2 = a1.clone();
        a2.reverse();
        assert_eq!(f.submission_url(&a1), f.submission_url(&a2));
        assert_eq!(
            f.submission_url(&a1).to_string(),
            "http://cars.sim/results?lang=en&make=honda&q=x"
        );
    }

    const HOSTILE_PAGE: &str = r#"
      <form action="http://evil.sim/results" method="get" onsubmit="steal()">
        <input type="hidden" name="csrf_token" value="AbCdEf0123456789_-xyz9">
        <input type="hidden" name="lang" value="en">
        Search: <input type="text" name="q">
        Pin: <input type="text" name="password" maxlength="4">
        Resume: <input type="file" name="upload">
        Promo: <input type="text" name="promo" pattern="[a-z]+" onchange="x()">
        Contact: <input type="email" name="token_contact" autocomplete="on">
      </form>"#;

    #[test]
    fn token_hidden_inputs_suppressed_from_params() {
        let url = Url::new("evil.sim", "/search");
        let f = &analyze_page(&url, HOSTILE_PAGE)[0];
        // The honest hidden survives; the token does not.
        assert_eq!(
            f.hidden_params(),
            vec![("lang".to_string(), "en".to_string())]
        );
        assert_eq!(
            f.input("csrf_token").unwrap().threat,
            Some(ThreatKind::HiddenToken)
        );
    }

    #[test]
    fn hostile_widgets_not_fillable() {
        let url = Url::new("evil.sim", "/search");
        let f = &analyze_page(&url, HOSTILE_PAGE)[0];
        let fillable: Vec<_> = f.fillable_inputs().iter().map(|i| i.name.clone()).collect();
        // The honest search box and the advisory-only contact field survive;
        // credential, upload and scripted/client-validated widgets do not.
        assert_eq!(fillable, vec!["q", "token_contact"]);
        assert_eq!(
            f.input("password").unwrap().threat,
            Some(ThreatKind::PasswordField)
        );
        assert_eq!(
            f.input("upload").unwrap().threat,
            Some(ThreatKind::FileInput)
        );
        // Event handler outranks client validation in the audit order.
        assert_eq!(
            f.input("promo").unwrap().threat,
            Some(ThreatKind::EventHandler)
        );
        assert_eq!(f.suppressed_inputs(), 4);
    }

    #[test]
    fn advisory_threats_annotate_without_suppressing() {
        let url = Url::new("evil.sim", "/search");
        let f = &analyze_page(&url, HOSTILE_PAGE)[0];
        // Autocomplete misuse is a data-handling smell, not a junk
        // parameter: flagged, still probe-able.
        assert_eq!(
            f.input("token_contact").unwrap().threat,
            Some(ThreatKind::AutocompleteMisuse)
        );
        assert!(f
            .fillable_inputs()
            .iter()
            .any(|i| i.name == "token_contact"));
        // Form-level flags recorded under "<form>".
        assert!(f
            .threats
            .iter()
            .any(|(n, t)| n == "<form>" && *t == ThreatKind::SchemeDowngrade));
        assert!(f
            .threats
            .iter()
            .any(|(n, t)| n == "<form>" && *t == ThreatKind::EventHandler));
    }

    #[test]
    fn honest_forms_unaffected_by_audit() {
        let url = Url::new("cars.sim", "/search");
        let f = &analyze_page(&url, PAGE)[0];
        assert!(f.threats.is_empty());
        assert_eq!(f.suppressed_inputs(), 0);
        assert!(f.inputs.iter().all(|i| i.threat.is_none()));
    }
}
