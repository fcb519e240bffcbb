//! The deep-web site model.
//!
//! A site couples a backing [`Table`] with a [`FormSpec`] describing
//! its search form. The spec is the site's *private* CGI logic: it compiles
//! incoming query parameters into store predicates and renders the form as
//! HTML. The crawler never sees the spec — it sees only rendered HTML — so
//! everything the surfacer "understands" about a form it must infer, exactly
//! as in the paper. The spec doubles as experiment ground truth.

use deepweb_common::ids::SiteId;
use deepweb_common::text::tokenize;
use deepweb_html::FormBuilder;
use deepweb_store::{Conjunction, Predicate, Table, Value};
use std::fmt::Write as _;

/// Content domain of a site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DomainKind {
    /// Used-car classifieds (make/model/price/year/zip).
    UsedCars,
    /// Real-estate listings.
    RealEstate,
    /// Job listings.
    Jobs,
    /// Restaurant guides.
    Restaurants,
    /// Store locators (zip-code only lookup).
    StoreLocator,
    /// Government / NGO portals (the paper's long-tail poster child).
    Government,
    /// Library catalogues.
    Library,
    /// Media search with a database-selection form (paper §4.2).
    MediaSearch,
    /// University faculty directories (the fortuitous-query scenario, §3.2).
    Faculty,
}

impl DomainKind {
    /// Stable lowercase name (used in hostnames).
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::UsedCars => "usedcars",
            DomainKind::RealEstate => "realestate",
            DomainKind::Jobs => "jobs",
            DomainKind::Restaurants => "restaurants",
            DomainKind::StoreLocator => "stores",
            DomainKind::Government => "gov",
            DomainKind::Library => "library",
            DomainKind::MediaSearch => "media",
            DomainKind::Faculty => "faculty",
        }
    }
}

/// What a form input *really* is (ground truth + CGI semantics).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Binding {
    /// Free-keyword search over the whole record.
    KeywordSearch,
    /// A text box for an equality filter on `col`; it accepts values of the
    /// column's schema type.
    TypedText {
        /// Column filtered.
        col: usize,
    },
    /// A select menu over a column's values ("" = no constraint).
    Select {
        /// Column filtered.
        col: usize,
    },
    /// Text box holding the lower bound of a range over `col`.
    RangeMin {
        /// Column bounded.
        col: usize,
    },
    /// Text box holding the upper bound of a range over `col`.
    RangeMax {
        /// Column bounded.
        col: usize,
    },
    /// A fixed hidden value (e.g. interface language).
    Hidden {
        /// The submitted value.
        value: String,
    },
    /// An input the backend ignores entirely (e.g. a "radius" menu on a
    /// store locator) — ground truth for uninformative-input detection.
    Ignored {
        /// Options shown to the user.
        options: Vec<String>,
    },
}

/// One input of a form spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InputSpec {
    /// Submission parameter name.
    pub name: String,
    /// Visible label preceding the widget.
    pub label: String,
    /// Semantics.
    pub binding: Binding,
}

/// Dependent select options (the make→model pattern, filled by JavaScript on
/// real sites; we embed the dependency table in a `<script>` blob that the
/// surfacer's JS emulator can read — paper §4.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DependentOptions {
    /// Name of the controlling select input.
    pub controller: String,
    /// Name of the dependent select input.
    pub dependent: String,
    /// controller value → allowed dependent values.
    pub map: Vec<(String, Vec<String>)>,
}

/// The path every form submits to, and the only one the server answers
/// with results.
pub(crate) const RESULTS_PATH: &str = "/results";

/// A site's search form. It submits to `RESULTS_PATH`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FormSpec {
    /// True for POST forms (not surfaceable; paper §3.2).
    pub post: bool,
    /// Inputs in display order.
    pub inputs: Vec<InputSpec>,
    /// Optional JS-dependent select pair.
    pub dependent: Option<DependentOptions>,
}

/// Result of compiling query parameters against a form spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompiledQuery {
    /// A valid conjunctive query.
    Query(Conjunction),
    /// At least one parameter was an invalid literal → empty result page.
    Invalid,
}

/// How a site lays out its result pages (exercises the extractor).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RenderStyle {
    /// `<table>` with a header row.
    Table,
    /// A `<div class=listing>` per record.
    List,
}

/// A deep-web site.
#[derive(Clone, Debug)]
pub struct Site {
    /// Globally unique id.
    pub id: SiteId,
    /// Host name, e.g. `usedcars-007.sim`.
    pub host: String,
    /// Content domain.
    pub domain: DomainKind,
    /// Language code of the site's text.
    pub language: String,
    /// Filler lexicon in the site's language.
    pub lexicon: Vec<String>,
    /// Backing records. Every form submission is answered by a scan of this
    /// table ([`Table::select_page`]).
    pub table: Table,
    /// The search form.
    pub form: FormSpec,
    /// Results per page.
    pub page_size: usize,
    /// Result layout.
    pub style: RenderStyle,
    /// Whether the site exposes a `/browse` page linking to some records
    /// (making part of its content surface-reachable, paper §2).
    pub browse_links: usize,
    /// Hostile mode: the site serves broken markup and decorates its form
    /// with junk widgets (token hidden, password-named text box, client-side
    /// validation, inline handlers, absolute action). The backend and the
    /// honest inputs are unchanged, so ground truth still holds — a hardened
    /// surfacer should index exactly the honest subset.
    pub hostile: bool,
}

impl Site {
    /// Compile URL query parameters into a store query, mirroring what the
    /// site's CGI backend does. Unknown parameters are ignored; empty values
    /// and "any" select values impose no constraint; unparsable typed values
    /// invalidate the whole query.
    pub fn compile_query(&self, params: &[(String, String)]) -> CompiledQuery {
        let mut preds = Vec::new();
        for (k, v) in params {
            let Some(input) = self.form.inputs.iter().find(|i| &i.name == k) else {
                continue;
            };
            let v = v.trim();
            if v.is_empty() || v == "any" {
                continue;
            }
            match &input.binding {
                Binding::KeywordSearch => {
                    let kws: Vec<String> = tokenize(v).collect();
                    if !kws.is_empty() {
                        preds.push(Predicate::KeywordsAll(kws));
                    }
                }
                Binding::TypedText { col }
                | Binding::Select { col }
                | Binding::RangeMin { col }
                | Binding::RangeMax { col } => {
                    let col = *col;
                    let Some(value) = Value::parse_as(self.table.schema().column(col).ty, v) else {
                        return CompiledQuery::Invalid;
                    };
                    preds.push(match input.binding {
                        Binding::RangeMin { .. } => Predicate::Range {
                            col,
                            min: Some(value),
                            max: None,
                        },
                        Binding::RangeMax { .. } => Predicate::Range {
                            col,
                            min: None,
                            max: Some(value),
                        },
                        _ => Predicate::Eq { col, value },
                    });
                }
                Binding::Hidden { .. } | Binding::Ignored { .. } => {}
            }
        }
        CompiledQuery::Query(Conjunction::new(preds))
    }

    /// The deterministic token-like value a hostile site plants in its
    /// hidden CSRF input (derived from the host, so re-crawls see the same
    /// token — the *value* is stable; the threat is that a naive surfacer
    /// would propagate it into every generated URL).
    pub(crate) fn hostile_token(&self) -> String {
        let h = deepweb_common::fxhash64(&self.host);
        format!("tok{h:016x}{:08x}", (h >> 32) as u32)
    }

    /// Render the search form as HTML (plus the dependency `<script>` blob if
    /// the form has JS-dependent selects).
    pub(crate) fn render_form(&self) -> String {
        // Hostile forms post to an absolute URL (scheme-downgrade shape) and
        // carry an inline submit handler. The action still resolves to this
        // host, so the backend semantics are untouched.
        let action = if self.hostile {
            format!("http://{}{RESULTS_PATH}", self.host)
        } else {
            RESULTS_PATH.to_string()
        };
        let mut fb = if self.form.post {
            FormBuilder::post(&action)
        } else {
            FormBuilder::get(&action)
        };
        if self.hostile {
            let token = self.hostile_token();
            fb = fb
                .form_attr("onsubmit", "return trackAndSubmit(this)")
                .input_with("", "hidden", "csrf_token", &[("value", token.as_str())])
                .input_with(
                    "member pin:",
                    "text",
                    "password",
                    &[("maxlength", "4"), ("autocomplete", "on")],
                )
                .input_with("resume:", "file", "upload", &[])
                .input_with(
                    "promo code:",
                    "text",
                    "promo",
                    &[
                        ("pattern", "[a-z0-9]+"),
                        ("maxlength", "8"),
                        ("onchange", "checkPromo(this)"),
                    ],
                );
        }
        for input in &self.form.inputs {
            fb = match &input.binding {
                Binding::KeywordSearch
                | Binding::TypedText { .. }
                | Binding::RangeMin { .. }
                | Binding::RangeMax { .. } => fb.text_box(&input.label, &input.name),
                Binding::Select { col } => {
                    let depends = self
                        .form
                        .dependent
                        .as_ref()
                        .is_some_and(|d| d.dependent == input.name);
                    let mut options = vec![String::new()];
                    if !depends {
                        options.extend(
                            self.table
                                .distinct_values(*col)
                                .into_iter()
                                .map(|v| v.render())
                                .take(60),
                        );
                    }
                    fb.select(&input.label, &input.name, &options)
                }
                Binding::Ignored { options } => {
                    let mut opts = vec![String::new()];
                    opts.extend(options.iter().cloned());
                    fb.select(&input.label, &input.name, &opts)
                }
                Binding::Hidden { value } => fb.hidden(&input.name, value),
            };
        }
        let mut html = fb.build();
        if let Some(dep) = &self.form.dependent {
            // The declarative dependency table a JS emulator would recover.
            let mut js = String::from("var dependentOptions = {");
            let _ = write!(js, "\"controller\":\"{}\",", dep.controller);
            let _ = write!(js, "\"dependent\":\"{}\",", dep.dependent);
            js.push_str("\"map\":{");
            for (i, (k, vals)) in dep.map.iter().enumerate() {
                if i > 0 {
                    js.push(',');
                }
                let _ = write!(js, "\"{k}\":[");
                for (j, v) in vals.iter().enumerate() {
                    if j > 0 {
                        js.push(',');
                    }
                    let _ = write!(js, "\"{v}\"");
                }
                js.push(']');
            }
            js.push_str("}};");
            let _ = write!(html, "<script>{js}</script>");
        }
        html
    }

    /// Names of inputs that genuinely constrain results (ground truth for
    /// informativeness experiments).
    pub fn effective_inputs(&self) -> Vec<&str> {
        self.form
            .inputs
            .iter()
            .filter(|i| !matches!(i.binding, Binding::Hidden { .. } | Binding::Ignored { .. }))
            .map(|i| i.name.as_str())
            .collect()
    }
}

/// Test fixtures shared across this crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use deepweb_store::{Schema, ValueType};

    /// A three-record used-cars site with one of each input kind.
    pub(crate) fn mini_site(style: RenderStyle) -> Site {
        let schema = Schema::new(vec![
            ("make", ValueType::Text),
            ("year", ValueType::Int),
            ("price", ValueType::Money),
            ("zip", ValueType::Zip),
            ("description", ValueType::Text),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (m, y, p, z, d) in [
            ("honda", 1993, 4500, "94043", "clean honda civic"),
            ("ford", 1998, 3000, "10001", "ford focus runs great"),
            ("honda", 2001, 8000, "94043", "honda accord one owner"),
        ] {
            t.insert(vec![
                Value::Text(m.into()),
                Value::Int(y),
                Value::Money(p * 100),
                Value::Zip(z.into()),
                Value::Text(d.into()),
            ])
            .unwrap();
        }
        Site {
            id: SiteId(0),
            host: "usedcars-000.sim".into(),
            domain: DomainKind::UsedCars,
            language: "en".into(),
            lexicon: vec!["filler".into()],
            table: t,
            form: FormSpec {
                post: false,
                inputs: vec![
                    InputSpec {
                        name: "make".into(),
                        label: "make:".into(),
                        binding: Binding::Select { col: 0 },
                    },
                    InputSpec {
                        name: "min_price".into(),
                        label: "min price:".into(),
                        binding: Binding::RangeMin { col: 2 },
                    },
                    InputSpec {
                        name: "max_price".into(),
                        label: "max price:".into(),
                        binding: Binding::RangeMax { col: 2 },
                    },
                    InputSpec {
                        name: "zip".into(),
                        label: "zip code:".into(),
                        binding: Binding::TypedText { col: 3 },
                    },
                    InputSpec {
                        name: "q".into(),
                        label: "keywords:".into(),
                        binding: Binding::KeywordSearch,
                    },
                    InputSpec {
                        name: "lang".into(),
                        label: String::new(),
                        binding: Binding::Hidden { value: "en".into() },
                    },
                ],
                dependent: None,
            },
            page_size: 10,
            style,
            browse_links: 0,
            hostile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_site() -> Site {
        tests_support::mini_site(RenderStyle::Table)
    }

    fn q(site: &Site, params: &[(&str, &str)]) -> Vec<u32> {
        let params: Vec<(String, String)> = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        match site.compile_query(&params) {
            CompiledQuery::Query(c) => site.table.select(&c).iter().map(|r| r.0).collect(),
            CompiledQuery::Invalid => panic!("unexpected invalid"),
        }
    }

    #[test]
    fn select_and_range_compile() {
        let s = mini_site();
        assert_eq!(q(&s, &[("make", "honda")]), vec![0, 2]);
        assert_eq!(
            q(&s, &[("min_price", "4000"), ("max_price", "9000")]),
            vec![0, 2]
        );
        assert_eq!(q(&s, &[("make", "honda"), ("max_price", "5000")]), vec![0]);
    }

    #[test]
    fn keyword_search_compiles() {
        let s = mini_site();
        assert_eq!(q(&s, &[("q", "runs great")]), vec![1]);
        assert_eq!(q(&s, &[("q", "civic")]), vec![0]);
    }

    #[test]
    fn empty_and_any_values_unconstrained() {
        let s = mini_site();
        assert_eq!(q(&s, &[("make", ""), ("q", "  ")]).len(), 3);
        assert_eq!(q(&s, &[("make", "any")]).len(), 3);
    }

    #[test]
    fn unknown_params_ignored() {
        let s = mini_site();
        assert_eq!(q(&s, &[("bogus", "1"), ("page", "3")]).len(), 3);
    }

    #[test]
    fn invalid_typed_value_invalidates() {
        let s = mini_site();
        let params = vec![("zip".to_string(), "not-a-zip".to_string())];
        assert_eq!(s.compile_query(&params), CompiledQuery::Invalid);
    }

    #[test]
    fn hidden_imposes_no_constraint() {
        let s = mini_site();
        assert_eq!(q(&s, &[("lang", "en")]).len(), 3);
    }

    #[test]
    fn form_roundtrips_through_extractor() {
        let s = mini_site();
        let html = s.render_form();
        let doc = deepweb_html::Document::parse(&html);
        let forms = deepweb_html::extract_forms(&doc);
        assert_eq!(forms.len(), 1);
        let f = &forms[0];
        assert_eq!(f.action, RESULTS_PATH);
        assert_eq!(f.inputs.len(), 6);
        // Select options include distinct makes.
        match &f.input("make").unwrap().kind {
            deepweb_html::WidgetKind::SelectMenu { options } => {
                assert_eq!(
                    options,
                    &vec!["".to_string(), "ford".into(), "honda".into()]
                );
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn dependent_options_render_script() {
        let mut s = mini_site();
        s.form.dependent = Some(DependentOptions {
            controller: "make".into(),
            dependent: "model".into(),
            map: vec![("honda".into(), vec!["civic".into(), "accord".into()])],
        });
        let html = s.render_form();
        assert!(html.contains("dependentOptions"));
        assert!(html.contains("\"honda\":[\"civic\",\"accord\"]"));
    }

    #[test]
    fn hostile_form_carries_junk_widgets_but_same_backend() {
        let mut s = mini_site();
        s.hostile = true;
        let html = s.render_form();
        let doc = deepweb_html::Document::parse(&html);
        let f = &deepweb_html::extract_forms(&doc)[0];
        // Absolute action + inline handler.
        assert!(f.action.starts_with("http://usedcars-000.sim/"));
        assert!(f.attrs.iter().any(|(k, _)| k == "onsubmit"));
        // Junk widgets present in the markup...
        let token = s.hostile_token();
        assert!(token.len() >= 20);
        assert!(matches!(
            &f.input("csrf_token").unwrap().kind,
            deepweb_html::WidgetKind::Hidden { value } if *value == token
        ));
        assert!(f.input("password").is_some());
        assert!(matches!(
            f.input("upload").unwrap().kind,
            deepweb_html::WidgetKind::FileUpload
        ));
        // ...and every honest input still extracted.
        for name in ["make", "min_price", "max_price", "zip", "q", "lang"] {
            assert!(f.input(name).is_some(), "honest input {name} lost");
        }
        // The backend ignores the junk params entirely.
        assert_eq!(
            q(
                &s,
                &[
                    ("csrf_token", "wrong"),
                    ("password", "1234"),
                    ("promo", "x")
                ]
            )
            .len(),
            3
        );
        // Rendering is deterministic.
        assert_eq!(html, s.render_form());
    }

    #[test]
    fn effective_inputs_exclude_hidden() {
        let s = mini_site();
        assert_eq!(
            s.effective_inputs(),
            vec!["make", "min_price", "max_price", "zip", "q"]
        );
    }
}
