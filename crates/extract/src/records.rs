//! Record extraction from surfaced pages (paper §5.1): "extract rows of
//! data from pages that were generated from deep-web sites where the inputs
//! that were filled in order to generate the pages are known."
//!
//! Two extractors are compared in E12:
//!
//! * **Form-aware** — knows the page came from a form submission, uses the
//!   filled input values to locate the record region and name fields.
//! * **Generic** — a page-agnostic table scraper (the baseline): every table
//!   row anywhere becomes a record, field names only when a header exists.

use deepweb_common::FxHashMap;
use deepweb_html::{extract_tables, Document};
use std::collections::BTreeMap;

/// One extracted record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtractedRecord {
    /// `(field, value)` pairs; field may be empty when unnamed.
    pub fields: Vec<(String, String)>,
}

impl ExtractedRecord {
    /// Value of a field.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Generic extraction: all table rows (header names when available) plus
/// listing divs as bag-of-text records. Applied to any page.
pub fn extract_generic(html: &str) -> Vec<ExtractedRecord> {
    let doc = Document::parse(html);
    let mut out = Vec::new();
    for t in extract_tables(&doc) {
        for row in &t.rows {
            let fields = row
                .iter()
                .enumerate()
                .map(|(i, v)| (t.header.get(i).cloned().unwrap_or_default(), v.clone()))
                .collect();
            out.push(ExtractedRecord { fields });
        }
    }
    for node in doc.walk() {
        if node.tag() == Some("div") && node.attr("class") == Some("listing") {
            out.push(ExtractedRecord {
                fields: vec![(String::new(), node.text_content())],
            });
        }
    }
    out
}

/// Form-aware extraction over a *set* of pages surfaced from the same form.
///
/// Uses two pieces of deep-web knowledge the generic extractor lacks:
/// 1. only result regions repeat across sibling pages → keep the repeating
///    structure (table under the results heading / listing divs), not nav
///    tables;
/// 2. the filled input values anchor field naming: a column (or span class)
///    whose values match the submitted value for input `i` is field `i`.
pub fn extract_form_aware(
    pages: &[(String, Vec<(String, String)>)], // (html, filled assignment)
) -> Vec<ExtractedRecord> {
    let mut out = Vec::new();
    for (html, assignment) in pages {
        let doc = Document::parse(html);
        // Listing-div sites: spans carry class=<column name>.
        let mut found_listing = false;
        for node in doc.walk() {
            if node.tag() == Some("div") && node.attr("class") == Some("listing") {
                found_listing = true;
                let mut fields: Vec<(String, String)> = Vec::new();
                // First child link text = primary field.
                if let Some(a) = node.find("a") {
                    fields.push(("primary".to_string(), a.text_content()));
                }
                for child in node.children() {
                    if child.tag() == Some("span") {
                        if let Some(class) = child.attr("class") {
                            fields.push((class.to_string(), child.text_content()));
                        }
                    }
                }
                out.push(ExtractedRecord { fields });
            }
        }
        if found_listing {
            continue;
        }
        // Table sites: use the header, then re-label columns that match the
        // submitted input values with the input name (the form-aware anchor).
        for t in extract_tables(&doc) {
            if t.header.is_empty() || t.rows.is_empty() {
                continue;
            }
            // Skip two-column field/value tables (detail pages).
            if t.header == vec!["field".to_string(), "value".to_string()] {
                continue;
            }
            // Column labelling via assignment anchors: only *unnamed*
            // columns get named after the input whose submitted value fills
            // every cell (named headers are already the best labels).
            let mut labels: Vec<String> = t.header.clone();
            for (input, value) in assignment {
                let vlow = value.to_ascii_lowercase();
                for (c, label) in labels.iter_mut().enumerate() {
                    if !label.is_empty() {
                        continue;
                    }
                    let matches = t
                        .rows
                        .iter()
                        .filter_map(|r| r.get(c))
                        .filter(|cell| cell.to_ascii_lowercase() == vlow)
                        .count();
                    if matches == t.rows.len() && !t.rows.is_empty() {
                        *label = input.clone();
                    }
                }
            }
            for row in &t.rows {
                let fields = row
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (labels.get(i).cloned().unwrap_or_default(), v.clone()))
                    .collect();
                out.push(ExtractedRecord { fields });
            }
        }
    }
    out
}

/// Field-level extraction quality against ground-truth rows.
///
/// `truth` maps record keys (the rendered first column) to full field maps.
/// Returns `(field_tp, field_fp, field_fn)` aggregated over records matched
/// by key.
pub fn field_prf(
    extracted: &[ExtractedRecord],
    truth: &FxHashMap<String, BTreeMap<String, String>>,
) -> deepweb_common::stats::PrecisionRecall {
    let mut pr = deepweb_common::stats::PrecisionRecall::default();
    for rec in extracted {
        // Match by any field value that is a truth key.
        let Some(truth_fields) = rec
            .fields
            .iter()
            .find_map(|(_, v)| truth.get(&v.to_ascii_lowercase()))
        else {
            pr.fp += rec.fields.len();
            continue;
        };
        for (f, v) in &rec.fields {
            match truth_fields.get(f) {
                Some(tv) if tv.eq_ignore_ascii_case(v) => pr.tp += 1,
                _ => pr.fp += 1,
            }
        }
        let extracted_names: Vec<&String> = rec.fields.iter().map(|(f, _)| f).collect();
        pr.fn_ += truth_fields
            .keys()
            .filter(|k| !extracted_names.contains(k))
            .count();
    }
    pr
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESULT_TABLE: &str = r#"<html><body><h1>2 results</h1>
      <table><tr><th>make</th><th>yr</th><th>price</th></tr>
      <tr><td><a href="/item?id=0">honda</a></td><td>1993</td><td>$4500</td></tr>
      <tr><td><a href="/item?id=1">honda</a></td><td>1998</td><td>$3000</td></tr></table>
      </body></html>"#;

    const LISTING_PAGE: &str = r#"<html><body><h1>1 results</h1>
      <div class="listing"><a href="/item?id=0"><b>honda civic</b></a>
      <span class="year">1993</span> <span class="price">$4500</span></div>
      </body></html>"#;

    #[test]
    fn generic_extracts_table_rows() {
        let recs = extract_generic(RESULT_TABLE);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].field("make"), Some("honda"));
        assert_eq!(recs[0].field("yr"), Some("1993"));
    }

    #[test]
    fn form_aware_keeps_named_headers_and_names_unnamed_ones() {
        // Named headers win even when a column matches the submission.
        let pages = vec![(
            RESULT_TABLE.to_string(),
            vec![("make_input".to_string(), "honda".to_string())],
        )];
        let recs = extract_form_aware(&pages);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].field("make"), Some("honda"));
        // An unnamed column whose cells all equal the submitted value gets
        // the input's name.
        let unnamed = r#"<html><body><h1>1 results</h1>
          <table><tr><th></th><th>yr</th></tr>
          <tr><td>honda</td><td>1993</td></tr></table></body></html>"#;
        let pages = vec![(
            unnamed.to_string(),
            vec![("make_input".to_string(), "honda".to_string())],
        )];
        let recs = extract_form_aware(&pages);
        assert_eq!(recs[0].field("make_input"), Some("honda"));
    }

    #[test]
    fn form_aware_reads_listing_spans() {
        let pages = vec![(LISTING_PAGE.to_string(), vec![])];
        let recs = extract_form_aware(&pages);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].field("year"), Some("1993"));
        assert_eq!(recs[0].field("price"), Some("$4500"));
        assert_eq!(recs[0].field("primary"), Some("honda civic"));
    }

    #[test]
    fn generic_treats_listing_as_blob() {
        let recs = extract_generic(LISTING_PAGE);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].fields[0].0, "");
    }

    #[test]
    fn prf_scores_matches() {
        let mut truth: FxHashMap<String, BTreeMap<String, String>> = FxHashMap::default();
        let mut fields = BTreeMap::new();
        fields.insert("make".to_string(), "honda".to_string());
        fields.insert("yr".to_string(), "1993".to_string());
        truth.insert("honda".to_string(), fields);
        let recs = vec![ExtractedRecord {
            fields: vec![
                ("make".to_string(), "honda".to_string()),
                ("yr".to_string(), "1993".to_string()),
            ],
        }];
        let pr = field_prf(&recs, &truth);
        assert_eq!(pr.tp, 2);
        assert_eq!(pr.fp, 0);
        assert_eq!(pr.fn_, 0);
        assert_eq!(pr.f1(), 1.0);
    }
}
