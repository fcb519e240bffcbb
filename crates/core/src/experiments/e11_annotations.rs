//! E11 — annotation-aware serving (paper §5.1): the "used ford focus 1993"
//! scenario. A Honda page whose free text mentions "ford focus" is a
//! plausible IR hit; structured annotations (the inputs that generated the
//! page) fix the ranking.

use super::Scale;
use crate::report::{pct, TextTable};
use crate::system::{quick_config, DeepWebSystem};
use deepweb_index::{search, SearchOptions};
use deepweb_webworld::{vocab, DomainKind};

/// Key numbers.
#[derive(Clone, Copy, Debug)]
pub struct AnnotationResult {
    /// Queries evaluated.
    pub queries: usize,
    /// Top-1 make-conflicts without annotations.
    pub fp_plain: usize,
    /// Top-1 make-conflicts with annotations.
    pub fp_annotated: usize,
}

/// Run E11: query "used {make} {model} {year}" (the paper's query shape —
/// the year is what makes exact matches rare enough for a cross-make remark
/// to win) and count top-1 hits whose `make` annotation names a *different*
/// make.
pub fn run(scale: Scale) -> (Vec<TextTable>, AnnotationResult) {
    let mut cfg = quick_config(scale.pick(10, 30));
    cfg.web.post_fraction = 0.0;
    cfg.web.domain_weights = vec![(DomainKind::UsedCars, 1.0)];
    let sys = DeepWebSystem::build(&cfg);

    let plain = SearchOptions {
        use_annotations: false,
        ..Default::default()
    };
    let annotated = SearchOptions {
        use_annotations: true,
        ..Default::default()
    };

    let mut queries = 0usize;
    let mut fp_plain = 0usize;
    let mut fp_annotated = 0usize;
    for (make, models) in vocab::car_makes() {
        for model in models {
            for year in [1992, 1999, 2005] {
                let q = format!("used {make} {model} {year}");
                // A top-1 hit is a conflict iff it carries a make annotation
                // naming a different make. A non-annotated top-1 (e.g. a review
                // page) is not a conflict — that is the fixed outcome.
                let conflict = |opts: SearchOptions| -> Option<bool> {
                    let hits = search(&sys.index, &q, 1, opts);
                    let top = hits.first()?;
                    let doc = sys.index.doc(top.doc)?;
                    Some(
                        doc.annotations
                            .iter()
                            .any(|a| a.key == "make" && a.value != make),
                    )
                };
                // Denominator: queries the plain mode answered at all.
                if let Some(p) = conflict(plain) {
                    queries += 1;
                    fp_plain += usize::from(p);
                    fp_annotated += usize::from(conflict(annotated).unwrap_or(false));
                }
            }
        }
    }

    let mut t = TextTable::new(
        "E11: structured annotations at serve time (paper's 'used ford focus 1993' example)",
        &[
            "scoring",
            "queries",
            "top-1 make conflicts",
            "false-positive rate",
        ],
    );
    t.row(&[
        "plain BM25".into(),
        queries.to_string(),
        fp_plain.to_string(),
        pct(fp_plain as f64 / queries.max(1) as f64),
    ]);
    t.row(&[
        "annotation-aware".into(),
        queries.to_string(),
        fp_annotated.to_string(),
        pct(fp_annotated as f64 / queries.max(1) as f64),
    ]);

    (
        vec![t],
        AnnotationResult {
            queries,
            fp_plain,
            fp_annotated,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_do_not_increase_false_positives() {
        let (_, r) = run(Scale::Smoke);
        assert!(
            r.queries > 5,
            "need make/model queries answered, got {}",
            r.queries
        );
        assert!(
            r.fp_annotated <= r.fp_plain,
            "annotated {} vs plain {}",
            r.fp_annotated,
            r.fp_plain
        );
    }
}
