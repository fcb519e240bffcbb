//! Capture–recapture estimators for deep-web database size (paper §5.2):
//! the "what portion of the site has been surfaced?" open problem, attacked
//! with a standard ecology estimator over record samples drawn by
//! independent probe batches.

/// Lincoln–Petersen estimate of population size from two independent
/// samples: `n1` marks, `n2` recaptures, `m` marked recaptures.
/// Uses the Chapman bias-corrected form; returns `None` when `m == 0` and
/// the samples do not overlap at all (estimate unbounded).
pub(crate) fn lincoln_petersen(n1: usize, n2: usize, m: usize) -> Option<f64> {
    if n1 == 0 || n2 == 0 {
        return None;
    }
    // Chapman estimator is defined even for m = 0 but is then a weak lower
    // bound; callers treat None as "need more probes".
    if m == 0 {
        return None;
    }
    let est = ((n1 + 1) as f64 * (n2 + 1) as f64) / (m + 1) as f64 - 1.0;
    Some(est)
}

/// A coverage statement in the paper's "with probability M%, more than N% of
/// the site's content has been exposed" form, via a conservative normal
/// approximation on the Chapman estimator's variance.
#[derive(Clone, Copy, Debug)]
pub struct CoverageStatement {
    /// Point estimate of coverage (surfaced / estimated total).
    pub coverage: f64,
    /// Lower confidence bound on coverage.
    pub lower_bound: f64,
    /// Confidence level used for the bound.
    pub confidence: f64,
}

/// Build a coverage statement from two probe samples plus the surfaced count.
///
/// Returns `None` when the samples cannot support a statement: no overlap
/// (see [`lincoln_petersen`]), an overlap larger than either sample (`m` is
/// the count of records in *both* batches, so `m > n1` or `m > n2` is a
/// caller bug the variance term must not silently swallow), or a confidence
/// level below the 0.90 floor of the z table.
pub(crate) fn coverage_statement(
    surfaced: usize,
    n1: usize,
    n2: usize,
    m: usize,
    confidence: f64,
) -> Option<CoverageStatement> {
    if m > n1 || m > n2 {
        return None;
    }
    let est = lincoln_petersen(n1, n2, m)?;
    // Chapman variance.
    let var = ((n1 + 1) as f64 * (n2 + 1) as f64 * (n1 - m) as f64 * (n2 - m) as f64)
        / (((m + 1) as f64).powi(2) * (m + 2) as f64);
    let sd = var.sqrt();
    // One-sided z for the requested confidence (rough table; enough for
    // reporting). Levels below the table's floor are refused rather than
    // silently rounded to some other confidence.
    let z = match confidence {
        c if c >= 0.99 => 2.326,
        c if c >= 0.95 => 1.645,
        c if c >= 0.90 => 1.282,
        _ => return None,
    };
    let upper_total = est + z * sd;
    let coverage = (surfaced as f64 / est).min(1.0);
    let lower_bound = (surfaced as f64 / upper_total).min(1.0);
    Some(CoverageStatement {
        coverage,
        lower_bound,
        confidence,
    })
}

/// Content hash of one fetched page, for change detection between refresh
/// rounds (the freshness tier re-probes a site and compares against the
/// fingerprint captured last time; only a changed site is re-surfaced).
/// FxHash with a fixed seed: stable across runs and platforms, so stored
/// fingerprints stay comparable.
pub fn content_hash(html: &str) -> u64 {
    deepweb_common::fxhash64(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lincoln_petersen_textbook() {
        // 100 marked, 100 recaptured, 20 overlap → ~505 (Chapman ≈ 509).
        let est = lincoln_petersen(100, 100, 20).unwrap();
        assert!((est - 485.6).abs() < 5.0, "est={est}");
    }

    #[test]
    fn lp_edge_cases() {
        assert!(lincoln_petersen(0, 10, 0).is_none());
        assert!(lincoln_petersen(10, 10, 0).is_none());
        // Full overlap → estimate ≈ sample size.
        let est = lincoln_petersen(50, 50, 50).unwrap();
        assert!(est < 51.0 && est > 49.0);
    }

    #[test]
    fn coverage_statement_bounds() {
        let s = coverage_statement(400, 100, 100, 20, 0.95).unwrap();
        assert!(s.coverage > 0.5 && s.coverage <= 1.0);
        assert!(s.lower_bound <= s.coverage);
        assert_eq!(s.confidence, 0.95);
    }

    #[test]
    fn coverage_statement_rejects_impossible_overlap() {
        // Regression: `m > n1` or `m > n2` used to underflow `(n1 - m)` /
        // `(n2 - m)` in `usize` (panic in debug, garbage variance in
        // release). The overlap can never exceed either sample size.
        assert!(coverage_statement(400, 10, 100, 30, 0.95).is_none());
        assert!(coverage_statement(400, 100, 10, 30, 0.95).is_none());
        assert!(coverage_statement(400, 5, 5, 6, 0.95).is_none());
        // Boundary: m equal to a sample size is fine (full overlap).
        assert!(coverage_statement(40, 50, 50, 50, 0.95).is_some());
    }

    #[test]
    fn coverage_statement_rejects_unsupported_confidence() {
        // Regression: confidence below the z table used to be silently
        // served with z = 1.0 (~0.84 one-sided) — a bound at the wrong
        // confidence level.
        assert!(coverage_statement(400, 100, 100, 20, 0.5).is_none());
        assert!(coverage_statement(400, 100, 100, 20, 0.89).is_none());
        assert!(coverage_statement(400, 100, 100, 20, f64::NAN).is_none());
        assert!(coverage_statement(400, 100, 100, 20, 0.90).is_some());
    }

    #[test]
    fn content_hashes_detect_change() {
        let a = content_hash("<html>10 listings</html>");
        let b = content_hash("<html>12 listings</html>");
        assert_eq!(a, content_hash("<html>10 listings</html>"));
        assert_ne!(a, b);
    }
}
