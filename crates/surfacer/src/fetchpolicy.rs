//! The retry discipline for a hostile web.
//!
//! Real deep-web hosts time out, throw transient 500s, and rate-limit; the
//! surfacer has to distinguish "try again" from "give up" or it either loses
//! coverage to one flaky response or loops forever on a dead endpoint. This
//! layer classifies failures off the preserved HTTP status and retries only
//! transient ones, at most [`MAX_RETRIES`] times per fetch, tallying each
//! fetch on the same [`ProbeStats`] record a [`Prober`](crate::Prober) keeps.
//!
//! Determinism contract: the retry loop consumes no randomness and no wall
//! clock, so two runs with the same fetcher behavior make byte-identical
//! decisions.

use crate::probe::ProbeStats;
use deepweb_common::Url;
use deepweb_common::{Error, Result};
use deepweb_webworld::{Fetcher, Response};

/// Retries after the first attempt of one fetch. Every fetch the surfacer
/// makes — crawl, probing, surfacing, refresh — runs under this one bound.
pub const MAX_RETRIES: u32 = 3;

/// Whether a failed fetch is worth retrying. 408 (request timeout — also how
/// the fault injector encodes simulated socket timeouts), 429 and the
/// retryable 5xx family are transient; every other status (including 404/405
/// from the simulated servers) and every non-HTTP error (bad URL, config) is
/// permanent.
fn is_transient(err: &Error) -> bool {
    matches!(
        err,
        Error::Http {
            status: 408 | 429 | 500 | 502 | 503 | 504,
            ..
        }
    )
}

/// Fetch `url`, retrying transient failures until success, a permanent
/// failure, or [`MAX_RETRIES`] retries. Returns the final result plus the
/// fetch's own tally (at most one permanent failure).
pub fn fetch_with_retries(fetcher: &dyn Fetcher, url: &Url) -> (Result<Response>, ProbeStats) {
    let mut tally = ProbeStats::default();
    loop {
        let err = match fetcher.fetch(url) {
            Ok(resp) => return (Ok(resp), tally),
            Err(err) => err,
        };
        if !is_transient(&err) {
            tally.permanent_failures += 1;
            return (Err(err), tally);
        }
        tally.transient_failures += 1;
        if tally.retries == u64::from(MAX_RETRIES) {
            return (Err(err), tally);
        }
        tally.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_webworld::http_error;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Fails the first `fail_first` fetches with `error`, then succeeds.
    struct Flaky {
        fail_first: u32,
        error: Error,
        calls: AtomicU32,
    }

    impl Flaky {
        /// Fails the first `fail_first` fetches with HTTP `status`.
        fn new(fail_first: u32, status: u16) -> Self {
            Self::failing(fail_first, http_error(status, &url()))
        }
        fn failing(fail_first: u32, error: Error) -> Self {
            Flaky {
                fail_first,
                error,
                calls: AtomicU32::new(0),
            }
        }
        fn calls(&self) -> u32 {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl Fetcher for Flaky {
        fn fetch(&self, _url: &Url) -> Result<Response> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n < self.fail_first {
                Err(self.error.clone())
            } else {
                Ok(Response {
                    status: 200,
                    html: "<html><body>ok</body></html>".into(),
                })
            }
        }
    }

    fn url() -> Url {
        Url::new("a.sim", "/")
    }

    #[test]
    fn status_classification() {
        for s in [408, 429, 500, 502, 503, 504] {
            let f = Flaky::new(u32::MAX, s);
            let (res, tally) = fetch_with_retries(&f, &url());
            assert!(res.is_err(), "status {s}");
            assert_eq!(f.calls(), MAX_RETRIES + 1, "status {s}");
            assert_eq!(tally.retries, u64::from(MAX_RETRIES), "status {s}");
            assert_eq!(tally.permanent_failures, 0, "status {s}");
        }
        let permanent = [400, 401, 403, 404, 405, 410, 501]
            .map(|s| (format!("status {s}"), Flaky::new(u32::MAX, s)));
        let bad_url = Flaky::failing(u32::MAX, Error::BadUrl("x".into()));
        for (what, f) in permanent.into_iter().chain([("bad url".into(), bad_url)]) {
            let (res, tally) = fetch_with_retries(&f, &url());
            assert!(res.is_err(), "{what}");
            assert_eq!(f.calls(), 1, "{what}");
            assert_eq!(tally.retries, 0, "{what}");
            assert_eq!(tally.permanent_failures, 1, "{what}");
        }
    }

    #[test]
    fn transient_failures_retried_to_success() {
        let f = Flaky::new(2, 500);
        let (res, stats) = fetch_with_retries(&f, &url());
        assert!(res.is_ok());
        assert_eq!(f.calls(), 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.transient_failures, 2);
        assert_eq!(stats.permanent_failures, 0);
    }

    #[test]
    fn permanent_failures_never_retried() {
        let f = Flaky::new(10, 404);
        let (res, stats) = fetch_with_retries(&f, &url());
        assert!(matches!(res, Err(Error::Http { status: 404, .. })));
        assert_eq!(f.calls(), 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.permanent_failures, 1);
    }

    #[test]
    fn retry_budget_bounds_transient_loops() {
        let f = Flaky::new(100, 503);
        let (res, stats) = fetch_with_retries(&f, &url());
        assert!(matches!(res, Err(Error::Http { status: 503, .. })));
        assert_eq!(f.calls(), MAX_RETRIES + 1);
        assert_eq!(stats.retries, u64::from(MAX_RETRIES));
        assert_eq!(stats.transient_failures, u64::from(MAX_RETRIES + 1));
    }

    #[test]
    fn timeout_408_treated_as_transient() {
        let f = Flaky::new(1, 408);
        let (res, stats) = fetch_with_retries(&f, &url());
        assert!(res.is_ok());
        assert_eq!(stats.retries, 1);
    }
}
