//! The retry discipline for a hostile web.
//!
//! Real deep-web hosts time out, throw transient 500s, and rate-limit; the
//! surfacer has to distinguish "try again" from "give up" or it either loses
//! coverage to one flaky response or loops forever on a dead endpoint. This
//! layer classifies failures off the preserved HTTP status and retries only
//! transient ones, at most [`MAX_RETRIES`] times per fetch.
//!
//! Determinism contract: the retry loop consumes no randomness and no wall
//! clock, so two runs with the same fetcher behavior make byte-identical
//! decisions.

use deepweb_common::Url;
use deepweb_common::{Error, Result};
use deepweb_webworld::{Fetcher, Response};

/// Whether a failed fetch is worth retrying.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorClass {
    /// Server-side or timeout-shaped: a retry may succeed (408, 429, 5xx).
    Transient,
    /// Client-side or structural: retrying cannot help (404, 405, bad URL).
    Permanent,
}

/// Classify an HTTP status code.
///
/// 408 (request timeout — also how the fault injector encodes simulated
/// socket timeouts), 429, and the retryable 5xx family are transient;
/// everything else (including 404/405 from the simulated servers) is
/// permanent.
pub fn classify_status(status: u16) -> ErrorClass {
    match status {
        408 | 429 | 500 | 502 | 503 | 504 => ErrorClass::Transient,
        _ => ErrorClass::Permanent,
    }
}

/// Classify any fetch error. Non-HTTP errors (bad URL, config) are permanent.
pub fn classify_error(err: &Error) -> ErrorClass {
    match err {
        Error::Http { status, .. } => classify_status(*status),
        _ => ErrorClass::Permanent,
    }
}

/// Retries after the first attempt of one fetch. Every fetch the surfacer
/// makes — crawl, probing, surfacing, refresh — runs under this one bound.
pub const MAX_RETRIES: u32 = 3;

/// Accounting for one retried fetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FetchAttempt {
    /// Retries actually performed (not counting the first attempt).
    pub retries: u32,
    /// Transient failures observed (each either retried or the last).
    pub transient_failures: u32,
    /// Permanent failures observed (always exactly 0 or 1).
    pub permanent_failures: u32,
}

/// Fetch `url`, retrying transient failures until success, a permanent
/// failure, or [`MAX_RETRIES`] retries. Returns the final result plus
/// per-fetch accounting.
pub fn fetch_with_retries(fetcher: &dyn Fetcher, url: &Url) -> (Result<Response>, FetchAttempt) {
    let mut stats = FetchAttempt::default();
    loop {
        let err = match fetcher.fetch(url) {
            Ok(resp) => return (Ok(resp), stats),
            Err(err) => err,
        };
        if classify_error(&err) == ErrorClass::Permanent {
            stats.permanent_failures += 1;
            return (Err(err), stats);
        }
        stats.transient_failures += 1;
        if stats.retries == MAX_RETRIES {
            return (Err(err), stats);
        }
        stats.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_webworld::http_error;
    use std::cell::Cell;
    use std::sync::Mutex;

    /// Fails the first `fail_first` fetches with `status`, then succeeds.
    struct Flaky {
        fail_first: u32,
        status: u16,
        calls: Mutex<Cell<u32>>,
    }

    impl Flaky {
        fn new(fail_first: u32, status: u16) -> Self {
            Flaky {
                fail_first,
                status,
                calls: Mutex::new(Cell::new(0)),
            }
        }
        fn calls(&self) -> u32 {
            self.calls.lock().unwrap().get()
        }
    }

    impl Fetcher for Flaky {
        fn fetch(&self, url: &Url) -> Result<Response> {
            let c = self.calls.lock().unwrap();
            let n = c.get();
            c.set(n + 1);
            if n < self.fail_first {
                Err(http_error(self.status, url))
            } else {
                Ok(Response {
                    status: 200,
                    html: "<html><body>ok</body></html>".into(),
                })
            }
        }
    }

    #[test]
    fn status_classification() {
        for s in [408, 429, 500, 502, 503, 504] {
            assert_eq!(classify_status(s), ErrorClass::Transient, "status {s}");
        }
        for s in [400, 401, 403, 404, 405, 410, 501] {
            assert_eq!(classify_status(s), ErrorClass::Permanent, "status {s}");
        }
        assert_eq!(
            classify_error(&Error::BadUrl("x".into())),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn transient_failures_retried_to_success() {
        let f = Flaky::new(2, 500);
        let url = Url::new("a.sim", "/");
        let (res, stats) = fetch_with_retries(&f, &url);
        assert!(res.is_ok());
        assert_eq!(f.calls(), 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.transient_failures, 2);
        assert_eq!(stats.permanent_failures, 0);
    }

    #[test]
    fn permanent_failures_never_retried() {
        let f = Flaky::new(10, 404);
        let url = Url::new("a.sim", "/");
        let (res, stats) = fetch_with_retries(&f, &url);
        assert!(matches!(res, Err(Error::Http { status: 404, .. })));
        assert_eq!(f.calls(), 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.permanent_failures, 1);
    }

    #[test]
    fn retry_budget_bounds_transient_loops() {
        let f = Flaky::new(100, 503);
        let url = Url::new("a.sim", "/");
        let (res, stats) = fetch_with_retries(&f, &url);
        assert!(matches!(res, Err(Error::Http { status: 503, .. })));
        assert_eq!(f.calls(), MAX_RETRIES + 1);
        assert_eq!(stats.retries, MAX_RETRIES);
        assert_eq!(stats.transient_failures, MAX_RETRIES + 1);
    }

    #[test]
    fn timeout_408_treated_as_transient() {
        let f = Flaky::new(1, 408);
        let url = Url::new("a.sim", "/");
        let (res, stats) = fetch_with_retries(&f, &url);
        assert!(res.is_ok());
        assert_eq!(stats.retries, 1);
    }
}
