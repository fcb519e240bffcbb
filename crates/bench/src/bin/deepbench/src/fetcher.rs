//! The benchmark-owned [`Fetcher`] wrapper: one span per request, counts at
//! the same boundary, and every body kept so the traced run can replay the
//! pages through the `html` and `surfacer` parsing entry points.

use crate::trace::{SpanId, Tracer};
use deepweb_common::{Result, Url};
use deepweb_webworld::{Fetcher, Response};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the wrapper saw.
#[derive(Default)]
pub struct FetchLog {
    /// Every successful response, in completion order.
    pub pages: Vec<(Url, String)>,
}

/// A timing, counting, recording wrapper around any fetcher.
pub struct TimingFetcher<'a, F: Fetcher> {
    inner: &'a F,
    tracer: &'a Tracer,
    parent: SpanId,
    request: u64,
    count: AtomicU64,
    bytes: AtomicU64,
    failed: AtomicU64,
    log: Mutex<FetchLog>,
}

impl<'a, F: Fetcher> TimingFetcher<'a, F> {
    /// Wrap `inner`; spans are children of `parent` within `request`.
    pub fn new(inner: &'a F, tracer: &'a Tracer, parent: SpanId, request: u64) -> Self {
        TimingFetcher {
            inner,
            tracer,
            parent,
            request,
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            log: Mutex::new(FetchLog::default()),
        }
    }

    /// Requests issued.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Body bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Requests that came back as an error status.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The recorded pages, sorted by URL so replays do not depend on which
    /// worker finished first.
    pub fn into_pages(self) -> Vec<(Url, String)> {
        let mut pages = self.log.into_inner().pages;
        pages.sort_by_cached_key(|(u, _)| u.to_string());
        pages
    }
}

impl<F: Fetcher> Fetcher for TimingFetcher<'_, F> {
    fn fetch(&self, url: &Url) -> Result<Response> {
        let out = self
            .tracer
            .span("webworld.fetch", self.parent, self.request, |_| {
                self.inner.fetch(url)
            });
        // Statistics only: Relaxed publishes nothing else.
        self.count.fetch_add(1, Ordering::Relaxed);
        match &out {
            Ok(resp) => {
                self.bytes
                    .fetch_add(resp.html.len() as u64, Ordering::Relaxed);
                self.log.lock().pages.push((url.clone(), resp.html.clone()));
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}
