//! Deterministic fault injection for the simulated web.
//!
//! [`FaultyFetcher`] wraps any [`Fetcher`] and makes a configurable fraction
//! of URLs misbehave the way hostile or flaky real-web hosts do: transient
//! 500s, timeouts, and connections dropped mid-body. Every decision is a
//! pure function of `(fault seed, url, attempt number)` — no wall clock, no
//! global RNG — so a crawl against a faulty web is exactly as reproducible
//! as one against a healthy web, which is what lets the robustness tests
//! assert byte-identical indexes across runs and worker counts.
//!
//! Faults are *failure prefixes*: a fault-marked URL fails its first `k`
//! fetch attempts (`1 ≤ k ≤ max_faults_per_url`) and then succeeds forever.
//! Keeping `max_faults_per_url` at or below the surfacer's `MAX_RETRIES`
//! therefore guarantees a retrying crawler sees the same pages as a
//! fault-free one — the clean-equals-faulty index equality the robustness
//! tier is built on.

use crate::fetch::{http_error, Fetcher, Response};
use deepweb_common::{fxhash64, FxHashMap, Result, Url};
use parking_lot::Mutex;

/// Which fault (if any) a URL is marked with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Fails the failure prefix with HTTP 500.
    Transient500,
    /// Fails the failure prefix with HTTP 408 (simulated timeout).
    Timeout,
    /// Drops the connection partway through the body: the server serves
    /// the request, and the failure prefix returns HTTP 502.
    TruncatedBody,
}

/// Configuration for [`FaultyFetcher`].
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for the fault schedule, independent of the web seed.
    pub seed: u64,
    /// Fraction of URLs marked with a fault, split 2:1:1 over
    /// [`FaultKind::Transient500`], [`FaultKind::Timeout`] and
    /// [`FaultKind::TruncatedBody`].
    pub rate: f64,
    /// Failure-prefix cap: a faulty URL fails at most this many attempts
    /// before succeeding. Keep at or below the surfacer's `MAX_RETRIES` to
    /// guarantee eventual success.
    pub max_faults_per_url: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            rate: 0.0,
            max_faults_per_url: 2,
        }
    }
}

impl FaultConfig {
    /// A schedule where `rate` of URLs fail transiently, each at most twice.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            rate,
            ..FaultConfig::default()
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.rate),
            "fault rate must be in [0, 1], got {self:?}"
        );
        assert!(
            self.max_faults_per_url >= 1,
            "max_faults_per_url must be >= 1"
        );
    }
}

/// Counters accumulated by a [`FaultyFetcher`]; all deterministic for a given
/// `(config, fetch sequence)` pair.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FaultStats {
    /// Total fetch attempts seen (including failed ones).
    pub fetches: u64,
    /// Attempts failed with HTTP 500.
    pub transient_500s: u64,
    /// Attempts failed with HTTP 408.
    pub timeouts: u64,
    /// Attempts failed mid-body with HTTP 502.
    pub truncated: u64,
}

impl FaultStats {
    /// Fold another snapshot into this one (build + refresh accounting).
    pub fn merge(&mut self, o: FaultStats) {
        self.fetches += o.fetches;
        self.transient_500s += o.transient_500s;
        self.timeouts += o.timeouts;
        self.truncated += o.truncated;
    }
}

/// A [`Fetcher`] decorator that injects deterministic faults.
pub struct FaultyFetcher<F> {
    inner: F,
    cfg: FaultConfig,
    attempts: Mutex<FxHashMap<String, u32>>,
    stats: Mutex<FaultStats>,
}

impl<F: Fetcher> FaultyFetcher<F> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: F, cfg: FaultConfig) -> Self {
        cfg.validate();
        FaultyFetcher {
            inner,
            cfg,
            attempts: Mutex::new(FxHashMap::default()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// The wrapped fetcher.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The fault (if any) scheduled for `url`, and the length of its failure
    /// prefix. Pure: same config and URL always yield the same answer.
    pub fn schedule_for(&self, url: &Url) -> Option<(FaultKind, u32)> {
        let h = fxhash64(&format!("{}|{}", self.cfg.seed, url));
        // Top 32 bits pick the fault kind; low bits size the failure prefix.
        let roll = ((h >> 32) as f64) / (u32::MAX as f64 + 1.0);
        let (half, quarter) = (self.cfg.rate / 2.0, self.cfg.rate / 4.0);
        let kind = if roll < half {
            FaultKind::Transient500
        } else if roll < half + quarter {
            FaultKind::Timeout
        } else if roll < half + quarter + quarter {
            FaultKind::TruncatedBody
        } else {
            return None;
        };
        let prefix = 1 + (h as u32) % self.cfg.max_faults_per_url;
        Some((kind, prefix))
    }
}

impl<F: Fetcher> Fetcher for FaultyFetcher<F> {
    fn fetch(&self, url: &Url) -> Result<Response> {
        let attempt = {
            let mut m = self.attempts.lock();
            let c = m.entry(url.to_string()).or_insert(0);
            let a = *c;
            *c += 1;
            a
        };
        self.stats.lock().fetches += 1;
        let kind = match self.schedule_for(url) {
            Some((kind, prefix)) if attempt < prefix => kind,
            _ => return self.inner.fetch(url),
        };
        if kind == FaultKind::TruncatedBody {
            // The server served the request; the body never arrived whole,
            // so the caller sees a transport error, exactly as a real HTTP
            // client reports a short read.
            let _ = self.inner.fetch(url);
        }
        let mut s = self.stats.lock();
        let status = match kind {
            FaultKind::Transient500 => {
                s.transient_500s += 1;
                500
            }
            FaultKind::Timeout => {
                s.timeouts += 1;
                408
            }
            FaultKind::TruncatedBody => {
                s.truncated += 1;
                502
            }
        };
        Err(http_error(status, url))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_common::Error;

    struct Fixed;
    impl Fetcher for Fixed {
        fn fetch(&self, url: &Url) -> Result<Response> {
            Ok(Response {
                status: 200,
                html: format!("<html><body><p>page {}</p></body></html>", url),
            })
        }
    }

    fn faulty(cfg: FaultConfig) -> FaultyFetcher<Fixed> {
        FaultyFetcher::new(Fixed, cfg)
    }

    fn status_of(kind: FaultKind) -> u16 {
        match kind {
            FaultKind::Transient500 => 500,
            FaultKind::Timeout => 408,
            FaultKind::TruncatedBody => 502,
        }
    }

    #[test]
    fn zero_rates_are_transparent() {
        let f = faulty(FaultConfig::default());
        for i in 0..50 {
            let url = Url::new(format!("h{i}.sim"), "/");
            assert!(f.fetch(&url).is_ok());
        }
        let s = f.stats();
        assert_eq!(s.fetches, 50);
        assert_eq!(
            s,
            FaultStats {
                fetches: 50,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn failure_prefix_then_success_forever() {
        let cfg = FaultConfig {
            seed: 7,
            rate: 1.0,
            max_faults_per_url: 3,
        };
        let f = faulty(cfg);
        let url = Url::new("a.sim", "/search");
        let (kind, prefix) = f.schedule_for(&url).expect("rate 1.0 marks every URL");
        assert!((1..=3).contains(&prefix));
        for _ in 0..prefix {
            let err = f.fetch(&url).unwrap_err();
            assert!(matches!(err, Error::Http { status, .. } if status == status_of(kind)));
        }
        for _ in 0..5 {
            assert!(f.fetch(&url).is_ok(), "post-prefix fetches must succeed");
        }
        let s = f.stats();
        assert_eq!(
            s.transient_500s + s.timeouts + s.truncated,
            u64::from(prefix)
        );
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let cfg = FaultConfig::transient(42, 0.5);
        let a = faulty(cfg);
        let b = faulty(cfg);
        let c = faulty(FaultConfig::transient(43, 0.5));
        let mut differs = false;
        for i in 0..200 {
            let url = Url::new(format!("host-{i:03}.sim"), "/results").with_param("q", "x");
            assert_eq!(a.schedule_for(&url), b.schedule_for(&url));
            differs |= a.schedule_for(&url) != c.schedule_for(&url);
        }
        assert!(differs, "different seeds must produce different schedules");
    }

    /// `rate` of the URL space is marked: half of it 500s, a quarter each
    /// timeouts and truncations.
    #[test]
    fn rates_hit_roughly_the_configured_fraction() {
        let f = faulty(FaultConfig::transient(1, 0.4));
        let n = 4000;
        let mut kinds = [0usize; 3];
        for i in 0..n {
            if let Some((kind, _)) = f.schedule_for(&Url::new(format!("h{i}.sim"), "/page")) {
                kinds[kind as usize] += 1;
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        let marked = frac(kinds.iter().sum());
        assert!((0.36..=0.44).contains(&marked), "got {marked}");
        for (kind, want) in kinds.into_iter().zip([0.2, 0.1, 0.1]) {
            assert!((frac(kind) - want).abs() < 0.03, "{kinds:?}");
        }
    }

    #[test]
    fn timeout_and_truncation_report_their_statuses() {
        let f = faulty(FaultConfig {
            seed: 3,
            rate: 1.0,
            max_faults_per_url: 1,
        });
        for want in [FaultKind::Timeout, FaultKind::TruncatedBody] {
            let url = (0..)
                .map(|i| Url::new(format!("t{i}.sim"), "/"))
                .find(|u| f.schedule_for(u).map(|(kind, _)| kind) == Some(want))
                .expect("rate 1.0 marks every kind somewhere");
            let err = f.fetch(&url).unwrap_err();
            assert!(matches!(err, Error::Http { status, .. } if status == status_of(want)));
            assert!(f.fetch(&url).is_ok());
        }
        let s = f.stats();
        assert_eq!((s.transient_500s, s.timeouts, s.truncated), (0, 1, 1));
    }

    #[test]
    fn prefix_never_exceeds_cap() {
        let f = faulty(FaultConfig::transient(11, 1.0));
        for i in 0..300 {
            let url = Url::new(format!("p{i}.sim"), "/item").with_param("id", "1");
            let (_, prefix) = f.schedule_for(&url).expect("rate 1.0 marks every URL");
            assert!((1..=2).contains(&prefix));
        }
    }
}
