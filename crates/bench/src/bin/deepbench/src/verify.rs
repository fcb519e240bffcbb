//! Output checking: every timed tier must serve the bytes of the sequential
//! exhaustive oracle, and every check counts into `attempted` / `failed`.

use deepweb_common::fxhash64;
use deepweb_index::{search, Hit, PruningMode, SearchIndex, SearchOptions, SearchService};

/// Order-sensitive fxhash fold; the per-workload `result_digest` lets two
/// commits (or two runs) be diffed by one number.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = fxhash64(&(self.0, w));
    }

    /// Fold a result list in: doc ids and score bits.
    pub fn hits(&mut self, hits: &[Hit]) {
        self.word(hits.len() as u64);
        for h in hits {
            self.word(u64::from(h.doc.0));
            self.word(h.score.to_bits());
        }
    }

    /// Fold a string in.
    pub fn text(&mut self, s: &str) {
        self.word(fxhash64(s));
    }
}

/// Operations attempted and failed, the contract's `attempted` / `failed`.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    /// Checks and operations counted.
    pub attempted: u64,
    /// Those that did not meet their condition.
    pub failed: u64,
}

impl Tally {
    /// Count one operation that must satisfy `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("deepbench: FAILED check: {what}");
        }
    }
}

/// The oracle: sequential exhaustive scoring with `opts`' scoring knobs.
pub fn oracle(
    index: &SearchIndex,
    queries: &[&str],
    k: usize,
    opts: SearchOptions,
) -> Vec<Vec<Hit>> {
    let exhaustive = SearchOptions {
        pruning: PruningMode::Exhaustive,
        ..opts
    };
    queries
        .iter()
        .map(|q| search(index, q, k, exhaustive))
        .collect()
}

/// Check `tier` against the oracle's `want` on `queries`, one by one and as
/// one batch; every query is one attempted operation per path.
pub fn check_tier(
    tally: &mut Tally,
    name: &str,
    tier: &dyn SearchService,
    queries: &[&str],
    want: &[Vec<Hit>],
    k: usize,
) {
    for (q, w) in queries.iter().zip(want) {
        tally.check(&tier.search(q, k) == w, &format!("{name} single {q:?}"));
    }
    let owned: Vec<String> = queries.iter().map(|q| (*q).to_string()).collect();
    let got = tier.search_batch(&owned, k);
    for ((q, w), g) in queries.iter().zip(want).zip(&got) {
        tally.check(g == w, &format!("{name} batch {q:?}"));
    }
    tally.check(got.len() == want.len(), &format!("{name} batch length"));
}

/// Digest of a whole oracle pass.
pub fn digest_of(want: &[Vec<Hit>]) -> Digest {
    let mut d = Digest::default();
    for hits in want {
        d.hits(hits);
    }
    d
}
