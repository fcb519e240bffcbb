//! Seeded input generators. Everything a workload feeds the program comes
//! from `--seed` through [`deepweb_common::derive_rng`] (labelled streams) or
//! the local [`SplitMix64`] where raw integers are all that is needed; the
//! program itself only ever sees the generated inputs.

use deepweb_common::rng::mix;
use deepweb_common::{derive_rng, FxHashSet, Url, Zipf};
use deepweb_index::{BatchDoc, DocKind};

/// Sebastiano Vigna's splitmix64: the benchmark's own generator for burst
/// sizes and sample picks (the package carries no `rand` dependency).
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `label` under `seed`.
    pub fn new(seed: u64, label: &str) -> Self {
        SplitMix64(mix(seed, label))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Shape of a synthetic Zipf corpus (e16's generator, scaled).
#[derive(Clone, Copy)]
pub struct CorpusShape {
    /// Vocabulary size; rank 0 appears in most docs.
    pub vocab: usize,
    /// Terms per doc.
    pub doc_len: usize,
}

/// `n` docs of Zipf(1.1)-drawn terms, URLs `/d<first>`… under `host`.
pub fn zipf_docs(
    seed: u64,
    label: &str,
    shape: CorpusShape,
    host: &str,
    first: usize,
    n: usize,
) -> Vec<BatchDoc> {
    let zipf = Zipf::new(shape.vocab, 1.1);
    let mut rng = derive_rng(seed, label);
    (first..first + n)
        .map(|i| {
            let mut text = String::with_capacity(shape.doc_len * 8);
            for _ in 0..shape.doc_len {
                text.push_str("tok");
                text.push_str(&zipf.sample(&mut rng).to_string());
                text.push(' ');
            }
            BatchDoc {
                url: Url::new(host, format!("/d{i}")),
                title: String::new(),
                text,
                kind: DocKind::Surface,
                site: None,
                annotations: vec![],
            }
        })
        .collect()
}

/// The set of distinct terms a query names, order-free — two queries with
/// one signature are one cache entry at most, so a stream deduplicated by
/// it can never hit a result cache.
pub fn term_signature(query: &str) -> Vec<&str> {
    let mut terms: Vec<&str> = query.split_whitespace().collect();
    terms.sort_unstable();
    terms.dedup();
    terms
}

/// `n` queries of 2–4 Zipf-drawn terms, no two sharing a term signature.
pub fn distinct_zipf_queries(seed: u64, label: &str, vocab: usize, n: usize) -> Vec<String> {
    let zipf = Zipf::new(vocab, 1.1);
    let mut rng = derive_rng(seed, label);
    let mut seen: FxHashSet<Vec<String>> = FxHashSet::default();
    let mut out = Vec::with_capacity(n);
    let mut draw = 0usize;
    while out.len() < n {
        let terms = 2 + draw % 3;
        draw += 1;
        let mut q = String::new();
        for _ in 0..terms {
            q.push_str("tok");
            q.push_str(&zipf.sample(&mut rng).to_string());
            q.push(' ');
        }
        let sig: Vec<String> = term_signature(&q).into_iter().map(str::to_owned).collect();
        if seen.insert(sig) {
            out.push(q);
        }
    }
    out
}

/// Burst sizes in `1..=max` summing to exactly `total`, fixed by the seed.
pub fn burst_schedule(seed: u64, label: &str, total: usize, max: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, label);
    let mut left = total;
    let mut out = Vec::new();
    while left > 0 {
        let size = (1 + rng.below(max)).min(left);
        out.push(size);
        left -= size;
    }
    out
}

/// `k` distinct positions in `0..n`, ascending, fixed by the seed (all of
/// `0..n` when `k ≥ n`).
pub fn sample_positions(seed: u64, label: &str, n: usize, k: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = SplitMix64::new(seed, label);
    let mut picked: FxHashSet<usize> = FxHashSet::default();
    while picked.len() < k {
        picked.insert(rng.below(n));
    }
    let mut out: Vec<usize> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedule_is_fixed_by_seed_and_sums_to_total() {
        let a = burst_schedule(11, "bursts", 10_000, 256);
        assert_eq!(a, burst_schedule(11, "bursts", 10_000, 256));
        assert_ne!(a, burst_schedule(12, "bursts", 10_000, 256));
        assert_ne!(a, burst_schedule(11, "other", 10_000, 256));
        assert_eq!(a.iter().sum::<usize>(), 10_000);
        assert!(a.iter().all(|&b| (1..=256).contains(&b)));
        // Both the spill path (> 64 per replica) and tiny bursts occur.
        assert!(a.iter().any(|&b| b > 128) && a.iter().any(|&b| b < 16));
    }

    #[test]
    fn signature_ignores_order_and_repeats() {
        assert_eq!(term_signature("b a b "), vec!["a", "b"]);
        assert_eq!(term_signature("a b"), term_signature(" b  a a"));
        assert_ne!(term_signature("a b"), term_signature("a c"));
    }

    #[test]
    fn query_stream_has_no_two_queries_with_one_signature() {
        let qs = distinct_zipf_queries(11, "q", 50, 400);
        assert_eq!(qs.len(), 400);
        let sigs: FxHashSet<Vec<&str>> = qs.iter().map(|q| term_signature(q)).collect();
        assert_eq!(sigs.len(), qs.len());
        assert_eq!(qs, distinct_zipf_queries(11, "q", 50, 400));
        assert_ne!(qs, distinct_zipf_queries(12, "q", 50, 400));
    }

    #[test]
    fn sample_positions_are_distinct_sorted_and_seeded() {
        let s = sample_positions(11, "v", 1_000, 50);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, sample_positions(11, "v", 1_000, 50));
        assert_ne!(s, sample_positions(12, "v", 1_000, 50));
        assert_eq!(sample_positions(11, "v", 3, 50), vec![0, 1, 2]);
    }
}
