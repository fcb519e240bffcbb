//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (web generation, workloads,
//! probing) draws from a seeded [`rand::rngs::StdRng`]. Sub-components derive
//! their own streams from a parent seed plus a label so that adding a new
//! consumer never perturbs the draws seen by existing ones — a requirement for
//! reproducible experiments (same seed ⇒ byte-identical web, workload and
//! surfacing decisions).

use crate::fxhash::fxhash64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workspace-wide default seed used by examples and benches.
pub const DEFAULT_SEED: u64 = 0xD33B_0001;

/// Derive an independent RNG stream for `label` under `seed`.
///
/// The derivation is a hash mix, so streams for distinct labels are
/// decorrelated, and the same `(seed, label)` pair always yields the same
/// stream regardless of call order elsewhere.
pub fn derive_rng(seed: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(mix(seed, label))
}

/// Derive an independent RNG stream for `(label, n)` under `seed`.
pub fn derive_rng_n(seed: u64, label: &str, n: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, label) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Stable 64-bit mix of a seed and a label.
pub fn mix(seed: u64, label: &str) -> u64 {
    fxhash64(&(seed, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u32> = derive_rng(7, "web")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        let b: Vec<u32> = derive_rng(7, "web")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn labels_decorrelate() {
        let a: Vec<u32> = derive_rng(7, "web")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        let b: Vec<u32> = derive_rng(7, "workload")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_distinct() {
        let a: u64 = derive_rng_n(7, "site", 1).gen();
        let b: u64 = derive_rng_n(7, "site", 2).gen();
        assert_ne!(a, b);
    }
}
