//! # deepweb-common
//!
//! Shared substrate for the `deepweb` workspace: fast hashing, deterministic
//! RNG streams, Zipf sampling, tokenisation, the index's term dictionary
//! ([`TermDict`] — the one interner), typed ids, experiment statistics, URL
//! encoding, and the self-scheduling [`pool`] the parallel pipeline and index
//! builders run on.
//!
//! Everything here is dependency-light and allocation-conscious; see
//! `DESIGN.md` §3 for where each module is consumed.

#![warn(missing_docs)]

mod error;
pub mod fxhash;
pub mod ids;
mod intern;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod text;
pub mod urlcodec;
mod zipf;

pub use error::{Error, Result};
pub use fxhash::{fxhash64, FxHashMap, FxHashSet};
pub use ids::{DocId, QueryId, RecordId, SiteId, TermId};
pub use intern::TermDict;
pub use pool::ThreadPool;
pub use rng::{derive_rng, derive_rng_n, DEFAULT_SEED};
pub use urlcodec::Url;
pub use zipf::Zipf;
