//! `ClusterConfig::validate` rejects the configurations the raw struct
//! would mis-serve silently. That every tier behind `&dyn SearchService`
//! serves the same bytes is `tests/oracle.rs`' model test.

use deepweb::index::{CacheConfig, ClusterConfig};

/// `ClusterConfig::validate` rejects a cache that could never hold an
/// entry.
#[test]
fn cluster_config_builder_validates() {
    let cfg = ClusterConfig {
        workers: 1,
        cache: Some(CacheConfig::with_capacity(128)),
        ..Default::default()
    };
    assert!(cfg.validate().is_ok());
    assert!(ClusterConfig::default().validate().is_ok());

    let reject = |cfg: ClusterConfig| {
        let got = cfg.validate();
        assert!(
            matches!(got, Err(deepweb::common::Error::Config(_))),
            "{cfg:?} -> {got:?}"
        );
    };
    // capacity 0 must be an explicit `cache: None`, not a cache that always
    // misses.
    reject(ClusterConfig {
        cache: Some(CacheConfig::with_capacity(0)),
        ..cfg
    });
    let no_cache = ClusterConfig { cache: None, ..cfg };
    assert!(no_cache.validate().is_ok());
}
