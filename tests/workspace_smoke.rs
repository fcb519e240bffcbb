//! Workspace bootstrap smoke test: `quick_config(N)` must build a small
//! `DeepWebSystem` deterministically — twice over, byte-identical where the
//! system exposes comparable state.

use deepweb::{quick_config, DeepWebSystem};

#[test]
fn quick_config_builds_small_system_deterministically() {
    let cfg = quick_config(4);
    let a = DeepWebSystem::build(&cfg);
    let b = DeepWebSystem::build(&cfg);

    // The web itself.
    assert_eq!(a.world.truth.sites.len(), 4);
    assert_eq!(a.world.truth.sites.len(), b.world.truth.sites.len());
    for (sa, sb) in a.world.truth.sites.iter().zip(&b.world.truth.sites) {
        assert_eq!(sa.host, sb.host);
        assert_eq!(sa.records, sb.records);
        assert_eq!(sa.post, sb.post);
        assert_eq!(sa.language, sb.language);
    }

    // The surfacing outcome and the index built from it.
    assert_eq!(a.offline_requests, b.offline_requests);
    assert_eq!(a.outcome.reports.len(), b.outcome.reports.len());
    assert_eq!(a.index.len(), b.index.len());
    let (sa, sb) = (a.index.stats(), b.index.stats());
    assert_eq!(sa.terms, sb.terms);
    assert_eq!(sa.postings, sb.postings);

    // Same query, same answer.
    let qa: Vec<_> = a.search("used honda", 5).iter().map(|h| h.doc).collect();
    let qb: Vec<_> = b.search("used honda", 5).iter().map(|h| h.doc).collect();
    assert_eq!(qa, qb);
}

/// The `key = value` lines of `[section]` in a manifest, comments and
/// blank lines dropped, in file order.
fn section(manifest: &str, name: &str) -> Vec<(String, String)> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// The compiler holds every library crate to two rules (DESIGN.md §17): a
/// `pub` item is exactly what its crate root exports (`unreachable_pub`,
/// an error under `clippy -D warnings`), and no `unsafe`. Both come from one
/// workspace lints table, so a manifest that does not inherit it — a new
/// crate, say — escapes them silently. Every `crates/*` package and the root
/// facade must inherit it.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let workspace = read(&root.join("Cargo.toml"));
    let lints = section(&workspace, "workspace.lints.rust");
    let level = |lint: &str| {
        lints
            .iter()
            .find(|(k, _)| k == lint)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(level("unreachable_pub"), Some("\"warn\""), "{lints:?}");
    assert_eq!(level("unsafe_code"), Some("\"forbid\""), "{lints:?}");

    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 14, "found only {} crates", crates.len());
    manifests.extend(crates);
    for manifest in &manifests {
        let inherits = section(&read(manifest), "lints")
            .iter()
            .any(|(k, v)| k == "workspace" && v == "true");
        assert!(
            inherits,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}
