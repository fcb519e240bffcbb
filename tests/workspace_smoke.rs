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

/// The `path = ".."` entries of the `key = [ .. ]` array in a `clippy.toml`,
/// in file order.
fn clippy_paths(config: &str, key: &str) -> Vec<String> {
    let start = format!("{key} = [");
    config
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != start)
        .skip(1)
        .take_while(|line| *line != "]")
        .filter_map(|line| line.split("path = \"").nth(1)?.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Most determinism and panic-safety rules of DESIGN.md §17 are lint
/// configuration, not analyzer code, so a deleted line would switch a rule
/// off without failing anything: the root `clippy.toml` must list every
/// disallowed path, the deepbench package's own `clippy.toml` (which drops
/// only the clock reads) the same types, the four serving crates their
/// panic-family `deny`, and the workspace lints table the two lints that
/// make every allow a reasoned `#[expect]`.
#[test]
fn the_lint_configuration_keeps_every_rule() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let config = read("clippy.toml");
    let types = clippy_paths(&config, "disallowed-types");
    assert_eq!(
        types,
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::sync::Mutex",
            "std::sync::RwLock"
        ],
        "R1 and R5a"
    );
    assert_eq!(
        clippy_paths(&config, "disallowed-methods"),
        [
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "parking_lot::RwLock::write"
        ],
        "R2 and R5b"
    );
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(config.contains(&format!("{key} = true")), "{key}");
    }

    let bench = read("crates/bench/src/bin/clippy.toml");
    assert_eq!(clippy_paths(&bench, "disallowed-types"), types, "deepbench");
    assert_eq!(
        clippy_paths(&bench, "disallowed-methods"),
        ["parking_lot::RwLock::write"],
        "deepbench may read the clock, nothing else"
    );

    for krate in ["index", "surfacer", "core", "html"] {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        let deny = lib
            .split("#![deny(")
            .nth(1)
            .and_then(|rest| rest.split(")]").next())
            .unwrap_or_else(|| panic!("crates/{krate}/src/lib.rs has no `#![deny(..)]`"));
        let lints: Vec<&str> = deny.split(',').map(str::trim).collect();
        for lint in [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
            "clippy::todo",
            "clippy::unimplemented",
        ] {
            assert!(lints.contains(&lint), "crates/{krate} lost `{lint}`");
        }
    }

    let clippy = section(&read("Cargo.toml"), "workspace.lints.clippy");
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        assert!(
            clippy.contains(&(lint.to_string(), "\"warn\"".to_string())),
            "[workspace.lints.clippy] lost {lint}: {clippy:?}"
        );
    }
}

/// The index crate runs on the pool its owner passed to `add_batch`
/// (DESIGN.md §8): no file of its library source — each file up to its
/// first `#[cfg(test)]` — constructs a pool of a width it picks itself, a
/// literal one (`ThreadPool::new(0)`) or the default. A width its caller
/// names (`ClusterConfig::workers`) is the caller's choice.
#[test]
fn the_index_crate_sizes_no_pool_of_its_own() {
    let mut dirs = vec![std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/index/src")];
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a source directory is readable") {
            let path = entry.expect("a source directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 10, "found only {} files", files.len());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        let library = text.split("#[cfg(test)]").next().unwrap_or("");
        for (n, line) in library.lines().enumerate() {
            let literal_width = line
                .split("ThreadPool::new(")
                .skip(1)
                .any(|arg| arg.starts_with(|c: char| c.is_ascii_digit()));
            assert!(
                !literal_width && !line.contains("ThreadPool::default("),
                "{}:{}: the index crate sizes a pool: {}",
                file.display(),
                n + 1,
                line.trim()
            );
        }
    }
}
