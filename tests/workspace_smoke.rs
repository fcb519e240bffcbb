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
    assert!(crates.len() >= 13, "found only {} crates", crates.len());
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

/// The methods that iterate a hash container, in hash order (R4) — the
/// set operations too, whose iterators walk one operand in hash order: both
/// `clippy.toml` files disallow them. `FxHashMap`/`FxHashSet` are aliases of
/// the std types, so the paths match them too.
const HASH_ITERATION: [&str; 14] = [
    "std::collections::HashMap::iter",
    "std::collections::HashMap::iter_mut",
    "std::collections::HashMap::keys",
    "std::collections::HashMap::values",
    "std::collections::HashMap::values_mut",
    "std::collections::HashMap::into_keys",
    "std::collections::HashMap::into_values",
    "std::collections::HashMap::drain",
    "std::collections::HashSet::iter",
    "std::collections::HashSet::drain",
    "std::collections::HashSet::intersection",
    "std::collections::HashSet::union",
    "std::collections::HashSet::difference",
    "std::collections::HashSet::symmetric_difference",
];

/// The clock reads only the deepbench package may make (R2).
const CLOCK_READS: [&str; 2] = ["std::time::Instant::now", "std::time::SystemTime::now"];

/// The determinism and panic-safety rules of DESIGN.md §17 are lint
/// configuration, so a deleted line would switch a rule off without failing
/// anything: the root `clippy.toml` must list every disallowed path, the
/// deepbench package's own `clippy.toml` the same types and every method but
/// the clock reads, the four serving crates their panic-family `deny` with
/// `indexing_slicing`, and the workspace lints table the two lints that make
/// every allow a reasoned `#[expect]` and the one that rejects a `for` loop
/// over a hash container.
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
    let methods = clippy_paths(&config, "disallowed-methods");
    let mut want: Vec<&str> = CLOCK_READS.to_vec();
    want.push("parking_lot::RwLock::write");
    want.extend(HASH_ITERATION);
    assert_eq!(methods, want, "R2, R5b and R4");
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
        "allow-indexing-slicing-in-tests",
    ] {
        assert!(config.contains(&format!("{key} = true")), "{key}");
    }

    let bench = read("crates/bench/src/bin/clippy.toml");
    assert_eq!(clippy_paths(&bench, "disallowed-types"), types, "deepbench");
    let bench_methods = clippy_paths(&bench, "disallowed-methods");
    let mut unclocked = methods.clone();
    unclocked.retain(|path| !CLOCK_READS.contains(&path.as_str()));
    assert_eq!(
        bench_methods, unclocked,
        "deepbench may read the clock, nothing else"
    );
    for path in HASH_ITERATION {
        assert!(bench_methods.iter().any(|m| m == path), "deepbench: {path}");
    }

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
            "clippy::indexing_slicing",
        ] {
            assert!(lints.contains(&lint), "crates/{krate} lost `{lint}`");
        }
    }

    let clippy = section(&read("Cargo.toml"), "workspace.lints.clippy");
    for lint in [
        "allow_attributes",
        "allow_attributes_without_reason",
        "iter_over_hash_type",
    ] {
        assert!(
            clippy.contains(&(lint.to_string(), "\"warn\"".to_string())),
            "[workspace.lints.clippy] lost {lint}: {clippy:?}"
        );
    }
}

/// Most expected lint in workspace code: each `#[expect]` is a reviewed
/// exception, and one more is a design choice, not a formality.
const EXPECTATION_BUDGET: usize = 10;

/// A rule of DESIGN.md §17 is silenced one item at a time, with its reason,
/// and rarely: workspace code (the deepbench package and `vendor/` aside)
/// holds at most [`EXPECTATION_BUDGET`] `#[expect(` attributes, and no inner
/// (`#!`) `expect` or `allow` of `indexing_slicing`, `disallowed_methods` or
/// `iter_over_hash_type`, which would switch a rule off for a whole file or
/// crate.
#[test]
fn lint_expectations_stay_few_and_per_item() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates"] {
        files.extend(rust_files(&root.join(dir)));
    }
    files.retain(|file| !file.to_string_lossy().contains("bin/deepbench"));
    assert!(files.len() >= 90, "found only {} files", files.len());
    let (mut expectations, mut file_wide) = (Vec::new(), Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        // An attribute's lint list may run over several lines.
        let joined: String = text.lines().map(str::trim).collect::<Vec<_>>().join(" ");
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[expect(") {
                expectations.push(format!("{}:{}", file.display(), n + 1));
            }
        }
        for kind in ["expect", "allow"] {
            let inner = format!("#![{kind}(");
            for attribute in joined.split(&inner).skip(1) {
                let lints = attribute.split(')').next().unwrap_or("");
                for rule in [
                    "indexing_slicing",
                    "disallowed_methods",
                    "iter_over_hash_type",
                ] {
                    if lints.contains(rule) {
                        file_wide.push(format!("{}: {inner}{rule}", file.display()));
                    }
                }
            }
        }
    }
    assert!(
        expectations.len() <= EXPECTATION_BUDGET,
        "{} lint expectations, budget {EXPECTATION_BUDGET}: {expectations:#?}",
        expectations.len()
    );
    assert!(file_wide.is_empty(), "file-wide silencing: {file_wide:?}");
}

/// The index crate runs on the pool its owner passed to `add_batch`
/// (DESIGN.md §8): no file of its library source — each file up to its
/// first column-0 `#[cfg(test)]` — constructs a pool of a width it picks
/// itself, a literal one (`ThreadPool::new(0)`) or the default. A width its
/// caller names (`ClusterConfig::workers`) is the caller's choice.
#[test]
fn the_index_crate_sizes_no_pool_of_its_own() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = rust_files(&root.join("crates/index/src"));
    assert!(files.len() >= 10, "found only {} files", files.len());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        let library = text
            .lines()
            .take_while(|line| !line.starts_with("#[cfg(test)]"));
        for (n, line) in library.enumerate() {
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

/// `clippy::panic` in the `#![deny(..)]` of `index`, `surfacer`, `core` and
/// `html` does not see `assert!`, `assert_eq!` or `assert_ne!`: in their
/// library code — each file up to its first column-0 `#[cfg(test)]` — one
/// is a panic the lints let through. `debug_assert*` and a compile-time
/// `const _: () = assert!(..)` are allowed.
#[test]
fn the_panic_free_crates_assert_nothing_at_run_time() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let asserts = |code: &str| {
        let code = code.trim_start();
        let exempt = code.starts_with("//") || code.starts_with("const _: () = assert!(");
        let at_word =
            |(at, _): (usize, _)| !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let called = |mac| code.match_indices(mac).any(at_word);
        !exempt
            && ["assert!(", "assert_eq!(", "assert_ne!("]
                .into_iter()
                .any(called)
    };
    assert!(asserts("    assert_eq!(a, b);") && !asserts("debug_assert!(x);"));
    let mut found = Vec::new();
    for krate in ["index", "surfacer", "core", "html"] {
        for file in rust_files(&root.join(format!("crates/{krate}/src"))) {
            let text = std::fs::read_to_string(&file).expect("source is readable");
            let library = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
            let lines = library.enumerate().filter(|(_, line)| asserts(line));
            found.extend(lines.map(|(n, line)| format!("{}:{}: {line}", file.display(), n + 1)));
        }
    }
    assert!(
        found.is_empty(),
        "run-time asserts in library code: {found:#?}"
    );
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut dirs = vec![dir.to_path_buf()];
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
    files
}

/// The top-level items after `text`'s first column-0 `#[cfg(test)]` that
/// do not carry a `#[cfg(test)]` of their own, as `(line, text)`: an item
/// starts on a column-0 line whose first word is an item keyword, and the
/// column-0 attributes since the previous item are its own.
fn items_after_the_first_test_marker(text: &str) -> Vec<(usize, &str)> {
    const KEYWORDS: &[&str] = &[
        "pub",
        "fn",
        "impl",
        "mod",
        "use",
        "const",
        "static",
        "struct",
        "enum",
        "type",
        "trait",
        "unsafe",
        "extern",
        "async",
        "macro_rules",
    ];
    let mut lines = text.lines().enumerate();
    if !lines.any(|(_, line)| line.starts_with("#[cfg(test)]")) {
        return Vec::new();
    }
    let mut test_only = true;
    let mut outside = Vec::new();
    for (n, line) in lines {
        if line.starts_with("#[cfg(test)]") {
            test_only = true;
            continue;
        }
        let word = line
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .next();
        if word.is_some_and(|word| KEYWORDS.contains(&word)) {
            if !test_only {
                outside.push((n + 1, line));
            }
            test_only = false;
        }
    }
    outside
}

/// `tools/simplicity.sh` counts a library file's lines up to its first
/// column-0 `#[cfg(test)]`, so everything after that marker must be test
/// code: a library item placed below a test-only one drops out of the
/// count. Every top-level item there carries its own `#[cfg(test)]`, in
/// every `src/**/*.rs` of the workspace the count reads.
#[test]
fn library_code_ends_at_the_first_test_marker() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = rust_files(&root.join("src"));
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        files.extend(rust_files(
            &krate.expect("crates/ entry").path().join("src"),
        ));
    }
    files.retain(|file| !file.to_string_lossy().contains("bin/deepbench"));
    assert!(files.len() >= 90, "found only {} files", files.len());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        let outside = items_after_the_first_test_marker(&text);
        assert!(
            outside.is_empty(),
            "{}: library code after the first `#[cfg(test)]`, which the line count skips: {outside:?}",
            file.display()
        );
    }
    let library =
        "fn a() {}\n#[cfg(test)]\nfn b() {}\n/// Docs.\n#[inline]\npub(crate) fn c(\n) {}\n";
    assert_eq!(
        items_after_the_first_test_marker(library),
        [(6, "pub(crate) fn c(")]
    );
}
