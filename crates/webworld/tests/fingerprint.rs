//! The served web as one number per world.
//!
//! Each world is hashed twice: as generated, and again after every site has
//! grown once. A hash folds in every table row, the ground truth of every
//! form, and every page (or error) the server returns for a fixed URL list on
//! every host. Two seeds run with half the sites hostile, so broken fronts
//! and junk widgets are covered as well as honest ones.
//!
//! A refactor of the generator, the site model or the renderer must leave
//! both constants where they are. A change that means to move the world
//! updates them in the same diff and says why.

use deepweb_common::{fxhash64, Url};
use deepweb_webworld::{generate, grow_site, Fetcher, WebConfig, World};

/// `(seed, generated, grown)`.
const FINGERPRINTS: [(u64, u64, u64); 2] = [
    (11, 0xbe1e_3fc4_c357_c597, 0xaa96_7255_b0c3_710c),
    (12, 0x3252_bc64_e069_8348, 0x4dfe_062f_fd31_9a1e),
];

/// Paths fetched on every host. `/browse` and `/item?id=0` fail on hosts
/// that have no such page, and the failure is hashed too.
const PATHS: [&str; 7] = [
    "/",
    "/about",
    "/search",
    "/browse",
    "/results?page=0",
    "/results?page=1",
    "/item?id=0",
];

/// Records each site grows by.
const GROW_BY: usize = 7;

fn fold(acc: &mut u64, piece: &str) {
    *acc = fxhash64(&(*acc, piece));
}

fn fingerprint(w: &World) -> u64 {
    let mut acc = 0u64;
    for (site, truth) in w.server.sites().iter().zip(&w.truth.sites) {
        fold(&mut acc, &site.host);
        for (_, row) in site.table.iter() {
            fold(&mut acc, &format!("{row:?}"));
        }
        fold(
            &mut acc,
            &format!(
                "{} {} {} {} {} {} {:?} {:?}",
                truth.host,
                truth.domain.name(),
                truth.language,
                truth.records,
                truth.post,
                truth.hostile,
                truth.inputs,
                truth.range_pairs
            ),
        );
    }
    for host in w.server.hosts() {
        for path in PATHS {
            let url = Url::parse(&format!("http://{host}{path}")).expect("fixed URL parses");
            match w.server.fetch(&url) {
                Ok(r) => fold(&mut acc, &format!("{} {}", r.status, r.html)),
                Err(e) => fold(&mut acc, &format!("error {e}")),
            }
        }
    }
    acc
}

#[test]
fn the_served_web_is_unchanged() {
    for (seed, generated, grown) in FINGERPRINTS {
        let mut w = generate(&WebConfig {
            seed,
            num_sites: 12,
            hostile_fraction: 0.5,
            ..WebConfig::default()
        });
        assert_eq!(fingerprint(&w), generated, "seed {seed}: generated world");
        for idx in 0..w.server.sites().len() {
            grow_site(&mut w, idx, GROW_BY, seed);
        }
        assert_eq!(fingerprint(&w), grown, "seed {seed}: grown world");
    }
}
