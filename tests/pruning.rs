//! Block-max pruning over a grown index (DESIGN.md §14): a batch added to a
//! built index extends its block index over the new documents, so pruned
//! serving never reads a stale bound. That [`PruningMode::BlockMax`] serves
//! the oracle's bytes through every tier is `tests/oracle.rs`' model test.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{search, PruningMode, SearchOptions};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use std::sync::Arc;

/// A batch added to a built system's index extends its block index over
/// the new document — blocks for the terms only it names included — and
/// BlockMax then serves the Exhaustive bytes, the late document among
/// them.
#[test]
fn a_late_batch_extends_the_block_index_and_blockmax_equals_exhaustive() {
    let mut cfg = quick_config(6);
    cfg.pruning = PruningMode::BlockMax;
    let mut sys = DeepWebSystem::build(&cfg);
    let meta_bytes = |sys: &DeepWebSystem| {
        let blocks = sys.index.pruning().map(|p| p.blocks().meta_bytes());
        blocks.expect("every index carries a block index")
    };
    let before = meta_bytes(&sys);
    let late = deepweb::index::BatchDoc {
        url: deepweb::common::Url::new("late.sim", "/extra"),
        title: "late arrival".into(),
        text: "honda civic late arrival doc zzlatecomer".into(),
        kind: deepweb::index::DocKind::Surface,
        site: None,
        annotations: vec![],
    };
    Arc::make_mut(&mut sys.index).add_batch(&ThreadPool::new(2), vec![late]);
    assert!(meta_bytes(&sys) > before, "the new terms own blocks");
    let pruned = SearchOptions {
        pruning: PruningMode::BlockMax,
        ..sys.options
    };
    let exhaustive = SearchOptions {
        pruning: PruningMode::Exhaustive,
        ..sys.options
    };
    let workload = WorkloadConfig {
        distinct: 150,
        ..Default::default()
    };
    let wl = generate_workload(&sys.world, &workload);
    let mut queries = wl.sample_batch(300, &mut derive_rng(307, "late-batch"));
    let edge = ["", "the of and", "zzzzzz qqqqqq", "HONDA honda HoNdA"];
    queries.extend(edge.map(String::from));
    queries.push("used ford focus 1993".into());
    queries.push("honda civic late arrival".into());
    for q in &queries {
        for k in [1usize, 10] {
            assert_eq!(
                search(&sys.index, q, k, pruned),
                search(&sys.index, q, k, exhaustive),
                "q={q:?} k={k}"
            );
        }
    }
    let top = search(&sys.index, "zzlatecomer", 1, pruned);
    assert_eq!(top[0].doc.as_usize(), sys.index.len() - 1);
}
