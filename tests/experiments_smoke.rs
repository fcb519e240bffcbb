//! Every experiment driver must run at smoke scale and produce non-empty
//! tables — the guarantee that `report` cannot rot.

use deepweb::core::experiments::{Scale, ALL};

#[test]
fn all_experiments_produce_tables() {
    for (id, run) in ALL {
        let tables = run(Scale::Smoke);
        assert!(!tables.is_empty(), "{id} renders at least one table");
        for t in &tables {
            assert!(
                !t.is_empty(),
                "{id} rendered an empty table:\n{}",
                t.render()
            );
        }
    }
}
