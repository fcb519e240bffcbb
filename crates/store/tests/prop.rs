//! Property tests: equality and range selections must return exactly the
//! rows an independent oracle over the generated data picks, and pagination
//! must tile the result exactly.

use deepweb_store::{Conjunction, Predicate, Schema, Table, Value, ValueType};
use proptest::prelude::*;

fn arb_value_int() -> impl Strategy<Value = i64> {
    -50i64..50
}

fn build_table(rows: &[(String, i64, i64)]) -> Table {
    let schema = Schema::new(vec![
        ("name", ValueType::Text),
        ("year", ValueType::Int),
        ("price", ValueType::Money),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for (name, year, price) in rows {
        t.insert(vec![
            Value::Text(name.clone()),
            Value::Int(*year),
            Value::Money(*price * 100),
        ])
        .unwrap();
    }
    t
}

/// Ids of the generated rows satisfying `keep`, read off the rows themselves.
fn oracle(rows: &[(String, i64, i64)], keep: impl Fn(&(String, i64, i64)) -> bool) -> Vec<u32> {
    (0u32..)
        .zip(rows)
        .filter(|(_, row)| keep(row))
        .map(|(id, _)| id)
        .collect()
}

fn scan(it: &Table, conj: &Conjunction) -> Vec<u32> {
    it.iter()
        .filter(|(id, row)| !conj.is_vacuous() && conj.matches(row, it.row_tokens(*id)))
        .map(|(id, _)| id.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eq_select_equals_oracle(
        rows in prop::collection::vec(("[a-d]{1,3}", arb_value_int(), 0i64..100), 0..40),
        probe in "[a-d]{1,3}",
    ) {
        let it = build_table(&rows);
        let conj = Conjunction::new(vec![Predicate::Eq { col: 0, value: Value::Text(probe.clone()) }]);
        let selected: Vec<u32> = it.select(&conj).iter().map(|r| r.0).collect();
        prop_assert_eq!(selected, oracle(&rows, |(name, _, _)| *name == probe));
    }

    #[test]
    fn range_select_equals_oracle(
        rows in prop::collection::vec(("[a-d]{1,3}", arb_value_int(), 0i64..100), 0..40),
        lo in arb_value_int(),
        hi in arb_value_int(),
    ) {
        let it = build_table(&rows);
        let conj = Conjunction::new(vec![Predicate::Range {
            col: 1,
            min: Some(Value::Int(lo)),
            max: Some(Value::Int(hi)),
        }]);
        let selected: Vec<u32> = it.select(&conj).iter().map(|r| r.0).collect();
        // `lo > hi` is an empty range: the oracle's test holds for no year.
        prop_assert_eq!(selected, oracle(&rows, |&(_, year, _)| lo <= year && year <= hi));
    }

    #[test]
    fn conjunction_never_grows_results(
        rows in prop::collection::vec(("[a-d]{1,3}", arb_value_int(), 0i64..100), 1..40),
        probe in "[a-d]{1,3}",
        lo in arb_value_int(),
    ) {
        let it = build_table(&rows);
        let single = Conjunction::new(vec![Predicate::Eq { col: 0, value: Value::Text(probe.clone()) }]);
        let double = Conjunction::new(vec![
            Predicate::Eq { col: 0, value: Value::Text(probe) },
            Predicate::Range { col: 1, min: Some(Value::Int(lo)), max: None },
        ]);
        prop_assert!(it.select(&double).len() <= it.select(&single).len());
    }

    #[test]
    fn pagination_tiles_selection(
        rows in prop::collection::vec(("[a-d]{1,3}", arb_value_int(), 0i64..100), 0..60),
        page_size in 1usize..10,
    ) {
        let it = build_table(&rows);
        let all = it.select(&Conjunction::all());
        let mut collected = Vec::new();
        let mut page = 0usize;
        loop {
            let p = it.select_page(&Conjunction::all(), page, page_size);
            prop_assert_eq!(p.total, all.len());
            if p.ids.is_empty() { break; }
            collected.extend(p.ids.iter().copied());
            page += 1;
            prop_assert!(page <= all.len() + 1, "pagination loop");
        }
        prop_assert_eq!(collected, all);
    }

    #[test]
    fn keyword_predicate_subset_of_all(
        rows in prop::collection::vec(("[a-d]{1,3}", arb_value_int(), 0i64..100), 0..40),
        kw in "[a-d]{1,3}",
    ) {
        let it = build_table(&rows);
        let conj = Conjunction::new(vec![Predicate::KeywordsAll(vec![kw])]);
        let hits = it.select(&conj);
        let all = it.select(&Conjunction::all());
        prop_assert!(hits.len() <= all.len());
        // Every hit must genuinely contain the keyword.
        prop_assert_eq!(hits.iter().map(|r| r.0).collect::<Vec<_>>(), scan(&it, &conj));
    }
}
