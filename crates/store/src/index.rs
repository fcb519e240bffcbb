//! Secondary indexes: hash for equality, B-tree for ranges.
//!
//! Sites with large backing tables use these so that the simulator stays fast
//! under the millions of probe submissions the surfacer issues. Correctness
//! contract: every indexed lookup returns exactly the ids a full scan would
//! (property-tested in `exec`).

use crate::table::Table;
use crate::value::Value;
use deepweb_common::ids::RecordId;
use deepweb_common::FxHashMap;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Equality index over one column.
#[derive(Clone, Debug)]
pub struct HashIndex {
    col: usize,
    map: FxHashMap<Value, Vec<RecordId>>,
}

impl HashIndex {
    /// Build over `table[col]`.
    pub fn build(table: &Table, col: usize) -> Self {
        let mut map: FxHashMap<Value, Vec<RecordId>> = FxHashMap::default();
        for (id, row) in table.iter() {
            map.entry(row[col].clone()).or_default().push(id);
        }
        HashIndex { col, map }
    }

    /// Column this index covers.
    pub fn column(&self) -> usize {
        self.col
    }

    /// Record ids with `col == value` (ascending id order).
    pub fn lookup(&self, value: &Value) -> &[RecordId] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Ordered index over one column.
#[derive(Clone, Debug)]
pub struct BTreeIndex {
    col: usize,
    map: BTreeMap<Value, Vec<RecordId>>,
}

impl BTreeIndex {
    /// Build over `table[col]`.
    pub fn build(table: &Table, col: usize) -> Self {
        let mut map: BTreeMap<Value, Vec<RecordId>> = BTreeMap::new();
        for (id, row) in table.iter() {
            map.entry(row[col].clone()).or_default().push(id);
        }
        BTreeIndex { col, map }
    }

    /// Column this index covers.
    pub fn column(&self) -> usize {
        self.col
    }

    /// Record ids with `min <= col <= max` (inclusive, either bound optional),
    /// in ascending id order.
    pub fn range(&self, min: Option<&Value>, max: Option<&Value>) -> Vec<RecordId> {
        let lo = min.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        let hi = max.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        // BTreeMap panics if lo > hi; an empty range matches nothing.
        if let (Bound::Included(a), Bound::Included(b)) = (&lo, &hi) {
            if a > b {
                return Vec::new();
            }
        }
        let mut ids: Vec<RecordId> = self
            .map
            .range((lo, hi))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn table() -> Table {
        let schema =
            Schema::new(vec![("make", ValueType::Text), ("price", ValueType::Money)]).unwrap();
        let mut t = Table::new(schema);
        for (m, p) in [
            ("honda", 4000),
            ("ford", 2000),
            ("honda", 6000),
            ("bmw", 9000),
            ("ford", 2000),
        ] {
            t.insert(vec![Value::Text(m.into()), Value::Money(p * 100)])
                .unwrap();
        }
        t
    }

    #[test]
    fn hash_lookup_matches_scan() {
        let t = table();
        let idx = HashIndex::build(&t, 0);
        let got = idx.lookup(&Value::Text("honda".into()));
        assert_eq!(got, &[RecordId(0), RecordId(2)]);
        assert!(idx.lookup(&Value::Text("tesla".into())).is_empty());
    }

    #[test]
    fn btree_range_inclusive() {
        let t = table();
        let idx = BTreeIndex::build(&t, 1);
        let got = idx.range(Some(&Value::Money(200_000)), Some(&Value::Money(600_000)));
        assert_eq!(
            got,
            vec![RecordId(0), RecordId(1), RecordId(2), RecordId(4)]
        );
    }

    #[test]
    fn btree_open_bounds_and_empty_range() {
        let t = table();
        let idx = BTreeIndex::build(&t, 1);
        assert_eq!(idx.range(None, None).len(), 5);
        assert!(idx
            .range(Some(&Value::Money(900_000_000)), Some(&Value::Money(0)))
            .is_empty());
    }
}
