//! Query execution: conjunctive selection with index acceleration and
//! pagination — exactly the work a deep-web site's CGI backend performs for a
//! form submission.

use crate::index::{BTreeIndex, HashIndex};
use crate::predicate::{Conjunction, Predicate};
use crate::table::Table;
use deepweb_common::ids::RecordId;

/// A paginated result: the total match count plus one page of record ids.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Page {
    /// Total number of matching records (before pagination).
    pub total: usize,
    /// Record ids on this page, in ascending id order.
    pub ids: Vec<RecordId>,
    /// Zero-based page number.
    pub page: usize,
    /// Page size used.
    pub page_size: usize,
}

/// A table plus its secondary indexes.
#[derive(Clone, Debug)]
pub struct IndexedTable {
    table: Table,
    hash_indexes: Vec<HashIndex>,
    btree_indexes: Vec<BTreeIndex>,
}

impl IndexedTable {
    /// Index every column: hash for all, B-tree for ordered types.
    pub fn build(table: Table) -> Self {
        let ncols = table.schema().len();
        let hash_indexes = (0..ncols).map(|c| HashIndex::build(&table, c)).collect();
        let btree_indexes = (0..ncols).map(|c| BTreeIndex::build(&table, c)).collect();
        IndexedTable {
            table,
            hash_indexes,
            btree_indexes,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Take the table back out, dropping the indexes. Used when a site's
    /// backing data grows: append rows to the bare table, then re-`build`.
    pub fn into_table(self) -> Table {
        self.table
    }

    /// All record ids matching `conj`, ascending.
    ///
    /// Strategy: pick the most selective indexable conjunct as the access
    /// path, then verify remaining conjuncts against the fetched rows. Falls
    /// back to a full scan when no conjunct is indexable.
    pub fn select(&self, conj: &Conjunction) -> Vec<RecordId> {
        if conj.is_vacuous() {
            return Vec::new();
        }
        // Choose the indexable conjunct with the smallest candidate set.
        let mut best: Option<(usize, Vec<RecordId>)> = None;
        for (pi, p) in conj.preds.iter().enumerate() {
            let candidates: Option<Vec<RecordId>> = match p {
                Predicate::Eq { col, value } => {
                    Some(self.hash_indexes[*col].lookup(value).to_vec())
                }
                Predicate::Range { col, min, max } => {
                    Some(self.btree_indexes[*col].range(min.as_ref(), max.as_ref()))
                }
                Predicate::KeywordsAll(_) => None,
            };
            if let Some(c) = candidates {
                if best.as_ref().is_none_or(|(_, b)| c.len() < b.len()) {
                    best = Some((pi, c));
                }
            }
        }
        match best {
            Some((skip, candidates)) => candidates
                .into_iter()
                .filter(|&id| {
                    conj.preds.iter().enumerate().all(|(pi, p)| {
                        pi == skip || p.matches(self.table.row(id), self.table.row_tokens(id))
                    })
                })
                .collect(),
            None => self
                .table
                .iter()
                .filter(|(id, row)| conj.matches(row, self.table.row_tokens(*id)))
                .map(|(id, _)| id)
                .collect(),
        }
    }

    /// One page of the selection.
    pub fn select_page(&self, conj: &Conjunction, page: usize, page_size: usize) -> Page {
        let all = self.select(conj);
        let total = all.len();
        let start = page.saturating_mul(page_size).min(total);
        let end = (start + page_size).min(total);
        Page {
            total,
            ids: all[start..end].to_vec(),
            page,
            page_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    fn cars() -> IndexedTable {
        let schema = Schema::new(vec![
            ("make", ValueType::Text),
            ("year", ValueType::Int),
            ("price", ValueType::Money),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let rows = [
            ("honda civic", 1993, 4500),
            ("ford focus", 1998, 3000),
            ("honda accord", 2001, 8000),
            ("bmw 320", 1995, 9000),
            ("ford fiesta", 1993, 1500),
        ];
        for (m, y, p) in rows {
            t.insert(vec![
                Value::Text(m.into()),
                Value::Int(y),
                Value::Money(p * 100),
            ])
            .unwrap();
        }
        IndexedTable::build(t)
    }

    #[test]
    fn eq_via_index_matches_scan() {
        let it = cars();
        let conj = Conjunction::new(vec![Predicate::Eq {
            col: 0,
            value: Value::Text("ford focus".into()),
        }]);
        assert_eq!(it.select(&conj), vec![RecordId(1)]);
    }

    #[test]
    fn conjunction_of_range_and_keyword() {
        let it = cars();
        let conj = Conjunction::new(vec![
            Predicate::Range {
                col: 1,
                min: Some(Value::Int(1993)),
                max: Some(Value::Int(1995)),
            },
            Predicate::KeywordsAll(vec!["honda".into()]),
        ]);
        assert_eq!(it.select(&conj), vec![RecordId(0)]);
    }

    #[test]
    fn keyword_only_falls_back_to_scan() {
        let it = cars();
        let conj = Conjunction::new(vec![Predicate::KeywordsAll(vec!["ford".into()])]);
        assert_eq!(it.select(&conj), vec![RecordId(1), RecordId(4)]);
    }

    #[test]
    fn empty_conjunction_returns_everything() {
        let it = cars();
        assert_eq!(it.select(&Conjunction::all()).len(), 5);
    }

    #[test]
    fn vacuous_returns_nothing() {
        let it = cars();
        let conj = Conjunction::new(vec![Predicate::Range {
            col: 2,
            min: Some(Value::Money(10_000_000)),
            max: Some(Value::Money(0)),
        }]);
        assert!(it.select(&conj).is_empty());
    }

    #[test]
    fn pagination_slices_and_counts() {
        let it = cars();
        let p0 = it.select_page(&Conjunction::all(), 0, 2);
        assert_eq!(p0.total, 5);
        assert_eq!(p0.ids, vec![RecordId(0), RecordId(1)]);
        let p2 = it.select_page(&Conjunction::all(), 2, 2);
        assert_eq!(p2.ids, vec![RecordId(4)]);
        let past = it.select_page(&Conjunction::all(), 9, 2);
        assert!(past.ids.is_empty());
        assert_eq!(past.total, 5);
    }
}
