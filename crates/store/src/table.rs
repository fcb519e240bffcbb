//! In-memory tables with pre-tokenised rows, and query execution over them:
//! conjunctive selection by table scan plus pagination — exactly the work a
//! deep-web site's CGI backend performs for a form submission.

use crate::predicate::{Conjunction, Predicate};
use crate::schema::Schema;
use crate::value::Value;
use deepweb_common::ids::RecordId;
use deepweb_common::text::tokenize;
use deepweb_common::{Error, Result};

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

/// A table: schema + rows + per-row token cache.
///
/// The token cache exists because keyword predicates (search boxes) are the
/// hottest operation in the simulator — every probe of every form evaluates
/// them over the whole table.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    rows: Vec<Vec<Value>>,
    row_tokens: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with `schema`.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            row_tokens: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row, validating arity and types.
    ///
    /// # Errors
    /// Fails if the row does not match the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RecordId> {
        if row.len() != self.schema.len() {
            return Err(Error::Schema(format!(
                "row arity {} != schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        for (i, v) in row.iter().enumerate() {
            let expect = self.schema.column(i).ty;
            if v.value_type() != expect {
                return Err(Error::Schema(format!(
                    "column {} expects {:?}, got {:?}",
                    self.schema.column(i).name,
                    expect,
                    v.value_type()
                )));
            }
        }
        let mut toks: Vec<String> = Vec::new();
        for v in &row {
            toks.extend(tokenize(&v.render()));
        }
        toks.sort();
        toks.dedup();
        let id = RecordId(self.rows.len() as u32);
        self.rows.push(row);
        self.row_tokens.push(toks);
        Ok(id)
    }

    /// Row by id.
    pub fn row(&self, id: RecordId) -> &[Value] {
        &self.rows[id.as_usize()]
    }

    /// Pre-tokenised rendering of the row (sorted, deduped).
    pub fn row_tokens(&self, id: RecordId) -> &[String] {
        &self.row_tokens[id.as_usize()]
    }

    /// Iterate `(RecordId, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (RecordId(i as u32), r.as_slice()))
    }

    /// Distinct values of a column (sorted).
    pub fn distinct_values(&self, col: usize) -> Vec<Value> {
        let mut vals: Vec<Value> = self.rows.iter().map(|r| r[col].clone()).collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// All record ids matching `conj`, ascending: a scan of every row. A
    /// vacuous conjunction (an empty range or keyword list) selects nothing.
    pub fn select(&self, conj: &Conjunction) -> Vec<RecordId> {
        if conj.is_vacuous() {
            return Vec::new();
        }
        // A typed conjunct is one comparison, while keyword containment walks
        // the row's tokens: test the keywords last, on the rows every typed
        // conjunct admits. Conjuncts commute, so the ids are the same.
        let mut conj = conj.clone();
        conj.preds
            .sort_by_key(|p| matches!(p, Predicate::KeywordsAll(_)));
        self.iter()
            .filter(|(id, row)| conj.matches(row, self.row_tokens(*id)))
            .map(|(id, _)| id)
            .collect()
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
    use crate::value::ValueType;

    fn car_table() -> Table {
        let schema =
            Schema::new(vec![("make", ValueType::Text), ("year", ValueType::Int)]).unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::Text("honda civic".into()), Value::Int(1993)])
            .unwrap();
        t.insert(vec![Value::Text("ford focus".into()), Value::Int(1998)])
            .unwrap();
        t
    }

    #[test]
    fn insert_and_read_back() {
        let t = car_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(RecordId(0))[1], Value::Int(1993));
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = car_table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t.insert(vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn tokens_cover_all_columns() {
        let t = car_table();
        let toks = t.row_tokens(RecordId(0));
        assert!(toks.contains(&"honda".to_string()));
        assert!(toks.contains(&"1993".to_string()));
    }

    #[test]
    fn distinct_values_sorted() {
        let t = car_table();
        assert_eq!(
            t.distinct_values(1),
            vec![Value::Int(1993), Value::Int(1998)]
        );
    }

    fn cars() -> Table {
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
        t
    }

    #[test]
    fn eq_selects_exact_value() {
        let t = cars();
        let conj = Conjunction::new(vec![Predicate::Eq {
            col: 0,
            value: Value::Text("ford focus".into()),
        }]);
        assert_eq!(t.select(&conj), vec![RecordId(1)]);
    }

    #[test]
    fn conjunction_of_range_and_keyword() {
        let t = cars();
        let conj = Conjunction::new(vec![
            Predicate::Range {
                col: 1,
                min: Some(Value::Int(1993)),
                max: Some(Value::Int(1995)),
            },
            Predicate::KeywordsAll(vec!["honda".into()]),
        ]);
        assert_eq!(t.select(&conj), vec![RecordId(0)]);
        // Listed first, the keywords are still tested last: same ids.
        let kw_first = Conjunction::new(conj.preds.iter().rev().cloned().collect());
        assert_eq!(t.select(&kw_first), vec![RecordId(0)]);
    }

    #[test]
    fn keyword_selects_rows_in_id_order() {
        let t = cars();
        let conj = Conjunction::new(vec![Predicate::KeywordsAll(vec!["ford".into()])]);
        assert_eq!(t.select(&conj), vec![RecordId(1), RecordId(4)]);
    }

    #[test]
    fn empty_conjunction_returns_everything() {
        let t = cars();
        assert_eq!(t.select(&Conjunction::all()).len(), 5);
    }

    #[test]
    fn vacuous_returns_nothing() {
        let t = cars();
        let conj = Conjunction::new(vec![Predicate::Range {
            col: 2,
            min: Some(Value::Money(10_000_000)),
            max: Some(Value::Money(0)),
        }]);
        assert!(t.select(&conj).is_empty());
    }

    #[test]
    fn pagination_slices_and_counts() {
        let t = cars();
        let p0 = t.select_page(&Conjunction::all(), 0, 2);
        assert_eq!(p0.total, 5);
        assert_eq!(p0.ids, vec![RecordId(0), RecordId(1)]);
        let p2 = t.select_page(&Conjunction::all(), 2, 2);
        assert_eq!(p2.ids, vec![RecordId(4)]);
        let past = t.select_page(&Conjunction::all(), 9, 2);
        assert!(past.ids.is_empty());
        assert_eq!(past.total, 5);
    }
}
