//! Table schemas.

use crate::value::ValueType;
use deepweb_common::{Error, Result};

/// A named, typed column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    /// Column name as a database designer would write it (`make`, `min_price`
    /// pairs never appear in schemas — ranges are a *form* concept over a
    /// single column such as `price`).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// An ordered list of columns.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Errors
    /// Fails on duplicate column names.
    pub fn new(cols: Vec<(&str, ValueType)>) -> Result<Schema> {
        let mut columns = Vec::with_capacity(cols.len());
        for (name, ty) in cols {
            if columns.iter().any(|c: &Column| c.name == name) {
                return Err(Error::Schema(format!("duplicate column {name}")));
            }
            columns.push(Column {
                name: name.to_string(),
                ty,
            });
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Names of all columns, in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let s = Schema::new(vec![("make", ValueType::Text), ("price", ValueType::Money)]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(0).name, "make");
        assert_eq!(s.names(), vec!["make", "price"]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(Schema::new(vec![("a", ValueType::Int), ("a", ValueType::Int)]).is_err());
    }
}
