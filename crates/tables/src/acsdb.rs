//! The attribute-correlation statistics database (ACSDb) of the WebTables
//! line of work, which the paper's §6 builds its semantic services on:
//! schema frequencies, attribute co-occurrence, and per-attribute value
//! distributions.

use std::collections::BTreeMap;

/// Accumulated statistics over a corpus of schemas (from harvested HTML
//  tables and form input groups).
#[derive(Clone, Debug, Default)]
pub struct Acsdb {
    /// Distinct schemas (sorted attribute lists) with occurrence counts.
    schema_counts: BTreeMap<Vec<String>, u32>,
    /// Attribute → number of schemas containing it.
    attr_counts: BTreeMap<String, u32>,
    /// Ordered pair (a,b), a<b → co-occurrence count.
    pair_counts: BTreeMap<(String, String), u32>,
    /// Attribute → value → count (from table columns).
    values: BTreeMap<String, BTreeMap<String, u32>>,
    /// Total schemas added.
    total_schemas: u32,
}

impl Acsdb {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one schema occurrence (attribute names, any order), with optional
    /// column values (parallel to `attrs`).
    pub(crate) fn add_schema(&mut self, attrs: &[String], columns: Option<&[Vec<String>]>) {
        if attrs.is_empty() {
            return;
        }
        let mut key: Vec<String> = attrs.iter().map(|a| a.to_ascii_lowercase()).collect();
        key.sort();
        key.dedup();
        *self.schema_counts.entry(key.clone()).or_insert(0) += 1;
        self.total_schemas += 1;
        for a in &key {
            *self.attr_counts.entry(a.clone()).or_insert(0) += 1;
        }
        for i in 0..key.len() {
            for j in i + 1..key.len() {
                *self
                    .pair_counts
                    .entry((key[i].clone(), key[j].clone()))
                    .or_insert(0) += 1;
            }
        }
        if let Some(cols) = columns {
            for (a, col) in attrs.iter().zip(cols) {
                let entry = self.values.entry(a.to_ascii_lowercase()).or_default();
                for v in col {
                    let v = v.trim().to_ascii_lowercase();
                    if !v.is_empty() {
                        *entry.entry(v).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    /// Number of schemas added.
    pub fn total_schemas(&self) -> u32 {
        self.total_schemas
    }

    /// Number of distinct attributes seen.
    pub fn num_attributes(&self) -> usize {
        self.attr_counts.len()
    }

    /// Schema-frequency of an attribute.
    pub fn attr_count(&self, attr: &str) -> u32 {
        self.attr_counts.get(attr).copied().unwrap_or(0)
    }

    /// Co-occurrence count of two attributes.
    pub(crate) fn pair_count(&self, a: &str, b: &str) -> u32 {
        if a == b {
            return self.attr_count(a);
        }
        let key = if a < b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        };
        self.pair_counts.get(&key).copied().unwrap_or(0)
    }

    /// `P(a | b)`: fraction of schemas containing `b` that also contain `a`.
    pub(crate) fn conditional(&self, a: &str, b: &str) -> f64 {
        let cb = self.attr_count(b);
        if cb == 0 {
            0.0
        } else {
            self.pair_count(a, b) as f64 / cb as f64
        }
    }

    /// All attributes (sorted by frequency desc, then name).
    pub fn attributes(&self) -> Vec<(&str, u32)> {
        let mut v: Vec<(&str, u32)> = self
            .attr_counts
            .iter()
            .map(|(a, &c)| (a.as_str(), c))
            .collect();
        v.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(y.0)));
        v
    }

    /// The co-occurrence context of an attribute: every other attribute with
    /// its pair count, in name order (a fold over it is the same every run).
    pub fn context(&self, attr: &str) -> BTreeMap<&str, u32> {
        let mut ctx = BTreeMap::new();
        for ((a, b), &c) in &self.pair_counts {
            if a == attr {
                ctx.insert(b.as_str(), c);
            } else if b == attr {
                ctx.insert(a.as_str(), c);
            }
        }
        ctx
    }

    /// Top values of an attribute's columns.
    pub(crate) fn top_values(&self, attr: &str, k: usize) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> = self
            .values
            .get(attr)
            .map(|m| m.iter().map(|(s, &c)| (s.clone(), c)).collect())
            .unwrap_or_default();
        v.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
        v.truncate(k);
        v
    }

    /// Attributes whose value sets contain `value` (entity → property edge).
    pub(crate) fn attributes_with_value(&self, value: &str) -> Vec<&str> {
        let value = value.to_ascii_lowercase();
        let mut out: Vec<&str> = self
            .values
            .iter()
            .filter(|(_, vals)| vals.contains_key(&value))
            .map(|(a, _)| a.as_str())
            .collect();
        out.sort();
        out
    }

    /// Value overlap (Jaccard over distinct values) between two attributes —
    /// the synonym signal.
    pub(crate) fn value_overlap(&self, a: &str, b: &str) -> f64 {
        let (Some(va), Some(vb)) = (self.values.get(a), self.values.get(b)) else {
            return 0.0;
        };
        let inter = va.keys().filter(|k| vb.contains_key(*k)).count() as f64;
        let union = (va.len() + vb.len()) as f64 - inter;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn db() -> Acsdb {
        let mut db = Acsdb::new();
        db.add_schema(&s(&["make", "model", "price"]), None);
        db.add_schema(&s(&["make", "model", "year"]), None);
        db.add_schema(&s(&["make", "model"]), None);
        db.add_schema(&s(&["title", "author"]), None);
        db
    }

    #[test]
    fn counts_and_conditionals() {
        let db = db();
        assert_eq!(db.total_schemas(), 4);
        assert_eq!(db.attr_count("make"), 3);
        assert_eq!(db.pair_count("make", "model"), 3);
        assert_eq!(db.pair_count("model", "make"), 3);
        assert!((db.conditional("model", "make") - 1.0).abs() < 1e-12);
        assert!((db.conditional("price", "make") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(db.pair_count("make", "author"), 0);
    }

    #[test]
    fn values_and_entity_lookup() {
        let mut db = Acsdb::new();
        db.add_schema(
            &s(&["make", "price"]),
            Some(&[s(&["honda", "ford"]), s(&["$100", "$200"])]),
        );
        db.add_schema(&s(&["brand"]), Some(&[s(&["honda", "bmw"])]));
        assert_eq!(db.top_values("make", 2).len(), 2);
        assert_eq!(db.attributes_with_value("honda"), vec!["brand", "make"]);
        assert!(db.value_overlap("make", "brand") > 0.3);
        assert_eq!(db.value_overlap("make", "price"), 0.0);
    }

    #[test]
    fn context_covers_cooccurring_attrs() {
        let db = db();
        let ctx = db.context("make");
        assert_eq!(ctx.get("model"), Some(&3));
        assert_eq!(ctx.get("price"), Some(&1));
        assert!(!ctx.contains_key("author"));
        // Name order, whatever order the pairs were counted in: a fold over
        // the context is the same sum every run.
        let pairs: Vec<(&str, u32)> = ctx.into_iter().collect();
        assert_eq!(pairs, [("model", 3), ("price", 1), ("year", 1)]);
    }

    #[test]
    fn dedup_within_schema() {
        let mut db = Acsdb::new();
        db.add_schema(&s(&["a", "a", "b"]), None);
        assert_eq!(db.attr_count("a"), 1);
        assert_eq!(db.pair_count("a", "b"), 1);
    }
}
