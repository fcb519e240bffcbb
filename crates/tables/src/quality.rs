//! Relational-quality filtering: separating true data tables from layout
//! grids, the WebTables "high-quality relational tables" step (paper §2).

use deepweb_html::ExtractedTable;

/// Quality verdict for an extracted table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct QualityScore {
    /// Combined score in `[0, 1]`; tables ≥ 0.5 are kept.
    pub score: f64,
    /// Whether the table passes the relational filter.
    pub is_relational: bool,
}

/// Score a table: header presence, rectangularity, size, column-type
/// consistency (cells in a column should agree on looking numeric or not).
pub(crate) fn score_table(t: &ExtractedTable) -> QualityScore {
    if t.num_rows() < 2 || t.num_cols() < 2 {
        return QualityScore {
            score: 0.0,
            is_relational: false,
        };
    }
    let mut score = 0.0;
    if !t.header.is_empty() {
        score += 0.3;
        // Distinct, nonempty header names.
        let mut names = t.header.clone();
        names.sort();
        names.dedup();
        if names.len() == t.header.len() && names.iter().all(|n| !n.is_empty()) {
            score += 0.1;
        }
    }
    if t.is_rectangular() {
        score += 0.3;
    }
    // Column type consistency.
    let cols = t.num_cols();
    if cols > 0 && !t.rows.is_empty() {
        let mut consistent = 0usize;
        for c in 0..cols {
            let numericish: Vec<bool> = t
                .rows
                .iter()
                .filter_map(|r| r.get(c))
                .map(|cell| looks_numeric(cell))
                .collect();
            if numericish.is_empty() {
                continue;
            }
            let yes = numericish.iter().filter(|&&b| b).count();
            if yes == 0 || yes == numericish.len() {
                consistent += 1;
            }
        }
        score += 0.3 * consistent as f64 / cols as f64;
    }
    QualityScore {
        score,
        is_relational: score >= 0.5,
    }
}

fn looks_numeric(cell: &str) -> bool {
    let stripped: String = cell
        .chars()
        .filter(|c| !matches!(c, '$' | ',' | '.' | '-' | ' '))
        .collect();
    !stripped.is_empty() && stripped.chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(header: Vec<&str>, rows: Vec<Vec<&str>>) -> ExtractedTable {
        ExtractedTable {
            header: header.into_iter().map(str::to_string).collect(),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(str::to_string).collect())
                .collect(),
        }
    }

    #[test]
    fn good_data_table_passes() {
        let t = table(
            vec!["make", "price"],
            vec![
                vec!["honda", "$4500"],
                vec!["ford", "$3000"],
                vec!["bmw", "$9000"],
            ],
        );
        let q = score_table(&t);
        assert!(q.is_relational, "score {}", q.score);
    }

    #[test]
    fn tiny_or_narrow_tables_fail() {
        let t = table(vec!["x"], vec![vec!["1"], vec!["2"]]);
        assert!(!score_table(&t).is_relational);
        let t2 = table(vec!["a", "b"], vec![vec!["1", "2"]]);
        assert!(!score_table(&t2).is_relational);
    }

    #[test]
    fn ragged_layout_grid_scores_lower() {
        let good = table(
            vec!["a", "b"],
            vec![vec!["x", "1"], vec!["y", "2"], vec!["z", "3"]],
        );
        let ragged = ExtractedTable {
            header: vec![],
            rows: vec![
                vec!["nav".into()],
                vec!["x".into(), "1".into(), "extra".into()],
                vec!["y".into()],
            ],
        };
        assert!(score_table(&good).score > score_table(&ragged).score);
        assert!(!score_table(&ragged).is_relational);
    }

    #[test]
    fn mixed_type_columns_penalised() {
        let consistent = table(
            vec!["name", "n"],
            vec![vec!["a", "1"], vec!["b", "2"], vec!["c", "3"]],
        );
        let mixed = table(
            vec!["name", "n"],
            vec![vec!["a", "1"], vec!["b", "two"], vec!["c", "3"]],
        );
        assert!(score_table(&consistent).score > score_table(&mixed).score);
    }
}
