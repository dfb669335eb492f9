//! Plain-text table rendering for the reproduction harness.
//!
//! Every table/figure regenerator prints through [`TextTable`] so the
//! output lines up like the paper's tables and diffs cleanly run-to-run.

use std::fmt;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Format a float compactly (3 significant decimals, scientific for
    /// very small magnitudes — p-values).
    pub fn num(v: f64) -> String {
        if v == 0.0 {
            "0".to_string()
        } else if v.abs() < 1e-3 {
            format!("{v:.2e}")
        } else if v.abs() >= 1000.0 || (v.fract() == 0.0 && v.abs() < 1e9) {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Metric", "MI"]);
        t.row(vec!["No. of devices", "0.388"]);
        t.row(vec!["x", "0.1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Metric"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
        // Columns align: "MI" column starts at the same offset in all rows.
        let off = lines[0].find("MI").unwrap();
        assert_eq!(&lines[2][off..off + 5], "0.388");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(TextTable::num(0.0), "0");
        assert_eq!(TextTable::num(6.8e-13), "6.80e-13");
        assert_eq!(TextTable::num(0.388), "0.388");
        assert_eq!(TextTable::num(1234.0), "1234");
        assert_eq!(TextTable::num(42.0), "42");
    }
}
