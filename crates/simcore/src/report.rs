//! Plain-text table rendering for experiment binaries.
//!
//! Every figure-reproduction binary prints its series as an aligned table so
//! that `EXPERIMENTS.md` can quote output verbatim and downstream scripts can
//! parse it (`column -t`-style: header row, then one row per data point).

use std::fmt::Write as _;

/// An aligned, plain-text table.
///
/// # Examples
///
/// ```
/// use simcore::report::Table;
///
/// let mut t = Table::new(&["load", "p99_us"]);
/// t.row(&["0.5", "1.23"]);
/// t.row(&["0.9", "4.56"]);
/// let s = t.render();
/// assert!(s.contains("load"));
/// assert!(s.lines().count() == 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells (convenient with `format!`).
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with space-aligned columns (two-space gutters).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i + 1 == ncols {
                    let _ = write!(out, "{cell}");
                } else {
                    let _ = write!(out, "{cell:<width$}  ", width = widths[i]);
                }
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        // Trim trailing newline for cleaner embedding.
        out.pop();
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Renders as RFC-4180-style CSV: comma-separated, `\n` line ends, and
    /// cells containing a comma, quote or newline wrapped in double quotes
    /// (embedded quotes doubled). Ends with a trailing newline.
    pub fn to_csv(&self) -> String {
        let quote_cell = |cell: &str, out: &mut String| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                out.push('"');
                for c in cell.chars() {
                    if c == '"' {
                        out.push('"');
                    }
                    out.push(c);
                }
                out.push('"');
            } else {
                out.push_str(cell);
            }
        };
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quote_cell(cell, out);
            }
            out.push('\n');
        };
        emit(&self.header, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Formats a ratio as a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(&["x", "1"]);
        t.row(&["yyyy", "2"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        // All value columns start at the same offset.
        let off0 = lines[0].find("long_header").unwrap();
        let off1 = lines[1].find('1').unwrap();
        let off2 = lines[2].find('2').unwrap();
        assert_eq!(off0, off1);
        assert_eq!(off1, off2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.123), "12.30%");
    }

    #[test]
    fn csv_render() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["plain", "1"]);
        t.row(&["needs,quote", "say \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "name,value\nplain,1\n\"needs,quote\",\"say \"\"hi\"\"\"\n"
        );
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(&["x"]);
        assert!(t.is_empty());
        t.row_owned(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
