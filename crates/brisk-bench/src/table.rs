//! Minimal aligned-column table printer for experiment output.

/// A simple text table: header row plus data rows, columns padded to the
/// widest cell.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align purely numeric cells, left-align text.
                let numeric = !cell.is_empty()
                    && cell
                        .chars()
                        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e'));
                if numeric {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Format a float with thousands-free compact precision.
pub fn f(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("short"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(99.94), "99.9");
        assert_eq!(f(1.23456), "1.235");
    }
}
