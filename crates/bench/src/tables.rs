//! Minimal fixed-width table rendering for experiment output.

/// A simple column-aligned text table.
///
/// The experiments binary prints one of these per experiment id to stdout.
/// No copy of the tables is committed yet; doing so is ROADMAP item 2 (a
/// committed, checked reproduction of the paper).
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells should match the header.
    pub fn add_row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as an aligned plain-text block.
    pub fn render(&self) -> String {
        let num_cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; num_cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:>width$}  "));
            }
            line.trim_end().to_owned()
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt_f(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_owned()
    } else if x >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = Table::new("demo", &["n", "edges", "lightness"]);
        t.add_row(vec!["10".into(), "45".into(), "1.25".into()]);
        t.add_row(vec!["1000".into(), "4995".into(), "10.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("lightness"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new("ragged", &["a"]);
        t.add_row(vec!["1".into(), "2".into()]);
        assert!(t.render().contains('2'));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(fmt_f(123.456), "123.5");
        assert_eq!(fmt_f(f64::INFINITY), "inf");
    }
}
