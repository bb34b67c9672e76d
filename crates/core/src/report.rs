//! Plain-text table rendering for the reproduction harness.

/// A simple right-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        // `row` sized every row to the header width, so cells and
        // widths zip one to one.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (c, &w)) in cells.iter().zip(&widths).enumerate() {
                // First column left-aligned, the rest right-aligned.
                if i == 0 {
                    line.push_str(&format!("{c:<w$}"));
                } else {
                    line.push_str(&format!("  {c:>w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Format a fraction as a percentage with two decimals.
pub fn pct2(f: f64) -> String {
    format!("{:.2}%", f * 100.0)
}

/// Format a count with thousands separators.
pub fn count(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["AS", "lost", "pct"]);
        t.row(["Telecom Italia", "57000", "53.7"]);
        t.row(["Akamai", "97", "2.1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("AS") && lines[0].contains("pct"));
        assert!(lines[2].starts_with("Telecom Italia"));
        // Right alignment: the numbers end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn row_padding() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.9634), "96.3%");
        assert_eq!(pct2(0.00082), "0.08%");
        assert_eq!(count(58141932), "58,141,932");
        assert_eq!(count(5), "5");
        assert_eq!(count(1000), "1,000");
    }
}
