//! Plain-text table rendering for [`crate::report`]: the column-width
//! arithmetic of every gate's fixed-width tables — first column
//! left-aligned (row labels), all others right-aligned (numbers).

/// A fixed-schema text table: a header row plus data rows.
#[derive(Debug, Clone)]
pub(crate) struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub(crate) fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one data row. Shorter rows are padded with empty cells;
    /// longer rows are truncated to the header width.
    pub(crate) fn push_row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table: header, separator, rows; first column
    /// left-aligned, the rest right-aligned, two spaces between columns.
    pub(crate) fn rendered(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (c, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                if c == 0 {
                    out.push_str(&format!("{cell:<w$}"));
                } else {
                    out.push_str(&format!("{cell:>w$}"));
                }
            }
            // Trim trailing pad of the last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = TextTable::new(&["row", "value", "ok"]);
        t.push_row(vec!["longer-label".into(), "3.14".into(), "yes".into()]);
        t.push_row(vec!["x".into(), "12345.678".into(), "no".into()]);
        let s = t.rendered();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("row"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric column: both rows end at the same offset.
        assert!(lines[2].contains("3.14"));
        assert!(lines[3].contains("12345.678"));
        assert_eq!(
            lines[2].find("yes").map(|i| i + 3),
            lines[3].find("no").map(|i| i + 2)
        );
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.push_row(vec!["1".into()]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.rendered();
        assert_eq!(s.lines().count(), 4);
        assert!(!s.contains('3'));
    }
}
