//! Result tables: every experiment renders one or more of these, aligned
//! for the terminal and serializable for EXPERIMENTS.md bookkeeping.

use std::fmt;

/// A titled table of string cells.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    /// Table identifier, e.g. `E5a`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape expectations, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of displayable cells.
    pub fn rowd<D: fmt::Display>(&mut self, cells: &[D]) -> &mut Table {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Adds a note line.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Table {
        self.notes.push(text.into());
        self
    }

    /// Renders aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

/// The verdict cell of a checked row: `ok` or `FAILED`.
pub fn ok(flag: bool) -> &'static str {
    if flag {
        "ok"
    } else {
        "FAILED"
    }
}

/// Formats nanoseconds compactly.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Percentile of a sorted-or-not sample set (nearest-rank).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T1", "demo", &["name", "value"]);
        t.rowd(&["short", "1"]);
        t.rowd(&["a-much-longer-name", "22"]);
        t.note("a note");
        let text = t.to_text();
        assert!(text.contains("== T1: demo =="));
        assert!(text.contains("a-much-longer-name  22"));
        assert!(text.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("T", "t", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.50us");
        assert_eq!(fmt_ns(2_000_000.0), "2.00ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }

    #[test]
    fn percentiles() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 50.0), 50.0);
        assert_eq!(percentile(&mut samples, 99.0), 99.0);
        assert_eq!(percentile(&mut samples, 100.0), 100.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 50.0), 7.0);
    }
}
