//! Shared experiment plumbing: fresh platforms/contexts with scratch
//! profile caches, aligned table printing, and report files.

use crate::experiments::common::bench_options;
use clrt::Platform;
use multicl::{ContextSchedPolicy, MulticlContext};
use std::path::PathBuf;

/// A fresh simulated paper-node platform (clock at zero).
pub fn fresh_platform() -> Platform {
    Platform::paper_node()
}

/// A MultiCL context over `platform` with [`bench_options`]' scratch
/// profile cache: all bench contexts share one directory per process, so
/// the static device profile is measured once and every subsequent context
/// starts warm (like repeated runs on one machine).
pub fn fresh_context(
    platform: &Platform,
    policy: ContextSchedPolicy,
    data_caching: bool,
) -> MulticlContext {
    MulticlContext::with_options(platform, policy, bench_options(data_caching))
        .expect("context creation")
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (printed above).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render as CSV (headers + rows, RFC-4180 quoting).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        if !self.headers.is_empty() {
            out.push_str(&fmt_row(&self.headers, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Print a table to stdout.
pub fn print_table(t: &Table) {
    print!("{}", t.render());
    println!();
}

/// Write a report file under `results/` (created if needed); returns the
/// path. Failures are printed, not fatal — figures still go to stdout.
pub fn write_report(name: &str, contents: &str) -> Option<PathBuf> {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results/: {e}");
        return None;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows align: "value" column starts at the same offset.
        let hdr_off = lines[1].find("value").unwrap();
        let row_off = lines[4].find('2').unwrap();
        assert_eq!(hdr_off, row_off);
    }

    #[test]
    fn csv_export_quotes_awkward_fields() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next(), Some("name,value"));
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn fresh_context_is_warm_after_first() {
        let p1 = fresh_platform();
        let _c1 = fresh_context(&p1, ContextSchedPolicy::AutoFit, true);
        let p2 = fresh_platform();
        let t0 = p2.now();
        let _c2 = fresh_context(&p2, ContextSchedPolicy::AutoFit, true);
        assert_eq!(p2.now(), t0, "second context must load the cached device profile");
    }
}
