//! # gkfs-bench — benchmark harness for the paper's evaluation
//!
//! Two kinds of targets live here:
//!
//! * **The `figures` binary** regenerates every figure and in-text
//!   experiment of the paper's §IV (and the §V ablations). Each one is
//!   a function in [`figures`] returning [`Table`]s — the simulated
//!   series at MOGON II scale, then a validation pass on the *real*
//!   file system running in-process — and the binary renders any of
//!   them as the text tables under `results/*.txt` or, for the series
//!   that are plotted, as `results/*.csv`. Run with `--release`:
//!   `figures [--smoke] [--csv DIR] [NAME...]`.
//! * **Criterion microbenches** (`benches/`): kvstore, RPC, chunking/
//!   distribution, storage backends, end-to-end client I/O, and the
//!   DESIGN.md ablations (chunk size, distributor choice, handler pool
//!   width, bloom filters).

#![warn(missing_docs)]

pub mod figures;

use std::fmt::Display;

/// Human-readable ops/s (e.g. `46.1M`).
pub fn human_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Human-readable MiB/s (switches to GiB/s when large).
pub fn human_mib(v: f64) -> String {
    if v >= 10_240.0 {
        format!("{:.1}G", v / 1024.0)
    } else {
        format!("{v:.0}")
    }
}

/// One number, as the text table shows it or as a CSV field. `kind` is
/// `ops` or `mib` (human-readable in text, rounded in CSV), or a digit
/// count with an optional unit only the text shows: `0`, `2s`, `0%`.
fn number(v: f64, kind: &str, csv: bool) -> String {
    match kind {
        "ops" if !csv => human_ops(v),
        "mib" if !csv => human_mib(v),
        "ops" | "mib" => format!("{v:.0}"),
        _ => {
            let (digits, unit) = kind.split_at(1);
            let unit = if csv { "" } else { unit };
            format!("{v:.*}{unit}", digits.parse().unwrap_or(0))
        }
    }
}

struct Col {
    /// Text-table header; a column without one is left out of the text.
    head: String,
    /// CSV header; a column without one is left out of the CSV.
    csv: String,
    width: usize,
    kind: String,
}

/// One block of a figure's output: a title, and under it an optional
/// table whose rows are leading labels followed by numbers. The same
/// rows render as an aligned text table and as CSV.
pub struct Table {
    title: String,
    cols: Vec<Col>,
    rows: Vec<(Vec<String>, Vec<f64>)>,
}

impl Table {
    /// A table whose columns are `spec`: `head[>csv]:width[:kind]`
    /// joined by `|`. `head` tops the text column, right-aligned to
    /// `width`; `csv` names it in the CSV; `kind` formats its numbers
    /// (default `0`). A column may have only one of the two names: a
    /// `phase` column that the text shows as one titled table per phase
    /// is `>phase`, a derived column nobody plots is `delta:8:0%`.
    pub fn new(title: impl Into<String>, spec: &str) -> Table {
        let col = |c: &str| {
            let mut part = c.split(':');
            let name = part.next().unwrap_or("");
            let (head, csv) = name.split_once('>').unwrap_or((name, ""));
            let width = part.next().and_then(|w| w.parse().ok()).unwrap_or(0);
            let kind = part.next().unwrap_or("0").into();
            Col { head: head.into(), csv: csv.into(), width, kind }
        };
        let cols = spec.split('|').filter(|c| !c.is_empty()).map(col).collect();
        Table { title: title.into(), cols, rows: Vec::new() }
    }

    /// Prose between tables: a title and nothing under it.
    pub fn text(title: impl Into<String>) -> Table {
        Table::new(title, "")
    }

    /// Append a row: `labels` fill the leading columns, `values` the rest.
    pub fn row(&mut self, labels: &[&dyn Display], values: &[f64]) {
        let labels = labels.iter().map(|l| l.to_string()).collect();
        self.rows.push((labels, values.to_vec()));
    }

    /// The header and every row, formatted for the text table or for
    /// CSV and cut down to the columns that rendering has a name for.
    fn cells(&self, csv: bool) -> impl Iterator<Item = Vec<String>> + '_ {
        let name = move |c: &Col| if csv { c.csv.clone() } else { c.head.clone() };
        let header = self.cols.iter().map(name).collect();
        let rows = self.rows.iter().map(move |(labels, values)| {
            let cols = &self.cols[labels.len()..];
            let numbers = values.iter().zip(cols).map(|(v, c)| number(*v, &c.kind, csv));
            labels.iter().cloned().chain(numbers).collect()
        });
        std::iter::once(header).chain(rows).map(move |cells: Vec<String>| {
            let named = cells.into_iter().zip(&self.cols).filter(|(_, c)| !name(c).is_empty());
            named.map(|(cell, _)| cell).collect()
        })
    }

    /// The text rendering: title, then right-aligned header and rows.
    pub fn render(&self) -> String {
        let shown: Vec<&Col> = self.cols.iter().filter(|c| !c.head.is_empty()).collect();
        let pad = |(cell, col): (&String, &&Col)| format!("{cell:>w$}", w = col.width);
        let table = self.cells(false).map(|cells| {
            cells.iter().zip(&shown).map(pad).collect::<Vec<_>>().join(" ")
        });
        let lines = std::iter::once(self.title.clone()).chain(table);
        lines.filter(|l| !l.is_empty()).map(|l| l + "\n").collect()
    }
}

/// The CSV rendering of a figure: its tables' published columns,
/// stacked under one header. Empty for a figure that publishes none.
pub fn to_csv(tables: &[Table]) -> String {
    let published = tables.iter().filter(|t| t.cols.iter().any(|c| !c.csv.is_empty()));
    // Every table's first line is its header; only the first table's is kept.
    let lines = published.enumerate().flat_map(|(n, t)| t.cells(true).skip(n.min(1)));
    lines.map(|fields| fields.join(",") + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_ops_scales() {
        assert_eq!(human_ops(42.0), "42");
        assert_eq!(human_ops(46_100_000.0), "46.1M");
        assert_eq!(human_ops(33_400.0), "33.4K");
    }

    #[test]
    fn human_mib_switches_units() {
        assert_eq!(human_mib(350.0), "350");
        assert_eq!(human_mib(144_384.0), "141.0G");
    }

    fn sample() -> Table {
        let spec = ">phase|nodes>nodes:5|a>a:6:ops|b>b:6:mib|c>c:6:2s|d:5:0%";
        let mut t = Table::new("T", spec);
        t.row(&[&"write", &1], &[1500.0, 20_480.0, 0.5, -33.3]);
        t.row(&[&"write", &2], &[2.0, 3.0, 1.25, 0.2]);
        t
    }

    #[test]
    fn one_table_renders_as_text_and_as_csv() {
        // The text leaves out the head-less column, the CSV the one
        // without a CSV name; prose is in neither table.
        let t = sample();
        assert_eq!(
            t.render(),
            "T\nnodes      a      b      c     d\n    1   1.5K  20.0G  0.50s  -33%\n    \
             2      2      3  1.25s    0%\n"
        );
        let prose = Table::text("== notes ==\n  a line");
        assert_eq!(prose.render(), "== notes ==\n  a line\n");
        let csv = "phase,nodes,a,b,c\nwrite,1,1500,20480,0.50\nwrite,2,2,3,1.25\n";
        assert_eq!(to_csv(&[prose, sample()]), csv);
        assert_eq!(to_csv(&[Table::text("p")]), "", "nothing published, nothing to plot");
    }

    #[test]
    fn tables_stack_under_one_csv_header_and_may_be_csv_only() {
        let mut plot_only = Table::new("", ">phase|>nodes|>a:0:1");
        plot_only.row(&[&"read", &4], &[2.26]);
        assert_eq!(plot_only.render(), "");
        let stacked = to_csv(&[sample(), plot_only]);
        assert!(stacked.starts_with("phase,nodes,a,b,c\nwrite,1,"), "{stacked}");
        assert!(stacked.ends_with("write,2,2,3,1.25\nread,4,2.3\n"), "{stacked}");
    }
}
