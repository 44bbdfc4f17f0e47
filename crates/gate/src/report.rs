//! The one gate report: every gate produces a [`Report`], and its
//! verdict, violation list, text rendering and JSON envelope are written
//! here once.
//!
//! A report is two things. **Checks** are the gated assertions — one
//! [`Check`] per condition that can fail the gate, labelled, so the set
//! of labels *is* the gate's assertion inventory. **Tables** carry the
//! measurements: each gate lists a row's cells once and gets the text
//! table and the JSON rows from the same list — the one rendering of
//! each fact (CI lifts a gate's headline table into the job summary by
//! its title).
//!
//! The serialized text is the contract: one member per line above the
//! rows, one row or check per line, so a regenerated report that moved
//! shows in `git diff` as exactly the rows that moved. No program reads
//! a report back; `ci.sh` lifts the `violations` lines into the job
//! summary with `sed`.

use crate::json::Json;
use crate::table::TextTable;
use std::fmt::Write as _;

/// Version of the JSON envelope (`gate/format/pass/case/checks/tables/
/// violations`) shared by the gate-written `BENCH_*.json` files.
pub const FORMAT: u32 = 2;

/// One gated assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is asserted; stable across runs (the inventory key).
    pub label: String,
    /// Whether it held.
    pub pass: bool,
    /// The violation text (empty when the check held).
    pub detail: String,
    /// The measured quantity, for numeric assertions.
    pub measured: Option<f64>,
    /// The bound it was held against.
    pub bound: Option<f64>,
}

impl Check {
    /// A pass/fail assertion; `violation` is what to say when it fails.
    pub fn new(label: impl Into<String>, pass: bool, violation: impl Into<String>) -> Check {
        Check {
            label: label.into(),
            pass,
            detail: if pass {
                String::new()
            } else {
                violation.into()
            },
            measured: None,
            bound: None,
        }
    }

    /// An assertion that holds iff `violations` is empty (the shape the
    /// gates' pure `*_violations` functions return).
    pub fn all_of(label: impl Into<String>, violations: &[String]) -> Check {
        Check::new(label, violations.is_empty(), violations.join("; "))
    }

    /// Attaches the measured value and its bound.
    pub fn bounded(mut self, measured: f64, bound: f64) -> Check {
        self.measured = Some(measured);
        self.bound = Some(bound);
        self
    }
}

/// One table cell. The text table and the JSON row are both derived
/// from it, so a number is printed with the same digits in both.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text.
    Str(String),
    /// An integer (counts, byte sizes).
    Int(i64),
    /// A real number *as printed* — see [`Cell::num`], [`Cell::sci`] and
    /// `From<f64>`. JSON carries the value of exactly these digits.
    Num(String),
    /// A flag (`yes`/`no` in text).
    Bool(bool),
    /// A short list (a ranking, a band).
    List(Vec<Cell>),
    /// Absent (`-` in text, `null` in JSON).
    Null,
}

impl Cell {
    /// `value` with a fixed number of decimals.
    pub fn num(value: f64, decimals: usize) -> Cell {
        Cell::Num(format!("{value:.decimals$}"))
    }

    /// `value` in scientific notation with `decimals` mantissa decimals.
    pub fn sci(value: f64, decimals: usize) -> Cell {
        Cell::Num(format!("{value:.decimals$e}"))
    }

    /// A list of strings.
    pub fn strs<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Cell {
        Cell::List(items.into_iter().map(|s| s.as_ref().into()).collect())
    }

    fn text(&self) -> String {
        match self {
            Cell::Str(s) | Cell::Num(s) => s.clone(),
            Cell::Int(i) => i.to_string(),
            Cell::Bool(b) => if *b { "yes" } else { "no" }.to_string(),
            Cell::List(items) => items.iter().map(Cell::text).collect::<Vec<_>>().join(", "),
            Cell::Null => "-".to_string(),
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Str(s) => Json::Str(s.clone()),
            Cell::Int(i) => Json::Num(*i as f64),
            Cell::Num(s) => Json::Num(s.parse().unwrap_or(f64::NAN)),
            Cell::Bool(b) => Json::Bool(*b),
            Cell::List(items) => Json::Arr(items.iter().map(Cell::json).collect()),
            Cell::Null => Json::Null,
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Bool(b)
    }
}

/// The shortest digits that round-trip (`0.3`, `10`).
impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Num(x.to_string())
    }
}

macro_rules! cell_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(i: $t) -> Cell {
                i64::try_from(i).map_or(Cell::Null, Cell::Int)
            }
        }
    )*};
}
cell_from_int!(i32, u32, u64, usize);

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(x: Option<T>) -> Cell {
        x.map_or(Cell::Null, Into::into)
    }
}

/// One row of a table: every cell under its column name. Naming the
/// column next to the cell is what keeps the text header, the JSON key
/// and the value from drifting apart.
pub type Row = Vec<(&'static str, Cell)>;

/// One table of measurements: text through `TextTable`, JSON as an
/// array of objects keyed by column.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Key of the table in the JSON `tables` object.
    pub key: &'static str,
    /// Heading of the text rendering.
    pub title: String,
    /// Column names (text headers and JSON keys).
    pub columns: Vec<&'static str>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Builds a table from its rows. The columns are the first row's
    /// names; every row lists the same names in the same order.
    pub fn new(
        key: &'static str,
        title: impl Into<String>,
        rows: impl IntoIterator<Item = Row>,
    ) -> Table {
        let mut columns = Vec::new();
        let cells_of = |row: Row| {
            let (names, cells): (Vec<&'static str>, Vec<Cell>) = row.into_iter().unzip();
            debug_assert!(columns.is_empty() || columns == names, "ragged table {key}");
            columns = names;
            cells
        };
        let rows = rows.into_iter().map(cells_of).collect();
        Table {
            key,
            title: title.into(),
            columns,
            rows,
        }
    }

    fn json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|row| Json::obj(self.columns.iter().zip(row).map(|(c, x)| (*c, x.json()))))
                .collect(),
        )
    }
}

/// The complete outcome of one gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registry name of the gate (`gate`, `comm`, …).
    pub gate: &'static str,
    /// The pinned parameters the gate ran with.
    pub case: Vec<(&'static str, Cell)>,
    /// Every gated assertion.
    pub checks: Vec<Check>,
    /// The measurements behind them.
    pub tables: Vec<Table>,
}

impl Report {
    /// True when every check held.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// One `gate: label: detail` string per failed check.
    pub fn violations(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("{}: {}: {}", self.gate, c.label, c.detail))
            .collect()
    }

    /// The human-readable rendering: every table under its heading,
    /// then — for a report that gates something — the check inventory
    /// and the verdict. A report with no checks has no verdict to print.
    pub fn rendered(&self) -> String {
        let mut s = String::new();
        let mut section = |title: &str, columns: &[&str], rows: Vec<Vec<String>>| {
            let _ = writeln!(s, "=== repro {}: {title} ===", self.gate);
            let mut t = TextTable::new(columns);
            rows.into_iter().for_each(|r| t.push_row(r));
            let _ = writeln!(s, "{}", t.rendered());
        };
        for t in &self.tables {
            let rows = t.rows.iter().map(|r| r.iter().map(Cell::text).collect());
            section(&t.title, &t.columns, rows.collect());
        }
        if self.checks.is_empty() {
            return s;
        }
        let bound = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
        let checks = self.checks.iter().map(|c| {
            let result = if c.pass { "pass" } else { "FAIL" };
            vec![
                c.label.clone(),
                bound(c.measured),
                bound(c.bound),
                result.to_string(),
            ]
        });
        section(
            "checks",
            &["check", "measured", "bound", "result"],
            checks.collect(),
        );
        let violations = self.violations();
        if violations.is_empty() {
            let _ = writeln!(s, "{} gate: PASS", self.gate);
        } else {
            let _ = writeln!(
                s,
                "{} gate: FAIL ({} violations)",
                self.gate,
                violations.len()
            );
            for v in &violations {
                let _ = writeln!(s, "  - {v}");
            }
        }
        s
    }

    /// The machine-readable envelope written to the gate's report file.
    pub fn to_json(&self) -> String {
        let num = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        let checks = self.checks.iter().map(|c| {
            Json::obj([
                ("label", Json::Str(c.label.clone())),
                ("pass", Json::Bool(c.pass)),
                ("detail", Json::Str(c.detail.clone())),
                ("measured", num(c.measured)),
                ("bound", num(c.bound)),
            ])
        });
        Json::obj([
            ("gate", Json::Str(self.gate.to_string())),
            ("format", Json::Num(FORMAT.into())),
            ("pass", Json::Bool(self.pass())),
            (
                "case",
                Json::obj(self.case.iter().map(|(k, v)| (*k, v.json()))),
            ),
            ("checks", Json::Arr(checks.collect())),
            (
                "tables",
                Json::obj(self.tables.iter().map(|t| (t.key, t.json()))),
            ),
            ("violations", Json::strs(self.violations())),
        ])
        .write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pass: bool) -> Report {
        Report {
            gate: "sample",
            case: vec![("ranks", 4usize.into()), ("scale", 0.3.into())],
            checks: vec![
                Check::new("always", true, ""),
                Check::new("digits: FF1", pass, "FF1: 2 digits < required 5").bounded(2.0, 5.0),
            ],
            tables: vec![Table::new(
                "rows",
                "the rows",
                [vec![
                    ("name", "a \"quoted\" name".into()),
                    ("secs", Cell::num(1.0, 4)),
                    ("sci", Cell::sci(14.33531, 6)),
                    ("ok", pass.into()),
                    ("order", Cell::strs(["x", "y"])),
                    ("from", None::<u64>.into()),
                ]],
            )],
        }
    }

    /// The envelope of `sample(pass)`, byte for byte, with the second
    /// check's `detail` and the `violations` member spelled by the caller.
    fn sample_json(pass: bool, detail: &str, violations: &str) -> String {
        format!(
            r#"{{
  "gate": "sample",
  "format": 2,
  "pass": {pass},
  "case": {{"ranks": 4, "scale": 0.3}},
  "checks": [
    {{"label": "always", "pass": true, "detail": "", "measured": null, "bound": null}},
    {{"label": "digits: FF1", "pass": {pass}, "detail": "{detail}", "measured": 2, "bound": 5}}
  ],
  "tables": {{
    "rows": [
      {{"name": "a \"quoted\" name", "secs": 1, "sci": 14.33531, "ok": {pass}, "order": ["x", "y"], "from": null}}
    ]
  }},
  "violations": {violations}
}}
"#
        )
    }

    #[test]
    fn passing_report_renders_and_serializes() {
        let good = sample(true);
        assert!(good.pass());
        assert!(good.violations().is_empty());
        let text = good.rendered();
        assert!(text.contains("=== repro sample: the rows ==="), "{text}");
        assert!(
            text.contains("1.0000") && text.contains("1.433531e1"),
            "{text}"
        );
        assert!(text.contains("=== repro sample: checks ==="), "{text}");
        assert!(text.contains("sample gate: PASS"), "{text}");
        assert_eq!(good.to_json(), sample_json(true, "", "[]"));
    }

    /// A report that asserts nothing (`bench-exec`) prints its tables
    /// and stops: no empty checks table, no verdict it did not earn.
    /// The envelope keeps every member — `pass` is the vacuous truth.
    #[test]
    fn report_without_checks_has_no_verdict() {
        let mut rep = sample(true);
        rep.checks.clear();
        let text = rep.rendered();
        assert!(text.contains("=== repro sample: the rows ==="), "{text}");
        assert!(!text.contains("checks"), "{text}");
        assert!(!text.contains("PASS") && !text.contains("FAIL"), "{text}");
        let full = sample_json(true, "", "[]");
        let (head, rest) = full.split_once("  \"checks\": [\n").unwrap();
        let (_, tail) = rest.split_once("  ],\n").unwrap();
        assert_eq!(rep.to_json(), format!("{head}  \"checks\": [],\n{tail}"));
    }

    /// The shared emitter: a failing check flips the verdict, is listed
    /// as a violation, shows as FAIL in the text, and lands in the
    /// envelope's `pass`, its check line and the `violations` list.
    #[test]
    fn failing_report_lists_violations() {
        let bad = sample(false);
        assert!(!bad.pass());
        let violation = "sample: digits: FF1: FF1: 2 digits < required 5";
        assert_eq!(bad.violations(), vec![violation]);
        let text = bad.rendered();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("sample gate: FAIL (1 violations)"), "{text}");
        assert_eq!(
            bad.to_json(),
            sample_json(
                false,
                "FF1: 2 digits < required 5",
                &format!("[\n    \"{violation}\"\n  ]")
            )
        );
    }

    #[test]
    fn all_of_joins_violation_texts() {
        assert!(Check::all_of("shape", &[]).pass);
        let c = Check::all_of("shape", &["a".into(), "b".into()]);
        assert!(!c.pass);
        assert_eq!(c.detail, "a; b");
    }
}
