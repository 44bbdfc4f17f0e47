//! `--compare A.json B.json`: the noise-aware verdict per (metric,
//! workload) between two `results.json` files — the rule ROADMAP item 3
//! asks for in place of loose one-sided bounds.

use crate::json::Json;
use crate::metrics::{Better, LAYER_BOUND};
use crate::stats::{median, Summary};

/// How side B stands against side A for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound (counts: exactly equal).
    Same,
    /// B better than A by more than the bound.
    Better,
    /// B worse than A by more than the bound (counts: any difference).
    Worse,
    /// Run-to-run spread exceeds the bound and the sides overlap: the
    /// data cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in the report.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges measured samples: median against median, against `bound` as
/// a share of A's median. When either side's quartile spread exceeds
/// the bound the verdict is `Unresolved` — unless every run of one side
/// beats every run of the other, in which case the medians decide.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == mb {
        return Verdict::Same;
    }
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let separated = max(a) < min(b) || max(b) < min(a);
    let spread = Summary::of(a).spread().max(Summary::of(b).spread());
    if spread > bound && !separated {
        return Verdict::Unresolved;
    }
    // Positive = B worse, as a share of A's median.
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (mb - ma) / scale,
        Better::Higher => (ma - mb) / scale,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Counts must repeat exactly.
pub fn judge_count(a: f64, b: f64) -> Verdict {
    if a == b {
        Verdict::Same
    } else {
        Verdict::Worse
    }
}

/// Samples a side needs before a per-layer difference can be called.
const MIN_SAMPLES: usize = 3;

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer) or untraced (end-to-end) pass.
    pub traced: bool,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Side A's median (or value).
    pub a: f64,
    /// Side B's median (or value).
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether a `worse` here fails the comparison: declared end-to-end
    /// metrics and counts gate; per-layer measurements only explain.
    pub gates: bool,
}

/// The metric entry `name` of one run of a results file.
pub fn metric<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.list("metrics")
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

/// A metric entry's samples, or its single value when it kept none.
pub fn samples_of(metric: &Json) -> Vec<f64> {
    let s = metric.numbers("samples");
    if s.is_empty() {
        metric
            .get("value")
            .and_then(Json::as_f64)
            .into_iter()
            .collect()
    } else {
        s
    }
}

/// Compares every (workload, pass, metric) present in both documents.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let runs = |doc: &Json| -> Result<Vec<Json>, String> {
        doc.get("runs")
            .map(|r| r.items().to_vec())
            .ok_or_else(|| "not a results.json: no `runs`".to_string())
    };
    let (ra, rb) = (runs(a)?, runs(b)?);
    let key = |r: &Json| {
        (
            r.get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            r.get("traced") == Some(&Json::Bool(true)),
        )
    };
    let mut rows = Vec::new();
    for run_a in &ra {
        let Some(run_b) = rb.iter().find(|r| key(r) == key(run_a)) else {
            continue;
        };
        let (workload, traced) = key(run_a);
        for ma in run_a.list("metrics") {
            let name = ma.get("name").and_then(Json::as_str).unwrap_or("");
            let Some(mb) = metric(run_b, name) else {
                continue;
            };
            let (sa, sb) = (samples_of(ma), samples_of(mb));
            let is_count = ma.get("count") == Some(&Json::Bool(true));
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let declared = ma.get("bound").and_then(Json::as_f64);
            let verdict = if is_count {
                judge_count(median(&sa), median(&sb))
            } else {
                let v = judge(&sa, &sb, better, declared.unwrap_or(LAYER_BOUND));
                // A per-layer reading without repeats has no spread to
                // resolve a difference with.
                let thin = sa.len().min(sb.len()) < MIN_SAMPLES;
                if declared.is_none() && thin && v != Verdict::Same {
                    Verdict::Unresolved
                } else {
                    v
                }
            };
            rows.push(Row {
                gates: is_count || declared.is_some(),
                workload: workload.clone(),
                traced,
                metric: name.to_string(),
                unit: ma
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                a: median(&sa),
                b: median(&sb),
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric)".to_string());
    }
    Ok(rows)
}

/// Renders the comparison; returns the text and whether any gating
/// metric is `worse`. Gating rows (end-to-end metrics, counts) and the
/// per-layer rows that moved are listed; the rest are only counted.
pub fn report(rows: &[Row]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{:<30} {:<7} {:<16} {:>14} {:>14}  verdict",
        "metric", "unit", "workload", "A", "B"
    )
    .expect("write to String");
    let mut quiet = 0;
    for r in rows {
        let moved = matches!(r.verdict, Verdict::Better | Verdict::Worse);
        if !r.gates && !moved {
            quiet += 1;
            continue;
        }
        writeln!(
            out,
            "{:<30} {:<7} {:<16} {:>14.6} {:>14.6}  {}",
            r.metric,
            r.unit,
            r.workload,
            r.a,
            r.b,
            r.verdict.word()
        )
        .expect("write to String");
    }
    let tally = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    writeln!(
        out,
        "{} compared: {} same, {} better, {} worse, {} unresolved ({} per-layer rows that did not resolvably move are not listed)",
        rows.len(),
        tally(Verdict::Same),
        tally(Verdict::Better),
        tally(Verdict::Worse),
        tally(Verdict::Unresolved),
        quiet,
    )
    .expect("write to String");
    let failed = rows.iter().any(|r| r.gates && r.verdict == Verdict::Worse);
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn verdicts_on_synthetic_samples() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Within the bound either way.
        assert_eq!(
            judge(
                &base,
                &[10.3, 10.4, 10.2, 10.35, 10.25],
                Better::Lower,
                0.10
            ),
            Verdict::Same
        );
        // 20 % slower: worse for a time, better for a rate.
        let slow = [12.0, 12.1, 11.9, 12.05, 11.95];
        assert_eq!(judge(&base, &slow, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &slow, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(judge(&slow, &base, Better::Lower, 0.10), Verdict::Better);
        // Identical medians are the same whatever the spread.
        assert_eq!(
            judge(&[1.0, 5.0, 9.0], &[5.0], Better::Lower, 0.10),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        // Spread ~60 % of the median, overlapping ranges: cannot tell.
        let noisy_a = [8.0, 10.0, 14.0, 9.0, 13.0];
        let noisy_b = [9.0, 12.0, 15.0, 10.0, 14.5];
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Same spread, but every B run beats every A run: resolved.
        let fast_b = [3.0, 4.0, 6.0, 3.5, 5.5];
        assert_eq!(
            judge(&noisy_a, &fast_b, Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&fast_b, &noisy_a, Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn counts_must_match_exactly() {
        assert_eq!(judge_count(14688.0, 14688.0), Verdict::Same);
        assert_eq!(judge_count(14688.0, 14689.0), Verdict::Worse);
    }

    fn doc(wall: &[f64], points: f64, tend_us: &[f64]) -> Json {
        let metric = |name: &str, count: bool, bound: Json, value: f64, samples: &[f64]| {
            obj([
                ("name", name.into()),
                ("unit", "s".into()),
                ("better", "lower".into()),
                ("bound", bound),
                ("count", count.into()),
                ("value", value.into()),
                (
                    "samples",
                    Json::Arr(samples.iter().map(|&x| x.into()).collect()),
                ),
            ])
        };
        obj([(
            "runs",
            vec![obj([
                ("workload", "sbm_dense".into()),
                ("traced", false.into()),
                (
                    "metrics",
                    vec![
                        metric("cal_run_wall_s", false, Json::Num(0.15), median(wall), wall),
                        metric("sbm.points", true, Json::Null, points, &[]),
                        metric(
                            "dycore.tend_us",
                            false,
                            Json::Null,
                            median(tend_us),
                            tend_us,
                        ),
                    ]
                    .into(),
                ),
            ])]
            .into(),
        )])
    }

    #[test]
    fn documents_compare_row_by_row_and_worse_is_flagged() {
        let a = doc(&[1.0, 1.01, 0.99], 2520.0, &[200.0, 201.0, 199.0]);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(!report(&rows).1);

        let slower = doc(&[1.3, 1.31, 1.29], 2521.0, &[260.0, 261.0, 259.0]);
        let rows = compare(&a, &slower).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(
            rows[1].verdict,
            Verdict::Worse,
            "a count that moved is a failure"
        );
        assert_eq!(rows[2].verdict, Verdict::Worse);
        let (text, failed) = report(&rows);
        assert!(failed && text.contains("3 worse"));

        assert!(compare(&a, &obj([("runs", Json::Arr(vec![]))])).is_err());
        assert!(compare(&a, &Json::Null).is_err());
    }

    #[test]
    fn per_layer_rows_explain_but_do_not_gate() {
        let a = doc(&[1.0, 1.01, 0.99], 2520.0, &[200.0, 201.0, 199.0]);
        // Only the layer probe moved, with repeats behind it: reported
        // as worse, yet the comparison passes.
        let layer_only = doc(&[1.0, 1.01, 0.99], 2520.0, &[260.0, 261.0, 259.0]);
        let rows = compare(&a, &layer_only).unwrap();
        assert_eq!(rows[2].verdict, Verdict::Worse);
        assert!(!rows[2].gates && rows[0].gates && rows[1].gates);
        assert!(!report(&rows).1);
        // A single reading a side has no spread: cannot be called.
        let single = doc(&[1.0, 1.01, 0.99], 2520.0, &[260.0]);
        let rows = compare(&a, &single).unwrap();
        assert_eq!(rows[2].verdict, Verdict::Unresolved);
    }
}
