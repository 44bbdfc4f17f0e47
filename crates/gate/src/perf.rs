//! Perf-regression gate over the `bench-exec` schedule replay.
//!
//! The committed `BENCH_executor.json` is the performance baseline; the
//! gate re-runs the same benchmark and compares row by row. Metrics fall
//! into three tolerance classes:
//!
//! * **tight** — values that are deterministic functions of the physics
//!   and the replay (scaling ratios, speedups, activity fraction, flop
//!   counts, chunk counts, cache hit rates). Any drift here means the
//!   work or the schedule changed, which is exactly what the gate exists
//!   to catch.
//! * **loose** — values calibrated by host wall-clock (absolute
//!   `steps_per_s`, `host_wall_s`). These scale with machine speed, so
//!   they get wide one-sided bounds: only a large *degradation* fails.
//! * **info** — genuinely nondeterministic scheduler internals (steal
//!   counts). Reported, never gated.

use crate::json::Json;
use crate::report::{Cell, Check, Table};

/// Tolerance configuration of the perf gate (the PR and nightly values
/// are [`crate::Depth::PR`] and [`crate::Depth::NIGHTLY`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative tolerance for deterministic (tight) metrics, two-sided.
    pub tight_rel: f64,
    /// Relative degradation allowed on host-calibrated throughput
    /// (one-sided: candidate ≥ golden·(1 − loose_rel)).
    pub loose_rel: f64,
    /// Slow-down factor allowed on raw host wall time (one-sided:
    /// candidate ≤ golden·host_factor).
    pub host_factor: f64,
}

/// Absolute tolerance on the activity fraction.
const ACTIVE_ABS: f64 = 0.02;

/// One gated (or reported) metric comparison.
#[derive(Debug, Clone)]
pub struct PerfCheck {
    /// Row identity, `mode@workers` (or `case` / `speedup@N`).
    pub row: String,
    /// Metric name.
    pub metric: &'static str,
    /// Tolerance class (`tight` / `loose` / `info`).
    pub class: &'static str,
    /// Baseline value.
    pub golden: f64,
    /// Candidate value.
    pub candidate: f64,
    /// The allowed limit this check was evaluated against.
    pub limit: f64,
    /// True when within tolerance (always true for `info`).
    pub pass: bool,
}

/// The perf half's table and checks: one [`Check`] per gated metric
/// (`info` rows are table-only), plus one for the documents lining up
/// (`structural`: missing rows, malformed documents).
pub fn report_parts(checks: &[PerfCheck], structural: &[String]) -> (Table, Vec<Check>) {
    let table = Table::new(
        "perf",
        "perf regression vs BENCH_executor.json",
        &[
            "row",
            "metric",
            "class",
            "golden",
            "candidate",
            "limit",
            "pass",
        ],
        checks.iter().map(|c| {
            vec![
                c.row.as_str().into(),
                c.metric.into(),
                c.class.into(),
                Cell::num(c.golden, 6),
                Cell::num(c.candidate, 6),
                Cell::num(c.limit, 6),
                c.pass.into(),
            ]
        }),
    );
    let mut out = vec![Check::all_of("perf: documents line up", structural)];
    out.extend(checks.iter().filter(|c| c.class != "info").map(|c| {
        let detail = format!(
            "golden {:.4} candidate {:.4} exceeds tolerance {:.4}",
            c.golden, c.candidate, c.limit
        );
        Check::new(
            format!("perf: {} {} ({})", c.row, c.metric, c.class),
            c.pass,
            if c.pass { String::new() } else { detail },
        )
        .bounded(c.candidate, c.limit)
    }));
    (table, out)
}

/// The benchmark case parameters embedded in a `BENCH_executor.json`,
/// used to re-run the benchmark identically.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Horizontal scale.
    pub scale: f64,
    /// Vertical levels.
    pub nz: i32,
    /// Storm count.
    pub n_storms: usize,
    /// Measured steps.
    pub steps: usize,
    /// Worker counts appearing in the rows.
    pub workers: Vec<usize>,
}

/// One parsed benchmark row.
#[derive(Debug, Clone)]
struct Row {
    mode: String,
    workers: usize,
    steps_per_s: f64,
    host_wall: f64,
    steals: f64,
    chunks: f64,
    cache_hit_rate: f64,
}

struct Bench {
    case_active_fraction: f64,
    coal_flops: f64,
    rows: Vec<Row>,
    speedups: Vec<(usize, f64)>,
}

fn num(j: &Json, path: &[&str]) -> Result<f64, String> {
    let mut cur = j;
    for k in path {
        cur = cur
            .get(k)
            .ok_or_else(|| format!("missing key {:?}", path.join(".")))?;
    }
    cur.as_f64()
        .ok_or_else(|| format!("key {:?} is not a number", path.join(".")))
}

/// Extracts the case parameters from a benchmark document — the gate
/// re-runs the candidate with exactly the committed baseline's case.
pub fn parse_case(baseline_json: &str) -> Result<BenchCase, String> {
    let j = Json::parse(baseline_json)?;
    let mut workers: Vec<usize> = j
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or("missing rows")?
        .iter()
        .filter_map(|r| r.get("workers").and_then(|w| w.as_f64()))
        .map(|w| w as usize)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    Ok(BenchCase {
        scale: num(&j, &["case", "scale"])?,
        nz: num(&j, &["case", "nz"])? as i32,
        n_storms: num(&j, &["case", "n_storms"])? as usize,
        steps: num(&j, &["case", "steps"])? as usize,
        workers,
    })
}

fn parse_bench(text: &str) -> Result<Bench, String> {
    let j = Json::parse(text)?;
    let rows = j
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or("missing rows array")?
        .iter()
        .map(|r| {
            Ok(Row {
                mode: r
                    .get("mode")
                    .and_then(|m| m.as_str())
                    .ok_or("row missing mode")?
                    .to_string(),
                workers: num(r, &["workers"])? as usize,
                steps_per_s: num(r, &["steps_per_s"])?,
                host_wall: num(r, &["host_wall_s"])?,
                steals: num(r, &["steals"])?,
                chunks: num(r, &["chunks"])?,
                cache_hit_rate: num(r, &["cache_hit_rate"])?,
            })
        })
        .collect::<Result<Vec<Row>, String>>()?;
    let speedups = j
        .get("speedup_ws_compaction_vs_static")
        .and_then(|s| s.as_obj())
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| Some((k.parse::<usize>().ok()?, v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(Bench {
        case_active_fraction: num(&j, &["case", "active_fraction"])?,
        coal_flops: num(&j, &["calibration", "coal_flops"])?,
        rows,
        speedups,
    })
}

fn rel_err(golden: f64, candidate: f64) -> f64 {
    let d = (golden - candidate).abs();
    if d == 0.0 {
        0.0
    } else {
        d / golden.abs().max(candidate.abs()).max(1.0e-12)
    }
}

/// How one metric is held against its baseline value.
#[derive(Clone, Copy)]
enum Rule {
    /// Tight, two-sided: relative error within the limit.
    Rel(f64),
    /// Tight, two-sided: absolute difference within the limit.
    Abs(f64),
    /// Loose, one-sided: candidate ≥ golden·(1 − limit).
    AtLeast(f64),
    /// Loose, one-sided: candidate ≤ golden·limit.
    AtMost(f64),
    /// Reported, never gated.
    Info,
}

/// Evaluates one metric under its rule.
fn held(row: &str, metric: &'static str, golden: f64, candidate: f64, rule: Rule) -> PerfCheck {
    let (class, limit, pass) = match rule {
        Rule::Rel(l) => ("tight", l, rel_err(golden, candidate) <= l),
        Rule::Abs(l) => ("tight", l, (golden - candidate).abs() <= l),
        Rule::AtLeast(l) => ("loose", l, candidate >= golden * (1.0 - l)),
        Rule::AtMost(l) => ("loose", l, candidate <= golden * l),
        Rule::Info => ("info", f64::INFINITY, true),
    };
    PerfCheck {
        row: row.to_string(),
        metric,
        class,
        golden,
        candidate,
        limit,
        pass,
    }
}

/// Compares a candidate benchmark document against the committed
/// baseline under `tol`, producing every check the gate evaluates plus
/// the structural problems (missing rows, malformed documents).
pub fn compare_benchmarks(
    baseline_json: &str,
    candidate_json: &str,
    tol: &Tolerances,
) -> (Vec<PerfCheck>, Vec<String>) {
    let (mut checks, mut structural) = (Vec::new(), Vec::new());
    let (golden, cand) = match (parse_bench(baseline_json), parse_bench(candidate_json)) {
        (Ok(g), Ok(c)) => (g, c),
        (Err(e), _) => return (checks, vec![format!("baseline: {e}")]),
        (_, Err(e)) => return (checks, vec![format!("candidate: {e}")]),
    };

    // Case-level deterministic metrics.
    let (g_active, c_active) = (golden.case_active_fraction, cand.case_active_fraction);
    checks.push(held(
        "case",
        "active_fraction",
        g_active,
        c_active,
        Rule::Abs(ACTIVE_ABS),
    ));
    let tight = Rule::Rel(tol.tight_rel);
    checks.push(held(
        "case",
        "coal_flops",
        golden.coal_flops,
        cand.coal_flops,
        tight,
    ));

    // The serial reference rate normalizes host-speed out of the
    // deterministic scaling comparison.
    let serial = |b: &Bench| -> Option<f64> {
        b.rows
            .iter()
            .find(|r| r.workers == 1 && r.mode == "static-tiles")
            .map(|r| r.steps_per_s)
    };
    let (g_serial, c_serial) = (serial(&golden), serial(&cand));

    for g in &golden.rows {
        let key = format!("{}@{}", g.mode, g.workers);
        let Some(c) = cand
            .rows
            .iter()
            .find(|r| r.mode == g.mode && r.workers == g.workers)
        else {
            structural.push(format!("row {key} missing from candidate"));
            continue;
        };
        // Deterministic scaling: steps_per_s normalized by the serial
        // reference (the flops→seconds calibration cancels).
        if let (Some(gs), Some(cs)) = (g_serial, c_serial) {
            if gs > 0.0 && cs > 0.0 {
                let (gr, cr) = (g.steps_per_s / gs, c.steps_per_s / cs);
                checks.push(held(&key, "scaling_vs_serial", gr, cr, tight));
            }
        }
        let at_least = Rule::AtLeast(tol.loose_rel);
        checks.push(held(
            &key,
            "steps_per_s",
            g.steps_per_s,
            c.steps_per_s,
            at_least,
        ));
        let at_most = Rule::AtMost(tol.host_factor);
        checks.push(held(&key, "host_wall_s", g.host_wall, c.host_wall, at_most));
        // Chunk counts are deterministic but quantized; allow a wide
        // tight band (and floor both sides at one chunk) so a ±1-chunk
        // rounding shift cannot trip it.
        let limit = (tol.tight_rel * 6.0).min(0.5);
        checks.push(PerfCheck {
            pass: rel_err(g.chunks.max(1.0), c.chunks.max(1.0)) <= limit,
            ..held(&key, "chunks", g.chunks, c.chunks, Rule::Rel(limit))
        });
        let hit_rate = Rule::Abs(0.02);
        checks.push(held(
            &key,
            "cache_hit_rate",
            g.cache_hit_rate,
            c.cache_hit_rate,
            hit_rate,
        ));
        checks.push(held(&key, "steals", g.steals, c.steals, Rule::Info));
    }

    for (w, gs) in &golden.speedups {
        let Some((_, cs)) = cand.speedups.iter().find(|(cw, _)| cw == w) else {
            structural.push(format!("speedup@{w} missing from candidate"));
            continue;
        };
        let row = format!("speedup@{w}");
        checks.push(held(&row, "ws_compaction_vs_static", *gs, *cs, tight));
    }

    (checks, structural)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature two-row benchmark document in the generator's shape.
    fn doc(steps_per_s_ws: f64, chunks_ws: u64, host_ws: f64) -> String {
        format!(
            r#"{{
  "bench": "executor_scaling",
  "case": {{"scale": 0.04, "nz": 8, "n_storms": 3, "steps": 1, "active_fraction": 0.1975}},
  "calibration": {{"serial_coal_wall_s": 0.733965, "coal_flops": 635402080}},
  "rows": [
    {{"mode": "static-tiles", "cached_kernels": false, "workers": 1, "modeled_wall_s": 0.733965, "steps_per_s": 4.09, "host_wall_s": 0.707181, "steals": 0, "chunks": 0, "cache_hit_rate": 1.0}},
    {{"mode": "work-stealing+compaction", "cached_kernels": true, "workers": 4, "modeled_wall_s": 0.189979, "steps_per_s": {steps_per_s_ws}, "host_wall_s": {host_ws}, "steals": 24, "chunks": {chunks_ws}, "cache_hit_rate": 1.0}}
  ],
  "speedup_ws_compaction_vs_static": {{"4": {speedup}}}
}}"#,
            steps_per_s_ws = steps_per_s_ws,
            host_ws = host_ws,
            chunks_ws = chunks_ws,
            speedup = steps_per_s_ws / 4.09 * 4.09 / 6.64, // shape only
        )
    }

    #[test]
    fn parses_case_from_baseline() {
        let c = parse_case(&doc(15.79, 100, 0.76)).unwrap();
        assert_eq!(
            c,
            BenchCase {
                scale: 0.04,
                nz: 8,
                n_storms: 3,
                steps: 1,
                workers: vec![1, 4],
            }
        );
    }

    /// The reference tolerances.
    const TOL: Tolerances = crate::Depth::NIGHTLY.tol;

    /// The comparison as the gate reports it.
    fn compared(base: &str, cand: &str, tol: &Tolerances) -> crate::Report {
        let (checks, structural) = compare_benchmarks(base, cand, tol);
        crate::gate_report(&[], &checks, &structural)
    }

    #[test]
    fn identical_documents_pass() {
        let base = doc(15.79, 100, 0.76);
        let rep = compared(&base, &base, &TOL);
        assert!(rep.pass(), "violations: {:?}", rep.violations());
        // Info metrics are present but never gate.
        let (checks, _) = compare_benchmarks(&base, &base, &TOL);
        assert!(checks.iter().any(|c| c.class == "info"));
        assert!(!rep.checks.iter().any(|c| c.label.contains("(info)")));
    }

    #[test]
    fn degraded_throughput_fails_and_names_the_row() {
        let base = doc(15.79, 100, 0.76);
        // 60% throughput loss: outside the reference 50% loose band, and
        // the scaling ratio also collapses (tight).
        let cand = doc(15.79 * 0.4, 100, 0.76);
        let rep = compared(&base, &cand, &TOL);
        assert!(!rep.pass());
        let v = rep.violations().join("\n");
        assert!(
            v.contains("work-stealing+compaction@4 steps_per_s"),
            "violations must name the offending row: {v}"
        );
    }

    #[test]
    fn within_tolerance_noise_passes() {
        let base = doc(15.79, 100, 0.76);
        // 8% slower absolute throughput (host noise), same scaling
        // within 2%, slightly different host wall: all within bounds.
        let cand = doc(15.79 * 0.92, 100, 0.91);
        let tol = Tolerances {
            // The synthetic candidate drifts its scaling ratio ~8% too;
            // widen the tight band to model calibration noise.
            tight_rel: 0.10,
            ..TOL
        };
        let rep = compared(&base, &cand, &tol);
        assert!(rep.pass(), "violations: {:?}", rep.violations());
    }

    #[test]
    fn host_wall_blowup_fails_loosely() {
        let base = doc(15.79, 100, 0.76);
        let cand = doc(15.79, 100, 0.76 * 4.0);
        let v = compared(&base, &cand, &TOL).violations().join("\n");
        assert!(v.contains("host_wall_s"), "{v}");
    }

    #[test]
    fn missing_row_is_structural() {
        let base = doc(15.79, 100, 0.76);
        let cand = base.replace("work-stealing+compaction", "renamed-mode");
        let rep = compared(&base, &cand, &TOL);
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("missing from candidate")));
    }

    #[test]
    fn malformed_candidate_is_structural() {
        let base = doc(15.79, 100, 0.76);
        let rep = compared(&base, "{not json", &TOL);
        assert!(!rep.pass());
        assert!(rep.violations()[0].contains("candidate"));
    }
}
