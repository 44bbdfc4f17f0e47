//! Perf-regression gate over the `bench-exec` schedule replay.
//!
//! The committed `BENCH_executor.json` is the performance baseline; the
//! gate re-runs the same benchmark and compares row by row. Every metric
//! is a deterministic function of the physics and the replay (scaling
//! ratios, speedups, activity fraction, flop counts, chunk counts, cache
//! hit rates), so there is one tolerance class, **tight**: any drift
//! means the work or the schedule changed, which is exactly what the
//! gate exists to catch. Nothing here is a wall clock and no bound
//! scales with host speed — measured seconds are the ledger's
//! (`benchmark/`), on a recorded host.

use crate::execbench::ExecBenchReport;
use crate::json::Json;
use crate::report::{Cell, Check, Row, Table};

/// Relative tolerance on the deterministic metrics, two-sided.
const TIGHT_REL: f64 = 0.05;
/// Absolute tolerance on the activity fraction.
const ACTIVE_ABS: f64 = 0.02;

/// One gated metric comparison: its row of the `perf` table and its
/// check.
pub type PerfCheck = (Row, Check);

/// The perf half's table and checks: one [`Check`] per metric, after one
/// for the documents lining up (`structural`: missing rows, malformed
/// documents).
pub fn report_parts(checks: &[PerfCheck], structural: &[String]) -> (Table, Vec<Check>) {
    let table = Table::new(
        "perf",
        "perf regression vs BENCH_executor.json",
        checks.iter().map(|(row, _)| row.clone()),
    );
    let mut out = vec![Check::all_of("perf: documents line up", structural)];
    out.extend(checks.iter().map(|(_, check)| check.clone()));
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
    /// Steps per configuration.
    pub steps: usize,
    /// Worker counts appearing in the rows.
    pub workers: Vec<usize>,
}

/// One parsed benchmark row.
#[derive(Debug, Clone)]
struct BenchRow {
    /// Row identity, `mode@workers`.
    key: String,
    makespan_flops: f64,
    chunks: f64,
    cache_hit_rate: f64,
}

/// What the gate compares of one `bench-exec` result: parsed from the
/// committed document ([`Bench::parse`]) or read off a fresh replay
/// ([`Bench::of`]).
#[derive(Debug, Clone)]
pub struct Bench {
    active_fraction: f64,
    coal_flops: f64,
    rows: Vec<BenchRow>,
    speedups: Vec<(usize, f64)>,
}

impl Bench {
    /// The comparable content of a fresh replay, with no detour through
    /// its JSON text.
    pub fn of(report: &ExecBenchReport) -> Bench {
        Bench {
            active_fraction: report.active_fraction,
            coal_flops: report.serial_flops as f64,
            rows: (report.rows.iter())
                .map(|r| BenchRow {
                    key: format!("{}@{}", r.mode.label(), r.workers),
                    makespan_flops: r.makespan_flops as f64,
                    chunks: r.chunks as f64,
                    cache_hit_rate: r.cache_hit_rate,
                })
                .collect(),
            speedups: report.speedups().collect(),
        }
    }

    /// The comparable content of a `BENCH_executor.json` document.
    pub fn parse(text: &str) -> Result<Bench, String> {
        let j = Json::parse(text)?;
        let rows = table(&j, "rows")?
            .iter()
            .map(|r| {
                let mode = r.get("mode").and_then(Json::as_str);
                Ok(BenchRow {
                    key: format!(
                        "{}@{}",
                        mode.ok_or("row missing mode")?,
                        num(r, &["workers"])?
                    ),
                    makespan_flops: num(r, &["makespan_flops"])?,
                    chunks: num(r, &["chunks"])?,
                    cache_hit_rate: num(r, &["cache_hit_rate"])?,
                })
            })
            .collect::<Result<Vec<BenchRow>, String>>()?;
        let speedups = table(&j, "speedup_ws_compaction_vs_static")?
            .iter()
            .map(|s| Ok((num(s, &["workers"])? as usize, num(s, &["speedup"])?)))
            .collect::<Result<Vec<(usize, f64)>, String>>()?;
        Ok(Bench {
            active_fraction: num(&j, &["case", "active_fraction"])?,
            coal_flops: num(&j, &["case", "coal_flops"])?,
            rows,
            speedups,
        })
    }
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

/// The whole number at `path`, at least `min`: a negative, fractional
/// or out-of-range value is rejected rather than saturated by `as`.
fn count(j: &Json, path: &[&str], min: u32) -> Result<usize, String> {
    let x = num(j, path)?;
    if x.fract() != 0.0 || x < f64::from(min) || x > f64::from(i32::MAX) {
        let key = path.join(".");
        return Err(format!(
            "key {key:?} must be a whole number >= {min}, got {x}"
        ));
    }
    Ok(x as usize)
}

/// The rows of table `key` in the report envelope.
fn table<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get("tables")
        .and_then(|t| t.get(key))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing table {key:?}"))
}

/// Extracts the case parameters from a benchmark document — the gate
/// re-runs the candidate with exactly the committed baseline's case, so
/// a value `bench_exec` cannot run is an error here, not a panic there.
pub fn parse_case(baseline_json: &str) -> Result<BenchCase, String> {
    let j = Json::parse(baseline_json)?;
    let mut workers = table(&j, "rows")?
        .iter()
        .map(|r| count(r, &["workers"], 1))
        .collect::<Result<Vec<usize>, String>>()?;
    workers.sort_unstable();
    workers.dedup();
    let scale = num(&j, &["case", "scale"])?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("key \"case.scale\" must be in (0, 1], got {scale}"));
    }
    Ok(BenchCase {
        scale,
        nz: count(&j, &["case", "nz"], 1)? as i32,
        n_storms: count(&j, &["case", "n_storms"], 0)?,
        steps: count(&j, &["case", "steps"], 1)?,
        workers,
    })
}

/// Relative distance of two metric values.
fn rel_err(golden: f64, candidate: f64) -> f64 {
    crate::golden::rel(golden, candidate, 1.0e-12)
}

/// One metric held two-sided against its baseline value: `err`, the
/// relative or absolute distance between the two, within `limit`.
fn held(
    row: &str,
    metric: &'static str,
    golden: f64,
    candidate: f64,
    err: f64,
    limit: f64,
) -> PerfCheck {
    let pass = err <= limit;
    let cells = vec![
        ("row", row.into()),
        ("metric", metric.into()),
        ("golden", Cell::num(golden, 6)),
        ("candidate", Cell::num(candidate, 6)),
        ("limit", Cell::num(limit, 6)),
        ("pass", pass.into()),
    ];
    let detail =
        format!("golden {golden:.4} candidate {candidate:.4} exceeds tolerance {limit:.4}");
    let label = format!("perf: {row} {metric} (tight)");
    (
        cells,
        Check::new(label, pass, detail).bounded(candidate, limit),
    )
}

/// Compares a candidate replay against the committed baseline document,
/// producing every check the gate evaluates plus the structural problems
/// (missing rows, a malformed baseline).
pub fn compare_benchmarks(baseline_json: &str, cand: &Bench) -> (Vec<PerfCheck>, Vec<String>) {
    let (mut checks, mut structural) = (Vec::new(), Vec::new());
    let golden = match Bench::parse(baseline_json) {
        Ok(golden) => golden,
        Err(e) => return (checks, vec![format!("baseline: {e}")]),
    };
    let rel = |row: &str, metric, g: f64, c: f64| held(row, metric, g, c, rel_err(g, c), TIGHT_REL);
    let abs =
        |row: &str, metric, g: f64, c: f64, limit| held(row, metric, g, c, (g - c).abs(), limit);

    checks.push(abs(
        "case",
        "active_fraction",
        golden.active_fraction,
        cand.active_fraction,
        ACTIVE_ABS,
    ));
    checks.push(rel(
        "case",
        "coal_flops",
        golden.coal_flops,
        cand.coal_flops,
    ));

    for g in &golden.rows {
        let key = &g.key;
        let Some(c) = cand.rows.iter().find(|r| r.key == *key) else {
            structural.push(format!("row {key} missing from candidate"));
            continue;
        };
        // Each document's own serial flops over the row's makespan.
        let scaling = |b: &Bench, r: &BenchRow| b.coal_flops / r.makespan_flops.max(1.0);
        checks.push(rel(
            key,
            "scaling_vs_serial",
            scaling(&golden, g),
            scaling(cand, c),
        ));
        // Chunk counts are quantized; a wider band, with both sides
        // floored at one chunk, keeps a ±1-chunk rounding shift from
        // tripping it.
        let err = rel_err(g.chunks.max(1.0), c.chunks.max(1.0));
        checks.push(held(
            key,
            "chunks",
            g.chunks,
            c.chunks,
            err,
            TIGHT_REL * 6.0,
        ));
        checks.push(abs(
            key,
            "cache_hit_rate",
            g.cache_hit_rate,
            c.cache_hit_rate,
            0.02,
        ));
    }

    for (w, gs) in &golden.speedups {
        let Some((_, cs)) = cand.speedups.iter().find(|(cw, _)| cw == w) else {
            structural.push(format!("speedup@{w} missing from candidate"));
            continue;
        };
        let row = format!("speedup@{w}");
        checks.push(rel(&row, "ws_compaction_vs_static", *gs, *cs));
    }

    (checks, structural)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Makespan of the miniature document's work-stealing row.
    const WS_FLOPS: u64 = 164_467_000;

    /// A miniature two-row benchmark document in the generator's shape.
    fn doc(makespan_ws: u64, chunks_ws: u64) -> String {
        format!(
            r#"{{
  "gate": "bench-exec",
  "format": 2,
  "case": {{"scale": 0.04, "nz": 8, "n_storms": 3, "steps": 1, "active_fraction": 0.1975, "coal_flops": 635402080}},
  "tables": {{
    "rows": [
      {{"mode": "static-tiles", "cached_kernels": false, "workers": 1, "makespan_flops": 635402080, "scaling_vs_serial": 1, "chunks": 0, "cache_hit_rate": 1}},
      {{"mode": "work-stealing+compaction", "cached_kernels": true, "workers": 4, "makespan_flops": {makespan_ws}, "scaling_vs_serial": 3.863, "chunks": {chunks_ws}, "cache_hit_rate": 1}}
    ],
    "speedup_ws_compaction_vs_static": [{{"workers": 4, "speedup": 2.377}}]
  }}
}}"#
        )
    }

    #[test]
    fn parses_case_from_baseline() {
        let c = parse_case(&doc(WS_FLOPS, 100)).unwrap();
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

    /// A doctored baseline `bench_exec` would panic on is an `Err`
    /// naming the key — counts are not saturated into range by `as`.
    #[test]
    fn parse_case_rejects_what_the_benchmark_cannot_run() {
        let cases = [
            ("\"steps\": 1", "\"steps\": 0", "case.steps"),
            ("\"steps\": 1", "\"steps\": -1", "case.steps"),
            ("\"steps\": 1", "\"steps\": 1.5", "case.steps"),
            ("\"steps\": 1", "\"steps\": 1e12", "case.steps"),
            ("\"nz\": 8", "\"nz\": 0", "case.nz"),
            ("\"n_storms\": 3", "\"n_storms\": -3", "case.n_storms"),
            ("\"n_storms\": 3", "\"n_storms\": 2.5", "case.n_storms"),
            ("\"scale\": 0.04", "\"scale\": 2", "case.scale"),
            ("\"scale\": 0.04", "\"scale\": 0", "case.scale"),
            ("\"scale\": 0.04", "\"scale\": 1e999", "case.scale"),
            ("\"workers\": 4, \"m", "\"workers\": 0, \"m", "workers"),
            ("\"workers\": 4, \"m", "\"m", "workers"),
        ];
        let good = doc(WS_FLOPS, 100);
        for (from, to, key) in cases {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{from} not in the document");
            let err = parse_case(&bad).expect_err(to);
            assert!(err.contains(key), "{to}: error must name {key}: {err}");
        }
    }

    /// The comparison as the gate reports it (the candidate written as
    /// a document, for the string surgery below).
    fn compared(base: &str, cand: &str) -> crate::Report {
        let cand = Bench::parse(cand).expect("candidate document");
        let (checks, structural) = compare_benchmarks(base, &cand);
        crate::gate_report(&[], &checks, &structural)
    }

    #[test]
    fn identical_documents_pass() {
        let base = doc(WS_FLOPS, 100);
        let rep = compared(&base, &base);
        assert!(rep.pass(), "violations: {:?}", rep.violations());
        // One class: every perf check but the line-up one is tight.
        assert!(rep.checks[1..].iter().all(|c| c.label.ends_with("(tight)")));
    }

    #[test]
    fn degraded_throughput_fails_and_names_the_row() {
        let base = doc(WS_FLOPS, 100);
        // A makespan 2.5x longer: the scaling ratio collapses.
        let cand = doc(WS_FLOPS * 5 / 2, 100);
        let rep = compared(&base, &cand);
        assert!(!rep.pass());
        let v = rep.violations().join("\n");
        assert!(
            v.contains("work-stealing+compaction@4 scaling_vs_serial"),
            "violations must name the offending row: {v}"
        );
    }

    #[test]
    fn within_tolerance_noise_passes() {
        let base = doc(WS_FLOPS, 100);
        // A 3% longer makespan and a one-chunk rounding shift.
        let cand = doc(WS_FLOPS * 103 / 100, 101);
        let rep = compared(&base, &cand);
        assert!(rep.pass(), "violations: {:?}", rep.violations());
    }

    #[test]
    fn missing_row_is_structural() {
        let base = doc(WS_FLOPS, 100);
        let cand = base.replace("work-stealing+compaction", "renamed-mode");
        let rep = compared(&base, &cand);
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("missing from candidate")));
    }

    /// The candidate is a replay, not a document, so only the baseline
    /// can be malformed — past what `parse_case` reads, too.
    #[test]
    fn malformed_baseline_is_structural() {
        let cand = doc(WS_FLOPS, 100);
        for bad in [
            "{not json".to_string(),
            cand.replace("speedup_ws_compaction_vs_static", "renamed"),
        ] {
            let rep = compared(&bad, &cand);
            assert!(!rep.pass());
            let v = rep.violations();
            assert!(v[0].contains("documents line up: baseline:"), "{v:?}");
        }
    }

    /// A fresh replay read directly compares clean against its own
    /// document: the two constructors agree on every gated metric.
    #[test]
    fn a_replay_matches_its_own_document() {
        let replay = crate::execbench::bench_exec(0.04, 8, 3, 1, &[1, 2]);
        let (checks, structural) =
            compare_benchmarks(&replay.report().to_json(), &Bench::of(&replay));
        assert!(structural.is_empty(), "{structural:?}");
        assert_eq!(checks.len(), 2 + 4 * 3 + 2);
        let failed: Vec<_> = checks.iter().filter(|c| !c.1.pass).collect();
        assert!(failed.is_empty(), "{failed:?}");
    }
}
