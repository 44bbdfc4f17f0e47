//! `bench-host`: AoS-vs-SoA host-layout benchmark on the gate case.
//!
//! Measures the *real* host wall time of the collision stage (the hot
//! path the SoA panel layout restructures) for both memory layouts over
//! the pinned `repro gate` scenario, at several device-worker counts.
//! Unlike `bench-exec`, nothing here is modeled: the quantity under
//! test is single-host efficiency — per-batch kernel-entry resolution,
//! hoisted deposit splits, and the zero-allocation scratch path — not
//! scheduling, so the raw wall clock is the honest metric. Each arm is
//! run `repeats` times from a cold start and the **minimum** wall is
//! reported (the standard noise filter for wall-clock microbenches).
//!
//! Every row also carries the end-of-run state digest, so the report
//! double-checks the layouts are bitwise-identical in the same runs it
//! times — a perf row with a digest mismatch is a physics bug, not a
//! perf regression.
//!
//! The committed `BENCH_host.json` is the performance baseline:
//! `repro bench-host --check` re-runs the benchmark and enforces the
//! layout speedup floor and digest equality (see
//! [`HostBenchReport::checks`]).

use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmVersion};
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use wrf_gate::golden::combined_checksum;
use wrf_gate::json::Json;
use wrf_gate::{Cell, Check, Report, Table};

/// One (layout, workers) measurement.
#[derive(Debug, Clone)]
pub struct HostBenchRow {
    /// Memory-layout label (`point-aos` / `panel-soa`).
    pub layout: &'static str,
    /// Device-worker count.
    pub workers: usize,
    /// Minimum-of-repeats coal-stage host wall over the gate steps, s.
    pub host_wall_s: f64,
    /// Gate steps per second at that wall (higher is better).
    pub steps_per_s: f64,
    /// Hex fold of the end-of-run per-field digest checksums.
    pub digest: String,
}

/// Full benchmark result.
#[derive(Debug, Clone)]
pub struct HostBenchReport {
    /// Horizontal scale of the case (the gate scale).
    pub scale: f64,
    /// Vertical levels (the gate levels).
    pub nz: i32,
    /// Steps per repeat (the gate steps).
    pub steps: usize,
    /// Cold-start repeats per row (minimum wall wins).
    pub repeats: usize,
    /// All measurements, layout-major.
    pub rows: Vec<HostBenchRow>,
}

/// Runs one (layout, workers) arm: `repeats` cold-start gate runs, the
/// minimum summed coal wall, and the (repeat-invariant) end digest.
fn measure(layout: Layout, workers: usize, repeats: usize) -> HostBenchRow {
    let mut best = f64::INFINITY;
    let mut digest = String::new();
    for _ in 0..repeats.max(1) {
        let mut cfg = ModelConfig::gate(
            SbmVersion::OffloadCollapse3,
            ExecMode::work_steal(),
            workers,
        );
        cfg.layout = layout;
        let mut m = Model::single_rank(cfg);
        let mut wall = 0.0;
        for _ in 0..ModelConfig::GATE_STEPS {
            wall += m.step().sbm.coal_wall;
        }
        if wall < best {
            best = wall;
        }
        digest = format!("{:016x}", combined_checksum(&m.state.digest()));
    }
    HostBenchRow {
        layout: layout.label(),
        workers,
        host_wall_s: best,
        steps_per_s: ModelConfig::GATE_STEPS as f64 / best.max(1e-12),
        digest,
    }
}

impl HostBenchReport {
    /// The row for (`layout`, `workers`), if measured.
    pub fn row(&self, layout: Layout, workers: usize) -> Option<&HostBenchRow> {
        self.rows
            .iter()
            .find(|r| r.layout == layout.label() && r.workers == workers)
    }

    /// `host_wall_s(PointAos) / host_wall_s(PanelSoa)` at `workers`
    /// (0.0 when either row is missing).
    pub fn speedup(&self, workers: usize) -> f64 {
        match (
            self.row(Layout::PointAos, workers),
            self.row(Layout::PanelSoa, workers),
        ) {
            (Some(aos), Some(soa)) if soa.host_wall_s > 0.0 => aos.host_wall_s / soa.host_wall_s,
            _ => 0.0,
        }
    }

    /// Distinct worker counts, ascending.
    pub fn worker_counts(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.rows.iter().map(|r| r.workers).collect();
        w.sort_unstable();
        w.dedup();
        w
    }

    /// Renders the JSON document committed as `BENCH_host.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"host_layout\",\n");
        s.push_str(
            "  \"metric\": \"measured coal-stage host wall seconds on the gate case, \
             minimum over cold-start repeats; speedup = point-aos wall / panel-soa wall \
             (higher is better)\",\n",
        );
        s.push_str(&format!(
            "  \"case\": {{\"scale\": {}, \"nz\": {}, \"steps\": {}, \"repeats\": {}, \
             \"version\": \"collapse3\", \"sched\": \"work-stealing+compaction\"}},\n",
            self.scale, self.nz, self.steps, self.repeats
        ));
        s.push_str("  \"rows\": [\n");
        for (n, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"layout\": \"{}\", \"workers\": {}, \"host_wall_s\": {:.6}, \
                 \"steps_per_s\": {:.2}, \"digest\": \"{}\"}}{}\n",
                r.layout,
                r.workers,
                r.host_wall_s,
                r.steps_per_s,
                r.digest,
                if n + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"speedup_panel_soa_vs_point_aos\": {");
        let workers = self.worker_counts();
        for (n, &w) in workers.iter().enumerate() {
            s.push_str(&format!(
                "\"{}\": {:.3}{}",
                w,
                self.speedup(w),
                if n + 1 < workers.len() { ", " } else { "" }
            ));
        }
        s.push_str("}\n}\n");
        s
    }

    /// The gated assertions of `bench-host --check`: the layouts must be
    /// bitwise (digest-equal) at every worker count, and `PanelSoa` must
    /// beat `PointAos` by `min_speedup` at the largest one (the PR 7
    /// acceptance bar is 3x on the reference host; `wrf_gate::Depth`
    /// holds the PR and nightly floors). When the committed baseline
    /// text is supplied, every row's digest must also match the
    /// committed digest — wall times drift with host load, the physics
    /// may not.
    pub fn checks(&self, committed: Option<&str>, min_speedup: f64) -> Vec<Check> {
        let workers = self.worker_counts();
        let mut checks: Vec<Check> = workers
            .iter()
            .map(|&w| {
                let label = format!("layouts bitwise @ {w} workers");
                match (self.row(Layout::PointAos, w), self.row(Layout::PanelSoa, w)) {
                    (Some(aos), Some(soa)) => Check::new(
                        label,
                        aos.digest == soa.digest,
                        format!("point-aos {} vs panel-soa {}", aos.digest, soa.digest),
                    ),
                    _ => Check::new(label, false, "missing layout row"),
                }
            })
            .collect();
        let max_w = workers.last().copied().unwrap_or(0);
        let speedup = self.speedup(max_w);
        let detail = format!(
            "panel-soa speedup {speedup:.2}x at {max_w} workers is below the {min_speedup:.1}x floor"
        );
        checks.push(
            Check::new("speedup floor", speedup >= min_speedup, detail)
                .bounded(speedup, min_speedup),
        );
        match committed.map(parse_digests) {
            None => {}
            Some(Err(e)) => checks.push(Check::new(
                "committed digests",
                false,
                format!("BENCH_host.json unreadable: {e}"),
            )),
            Some(Ok(base)) => checks.extend(self.rows.iter().map(|r| {
                let found = base
                    .iter()
                    .find(|(l, w, _)| *l == r.layout && *w == r.workers);
                let was = found.map_or("(row missing)", |(_, _, d)| d.as_str());
                Check::new(
                    format!("committed digest [{} w={}]", r.layout, r.workers),
                    was == r.digest,
                    format!("digest {} drifted from committed {was}", r.digest),
                )
            })),
        }
        checks
    }

    /// The `bench-host` report: the measured rows and speedups, gated
    /// by `checks` (empty without `--check`).
    pub fn report(&self, checks: Vec<Check>) -> Report {
        let rows = Table::new(
            "rows",
            "measured coal-stage wall on the gate case, minimum over cold-start repeats",
            &["layout", "workers", "host_wall_s", "steps_per_s", "digest"],
            self.rows.iter().map(|r| {
                vec![
                    r.layout.into(),
                    r.workers.into(),
                    Cell::num(r.host_wall_s, 6),
                    Cell::num(r.steps_per_s, 2),
                    r.digest.as_str().into(),
                ]
            }),
        );
        let workers = self.worker_counts();
        let speedups = Table::new(
            "speedup",
            "speedup panel-soa vs point-aos",
            &["workers", "speedup"],
            (workers.iter()).map(|&w| vec![w.into(), Cell::num(self.speedup(w), 3)]),
        );
        Report {
            gate: "bench-host",
            case: vec![
                ("scale", self.scale.into()),
                ("nz", self.nz.into()),
                ("steps", self.steps.into()),
                ("repeats", self.repeats.into()),
            ],
            checks,
            tables: vec![rows, speedups],
            lines: Vec::new(),
        }
    }
}

/// Extracts `(layout, workers, digest)` triples from a committed
/// `BENCH_host.json` document.
fn parse_digests(text: &str) -> Result<Vec<(String, usize, String)>, String> {
    let doc = Json::parse(text)?;
    let rows = doc.get("rows").and_then(Json::as_arr);
    rows.ok_or("no rows array")?
        .iter()
        .map(|r| {
            let text = |key: &str| -> Result<String, String> {
                let s = r.get(key).and_then(Json::as_str);
                Ok(s.ok_or(format!("row without {key}"))?.to_string())
            };
            let workers = r.get("workers").and_then(Json::as_f64);
            let workers = workers.ok_or("row without workers")? as usize;
            Ok((text("layout")?, workers, text("digest")?))
        })
        .collect()
}

/// Runs the full sweep: both layouts at every worker count on the gate
/// case.
pub fn bench_host(worker_counts: &[usize], repeats: usize) -> HostBenchReport {
    let mut rows = Vec::new();
    for layout in Layout::ALL {
        for &w in worker_counts {
            rows.push(measure(layout, w, repeats));
        }
    }
    HostBenchReport {
        scale: ModelConfig::GATE_SCALE,
        nz: ModelConfig::GATE_NZ,
        steps: ModelConfig::GATE_STEPS,
        repeats: repeats.max(1),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_sweep_is_bitwise_and_json_roundtrips() {
        let rep = bench_host(&[1], 1);
        assert_eq!(rep.rows.len(), 2);
        assert!(rep.rows.iter().all(|r| r.host_wall_s > 0.0));
        // The two layouts end in the same state.
        assert_eq!(rep.rows[0].digest, rep.rows[1].digest);
        let json = rep.to_json();
        assert!(json.contains("\"bench\": \"host_layout\""));
        assert!(json.contains("panel-soa"));
        // The fresh report's digests match its own JSON rendering.
        let triples = parse_digests(&json).expect("self-rendered json parses");
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].2, rep.rows[0].digest);
        let text = rep.report(Vec::new()).rendered();
        assert!(text.contains("speedup panel-soa vs point-aos"), "{text}");
    }

    #[test]
    fn digest_drift_is_flagged_against_committed() {
        let rep = bench_host(&[1], 1);
        let mut doctored = rep.clone();
        doctored.rows[1].digest = "deadbeefdeadbeef".into();
        let checks = rep.checks(Some(&doctored.to_json()), 3.0);
        let v = rep.report(checks).violations();
        assert!(
            v.iter().any(|m| m.contains("drifted from committed")),
            "expected a drift violation, got {v:?}"
        );
    }
}
