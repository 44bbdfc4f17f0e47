//! `bench-exec`: executor-scaling benchmark over the functional plane.
//!
//! Compares the two scheduling arms — the seed execution path (static
//! tiles, on-demand kernels) and the production path (persistent
//! work-stealing pool + activity compaction + kernel cache) — on a
//! reduced-scale sparse-convection CONUS case at several worker counts.
//!
//! The host container may have fewer cores than the worker counts under
//! test, so the headline throughput is computed by **schedule replay**:
//! one serial reference run records the metered collision flops of every
//! launch unit (`SbmStepStats::coal_profile`; physics is bitwise
//! identical across arms, so one profile serves all), each scheduling
//! policy is replayed over that profile to get the per-step makespan a
//! `W`-worker device would see, and flops convert to seconds at the
//! measured serial rate. This is the same measured-work-on-modeled-
//! hardware methodology the rest of the reproduction uses (DESIGN §4).
//! Each arm is additionally run for real to report executor statistics
//! (steals, chunks, cache hits) and the raw host wall time.
//!
//! The output is machine-readable JSON (`BENCH_executor.json`) so the
//! bench trajectory can be tracked across commits. The committed copy is
//! the *perf baseline* enforced by `repro gate` (`wrf-gate`): the gate
//! re-runs this benchmark with the case parameters embedded in the
//! committed document and compares row by row — deterministic replay
//! metrics under tight tolerances, host wall-clock under loose ones.
//! Regenerate the baseline with `repro bench-exec` when an intentional
//! performance change lands.

use fsbm_core::exec::{ExecMode, ExecSummary};
use fsbm_core::scheme::SbmVersion;
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;

/// One (mode, workers) measurement.
#[derive(Debug, Clone)]
pub struct ExecBenchRow {
    /// Scheduling mode label.
    pub mode: &'static str,
    /// Whether the per-k-level kernel cache was enabled for this arm.
    pub cached: bool,
    /// Device-worker count.
    pub workers: usize,
    /// Modeled coal-stage seconds over the measured steps: per-step
    /// makespan of this arm's schedule on `workers` device workers.
    pub modeled_wall: f64,
    /// Modeled steps per second (the headline metric).
    pub steps_per_s: f64,
    /// Measured coal-stage wall on the (possibly oversubscribed) host.
    pub host_wall: f64,
    /// Executor summary of the final step (zeros for static tiles).
    pub exec: ExecSummary,
}

/// Full benchmark result.
#[derive(Debug, Clone)]
pub struct ExecBenchReport {
    /// Horizontal scale of the case.
    pub scale: f64,
    /// Vertical levels.
    pub nz: i32,
    /// Storm count (sparsity knob).
    pub n_storms: usize,
    /// Measured steps per configuration (from a cold start — the early
    /// steps are where convection is sparse).
    pub steps: usize,
    /// Mean collision-predicate activity fraction over the measured
    /// steps (from the serial reference run).
    pub active_fraction: f64,
    /// Serial coal-stage seconds of the reference run (calibrates
    /// flops → seconds for the replay).
    pub serial_wall: f64,
    /// Total metered collision flops of the reference run.
    pub serial_flops: u64,
    /// All measurements, arm-major.
    pub rows: Vec<ExecBenchRow>,
}

/// The two arms: the seed execution path (static tiles, on-demand
/// kernel entries) and the production path (persistent pool + activity
/// compaction + per-k-level kernel cache — the cache rides with the
/// pool, as in `ModelConfig::gate`).
const ARMS: [ExecMode; 2] = [ExecMode::StaticTiles, ExecMode::WorkSteal];

/// Sums `profile` into contiguous chunks of `chunk` units.
fn chunk_works(profile: &[u64], chunk: u64) -> Vec<u64> {
    profile
        .chunks(chunk.max(1) as usize)
        .map(|c| c.iter().sum())
        .collect()
}

/// Greedy online list scheduling: each chunk, in queue order, runs on
/// the earliest-free worker — the behavior an idle-steals-from-busy
/// pool converges to.
fn greedy_makespan(chunks: &[u64], workers: usize) -> u64 {
    let mut load = vec![0u64; workers.max(1)];
    for &c in chunks {
        *load.iter_mut().min().expect("workers >= 1") += c;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Makespan of one step's profile under `mode` on `workers` workers.
fn replay(profile: &[u64], mode: ExecMode, workers: usize) -> u64 {
    let total: u64 = profile.iter().sum();
    if workers <= 1 {
        return total;
    }
    match mode {
        // Contiguous static partition (`launch_functional_static`):
        // worker `w` gets `[w*per, (w+1)*per)`.
        ExecMode::StaticTiles => {
            let per = (profile.len() as u64).div_ceil(workers as u64) as usize;
            profile
                .chunks(per.max(1))
                .map(|r| r.iter().sum())
                .max()
                .unwrap_or(0)
        }
        ExecMode::WorkSteal => {
            // Only predicate-fired units enter the queue.
            let units: Vec<u64> = profile.iter().copied().filter(|&w| w > 0).collect();
            let chunk = wrf_exec::auto_chunk(units.len() as u64, workers);
            greedy_makespan(&chunk_works(&units, chunk), workers)
        }
    }
}

struct Reference {
    profiles: Vec<Vec<u64>>,
    serial_wall: f64,
    serial_flops: u64,
    active_fraction: f64,
}

/// Serial reference run: records per-step profiles and the flops →
/// seconds calibration.
fn reference(scale: f64, nz: i32, n_storms: usize, steps: usize) -> Reference {
    let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse2, scale, nz);
    cfg.case.n_storms = n_storms;
    cfg.device_workers = Some(1);
    cfg.sched = ExecMode::StaticTiles;
    cfg.cached_kernels = false;
    cfg.profile_coal = true;
    let mut model = Model::single_rank(cfg);
    // No warm-up: the early steps are the sparse-convection regime (the
    // predicate spreads with the developing clouds), and the reference
    // must profile exactly the steps the arms measure.
    let mut profiles = Vec::new();
    let mut serial_wall = 0.0;
    let mut serial_flops = 0u64;
    let mut active = 0.0;
    for _ in 0..steps {
        let s = model.step().sbm;
        serial_wall += s.coal_wall;
        serial_flops += s.work.coal.flops;
        active += s.coal_points as f64 / s.points.max(1) as f64;
        profiles.push(s.coal_profile.expect("profiling enabled"));
    }
    Reference {
        profiles,
        serial_wall,
        serial_flops,
        active_fraction: active / steps as f64,
    }
}

fn measure(
    mode: ExecMode,
    workers: usize,
    scale: f64,
    nz: i32,
    n_storms: usize,
    steps: usize,
    reference: &Reference,
) -> ExecBenchRow {
    let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse2, scale, nz);
    cfg.case.n_storms = n_storms;
    cfg.device_workers = Some(workers);
    cfg.sched = mode;
    let cached = mode.uses_executor();
    cfg.cached_kernels = cached;
    let mut model = Model::single_rank(cfg);
    let mut host_wall = 0.0;
    let mut last = None;
    for _ in 0..steps {
        let s = model.step().sbm;
        host_wall += s.coal_wall;
        last = Some(s);
    }
    let last = last.expect("steps >= 1");
    let secs_per_flop = reference.serial_wall / reference.serial_flops.max(1) as f64;
    let makespan: u64 = reference
        .profiles
        .iter()
        .map(|p| replay(p, mode, workers))
        .sum();
    let modeled_wall = makespan as f64 * secs_per_flop;
    ExecBenchRow {
        mode: mode.label(),
        cached,
        workers,
        modeled_wall,
        steps_per_s: steps as f64 / modeled_wall.max(1e-12),
        host_wall,
        exec: model.exec_summary(&last),
    }
}

impl ExecBenchReport {
    /// The ratio `steps_per_s(work-stealing+compaction) /
    /// steps_per_s(static-tiles)` at `workers` (0.0 when missing).
    pub fn speedup_vs_static(&self, workers: usize) -> f64 {
        let rate = |mode: &str| {
            self.rows
                .iter()
                .find(|r| r.mode == mode && r.workers == workers)
                .map(|r| r.steps_per_s)
        };
        match (rate("work-stealing+compaction"), rate("static-tiles")) {
            (Some(ws), Some(st)) if st > 0.0 => ws / st,
            _ => 0.0,
        }
    }

    fn worker_counts(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.rows.iter().map(|r| r.workers).collect();
        w.sort_unstable();
        w.dedup();
        w
    }

    /// Renders the JSON document committed as `BENCH_executor.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"executor_scaling\",\n");
        s.push_str(
            "  \"metric\": \"modeled coal-stage steps per second on W device workers \
             (per-step schedule-replay makespan of the metered collision-work profile, \
             converted to seconds at the measured serial rate; higher is better)\",\n",
        );
        s.push_str(&format!(
            "  \"case\": {{\"scale\": {}, \"nz\": {}, \"n_storms\": {}, \"steps\": {}, \
             \"active_fraction\": {:.4}}},\n",
            self.scale, self.nz, self.n_storms, self.steps, self.active_fraction
        ));
        s.push_str(&format!(
            "  \"calibration\": {{\"serial_coal_wall_s\": {:.6}, \"coal_flops\": {}}},\n",
            self.serial_wall, self.serial_flops
        ));
        s.push_str("  \"rows\": [\n");
        for (n, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"cached_kernels\": {}, \"workers\": {}, \
                 \"modeled_wall_s\": {:.6}, \"steps_per_s\": {:.2}, \"host_wall_s\": {:.6}, \
                 \"steals\": {}, \"chunks\": {}, \"cache_hit_rate\": {:.4}}}{}\n",
                r.mode,
                r.cached,
                r.workers,
                r.modeled_wall,
                r.steps_per_s,
                r.host_wall,
                r.exec.steals,
                r.exec.chunks,
                r.exec.cache_hit_rate,
                if n + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"speedup_ws_compaction_vs_static\": {");
        let workers = self.worker_counts();
        for (n, &w) in workers.iter().enumerate() {
            s.push_str(&format!(
                "\"{}\": {:.3}{}",
                w,
                self.speedup_vs_static(w),
                if n + 1 < workers.len() { ", " } else { "" }
            ));
        }
        s.push_str("}\n}\n");
        s
    }

    /// Renders the human-readable table printed by `repro bench-exec`.
    pub fn rendered(&self) -> String {
        let mut s = format!(
            "=== bench-exec: modeled coal-stage throughput, scale {} nz {} ({} storms, {} steps, activity {:.1}%) ===\n",
            self.scale,
            self.nz,
            self.n_storms,
            self.steps,
            self.active_fraction * 100.0
        );
        s.push_str(&format!(
            "{:<26} {:>6} {:>7} {:>12} {:>10} {:>8} {:>8}\n",
            "mode", "cache", "workers", "modeled s", "steps/s", "steals", "chunks"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<26} {:>6} {:>7} {:>12.6} {:>10.2} {:>8} {:>8}\n",
                r.mode,
                if r.cached { "on" } else { "off" },
                r.workers,
                r.modeled_wall,
                r.steps_per_s,
                r.exec.steals,
                r.exec.chunks
            ));
        }
        for &w in &self.worker_counts() {
            s.push_str(&format!(
                "speedup ws+compaction vs static @ {w} workers: {:.2}x\n",
                self.speedup_vs_static(w)
            ));
        }
        s
    }
}

/// Runs the full sweep: a serial profiled reference, then every arm at
/// every worker count. `n_storms` controls the sparsity of the
/// convection (fewer storms = lower active fraction).
pub fn bench_exec(
    scale: f64,
    nz: i32,
    n_storms: usize,
    steps: usize,
    worker_counts: &[usize],
) -> ExecBenchReport {
    let reference = reference(scale, nz, n_storms, steps);
    let mut rows = Vec::new();
    for mode in ARMS {
        for &w in worker_counts {
            rows.push(measure(mode, w, scale, nz, n_storms, steps, &reference));
        }
    }
    ExecBenchReport {
        scale,
        nz,
        n_storms,
        steps,
        active_fraction: reference.active_fraction,
        serial_wall: reference.serial_wall,
        serial_flops: reference.serial_flops,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "manual probe for sizing the bench case"]
    fn probe_step_costs() {
        for (scale, nz, storms) in [(0.2, 16, 2), (0.25, 16, 2)] {
            let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse2, scale, nz);
            cfg.case.n_storms = storms;
            cfg.device_workers = Some(1);
            let mut model = Model::single_rank(cfg);
            for step in 0..6 {
                let s = model.step().sbm;
                println!(
                    "scale {scale} nz {nz} storms {storms} step {step}: coal_wall {:.6}s coal_points {} points {} activity {:.3}",
                    s.coal_wall,
                    s.coal_points,
                    s.points,
                    s.coal_points as f64 / s.points as f64
                );
            }
        }
    }

    #[test]
    fn replay_policies_are_sane() {
        // A clustered profile: all the work in one contiguous blob.
        let mut profile = vec![0u64; 256];
        for w in profile.iter_mut().skip(100).take(40) {
            *w = 1000;
        }
        let total: u64 = profile.iter().sum();
        // One worker: every policy degenerates to the serial sum.
        for mode in [ExecMode::StaticTiles, ExecMode::work_steal()] {
            assert_eq!(replay(&profile, mode, 1), total);
        }
        // Static contiguous split at 4 workers puts the whole blob in
        // at most two ranges; work-stealing + compaction spreads it.
        let st = replay(&profile, ExecMode::StaticTiles, 4);
        let wsc = replay(&profile, ExecMode::work_steal(), 4);
        assert!(st >= total / 2, "blob lands in few static ranges: {st}");
        assert!(
            wsc * 13 <= st * 10,
            "compacted stealing must beat static by >= 1.3x: {wsc} vs {st}"
        );
        // Makespan can never be smaller than perfect balance.
        assert!(wsc >= total / 4);
        // Chunked greedy never loses to a single-queue serial run.
        assert!(replay(&profile, ExecMode::work_steal(), 8) <= total);
    }

    #[test]
    fn quick_sweep_produces_rows_and_json() {
        // Tiny case: correctness of the report plumbing, not timing.
        let rep = bench_exec(0.04, 8, 3, 1, &[1, 2]);
        assert_eq!(rep.rows.len(), 4);
        assert!(rep.serial_flops > 0);
        assert!(rep.rows.iter().all(|r| r.modeled_wall > 0.0));
        assert!(rep.active_fraction > 0.0 && rep.active_fraction < 1.0);
        let json = rep.to_json();
        assert!(json.contains("\"bench\": \"executor_scaling\""));
        assert!(json.contains("work-stealing+compaction"));
        assert!(json.contains("speedup_ws_compaction_vs_static"));
        assert!(rep.rendered().contains("steps/s"));
    }
}
