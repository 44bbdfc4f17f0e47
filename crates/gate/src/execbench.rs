//! `bench-exec`: executor-scaling benchmark over the functional plane.
//!
//! Compares the two scheduling arms — the seed execution path (static
//! tiles, on-demand kernels) and the production path (persistent
//! work-stealing pool + activity compaction + kernel cache) — on a
//! reduced-scale sparse-convection CONUS case at several worker counts.
//!
//! The headline is computed by **schedule replay**: one serial reference
//! run records the metered collision flops of every launch unit
//! (`SbmStepStats::coal_profile`; physics is bitwise identical across
//! arms, so one profile serves all), and each scheduling policy is
//! replayed over that profile to get the per-step makespan, in flops, a
//! `W`-worker device would see. Scaling is serial flops over makespan.
//! Nothing here is a second: turning flops into time is the perf
//! plane's job (on a named device) or the ledger's (`benchmark/`, on a
//! recorded host). Each arm is additionally run for real, which is where
//! the executor's own chunk count and kernel-cache hit rate come from.
//!
//! `repro bench-exec` is a gate of the registry like the others: its
//! report is the shared envelope ([`Report`]), written to the committed
//! `BENCH_executor.json`, and a deterministic function of the source
//! tree — two runs give a byte-identical file. It asserts nothing
//! itself; `ci.sh` regenerates the file and fails when the bytes moved,
//! so an intentional change to the work or the schedule lands with its
//! regenerated copy, and the diff is what review reads.

use crate::report::{Cell, Report, Table};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;

/// One (mode, workers) replay, next to the real run of the same arm.
#[derive(Debug, Clone)]
pub struct ExecBenchRow {
    /// Scheduling mode. The per-k-level kernel cache rides with the
    /// pool: it is on exactly when the mode uses the executor.
    pub mode: ExecMode,
    /// Device-worker count.
    pub workers: usize,
    /// Summed per-step makespan of this arm's schedule on `workers`
    /// device workers, in metered collision flops.
    pub makespan_flops: u64,
    /// Chunks the real run's pool ran (under static tiles, the collision
    /// launch's blocks alone).
    pub chunks: u64,
    /// Kernel-cache hit rate of the real run's final step.
    pub cache_hit_rate: f64,
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
    /// Steps per configuration (from a cold start — the early steps are
    /// where convection is sparse).
    pub steps: usize,
    /// Mean collision-predicate activity fraction over those steps
    /// (from the serial reference run).
    pub active_fraction: f64,
    /// Total metered collision flops of the reference run: the
    /// one-worker makespan every row's scaling is taken against.
    pub serial_flops: u64,
    /// All rows, arm-major.
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
        // Strict contiguous static partition: worker `w` runs
        // `[w*per, (w+1)*per)` (on the real pool an idle worker may still
        // take a block whose owner has not started).
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
    serial_flops: u64,
    active_fraction: f64,
}

/// Serial reference run of `case`: records the per-step work profiles.
fn reference(case: ModelConfig, steps: usize) -> Reference {
    let mut cfg = case;
    cfg.device_workers = Some(1);
    cfg.sched = ExecMode::StaticTiles;
    cfg.cached_kernels = false;
    cfg.profile_coal = true;
    let mut model = Model::single_rank(cfg);
    // No warm-up: the early steps are the sparse-convection regime (the
    // predicate spreads with the developing clouds), and the reference
    // must profile exactly the steps the arms run.
    let mut profiles = Vec::new();
    let mut serial_flops = 0u64;
    let mut active = 0.0;
    for _ in 0..steps {
        let s = model.step().sbm;
        serial_flops += s.work.coal.flops;
        active += s.coal_points as f64 / s.points.max(1) as f64;
        profiles.push(s.coal_profile.expect("profiling enabled"));
    }
    Reference {
        profiles,
        serial_flops,
        active_fraction: active / steps as f64,
    }
}

/// One arm: the replay of `mode` on `workers` workers over the
/// reference profiles, and a real run of `case` under the same setting.
fn measure(
    case: ModelConfig,
    mode: ExecMode,
    workers: usize,
    steps: usize,
    reference: &Reference,
) -> ExecBenchRow {
    let mut cfg = case;
    cfg.device_workers = Some(workers);
    cfg.sched = mode;
    cfg.cached_kernels = mode == ExecMode::WorkSteal;
    let mut model = Model::single_rank(cfg);
    let mut last = None;
    for _ in 0..steps {
        last = Some(model.step().sbm);
    }
    let exec = model.exec_summary(&last.expect("steps >= 1"));
    ExecBenchRow {
        mode,
        workers,
        makespan_flops: (reference.profiles.iter())
            .map(|p| replay(p, mode, workers))
            .sum(),
        chunks: exec.chunks,
        cache_hit_rate: exec.cache_hit_rate,
    }
}

impl ExecBenchReport {
    /// The rows of one arm, in worker-count order.
    fn arm(&self, mode: ExecMode) -> impl Iterator<Item = &ExecBenchRow> {
        self.rows.iter().filter(move |r| r.mode == mode)
    }

    /// The headline: per worker count, the static-tiles makespan over
    /// the work-stealing one (both arms ran the same worker counts in
    /// the same order).
    fn speedups(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (self.arm(ExecMode::StaticTiles))
            .zip(self.arm(ExecMode::WorkSteal))
            .map(|(st, ws)| {
                let speedup = st.makespan_flops as f64 / ws.makespan_flops as f64;
                (st.workers, speedup)
            })
    }

    /// The `bench-exec` report: the document committed as
    /// `BENCH_executor.json` and the text `repro bench-exec` prints. It
    /// has no checks: the committed bytes are what a fresh one is held
    /// to.
    pub fn report(&self) -> Report {
        let rows = Table::new(
            "rows",
            "schedule replay of the metered collision-work profile on W device workers",
            self.rows.iter().map(|r| {
                let scaling = self.serial_flops as f64 / r.makespan_flops as f64;
                vec![
                    ("mode", r.mode.label().into()),
                    ("cached_kernels", (r.mode == ExecMode::WorkSteal).into()),
                    ("workers", r.workers.into()),
                    ("makespan_flops", r.makespan_flops.into()),
                    ("scaling_vs_serial", Cell::num(scaling, 3)),
                    ("chunks", r.chunks.into()),
                    ("cache_hit_rate", Cell::num(r.cache_hit_rate, 4)),
                ]
            }),
        );
        let speedups = Table::new(
            "speedup_ws_compaction_vs_static",
            "speedup work-stealing+compaction vs static tiles",
            (self.speedups()).map(|(workers, speedup)| {
                vec![
                    ("workers", workers.into()),
                    ("speedup", Cell::num(speedup, 3)),
                ]
            }),
        );
        Report {
            gate: "bench-exec",
            case: vec![
                ("scale", self.scale.into()),
                ("nz", self.nz.into()),
                ("n_storms", self.n_storms.into()),
                ("steps", self.steps.into()),
                ("active_fraction", Cell::num(self.active_fraction, 4)),
                ("coal_flops", self.serial_flops.into()),
            ],
            checks: Vec::new(),
            tables: vec![rows, speedups],
        }
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
    let mut case = ModelConfig::functional(SbmVersion::OffloadCollapse2, scale, nz);
    case.case.n_storms = n_storms;
    let reference = reference(case, steps);
    let mut rows = Vec::new();
    for mode in ARMS {
        for &w in worker_counts {
            rows.push(measure(case, mode, w, steps, &reference));
        }
    }
    ExecBenchReport {
        scale,
        nz,
        n_storms,
        steps,
        active_fraction: reference.active_fraction,
        serial_flops: reference.serial_flops,
        rows,
    }
}

/// `repro bench-exec`: the committed case. Reduced-scale sparse CONUS
/// (one storm cluster on a ~68x48 grid keeps the collision-predicate
/// activity fraction under 0.2), both arms at 1/2/4/8 workers.
pub fn run() -> Report {
    bench_exec(0.16, 16, 1, 3, &[1, 2, 4, 8]).report()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Tiny case: correctness of the report plumbing.
        let rep = bench_exec(0.04, 8, 3, 1, &[1, 2]);
        assert_eq!(rep.rows.len(), 4);
        assert!(rep.serial_flops > 0);
        assert_eq!(rep.rows[0].makespan_flops, rep.serial_flops);
        assert!(rep.rows.iter().all(|r| r.makespan_flops > 0));
        assert!(rep.active_fraction > 0.0 && rep.active_fraction < 1.0);
        let report = rep.report();
        assert!(report.pass() && report.checks.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"gate\": \"bench-exec\""));
        assert!(json.contains("work-stealing+compaction"));
        assert!(json.contains("speedup_ws_compaction_vs_static"));
        // It gates nothing, so it prints no verdict and no empty table.
        let text = report.rendered();
        assert!(text.contains("scaling_vs_serial"), "{text}");
        assert!(!text.contains("gate: PASS"), "{text}");
        assert!(!text.contains("=== repro bench-exec: checks ==="), "{text}");
        // The invariant the byte check rests on: the document is a
        // function of the source tree, not of the host or the run.
        let again = bench_exec(0.04, 8, 3, 1, &[1, 2]).report().to_json();
        assert_eq!(json, again);
    }
}
