//! Layer probes: each layer's public entry points called in isolation
//! on the workload's own patch and state, many times, so a per-layer
//! number exists that no other layer's time leaks into.

use crate::calib::{Clock, NOMINAL_S};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{scheme_config, THREADS};
use fsbm_core::exec::ExecMode;
use fsbm_core::meter::PointWork;
use fsbm_core::scheme::{FastSbm, Layout, SbmConfig, SbmVersion};
use fsbm_core::state::SbmPatchState;
use miniwrf::model::periodic_refresh;
use miniwrf::ModelConfig;
use mpi_sim::run_ranks;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wrf_cases::{diffwrf, wrfout, ConusCase};
use wrf_dycore::wind::StormWind;
use wrf_dycore::{
    horizontal_diffusion, rk3_advect_scalar, rk3_advect_scalar_overlapped, rk_scalar_tend,
    rk_update_scalar, storm_wind, HaloEngine, Wind,
};
use wrf_exec::Executor;
use wrf_grid::halo::halo_message_len;
use wrf_grid::{pack_halo, unpack_halo, Field3, HaloSide, PatchSpec};

/// BENCH_executor.json's modeled 2-worker coal speedup (schedule replay
/// over metered flops), the figure `exec.model_over_measured` divides
/// by what this host measures.
pub const MODELED_SCALING_1TO2: f64 = 1.635;

/// Runs probes and collects their medians by metric name.
pub struct Prober<'a> {
    clock: &'a mut Clock,
    rec: &'a mut Recorder,
    calls: usize,
    /// Metric name → (value, calibrated per-call samples in the
    /// metric's unit; empty for derived values).
    pub out: BTreeMap<&'static str, (f64, Vec<f64>)>,
}

impl<'a> Prober<'a> {
    /// A prober making `calls` calls per probe.
    pub fn new(clock: &'a mut Clock, rec: &'a mut Recorder, calls: usize) -> Self {
        Prober {
            clock,
            rec,
            calls: calls.max(1),
            out: BTreeMap::new(),
        }
    }

    /// Times `n` calls of `f` under one `probe.<span>` span and returns
    /// the calls' walls in calibrated seconds (one calibration bracket
    /// around the whole probe: its calls are too short to bracket each).
    fn timed(&mut self, span: &str, n: usize, mut f: impl FnMut()) -> Vec<f64> {
        let before = self.clock.sample();
        let id = self.rec.open(&format!("probe.{span}"), None, None);
        let mut walls = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            f();
            walls.push(t.elapsed().as_secs_f64());
        }
        self.rec.close(id);
        let after = self.clock.sample();
        let factor = 0.5 * (before + after) / NOMINAL_S;
        walls.iter_mut().for_each(|w| *w /= factor);
        self.rec.arg(id, "median_us", median(&walls) * 1e6);
        self.rec.arg(id, "calls", n as f64);
        walls
    }

    /// Records the median of `n` timed calls, scaled into the metric's unit.
    fn probe_n(&mut self, metric: &'static str, span: &str, scale: f64, n: usize, f: impl FnMut()) {
        let samples: Vec<f64> = self.timed(span, n, f).iter().map(|w| w * scale).collect();
        self.out.insert(metric, (median(&samples), samples));
    }

    fn probe(&mut self, metric: &'static str, span: &str, scale: f64, f: impl FnMut()) {
        self.probe_n(metric, span, scale, self.calls, f);
    }

    /// A value worked out from other readings.
    fn derived(&mut self, metric: &'static str, value: f64) {
        self.out.insert(metric, (value, Vec::new()));
    }

    fn value(&self, metric: &str) -> f64 {
        self.out.get(metric).map_or(0.0, |v| v.0)
    }

    /// A tenth of the calls (at least 2) for probes that cost a whole
    /// scheme step each.
    fn few(&self) -> usize {
        (self.calls / 10).max(2)
    }
}

/// A doubly-periodic halo engine over one patch, built from the grid
/// layer's own pack/unpack: what the overlapped RK3 path needs to run
/// outside a rank runtime.
struct PeriodicEngine {
    patch: PatchSpec,
    /// The round's two packed strips and the side each is received on;
    /// the buffers are reused, as the rank engine reuses its own.
    strips: [(HaloSide, Vec<f32>); 2],
}

impl HaloEngine for PeriodicEngine {
    fn rounds(&self) -> usize {
        2
    }
    fn post(&mut self, round: usize, field: &Field3<f32>) {
        let sides = if round == 0 {
            [HaloSide::West, HaloSide::East]
        } else {
            [HaloSide::South, HaloSide::North]
        };
        for (side, (recv_side, buf)) in sides.into_iter().zip(&mut self.strips) {
            buf.clear();
            pack_halo(field, &self.patch, side, buf);
            // Our own strip arrives from the periodic neighbour on the
            // opposite side.
            *recv_side = side.opposite();
        }
    }
    fn finish(&mut self, _round: usize, field: &mut Field3<f32>) {
        for (side, buf) in &self.strips {
            unpack_halo(field, &self.patch, *side, buf);
        }
    }
    fn absorb(&mut self, _work: PointWork) {}
}

fn storm_params(cfg: &ModelConfig) -> StormWind {
    let w = cfg.case.wind;
    StormWind {
        w_max: w.w_max,
        u_surface: w.u_surface,
        u_shear: w.u_shear,
        cell_wavelength: w.cell_wavelength,
        nz: cfg.case.nz as f32,
        x_offset: w.x_offset,
        j_offset: w.j_offset,
        j_period: w.j_period,
    }
}

/// Dynamics and grid probes on `state`'s patch.
pub fn dycore_and_grid(p: &mut Prober<'_>, cfg: &ModelConfig, state: &SbmPatchState) {
    let patch = state.patch;
    let (dx, dz, dt) = (cfg.case.dx, cfg.case.dz, cfg.case.dt);
    let sp = storm_params(cfg);
    let mut wind = Wind::calm(&patch);
    p.probe("dycore.wind_fill_us", "dycore.storm_wind", 1e6, || {
        black_box(storm_wind(&mut wind, &patch, &sp, 30.0, dx, dz));
    });

    let mut scalar = state.qv.clone();
    let mut scratch = Field3::for_patch(&patch);
    let mut tend = Field3::for_patch(&patch);
    let mut refresh = periodic_refresh(patch);
    p.probe(
        "dycore.rk3_scalar_us",
        "dycore.rk3_advect_scalar",
        1e6,
        || {
            scalar.clone_from(&state.qv);
            black_box(rk3_advect_scalar(
                &mut scalar,
                &wind,
                &patch,
                dx,
                dx,
                dz,
                dt,
                true,
                &mut scratch,
                &mut tend,
                &mut refresh,
            ));
        },
    );
    let pool = Executor::new(cfg.device_workers.unwrap_or(1));
    let mut engine = PeriodicEngine {
        patch,
        strips: [(HaloSide::West, Vec::new()), (HaloSide::East, Vec::new())],
    };
    p.probe(
        "dycore.rk3_overlap_scalar_us",
        "dycore.rk3_advect_scalar_overlapped",
        1e6,
        || {
            scalar.clone_from(&state.qv);
            black_box(rk3_advect_scalar_overlapped(
                &mut scalar,
                &wind,
                &patch,
                dx,
                dx,
                dz,
                dt,
                true,
                &mut scratch,
                &mut tend,
                &mut engine,
                &pool,
            ));
        },
    );
    scalar.clone_from(&state.qv);
    refresh(&mut scalar);
    let mut work = PointWork::ZERO;
    p.probe("dycore.tend_us", "dycore.rk_scalar_tend", 1e6, || {
        work = PointWork::ZERO;
        rk_scalar_tend(&scalar, &wind, &patch, dx, dx, dz, &mut tend, &mut work);
    });
    p.derived("dycore.tend_flops", work.flops as f64);
    let per_point = p.value("dycore.tend_us") * 1e3 / patch.compute_points() as f64;
    p.derived("dycore.tend_ns_per_point", per_point);
    p.probe("dycore.update_us", "dycore.rk_update_scalar", 1e6, || {
        rk_update_scalar(
            &mut scratch,
            &scalar,
            &tend,
            dt / 3.0,
            &patch,
            true,
            &mut work,
        );
    });
    p.probe(
        "dycore.diffusion_us",
        "dycore.horizontal_diffusion",
        1e6,
        || {
            horizontal_diffusion(&mut scalar, &patch, 1.0e4, dx, dt, &mut work);
        },
    );

    let mut bufs: Vec<Vec<f32>> = vec![Vec::new(); 4];
    p.probe("grid.halo_pack_us", "grid.pack_halo", 1e6, || {
        for (side, buf) in HaloSide::ALL.into_iter().zip(&mut bufs) {
            buf.clear();
            pack_halo(&scalar, &patch, side, buf);
        }
    });
    p.probe("grid.halo_unpack_us", "grid.unpack_halo", 1e6, || {
        for (side, buf) in HaloSide::ALL.into_iter().zip(&bufs) {
            unpack_halo(&mut scalar, &patch, side.opposite(), buf);
        }
    });
    p.probe(
        "grid.periodic_refresh_us",
        "model.periodic_refresh",
        1e6,
        || {
            refresh(&mut scalar);
        },
    );
    let bytes: usize = HaloSide::ALL
        .into_iter()
        .map(|s| halo_message_len(&patch, s) * 4)
        .sum();
    p.derived("grid.halo_bytes_per_refresh", bytes as f64);
}

/// Rank-runtime probes: a halo-strip-sized ping-pong through
/// `isend/irecv/wait` and a scalar all-reduce between two ranks.
pub fn mpi(p: &mut Prober<'_>, patch: &PatchSpec) {
    let len = halo_message_len(patch, HaloSide::West);
    let n = p.calls;
    let before = p.clock.sample();
    let id = p.rec.open("probe.mpi.run_ranks", None, None);
    let per_rank = run_ranks(2, |mut rank| {
        let me = rank.rank();
        let peer = 1 - me;
        let buf = vec![me as f32; len];
        let mut pingpong = Vec::with_capacity(n);
        let mut reduce = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let t = Instant::now();
            if me == 0 {
                rank.isend_f32(peer, 2 * i, &buf);
                let req = rank.irecv_f32(peer, 2 * i + 1);
                black_box(rank.wait(req));
            } else {
                let req = rank.irecv_f32(peer, 2 * i);
                black_box(rank.wait(req));
                rank.isend_f32(peer, 2 * i + 1, &buf);
            }
            pingpong.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(rank.allreduce_max(me as f64));
            reduce.push(t.elapsed().as_secs_f64());
        }
        (pingpong, reduce)
    });
    p.rec.close(id);
    let after = p.clock.sample();
    let factor = 0.5 * (before + after) / NOMINAL_S;
    let (pingpong, reduce) = &per_rank[0];
    for (metric, walls) in [("mpi.pingpong_us", pingpong), ("mpi.allreduce_us", reduce)] {
        let us: Vec<f64> = walls.iter().map(|w| w / factor * 1e6).collect();
        p.out.insert(metric, (median(&us), us));
    }
    p.rec.arg(id, "calls", n as f64);
}

/// Executor wake/quiesce cost: an empty body over enough chunks that
/// the pool really dispatches.
pub fn exec(p: &mut Prober<'_>) {
    let pool = Executor::new(THREADS);
    p.probe("exec.epoch_us", "exec.run_ranges_empty", 1e6, || {
        pool.run_ranges(16, Some(1), |lo, hi| {
            black_box((lo, hi));
        });
    });
}

/// Microphysics probes on `snapshot`: table build, the 1 → 2 worker
/// collision scaling, and the same state through the other versions and
/// the other layout.
pub fn sbm(p: &mut Prober<'_>, cfg: &ModelConfig, snapshot: &SbmPatchState) {
    let base = scheme_config(cfg);
    p.probe("sbm.table_build_ms", "core.FastSbm_new", 1e3, || {
        black_box(FastSbm::new(base));
    });

    // One and two workers alternate on the same snapshot, so host drift
    // hits both arms alike.
    let n = p.few() * 2;
    let mut w1 = FastSbm::new(SbmConfig {
        workers: Some(1),
        ..base
    });
    let mut w2 = FastSbm::new(SbmConfig {
        workers: Some(THREADS),
        ..base
    });
    let (mut coal1, mut coal2) = (Vec::new(), Vec::new());
    let id = p.rec.open("probe.core.coal_scaling", None, None);
    for _ in 0..n {
        for (sbm, coal) in [(&mut w1, &mut coal1), (&mut w2, &mut coal2)] {
            let mut s = snapshot.clone();
            let (stats, t) = p.clock.time(|| sbm.step(&mut s));
            coal.push(stats.coal_wall / t.factor);
        }
    }
    p.rec.close(id);
    let (c1, c2) = (median(&coal1), median(&coal2));
    let w1_ms: Vec<f64> = coal1.iter().map(|c| c * 1e3).collect();
    p.out.insert("sbm.coal_ms_w1", (c1 * 1e3, w1_ms));
    let scaling = if c2 > 0.0 { c1 / c2 } else { 0.0 };
    p.derived("sbm.coal_scaling_1to2", scaling);
    let model_over_measured = if scaling > 0.0 {
        MODELED_SCALING_1TO2 / scaling
    } else {
        0.0
    };
    p.derived("exec.model_over_measured", model_over_measured);

    // Tables III–V, measured: the four versions as the paper ran them
    // (AoS points, static schedule, no kernel cache; the serial ones on
    // one worker, the offloaded ones on both), and the production
    // configuration on the AoS layout, which isolates what SoA panels buy.
    let paper = |version, workers| SbmConfig {
        version,
        workers: Some(workers),
        sched: ExecMode::StaticTiles,
        cached_kernels: false,
        layout: Layout::PointAos,
        ..base
    };
    let production_aos = SbmConfig {
        workers: Some(THREADS),
        layout: Layout::PointAos,
        ..base
    };
    let arms: [(&'static str, &str, SbmConfig); 5] = [
        (
            "sbm.v0_step_ms",
            "core.step_baseline",
            paper(SbmVersion::Baseline, 1),
        ),
        (
            "sbm.v1_step_ms",
            "core.step_lookup",
            paper(SbmVersion::Lookup, 1),
        ),
        (
            "sbm.v2_step_ms",
            "core.step_collapse2",
            paper(SbmVersion::OffloadCollapse2, THREADS),
        ),
        (
            "sbm.v3_step_ms",
            "core.step_collapse3",
            paper(SbmVersion::OffloadCollapse3, THREADS),
        ),
        (
            "sbm.aos_step_ms",
            "core.step_production_aos",
            production_aos,
        ),
    ];
    let few = p.few();
    for (metric, span, sc) in arms {
        let mut sbm = FastSbm::new(sc);
        p.probe_n(metric, span, 1e3, few, || {
            let mut s = snapshot.clone();
            black_box(sbm.step(&mut s));
        });
    }
}

/// Verification-path and checkpoint probes.
pub fn cases(p: &mut Prober<'_>, cfg: &ModelConfig, state: &SbmPatchState, tmp: &Path) {
    let patch = state.patch;
    p.probe("core.digest_ms", "core.digest", 1e3, || {
        black_box(state.digest());
    });
    p.probe("cases.init_state_ms", "cases.init_state", 1e3, || {
        black_box(ConusCase::new(cfg.case).init_state(&patch));
    });
    let twin = state.clone();
    p.probe("cases.diffwrf_ms", "cases.diffwrf", 1e3, || {
        black_box(diffwrf(state, &twin));
    });
    std::fs::create_dir_all(tmp).expect("create benchmark scratch directory");
    let path = tmp.join("probe_restart.bin");
    p.probe("cases.restart_write_ms", "cases.save_restart", 1e3, || {
        wrfout::save_restart(&path, 8, 40.0, state).expect("write restart probe file");
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    p.derived("cases.restart_bytes", bytes as f64);
    p.probe("cases.restart_read_ms", "cases.load_restart", 1e3, || {
        black_box(wrfout::load_restart(&path).expect("read restart probe file"));
    });
    let _ = std::fs::remove_file(&path);
}
