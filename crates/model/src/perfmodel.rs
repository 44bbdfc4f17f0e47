//! The full-scale performance model.
//!
//! Absolute Perlmutter timings cannot be measured here, so the paper's
//! tables are regenerated by *pricing measured work on modeled hardware*:
//!
//! 1. [`measure_coeffs`] runs the functional model at reduced scale and
//!    extracts per-point / per-column work coefficients (which are scale
//!    invariant: the scenario's vertical structure and spectra are the
//!    same at every horizontal resolution);
//! 2. [`RankWork::extrapolate`] applies those coefficients to each
//!    full-scale CONUS-12km patch using the scenario's analytic activity
//!    statistics — this is where the paper's load imbalance enters;
//! 3. [`cpu_rank_step_time`] / [`gpu_rank_step_time`] price a rank's step
//!    on the modeled EPYC-7763 / A100 (occupancy + latency-hiding model,
//!    cache-simulated DRAM traffic, PCIe transfers, α–β communication);
//! 4. [`experiment`] assembles a whole run: bulk-synchronous steps gated
//!    by the slowest rank, shared devices time-scheduled through the
//!    [`DevicePool`] replay (round-robin placement, memory-capped
//!    admission, per-service context slices), plus history I/O.

use crate::config::ModelConfig;
use crate::model::Model;
use fsbm_core::meter::{PointWork, WorkBreakdown};
use fsbm_core::scheme::SbmVersion;
use fsbm_core::types::NKR;
use fsbm_core::workload::{coal_memory_trace, kernel_work, TraceParams};
use gpu_sim::cachesim::{CacheConfig, CacheSim, A100_L1, A100_L2};
use gpu_sim::devicepool::{DevicePool, RankFootprint, RankSubmission, ShareReport};
use gpu_sim::error::DeviceError;
use gpu_sim::launch::{launch_modeled_with, KernelSpec, KernelWork, LaunchStats};
use gpu_sim::machine::{
    default_backend, Backend, Calibration, GpuParams, Interconnect, A100, CALIBRATION, EPYC_7763,
    SLINGSHOT,
};
use gpu_sim::schedule::{Collapse, CollisionPlan, TrafficRates};
use wrf_cases::{ConusCase, ConusParams};
use wrf_dycore::advect::{
    TEND_FLOPS_PER_POINT, TEND_MEMOPS_PER_POINT, UPDATE_FLOPS_PER_POINT, UPDATE_MEMOPS_PER_POINT,
};
use wrf_grid::{two_d_decomposition, PatchSpec};

/// Machine and calibration parameters of the performance model.
#[derive(Debug, Clone, Copy)]
pub struct PerfParams {
    /// GPU.
    pub gpu: GpuParams,
    /// Network.
    pub net: Interconnect,
    /// Sustained FLOP/s per core on branchy bin microphysics.
    pub sbm_flops_per_core: f64,
    /// Sustained FLOP/s per core on vectorizable advection stencils.
    pub adv_flops_per_core: f64,
    /// Streaming DRAM bandwidth available to one rank, B/s.
    pub adv_membw_per_core: f64,
    /// Fraction of counted advection memory operands that reach DRAM.
    pub adv_dram_fraction: f64,
    /// Residual dynamics (Euler/pressure/diffusion/BC) as a multiple of
    /// the scalar-advection time.
    pub other_dyn_factor: f64,
    /// Number of advected 3-D scalars (vapor + 231 FSBM bins).
    pub n_scalars: usize,
    /// Halo refreshes per scalar per step (RK3: before each of three
    /// stages + final).
    pub halo_refreshes: usize,
    /// Additional non-scalar halo messages per step (WRF dynamics halos).
    pub extra_halo_msgs: u64,
    /// `NV_ACC_CUDA_STACKSIZE` for device contexts, bytes.
    pub stack_bytes: u64,
    /// History output volume per write, GB (full-domain 3-D fields).
    pub history_gb: f64,
    /// Aggregate filesystem bandwidth, GB/s.
    pub lustre_gbs: f64,
    /// History writes over a 10-minute run.
    pub history_writes: usize,
    /// Device calibration constants used by the launch model and the
    /// device-pool replay. Per-backend; the default is the global
    /// [`CALIBRATION`] (A100), so default-constructed parameters price
    /// exactly as before the zoo existed.
    pub calib: Calibration,
}

impl PerfParams {
    /// Parameters for pricing on `backend`: its device view (a real GPU,
    /// or the self-hosted synthesis for CPU backends) and its calibration
    /// bundle. The *model coefficients* stay structural —
    /// scalar counts, halo shape, I/O volume — but the sustained host
    /// rates scale with the backend host's measured sustained throughput
    /// and memory bandwidth relative to the EPYC 7763 they were calibrated
    /// on. For the default backend every scale factor is exactly 1.0, so
    /// this is bitwise [`PerfParams::default`].
    pub fn for_backend(backend: &Backend) -> PerfParams {
        let d = PerfParams::default();
        let host_scale = backend.host.sustained_flops_per_core / EPYC_7763.sustained_flops_per_core;
        let bw_scale = backend.host.mem_bw / EPYC_7763.mem_bw;
        PerfParams {
            gpu: backend.device_params(),
            calib: backend.calib,
            sbm_flops_per_core: d.sbm_flops_per_core * host_scale,
            adv_flops_per_core: d.adv_flops_per_core * host_scale,
            adv_membw_per_core: d.adv_membw_per_core * bw_scale,
            ..d
        }
    }
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams {
            gpu: A100,
            net: SLINGSHOT,
            sbm_flops_per_core: 2.0e9,
            adv_flops_per_core: 11.0e9,
            adv_membw_per_core: 5.0e9,
            adv_dram_fraction: 0.35,
            other_dyn_factor: 0.6,
            n_scalars: 232,
            halo_refreshes: 4,
            extra_halo_msgs: 64,
            stack_bytes: 65536,
            history_gb: 6.5,
            lustre_gbs: 5.0,
            history_writes: 3,
            calib: CALIBRATION,
        }
    }
}

/// Work coefficients measured from a reduced-scale functional run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCoeffs {
    /// `kernals_ks` work per collision point (baseline only; analytic).
    pub kernals_per_coal_point: PointWork,
    /// Collision work per collision point (lookup mode).
    pub coal_per_coal_point: PointWork,
    /// Nucleation + condensation work per *clear* point (the Listing 1
    /// conditionals early-out).
    pub pre_per_clear_point: PointWork,
    /// Additional nucleation + condensation work per *cloudy* point —
    /// condensation is as spatially clustered as the collisions, which
    /// is what keeps the host side imbalanced after the offload.
    pub pre_per_cloudy_point: PointWork,
    /// Freezing + breakup work per active point.
    pub post_per_active_point: PointWork,
    /// Sedimentation work per active column.
    pub sed_per_active_column: PointWork,
    /// Collision points per active column (cloud depth in levels).
    pub coal_points_per_active_column: f64,
    /// Kernel entries per collision point.
    pub entries_per_coal_point: f64,
    /// Warp efficiency of the collapse(2) launch.
    pub warp_eff_c2: f64,
    /// Warp efficiency of the collapse(3) launch.
    pub warp_eff_c3: f64,
}

/// Measures the coefficients by running the functional model at
/// horizontal `scale` with `nz` levels for `steps` steps (the last step
/// is used, when spectra have developed).
pub fn measure_coeffs(scale: f64, nz: i32, steps: usize) -> MeasuredCoeffs {
    assert!(steps >= 1);
    // Lookup version: the version-independent physics coefficients.
    let mut m = Model::single_rank(ModelConfig::functional(SbmVersion::Lookup, scale, nz));
    let rep = m.run(steps);
    let s = rep.last_sbm.expect("steps >= 1");
    let act = m.case.activity(&m.patch);
    let coal_points = s.coal_points.max(1) as u64;
    let active_points = s.active_points.max(1) as u64;
    let active_cols = act.active_columns.max(1) as u64;

    let div = |w: PointWork, n: u64| PointWork {
        flops: w.flops / n,
        mem_ops: w.mem_ops / n,
    };

    // Clear-point pre cost from a storm-free run of the same shape (the
    // early-out path of the Listing 1 conditionals).
    let pre_clear = {
        let mut cfg = ModelConfig::functional(SbmVersion::Lookup, scale, nz);
        cfg.case.n_storms = 0;
        let mut m0 = Model::single_rank(cfg);
        let s0 = m0.step().sbm;
        div(s0.work.nucl + s0.work.cond, s0.active_points.max(1) as u64)
    };
    // Cloudy-point surcharge: what remains after billing every point the
    // clear cost, attributed to the collision-predicate points.
    let pre_total = s.work.nucl + s.work.cond;
    let clear_share = PointWork {
        flops: pre_clear.flops * active_points,
        mem_ops: pre_clear.mem_ops * active_points,
    };
    let pre_cloudy = PointWork {
        flops: pre_total.flops.saturating_sub(clear_share.flops) / coal_points,
        mem_ops: pre_total.mem_ops.saturating_sub(clear_share.mem_ops) / coal_points,
    };

    // kernals_ks cost per point is analytic: one full fill.
    let tables = fsbm_core::kernels::KernelTables::new();
    let mut dense = fsbm_core::kernels::CollisionTables::new();
    let mut kern_w = PointWork::ZERO;
    fsbm_core::kernels::kernals_ks(&tables, 70_000.0, &mut dense, &mut kern_w);

    // One offloaded step of each collapse for the divergence statistics.
    let warp_eff = |version: SbmVersion| -> f64 {
        let mut m = Model::single_rank(ModelConfig::functional(version, scale, nz));
        let mut last = 1.0;
        for _ in 0..steps.min(2) {
            last = m.step().sbm.warp_efficiency;
        }
        last
    };

    MeasuredCoeffs {
        kernals_per_coal_point: kern_w,
        coal_per_coal_point: div(s.work.coal, coal_points),
        pre_per_clear_point: pre_clear,
        pre_per_cloudy_point: pre_cloudy,
        post_per_active_point: div(s.work.freeze + s.work.breakup, active_points),
        sed_per_active_column: div(s.work.sed, active_cols),
        coal_points_per_active_column: s.coal_points as f64 / active_cols as f64,
        entries_per_coal_point: s.coal_entries as f64 / coal_points as f64,
        warp_eff_c2: warp_eff(SbmVersion::OffloadCollapse2),
        warp_eff_c3: warp_eff(SbmVersion::OffloadCollapse3),
    }
}

/// One rank's per-step work at full scale.
#[derive(Debug, Clone)]
pub struct RankWork {
    /// Rank id.
    pub rank: usize,
    /// Microphysics breakdown.
    pub sbm: WorkBreakdown,
    /// Advection tendency work (all scalars, all stages).
    pub dyn_tend: PointWork,
    /// Stage-update work.
    pub dyn_update: PointWork,
    /// Collision points this step.
    pub coal_points: u64,
    /// Collapsed iteration count of the offloaded collision kernel.
    pub coal_iters: u64,
    /// The version's collision plan.
    pub plan: CollisionPlan,
    /// Warp efficiency of the launch.
    pub warp_eff: f64,
    /// Host↔device bytes per step, each direction.
    pub hd_bytes: u64,
    /// Halo messages per step.
    pub halo_msgs: u64,
    /// Halo bytes per step.
    pub halo_bytes: u64,
}

impl RankWork {
    /// Builds the full-scale work of `patch` under `version` from the
    /// measured coefficients and the scenario's analytic activity.
    pub fn extrapolate(
        case: &ConusCase,
        patch: &PatchSpec,
        coeffs: &MeasuredCoeffs,
        version: SbmVersion,
        pp: &PerfParams,
    ) -> RankWork {
        let act = case.activity(patch);
        let points = patch.compute_points() as u64;
        let coal_points =
            (act.active_columns as f64 * coeffs.coal_points_per_active_column).round() as u64;

        let mul = |w: PointWork, n: u64| PointWork {
            flops: w.flops * n,
            mem_ops: w.mem_ops * n,
        };

        let plan = version.plan();
        let sbm = WorkBreakdown {
            coal: mul(coeffs.coal_per_coal_point, coal_points),
            kernals: if plan.dense_tables {
                mul(coeffs.kernals_per_coal_point, coal_points)
            } else {
                PointWork::ZERO
            },
            cond: mul(coeffs.pre_per_clear_point, points)
                + mul(coeffs.pre_per_cloudy_point, coal_points),
            freeze: mul(coeffs.post_per_active_point, points),
            sed: mul(coeffs.sed_per_active_column, act.active_columns as u64),
            ..WorkBreakdown::default()
        };

        // Dynamics: every scalar, 3 RK3 tendency evaluations + updates.
        let nsc = pp.n_scalars as u64;
        let dyn_tend = PointWork {
            flops: points * nsc * 3 * TEND_FLOPS_PER_POINT,
            mem_ops: points * nsc * 3 * TEND_MEMOPS_PER_POINT,
        };
        let dyn_update = PointWork {
            flops: points * nsc * 3 * UPDATE_FLOPS_PER_POINT,
            mem_ops: points * nsc * 3 * UPDATE_MEMOPS_PER_POINT,
        };

        // Offload geometry (the fissioned Listing 6 loop).
        let (coal_iters, warp_eff) = match plan.offload.map(|o| o.collapse) {
            Some(Collapse::Two) => ((patch.jp.len() * patch.kp.len()) as u64, coeffs.warp_eff_c2),
            Some(Collapse::Three) => (patch.compute_points() as u64, coeffs.warp_eff_c3),
            None => (0, 1.0),
        };

        // Host↔device traffic, both directions around the offloaded
        // region every step.
        let hd_bytes = plan.offload.map_or(0, |_| staged_bytes(points));

        // Halo traffic (4 refreshes per scalar per step, 4 sides): one
        // message per scalar, as the paper's WRF build exchanged them —
        // the functional runs batch a panel per message and their own
        // ledger (`CommStats`) counts what they actually send.
        let we = patch.halo as u64 * patch.jp.len() as u64 * patch.kp.len() as u64 * 4;
        let sn = patch.halo as u64 * patch.im.len() as u64 * patch.kp.len() as u64 * 4;
        let per_refresh_bytes = 2 * (we + sn);
        let halo_msgs = nsc * pp.halo_refreshes as u64 * 4 + pp.extra_halo_msgs;
        let halo_bytes = nsc * pp.halo_refreshes as u64 * per_refresh_bytes
            + pp.extra_halo_msgs * per_refresh_bytes / 4;

        RankWork {
            rank: patch.rank,
            sbm,
            dyn_tend,
            dyn_update,
            coal_points,
            coal_iters,
            plan,
            warp_eff,
            hd_bytes,
            halo_msgs,
            halo_bytes,
        }
    }

    /// The rank's offloaded collision launch: the plan's kernel, and the
    /// step's collision work at the DRAM rate the plan's storage pays.
    pub fn coal_kernel(&self, traffic: &TrafficRates) -> (KernelSpec, KernelWork) {
        let offload = self.plan.offload.expect("offloaded version");
        let (read, write) = traffic.for_storage(offload.storage);
        let mem_ops = self.sbm.coal.mem_ops as f64;
        let kw = kernel_work(
            self.coal_iters.max(1),
            self.sbm.coal,
            mem_ops * read,
            mem_ops * write,
            self.warp_eff,
        );
        (self.plan.kernel_spec().expect("offloaded version"), kw)
    }
}

/// DRAM bytes per counted memory operand of the collision kernel on
/// `backend`, from one SM's usable L1 slice in front of a 1/SMs share of
/// the device L2: the `collapse(2)` trace (interleaved local memory) is
/// coalesced, the `collapse(3)` trace (point-major slab slices) scattered
/// and far costlier (Table VI). Self-hosted CPU targets have no warp-lane
/// scatter — their "lanes" are sequential iterations on one core — so
/// their scattered rates are the coalesced ones.
pub fn traffic_rates(backend: &Backend) -> TrafficRates {
    let gpu = backend.device_params();
    // Usable L1 after the default shared-memory carve-out: unified
    // L1/smem devices (A100's 192 KiB array) run with 64 KiB carved
    // out under NVHPC defaults; small dedicated L1s keep the full
    // cache.
    let usable_l1 = if gpu.l1_bytes > 96 * 1024 {
        gpu.l1_bytes - 64 * 1024
    } else {
        gpu.l1_bytes
    };
    let l1 = CacheConfig {
        bytes: usable_l1 as u64,
        ..A100_L1
    };
    let l2_bytes = ((gpu.l2_bytes as f64 * (1.0 / gpu.sms as f64)) as u64)
        .max(A100_L2.ways as u64 * A100_L2.line as u64 * 16);
    let l2 = CacheConfig {
        bytes: l2_bytes,
        ..A100_L2
    };
    let run = |collapse: Collapse| -> (f64, f64) {
        let tp = TraceParams {
            ilen: 32,
            ..TraceParams::default()
        };
        let trace = coal_memory_trace(collapse, &tp);
        let n = trace.len() as f64;
        let mut sim = CacheSim::new(1, l1, l2);
        for a in &trace {
            sim.access(0, *a);
        }
        let m = sim.finish();
        (m.dram_read_bytes as f64 / n, m.dram_write_bytes as f64 / n)
    };
    let (coalesced_read, coalesced_write) = run(Collapse::Two);
    let (scattered_read, scattered_write) = if backend.is_cpu() {
        (coalesced_read, coalesced_write)
    } else {
        run(Collapse::Three)
    };
    TrafficRates {
        coalesced_read,
        coalesced_write,
        scattered_read,
        scattered_write,
    }
}

/// Modeled per-step times of one rank, seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStepTime {
    /// `fast_sbm` total (kernals + coal + cond + nucl + freeze + breakup
    /// + sed), on whichever processor runs it.
    pub fast_sbm: f64,
    /// The isolated collision loop within `fast_sbm`.
    pub coal_loop: f64,
    /// `rk_scalar_tend`.
    pub rk_scalar_tend: f64,
    /// `rk_update_scalar`.
    pub rk_update_scalar: f64,
    /// Residual dynamics.
    pub other_dyn: f64,
    /// Halo exchange + collectives.
    pub comm: f64,
    /// Host↔device transfers.
    pub transfer: f64,
    /// Exposed device queueing behind co-resident ranks (peer services +
    /// context slices on a time-shared device); zero on exclusive
    /// devices. Reported separately from `comm` so exposed halo time and
    /// exposed queueing time stay distinguishable.
    pub queue: f64,
    /// Step total for this rank.
    pub total: f64,
    /// The kernel launch analysis (offloaded versions).
    pub launch: Option<LaunchStats>,
}

fn cpu_routine_secs(w: PointWork, flops_rate: f64, membw: f64, dram_fraction: f64) -> f64 {
    let tf = w.flops as f64 / flops_rate;
    let tm = w.mem_ops as f64 * 4.0 * dram_fraction / membw;
    tf.max(tm)
}

/// A rank-step around its collision loop: the host runs the rest of
/// `fast_sbm` (pre/post/sed, cache-resident so flop-bound), the dynamics
/// and the halo exchange in every version; `coal_loop`, `transfer` and
/// `launch` say where the collision loop ran.
fn rank_step_time(
    work: &RankWork,
    pp: &PerfParams,
    coal_loop: f64,
    transfer: f64,
    launch: Option<LaunchStats>,
) -> RankStepTime {
    let host_rest = (work.sbm.cond.flops + work.sbm.freeze.flops + work.sbm.sed.flops) as f64
        / pp.sbm_flops_per_core;
    let dyn_secs = |w| {
        cpu_routine_secs(
            w,
            pp.adv_flops_per_core,
            pp.adv_membw_per_core,
            pp.adv_dram_fraction,
        )
    };
    let rk_scalar_tend = dyn_secs(work.dyn_tend);
    let rk_update_scalar = dyn_secs(work.dyn_update);
    let other_dyn = pp.other_dyn_factor * (rk_scalar_tend + rk_update_scalar);
    let comm = work.halo_msgs as f64 * pp.net.alpha + work.halo_bytes as f64 / pp.net.beta;

    let fast_sbm = coal_loop + host_rest + transfer;
    let total = fast_sbm + rk_scalar_tend + rk_update_scalar + other_dyn + comm;
    RankStepTime {
        fast_sbm,
        coal_loop,
        rk_scalar_tend,
        rk_update_scalar,
        other_dyn,
        comm,
        transfer,
        queue: 0.0,
        total,
        launch,
    }
}

/// Prices one CPU rank-step (Baseline / Lookup versions): the collision
/// loop, `kernals_ks` included, on the host at the microphysics rate.
pub fn cpu_rank_step_time(work: &RankWork, pp: &PerfParams) -> RankStepTime {
    let secs = |w: PointWork| w.flops as f64 / pp.sbm_flops_per_core;
    let coal_loop = secs(work.sbm.kernals) + secs(work.sbm.coal);
    rank_step_time(work, pp, coal_loop, 0.0, None)
}

/// Prices one GPU rank-step (offloaded versions) on an *exclusive*
/// device: the rank's own kernels and staged transfers only. Device
/// sharing is not priced here — [`try_experiment`] replays the
/// per-device submission schedule through [`DevicePool`] afterwards and
/// adds each rank's exposed queueing via [`add_queue`].
pub fn gpu_rank_step_time(
    work: &RankWork,
    pp: &PerfParams,
    traffic: &TrafficRates,
) -> RankStepTime {
    let (spec, kw) = work.coal_kernel(traffic);
    let launch = launch_modeled_with(&pp.gpu, &spec, &kw, &pp.calib).expect("valid launch");
    let transfer = 2.0 * (pp.gpu.pcie_latency + work.hd_bytes as f64 / pp.gpu.pcie_bw);
    rank_step_time(work, pp, launch.time_secs, transfer, Some(launch))
}

/// Folds a replayed per-step queue into a rank's step time: the exposed
/// wait lengthens the offloaded region (`fast_sbm`) and the step total.
pub fn add_queue(t: &mut RankStepTime, queue_secs: f64) {
    t.queue += queue_secs;
    t.fast_sbm += queue_secs;
    t.total += queue_secs;
}

/// Staged host↔device bytes per step, each direction, for a patch of
/// `points` compute points: the seven per-bin slabs, four thermo fields,
/// and the activity predicate. The functional runs, the full-scale
/// extrapolation and the admission footprints all charge this.
pub fn staged_bytes(points: u64) -> u64 {
    7 * NKR as u64 * points * 4 + 4 * points * 4 + points
}

/// Collision lookup-table working set resident per context (the
/// `cwll`/`cwlg`/... hierarchy plus interpolation scratch).
pub const LOOKUP_RESIDENT_BYTES: u64 = 64 << 20;

/// Device-memory footprint one offloaded rank charges: the
/// `NV_ACC_CUDA_STACKSIZE` pool (dominant at the paper's 64 KiB), the
/// resident `temp_arrays` slab (sized like the per-step staged traffic),
/// and the lookup working set.
pub fn rank_footprint(pp: &PerfParams, hd_bytes: u64) -> RankFootprint {
    RankFootprint {
        stack_bytes: pp.stack_bytes,
        temp_slab_bytes: hd_bytes,
        lookup_bytes: LOOKUP_RESIDENT_BYTES,
    }
}

/// Configuration of a modeled experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Scenario (usually `ConusParams::full()`).
    pub case: ConusParams,
    /// Code version.
    pub version: SbmVersion,
    /// MPI ranks.
    pub ranks: usize,
    /// GPUs available (0 for CPU versions).
    pub gpus: usize,
    /// Simulated minutes.
    pub minutes: f64,
}

/// Result of a modeled experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Configuration echoed.
    pub ranks: usize,
    /// Steps taken.
    pub steps: usize,
    /// Total wall seconds (steps + I/O).
    pub total_secs: f64,
    /// Per-step seconds (slowest rank).
    pub step_secs: f64,
    /// I/O seconds included in the total.
    pub io_secs: f64,
    /// Per-rank step times.
    pub per_rank: Vec<RankStepTime>,
    /// Index of the gating (slowest) rank.
    pub critical_rank: usize,
    /// Per-*step* device-sharing ledger (admission + replay outcome);
    /// `None` for CPU versions. Multiply second fields by `steps` for
    /// whole-run aggregates.
    pub share: Option<ShareReport>,
}

impl ExperimentResult {
    /// The slowest rank's step breakdown.
    pub fn critical(&self) -> &RankStepTime {
        &self.per_rank[self.critical_rank]
    }
}

/// Runs one modeled experiment, failing with a typed [`DeviceError`]
/// when an offloaded configuration oversubscribes device memory (more
/// than ~5 resident ranks per 80 GB A100 at 64 KiB stacks — §VII-A).
///
/// Offloaded configurations go through [`DevicePool`]: ranks are placed
/// round-robin, each charges its [`rank_footprint`] at admission, and
/// the per-step kernel + staged-transfer occupancies are replayed
/// bulk-synchronously so time-shared devices expose deterministic
/// queueing (peer services + context slices) on top of the exclusive
/// pricing from [`gpu_rank_step_time`].
pub fn try_experiment(
    cfg: &ExperimentConfig,
    coeffs: &MeasuredCoeffs,
    pp: &PerfParams,
    traffic: &TrafficRates,
) -> Result<ExperimentResult, DeviceError> {
    let case = ConusCase::new(cfg.case);
    let dd = two_d_decomposition(cfg.case.domain(), cfg.ranks, 3);
    let steps = case.steps_for_minutes(cfg.minutes);

    let works: Vec<RankWork> = dd
        .patches
        .iter()
        .map(|patch| RankWork::extrapolate(&case, patch, coeffs, cfg.version, pp))
        .collect();

    let mut per_rank: Vec<RankStepTime>;
    let mut share = None;
    if cfg.version.offloaded() {
        assert!(cfg.gpus > 0, "offloaded version needs GPUs");
        per_rank = works
            .iter()
            .map(|w| gpu_rank_step_time(w, pp, traffic))
            .collect();
        // Round-robin admission, memory-capped: fails past ~5 ranks/GPU.
        let mut pool = DevicePool::new(pp.gpu, cfg.gpus).with_calibration(pp.calib);
        for w in &works {
            pool.admit(w.rank, &rank_footprint(pp, w.hd_bytes))?;
        }
        // One bulk-synchronous step: every rank submits its kernel +
        // staged transfers at the start of the offloaded region.
        let subs: Vec<RankSubmission> = per_rank
            .iter()
            .enumerate()
            .map(|(rank, t)| RankSubmission {
                rank,
                submit_secs: 0.0,
                service_secs: t.coal_loop + t.transfer,
            })
            .collect();
        let report = pool.replay(&subs);
        for rs in &report.ranks {
            add_queue(&mut per_rank[rs.rank], rs.queue_secs);
        }
        share = Some(report);
    } else {
        per_rank = works.iter().map(|w| cpu_rank_step_time(w, pp)).collect();
    }

    let (critical_rank, step_secs) = per_rank
        .iter()
        .enumerate()
        .map(|(r, t)| (r, t.total))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("ranks > 0");

    let io_secs = pp.history_writes as f64 * pp.history_gb / pp.lustre_gbs;
    Ok(ExperimentResult {
        ranks: cfg.ranks,
        steps,
        total_secs: steps as f64 * step_secs + io_secs,
        step_secs,
        io_secs,
        per_rank,
        critical_rank,
        share,
    })
}

/// Runs one modeled experiment; panics if the configuration
/// oversubscribes device memory (use [`try_experiment`] where admission
/// failure is an expected outcome).
pub fn experiment(
    cfg: &ExperimentConfig,
    coeffs: &MeasuredCoeffs,
    pp: &PerfParams,
    traffic: &TrafficRates,
) -> ExperimentResult {
    try_experiment(cfg, coeffs, pp, traffic).unwrap_or_else(|e| panic!("{e}"))
}

/// Process-wide quick coefficients + traffic for tests (nz = 24 keeps
/// the full cloud depth; see `measure_coeffs`).
#[doc(hidden)]
pub fn test_fixture() -> &'static (MeasuredCoeffs, TrafficRates) {
    static FIX: std::sync::OnceLock<(MeasuredCoeffs, TrafficRates)> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        (
            measure_coeffs(0.05, 24, 2),
            traffic_rates(default_backend()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_coeffs() -> MeasuredCoeffs {
        test_fixture().0
    }

    #[test]
    fn coefficients_are_positive_and_sane() {
        let c = quick_coeffs();
        assert!(c.coal_per_coal_point.flops > 100);
        assert!(c.kernals_per_coal_point.flops > 50_000, "dense fill is big");
        assert!(
            c.pre_per_cloudy_point.flops > 3 * c.pre_per_clear_point.flops,
            "condensation cost concentrates in clouds: cloudy {} clear {}",
            c.pre_per_cloudy_point.flops,
            c.pre_per_clear_point.flops
        );
        assert!(c.coal_points_per_active_column > 1.0);
        assert!(c.entries_per_coal_point > 10.0);
        assert!((0.0..=1.0).contains(&c.warp_eff_c2));
        assert!((0.0..=1.0).contains(&c.warp_eff_c3));
        // Column-level predicates are denser than point-level ones.
        assert!(c.warp_eff_c2 >= c.warp_eff_c3 * 0.8);
    }

    #[test]
    fn traffic_model_c3_misses_more() {
        let t = traffic_rates(default_backend());
        assert!(t.scattered_read > t.coalesced_read, "{t:?}");
        assert!(
            t.scattered_read + t.scattered_write > (t.coalesced_read + t.coalesced_write) * 1.5
        );
    }

    #[test]
    fn lookup_beats_baseline_at_16_ranks() {
        let coeffs = quick_coeffs();
        let pp = PerfParams::default();
        let traffic = test_fixture().1;
        let base = experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version: SbmVersion::Baseline,
                ranks: 16,
                gpus: 0,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        );
        let lookup = experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version: SbmVersion::Lookup,
                ranks: 16,
                gpus: 0,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        );
        assert_eq!(base.steps, 120);
        let overall = base.total_secs / lookup.total_secs;
        let sbm = base.critical().fast_sbm / lookup.critical().fast_sbm;
        assert!(
            (1.2..2.8).contains(&sbm),
            "fast_sbm speedup {sbm} (paper: 1.83)"
        );
        assert!(
            (1.05..2.2).contains(&overall),
            "overall speedup {overall} (paper: 1.42)"
        );
    }

    #[test]
    fn collapse3_crushes_collapse2_on_the_coal_loop() {
        let coeffs = quick_coeffs();
        let pp = PerfParams::default();
        let traffic = test_fixture().1;
        let mk = |v| ExperimentConfig {
            case: ConusParams::full(),
            version: v,
            ranks: 16,
            gpus: 16,
            minutes: 10.0,
        };
        let c2 = experiment(&mk(SbmVersion::OffloadCollapse2), &coeffs, &pp, &traffic);
        let c3 = experiment(&mk(SbmVersion::OffloadCollapse3), &coeffs, &pp, &traffic);
        let ratio = c2.critical().coal_loop / c3.critical().coal_loop;
        assert!(
            (4.0..30.0).contains(&ratio),
            "coal loop c2/c3 = {ratio} (paper: 10.3)"
        );
        // Occupancy jumps as in Table VI.
        let occ2 = c2.critical().launch.as_ref().unwrap().occupancy.achieved;
        let occ3 = c3.critical().launch.as_ref().unwrap().occupancy.achieved;
        assert!(occ2 < 0.10, "collapse2 occupancy {occ2}");
        assert!(occ3 > 0.25, "collapse3 occupancy {occ3}");
    }

    #[test]
    fn more_ranks_saturate_like_table7() {
        let coeffs = quick_coeffs();
        let pp = PerfParams::default();
        let traffic = test_fixture().1;
        let run = |ranks| {
            experiment(
                &ExperimentConfig {
                    case: ConusParams::full(),
                    version: SbmVersion::Baseline,
                    ranks,
                    gpus: 0,
                    minutes: 10.0,
                },
                &coeffs,
                &pp,
                &traffic,
            )
            .total_secs
        };
        let t16 = run(16);
        let t32 = run(32);
        let t64 = run(64);
        assert!(t32 < t16 && t64 < t32, "{t16} {t32} {t64}");
        // Strong-scaling efficiency decays (load imbalance), as in the
        // paper's 1211 → 655 → 472 progression (2.57x on 4x the cores).
        let s16_64 = t16 / t64;
        assert!(
            (1.3..3.9).contains(&s16_64),
            "16→64 speedup {s16_64} should saturate below ideal 4x"
        );
    }

    #[test]
    fn sharing_a_gpu_queues_behind_peers() {
        let coeffs = quick_coeffs();
        let pp = PerfParams::default();
        let traffic = test_fixture().1;
        let mk = |ranks, gpus| ExperimentConfig {
            case: ConusParams::full(),
            version: SbmVersion::OffloadCollapse3,
            ranks,
            gpus,
            minutes: 10.0,
        };
        // Same decomposition, half the GPUs: every device serves two
        // contexts per step, so the gating rank waits behind its peer's
        // service plus the context slices — exclusive runs never queue.
        let dedicated = experiment(&mk(32, 32), &coeffs, &pp, &traffic);
        let shared = experiment(&mk(32, 16), &coeffs, &pp, &traffic);
        assert_eq!(dedicated.critical().queue, 0.0);
        assert!(
            shared.critical().queue > gpu_sim::machine::CALIBRATION.service_slice_secs,
            "queue = {}",
            shared.critical().queue
        );
        assert!(shared.step_secs > dedicated.step_secs);
        // The rank's own kernel is priced identically either way —
        // contention is all queueing, never a kernel slowdown.
        assert_eq!(shared.critical().coal_loop, dedicated.critical().coal_loop);
        // More ranks on the same 16 GPUs still improves the step overall
        // (host work shrinks 4x while the queue grows less than that),
        // matching Table VII's absolute-time ordering.
        let one = experiment(&mk(16, 16), &coeffs, &pp, &traffic);
        let four = experiment(&mk(64, 16), &coeffs, &pp, &traffic);
        assert!(four.step_secs < one.step_secs);
        // Queue per step grows with sharing depth: 1/GPU → 0, 4/GPU > 2/GPU.
        assert_eq!(one.critical().queue, 0.0);
        assert!(four.critical().queue > shared.critical().queue);
    }

    #[test]
    fn oversubscribed_memory_is_a_typed_device_error() {
        let coeffs = quick_coeffs();
        let pp = PerfParams::default();
        let traffic = test_fixture().1;
        // 48 ranks on 8 GPUs needs a 6th context on device 0 — past the
        // 5 ranks/GPU wall of §VII-A. Rank 40 is the first to fail.
        let err = try_experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version: SbmVersion::OffloadCollapse3,
                ranks: 48,
                gpus: 8,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        )
        .unwrap_err();
        assert_eq!((err.rank, err.device, err.residents), (40, 0, 5));
        // The equal-resource 2-node setup (40 ranks, 8 GPUs) fits.
        let ok = try_experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version: SbmVersion::OffloadCollapse3,
                ranks: 40,
                gpus: 8,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        )
        .unwrap();
        let share = ok.share.expect("offloaded run has a share ledger");
        assert!(share.devices.iter().all(|d| d.residents == 5));
        assert!(share
            .devices
            .iter()
            .all(|d| d.used_bytes <= d.capacity_bytes));
    }

    #[test]
    fn default_backend_params_are_bitwise_default() {
        // The zoo's first entry must walk the exact arithmetic the repo
        // priced before backends existed.
        let a = PerfParams::default();
        let b = PerfParams::for_backend(gpu_sim::machine::default_backend());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn zoo_backends_price_the_same_experiment_differently() {
        let coeffs = quick_coeffs();
        let mk = |v| ExperimentConfig {
            case: ConusParams::full(),
            version: v,
            ranks: 16,
            gpus: 16,
            minutes: 10.0,
        };
        let run = |name: &str| {
            let backend = gpu_sim::machine::backend_by_name(name).unwrap();
            let pp = PerfParams::for_backend(backend);
            let traffic = traffic_rates(backend);
            experiment(&mk(SbmVersion::OffloadCollapse3), &coeffs, &pp, &traffic)
        };
        let a100 = run("a100-80gb");
        let v100 = run("v100-32gb");
        let mi = run("mi250x-gcd");
        // Same measured work, different hardware: absolute times differ on
        // every pair, both in the offloaded loop and in the step total.
        assert_ne!(a100.critical().coal_loop, v100.critical().coal_loop);
        assert_ne!(a100.critical().coal_loop, mi.critical().coal_loop);
        assert_ne!(v100.step_secs, mi.step_secs);
    }
}
