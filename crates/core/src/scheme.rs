//! The four versions of `fast_sbm` over a patch — one hot path.
//!
//! The paper walks a single loop nest through four versions by changing
//! three decisions; here each [`SbmVersion`] names one [`CollisionPlan`]
//! of `gpu-sim`'s plain-data schedule (dense tables or lookup; offloaded
//! or not, at which collapse depth, with which storage) and
//! [`FastSbm::step`] runs one pipeline of row-level stage functions for
//! all of them: the pre-sweep (nucleation, condensation, the collision
//! predicate), the collision stage, the post-sweep (freezing/melting,
//! breakup) and column sedimentation. The plan picks only the collision
//! stage's launch unit.
//!
//! * [`SbmVersion::Baseline`] — Listing 1's program: inside the collision
//!   call, `kernals_ks` refills the 20 dense collision tables for the
//!   local pressure (the global-module-state pattern that blocks
//!   parallelization and that Codee's dependence analysis untangles;
//!   `THREADPRIVATE` per WRF `numtiles` tile here).
//! * [`SbmVersion::Lookup`] — §VI-A: dense tables and `kernals_ks`
//!   deleted; kernel entries computed on demand by pure functions.
//! * [`SbmVersion::OffloadCollapse2`] — §VI-B: the collision loop, isolated
//!   behind the predicate array, is offloaded over its `(j,k)` loops
//!   (functional execution with real host parallelism through `gpu-sim`),
//!   the `i` loop stays serial inside each device thread, and per-point
//!   bins live in automatic (stack) arrays.
//! * [`SbmVersion::OffloadCollapse3`] — §VI-C: the automatic arrays are
//!   replaced by per-grid-point slices of the `temp_arrays` slabs
//!   (`Field4` storage, Listing 8), enabling a full `collapse(3)`.
//!
//! Every version runs §VI-B's fissioned loop (Listing 6). Fission moves no
//! bit: no grid point reads another point's state, so finishing a stage
//! for the whole patch before the next begins changes no operation of any
//! point. Listing 1's unfissioned loop nest lives where its structure is
//! analysed, in `codee_sim::corpus`. Under [`ExecMode::WorkSteal`] the
//! sweeps are launches on the collision stage's pool, one unit per `(j,k)`
//! row or `(i,j)` column — the pre-sweep as two launches, rows for
//! nucleation and then coherent lane batches of the points that need
//! condensation — the paper's §VIII, "the loops calling condensation
//! routines are currently being offloaded"; under [`ExecMode::StaticTiles`]
//! they are the serial loops of the program the paper measured.
//!
//! All versions run identical physics in identical per-point order, so
//! their outputs agree to f32 round-off — the property §VII-B verifies
//! with `diffwrf`. Condensation, collision and sedimentation run as the
//! lane-batch kernels of [`crate::panels`] in every version; [`Layout`]
//! picks only how many points a batch may hold — one in the reference
//! layout the gates compare against, up to [`LANES`] in production — and
//! a point's bits do not depend on who shares its batch.

use crate::bins::density_factor;
use crate::constants::T_0;
use crate::exec::{compact_active_columns, ExecMode, ExecSummary};
use crate::kernels::{kernals_ks, CollisionTables, KernelCache, KernelMode, KernelTables};
use crate::meter::{PointWork, WorkBreakdown};
use crate::panels::{
    panel_coal, panel_coal_predicate, panel_condensation, sedimentation_column_soa, DepositSplits,
    LaneFill, SedScratch, SoaPanel, LANES,
};
use crate::point::{BinsView, Floored, Grids, PointBins, PointThermo, N_EPS, Q_EPS};
use crate::processes::condensation;
use crate::processes::driver::{
    fast_sbm_nucleate, fast_sbm_post, fast_sbm_post_clear, PointOutcome,
};
use crate::state::SbmPatchState;
use crate::thermo::supersat_liquid;
use crate::types::{HydroClass, NKR, NTYPES};
use crate::workload::warp_efficiency;
use gpu_sim::launch::KernelSpec;
use gpu_sim::schedule::{Collapse, CollisionPlan, Offload, Storage};
use gpu_sim::syncslice::SyncWriteSlice;
use std::sync::{Mutex, OnceLock};
use wrf_exec::Executor;
use wrf_grid::{split_patch_into_tiles, PatchSpec, Span, TileSpec};

/// Which optimization stage of the paper to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SbmVersion {
    /// Original serial code with `kernals_ks` dense tables.
    Baseline,
    /// §VI-A lookup refactor (serial).
    Lookup,
    /// §VI-B offload of the fissioned collision loop, `collapse(2)`.
    OffloadCollapse2,
    /// §VI-C slab arrays + full `collapse(3)`.
    OffloadCollapse3,
}

impl SbmVersion {
    /// All versions in paper order.
    pub const ALL: [SbmVersion; 4] = [
        SbmVersion::Baseline,
        SbmVersion::Lookup,
        SbmVersion::OffloadCollapse2,
        SbmVersion::OffloadCollapse3,
    ];

    /// The version's collision plan: the paper's four stages as four
    /// values of `gpu-sim`'s plain-data schedule, and the only place they
    /// are told apart.
    pub fn plan(self) -> CollisionPlan {
        let fissioned = |collapse, storage| Some(Offload { collapse, storage });
        let (dense_tables, offload) = match self {
            SbmVersion::Baseline => (true, None),
            SbmVersion::Lookup => (false, None),
            SbmVersion::OffloadCollapse2 => (false, fissioned(Collapse::Two, Storage::Stack)),
            SbmVersion::OffloadCollapse3 => {
                (false, fissioned(Collapse::Three, Storage::SlabPointMajor))
            }
        };
        CollisionPlan {
            dense_tables,
            offload,
        }
    }

    /// True for the two offloaded versions.
    pub fn offloaded(self) -> bool {
        self.plan().offload.is_some()
    }

    /// Launch descriptor of the version's offloaded collision kernel
    /// (`None` for the CPU versions).
    pub fn kernel_spec(self) -> Option<KernelSpec> {
        self.plan().kernel_spec()
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SbmVersion::Baseline => "baseline",
            SbmVersion::Lookup => "lookup",
            SbmVersion::OffloadCollapse2 => "offload collapse(2)",
            SbmVersion::OffloadCollapse3 => "offload collapse(3) w/ pointers",
        }
    }
}

/// How many points a lane batch of the microphysics kernels holds: the
/// one thing a layout decides.
///
/// Orthogonal to [`SbmVersion`]: every version runs the same panel
/// kernels ([`crate::panels`]) at either width and produces
/// bitwise-identical state, because a lane's bits do not depend on which
/// lanes share its batch (the layout proptests and the `repro cases`
/// matrix pin this). `PanelSoa` is the production layout and the default;
/// `PointAos` is the reference the gates and the benchmark oracle compare
/// against, selected programmatically through [`SbmConfig::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Width 1: every point is a batch of its own.
    PointAos,
    /// Up to [`LANES`] points a batch, grouped so their lanes sweep
    /// nearly the same cells.
    #[default]
    PanelSoa,
}

impl Layout {
    /// Both layouts, reference first.
    pub const ALL: [Layout; 2] = [Layout::PointAos, Layout::PanelSoa];

    /// The most points a lane batch holds in this layout.
    pub fn width(self) -> usize {
        match self {
            Layout::PointAos => 1,
            Layout::PanelSoa => LANES,
        }
    }

    /// Stable label used in reports and benchmark JSON.
    pub fn label(self) -> &'static str {
        match self {
            Layout::PointAos => "point-aos",
            Layout::PanelSoa => "panel-soa",
        }
    }
}

/// Configuration of a scheme instance.
#[derive(Debug, Clone, Copy)]
pub struct SbmConfig {
    /// Version to run.
    pub version: SbmVersion,
    /// Microphysics time step, s.
    pub dt: f32,
    /// Vertical layer thickness for sedimentation, m.
    pub dz: f32,
    /// Width of the scheme's pool when its collision stage launches
    /// parallel units — an offloaded version, or more than one tile
    /// (`None` = all available); otherwise the pool is 1 wide.
    pub workers: Option<usize>,
    /// WRF `numtiles`: OpenMP tiles per patch for the CPU versions
    /// (Fig. 1's shared-memory level; the paper runs 1) — the launch unit
    /// of their collision stage, each tile looping over its own `(j,k)`
    /// rows. The baseline's shared collision tables become per-tile
    /// (`THREADPRIVATE`) copies. The sweeps around the collision stage
    /// are the same for every version and ignore it.
    pub tiles: usize,
    /// How the collision stage's units — device iterations or CPU tiles —
    /// are scheduled on the scheme's pool: one contiguous block per
    /// worker, with serial sweeps around the collision launch, or work
    /// stealing over the activity-compacted queue, which runs the sweeps
    /// too.
    pub sched: ExecMode,
    /// Memoize the 20 interpolated pair tables per k-level
    /// ([`KernelMode::Cached`]); bitwise-identical to on-demand, cheaper
    /// per access when pressure only varies vertically.
    pub cached_kernels: bool,
    /// How many points the inner loops' lane batches hold (up to
    /// [`LANES`], or one in the reference layout).
    pub layout: Layout,
}

impl SbmConfig {
    /// A configuration with the paper's Δt = 5 s and 400 m layers.
    pub fn new(version: SbmVersion) -> Self {
        SbmConfig {
            version,
            dt: 5.0,
            dz: 400.0,
            workers: None,
            tiles: 1,
            sched: ExecMode::work_steal(),
            cached_kernels: false,
            layout: Layout::default(),
        }
    }
}

/// Statistics of one `fast_sbm` step over the patch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbmStepStats {
    /// Grid points visited.
    pub points: usize,
    /// Points passing the `T_OLD > 193.15` guard.
    pub active_points: usize,
    /// Points whose collision predicate fired.
    pub coal_points: usize,
    /// Kernel entries evaluated inside the collision stage.
    pub coal_entries: u64,
    /// Aggregated per-routine work.
    pub work: WorkBreakdown,
    /// Collapsed iteration count of the offloaded collision kernel
    /// (0 for the CPU versions).
    pub coal_iters: u64,
    /// Warp efficiency of the offloaded kernel (1.0 for CPU versions).
    pub warp_efficiency: f64,
    /// Lane slots the panel collision sweeps ran, over the whole step
    /// ([`LaneFill::slots`]; in the `PointAos` layout, whose batches hold
    /// one point, [`LANES`] for each cell a point sweeps).
    pub lane_slots: u64,
    /// Of those, the slots inside their own lane's window
    /// ([`LaneFill::cells`]): a property of the points, the same under
    /// any grouping.
    pub lane_cells: u64,
    /// Lane slots the panel condensation relaxes ran: [`LANES`] per relax
    /// call, over the whole step ([`LaneFill::slots`] of
    /// [`panel_condensation`]; in the `PointAos` layout each call relaxes
    /// one point).
    pub cond_slots: u64,
    /// Of those, the slots of lanes inside the relax call's mask: the
    /// relaxes the points' branches run, the same under any grouping.
    pub cond_cells: u64,
    /// Active points the pre-sweep left clear: every class all `±0`
    /// (`BinsView::is_clear`). The post-sweep and sedimentation read no
    /// bin of them. A property of the points, the same in either layout
    /// and under any schedule or grouping.
    pub clear_points: usize,
    /// Columns whose every level is a clear point: sedimentation reads
    /// neither their densities nor their bins.
    pub clear_columns: usize,
    /// Surface precipitation this step, kg/m² summed over columns.
    pub precip: f64,
    /// Bin values the scheme stored as `+0.0`
    /// ([`crate::point::floor_tail`]), with their number and mass: the
    /// condensation relaxes' scrubs folded in point order, then the
    /// sedimentation write-back's in the precipitation's column order.
    pub floored: Floored,
    /// Wall-clock seconds of the offloaded collision launch (0 for the
    /// CPU versions' tiles; the metric the `bench-exec` arms compare).
    pub coal_wall: f64,
}

impl SbmStepStats {
    /// `lane_cells / lane_slots`: the share of the host's swept lane
    /// slots that did a point's own work — what
    /// [`SbmStepStats::warp_efficiency`] is to the modeled device launch,
    /// measured on the lane vectors that actually ran (1.0 when no panel
    /// swept a cell).
    pub fn lane_efficiency(&self) -> f64 {
        if self.lane_slots == 0 {
            1.0
        } else {
            self.lane_cells as f64 / self.lane_slots as f64
        }
    }

    /// `cond_cells / cond_slots`: [`SbmStepStats::lane_efficiency`] for
    /// the condensation relaxes — the share of their lane slots that
    /// relaxed a point the relax was called for (1.0 when no panel
    /// relaxed).
    pub fn cond_lane_efficiency(&self) -> f64 {
        if self.cond_slots == 0 {
            1.0
        } else {
            self.cond_cells as f64 / self.cond_slots as f64
        }
    }
}

/// The scheme driver holding the static tables, the worker pool and the
/// per-step scratch.
pub struct FastSbm {
    /// Configuration.
    pub cfg: SbmConfig,
    grids: Grids,
    tables: KernelTables,
    /// The persistent worker pool, created on first use and reused for
    /// the rest of the run (per rank — each rank's scheme owns its own
    /// pool). See [`FastSbm::pool`].
    exec: OnceLock<Executor>,
    /// Per-k-level memoized collision kernels (when
    /// [`SbmConfig::cached_kernels`] is set).
    kcache: Option<KernelCache>,
    /// Precomputed mass-deposition stencils for the panel collision path
    /// (pair × i × j, a pure function of the bin grids).
    splits: DepositSplits,
    /// The post stage's meter of a clear point, by its `T`.
    clear_post: ClearPostMeters,
    /// Reusable per-step buffers (sweep arrays, batch lists, sedimentation
    /// columns): grown once, then steady-state steps allocate nothing.
    scratch: StepScratch,
}

impl FastSbm {
    /// Builds a scheme instance (computes the static kernel tables).
    pub fn new(cfg: SbmConfig) -> Self {
        let grids = Grids::new();
        let splits = DepositSplits::new(&grids);
        let clear_post = ClearPostMeters::new(&grids, cfg.dt);
        FastSbm {
            cfg,
            grids,
            tables: KernelTables::new(),
            exec: OnceLock::new(),
            kcache: None,
            splits,
            clear_post,
            scratch: StepScratch::default(),
        }
    }

    /// The model's one executor, created on first use: the scheme's
    /// launches run on it, and so do its model's pooled transport jobs
    /// and overlapped interior tendencies. [`SbmConfig::workers`] wide
    /// when the collision stage launches parallel units — an offloaded
    /// plan or more than one tile, under either schedule — and 1 wide
    /// otherwise, which starts no thread.
    pub fn pool(&self) -> &Executor {
        new_pool(&self.exec, &self.cfg)
    }

    /// Fills (or refreshes) the per-level kernel cache from the patch's
    /// pressure profile. Pressure in the functional cases is a function
    /// of `k` alone; if a level's pressure ever disagrees at access time
    /// the cached mode falls back to the on-demand computation, so this
    /// is an optimization hint, never a correctness requirement.
    fn ensure_kcache(&mut self, state: &SbmPatchState) {
        let p = state.patch;
        let nz = p.kp.len();
        let tables = &self.tables;
        let kc = match &mut self.kcache {
            Some(kc) if kc.nz() == nz => kc,
            slot => {
                *slot = Some(KernelCache::new(nz));
                slot.as_mut().unwrap()
            }
        };
        for (kx, k) in p.kp.iter().enumerate() {
            kc.ensure_level(kx, state.p.get(p.ip.lo, k, p.jp.lo), tables);
        }
    }

    /// Executor + cache summary for reporting: scheduling mode, pool
    /// statistics, the step's active-point fraction, the kernel-cache hit
    /// rate and the step's lane efficiency.
    pub fn exec_summary(&self, stats: &SbmStepStats) -> ExecSummary {
        let active_fraction = if stats.points > 0 {
            stats.coal_points as f64 / stats.points as f64
        } else {
            0.0
        };
        ExecSummary::from_stats(
            self.cfg.sched.label(),
            &self.pool().stats(),
            active_fraction,
            self.kcache.as_ref().map_or(1.0, |c| c.hit_rate()),
            stats.lane_efficiency(),
            stats.cond_lane_efficiency(),
        )
    }

    /// The static kernel tables (shared with the data-environment
    /// accounting in the model driver).
    pub fn tables(&self) -> &KernelTables {
        &self.tables
    }

    /// The bin grids.
    pub fn grids(&self) -> &Grids {
        &self.grids
    }

    /// The last step's metered collision flops per launch unit of the
    /// offloaded collision kernel — columns for `collapse(2)`, points for
    /// `collapse(3)`, [`SbmStepStats::coal_iters`] entries summing to the
    /// step's `work.coal.flops` — and empty for the CPU versions' tiles.
    /// `bench-exec` replays it through each scheduling policy to compute
    /// the makespan a multi-worker device would see, independent of host
    /// core count.
    pub fn coal_profile(&self) -> &[u64] {
        &self.scratch.coal.profile
    }

    /// Advances the microphysics on `state` by one step: snapshot `T_OLD`,
    /// make sure the kernel cache and worker pool the configuration asks
    /// for exist, run the pre-sweep, the collision stage the version's
    /// plan describes, the post-sweep and sedimentation, then fold the
    /// columns' precipitation in `(j, i)` order.
    pub fn step(&mut self, state: &mut SbmPatchState) -> SbmStepStats {
        state.snapshot_t_old();
        let plan = self.cfg.version.plan();
        if self.cfg.cached_kernels {
            self.ensure_kcache(state);
        }
        let exec = new_pool(&self.exec, &self.cfg);
        let p = state.patch;
        let mut stats = empty_stats(p.compute_points());
        let StepScratch { sweep, coal } = &mut self.scratch;
        let slots = p.compute_points();
        sweep.predicate.resize(slots, false);
        sweep.outcomes.resize(slots, SweepSlot::default());
        sweep.cond_key.resize(slots, NO_CONDENSATION);
        sweep
            .fall
            .resize(p.compute_columns(), ColumnFall::default());
        let tally = {
            let v = PatchViews::new(
                &self.grids,
                &self.tables,
                self.kcache.as_ref(),
                &self.splits,
                &self.clear_post,
                &self.cfg,
                state,
                sweep,
            );
            let launcher = Launcher {
                sched: self.cfg.sched,
                exec,
            };
            let mut tally = pre_sweep(&v, &launcher, coal);
            tally += coal_launch(&v, &launcher, &self.cfg, plan, coal, &mut stats);
            tally += post_sweep(&v, &launcher);
            sedimentation_sweep(&v, &launcher, self.cfg.dz);
            tally
        };
        stats.active_points = tally.active;
        stats.coal_points = tally.coal_points;
        stats.coal_entries = tally.coal_entries;
        stats.lane_slots = tally.lanes.slots;
        stats.lane_cells = tally.lanes.cells;
        stats.cond_slots = tally.cond_lanes.slots;
        stats.cond_cells = tally.cond_lanes.cells;
        stats.clear_points = tally.clear;
        stats.work = tally.work;
        // The step's floating-point reductions (the precipitation and the
        // floored tally), folded serially in fixed orders so no schedule
        // can move a bit of them: the condensation relaxes' floor point by
        // point in sweep-array order, then sedimentation's in the order
        // the serial pass always used — columns `j` outer, `i` inner,
        // classes within a column. A class the column skipped, or a point
        // that floored nothing, reads `+0.0`, which leaves a sum that
        // started at `+0.0` unchanged.
        for out in &sweep.outcomes {
            stats.floored += out.floored;
        }
        let mut sed = PointWork::ZERO;
        for (fall, rain) in sweep.fall.iter().zip(&mut state.rainnc) {
            let mut col_precip = 0.0f32;
            for &precip in &fall.precip {
                col_precip += precip;
                stats.precip += precip as f64;
            }
            if col_precip > 0.0 {
                *rain += col_precip;
            }
            sed += fall.work;
            stats.floored += fall.floored;
            stats.clear_columns += usize::from(fall.clear);
        }
        stats.work.sed = sed;
        state.precip_acc += stats.precip;
        stats
    }
}

// ---- The four stages ------------------------------------------------------

/// Stage 1: nucleation + condensation, filling the predicate array
/// `call_coal_bott_new` and the per-point outcomes (the loop the paper's
/// §VIII says is offloaded next; no point reads another's state). Two
/// launches: `(j,k)` rows, for nucleation and the in-place guard, each
/// point that needs condensation leaving its [`condensation_key`] in its
/// key slot; then condensation and the predicate over the lane batches
/// [`build_cond_batch_list`] cuts from those keys, each predicate-true
/// point leaving its spectrum key ([`lane_coherence_keys`]) in the same
/// slot for the collision list. Returns how full the condensation panels ran.
fn pre_sweep(v: &PatchViews<'_>, launcher: &Launcher<'_>, lists: &mut CoalLists) -> Tally {
    let ip = v.patch.ip;
    launcher.sweep(v.row_count() as u64, |r| {
        let (j, k) = v.row(r as usize);
        let lo = r as usize * ip.len();
        let pred = v.predicate.subslice_mut(lo, ip.len());
        let outs = v.outcomes.subslice_mut(lo, ip.len());
        let keys = v.cond_key.subslice_mut(lo, ip.len());
        nucleate_row(v, v.idx3(ip.lo, k, j), pred, outs, keys);
    });
    build_cond_batch_list(v, lists);
    let batches: &[PanelBatch] = &lists.batches;
    let total = Mutex::new(LaneFill::default());
    launcher.sweep(batches.len() as u64, |bi| {
        let b = &batches[bi as usize];
        let fill = cond_batch(v, &b.points[..b.len as usize]);
        *total.lock().expect("a condensation unit panicked") += fill;
    });
    let cond_lanes = total.into_inner().expect("a condensation unit panicked");
    Tally {
        cond_lanes,
        ..Tally::default()
    }
}

/// Stage 2: the isolated collision loop of Listing 6, executed with real
/// host parallelism; the plan's `offload` picks the launch unit. The CPU
/// versions launch WRF `numtiles` tiles ([`coal_tiles`]). `collapse(2)`
/// launches one unit per `(j,k)` column with a serial `i` loop over its
/// lane batches; `collapse(3)` launches one unit per coherent lane batch
/// ([`build_batch_list`]): a level's predicate-true points, whatever row
/// they sit in, grouped by pressure and by the spectrum keys the
/// condensation launch left, so compaction is level-wide and a batch's
/// lanes sweep nearly the same cells.
///
/// Launch geometry (`coal_iters`, warp efficiency) is always reported
/// from the *full* iteration space: compaction and the batch width change
/// how host threads are scheduled, not what the modeled device launch
/// looks like.
fn coal_launch(
    v: &PatchViews<'_>,
    launcher: &Launcher<'_>,
    cfg: &SbmConfig,
    plan: CollisionPlan,
    lists: &mut CoalLists,
    stats: &mut SbmStepStats,
) -> Tally {
    let p = v.patch;
    let ilen = p.ip.len();
    let rows = v.row_count();
    // The pre-sweep has finished and nothing writes the predicate again
    // this step: the collision units only read it.
    let predicate: &[bool] = v.predicate.subslice_mut(0, rows * ilen);
    let collapse = match plan.offload {
        None => {
            lists.profile.clear();
            return coal_tiles(v, launcher, cfg, plan.dense_tables, predicate);
        }
        Some(Offload { collapse, .. }) => collapse,
    };

    let iters = match collapse {
        Collapse::Two => {
            lists.lane_active.clear();
            lists
                .lane_active
                .extend(predicate.chunks_exact(ilen).map(|row| row.contains(&true)));
            stats.warp_efficiency = warp_efficiency(&lists.lane_active, 32);
            rows
        }
        Collapse::Three => {
            stats.warp_efficiency = warp_efficiency(predicate, 32);
            build_batch_list(v, predicate, lists);
            rows * ilen
        }
    };
    stats.coal_iters = iters as u64;

    let CoalLists {
        batches, profile, ..
    } = lists;
    profile.clear();
    profile.resize(iters, 0);
    let sink = Mutex::new(CoalSink {
        tally: Tally::default(),
        profile,
    });
    let sink_lock = || sink.lock().expect("a collision unit panicked");

    stats.coal_wall = match collapse {
        Collapse::Two => {
            let active = || compact_active_columns(predicate, ilen);
            launcher.run_active(rows as u64, active, |jk| {
                let jk = jk as usize;
                let (j, k) = v.row(jk);
                let pred = &predicate[jk * ilen..(jk + 1) * ilen];
                let tally = coal_row(v, j, k, p.ip, pred, None);
                sink_lock().add(jk, tally);
            })
        }
        Collapse::Three => {
            // The list holds only active batches: it is its own
            // compaction, under either scheduler.
            launcher.run(batches.len() as u64, |bi| {
                let b = &batches[bi as usize];
                let points = &b.points[..b.len as usize];
                let (_, k) = v.row(points[0] as usize / ilen);
                let ats = b.points.map(|pt| v.at_point(pt as usize));
                let (per_lane, fill) = coal_batch(v, k, &ats[..points.len()], None);
                let mut sink = sink_lock();
                sink.tally.lanes += fill;
                for (&pt, tally) in points.iter().zip(per_lane) {
                    sink.add(pt as usize, tally);
                }
            })
        }
    };
    sink.into_inner().expect("a collision unit panicked").tally
}

/// The CPU versions' collision stage: WRF `numtiles` tiles (one tile on
/// the caller when `tiles <= 1`), each looping over its own
/// `(j,k)` rows through [`coal_row`] on its slice of the patch's
/// `predicate`. Every tile owns — for the baseline — a private copy of
/// the collision tables (what `!$omp threadprivate(cw**)` gives the
/// Fortran code), so any tiling is bitwise identical to one tile.
fn coal_tiles(
    v: &PatchViews<'_>,
    launcher: &Launcher<'_>,
    cfg: &SbmConfig,
    dense_tables: bool,
    predicate: &[bool],
) -> Tally {
    let p = v.patch;
    // The Vec is only built when the patch actually splits, so the serial
    // configuration allocates nothing per step.
    let whole = [TileSpec {
        id: 0,
        it: p.ip,
        kt: p.kp,
        jt: p.jp,
    }];
    let split;
    let tiles: &[TileSpec] = if cfg.tiles <= 1 {
        &whole
    } else {
        split = split_patch_into_tiles(&p, cfg.tiles);
        &split
    };
    let total = Mutex::new(Tally::default());
    launcher.run(tiles.len() as u64, |t| {
        let tile = &tiles[t as usize];
        let mut tally = Tally::default();
        let mut dense = dense_tables.then(CollisionTables::new);
        for j in tile.jt.iter() {
            for k in tile.kt.iter() {
                let row = (j - p.jp.lo) as usize * p.kp.len() + (k - p.kp.lo) as usize;
                let lo = row * p.ip.len() + (tile.it.lo - p.ip.lo) as usize;
                let pred = &predicate[lo..lo + tile.it.len()];
                tally += coal_row(v, j, k, tile.it, pred, dense.as_mut());
            }
        }
        *total.lock().expect("a tile panicked") += tally;
    });
    total.into_inner().expect("a tile panicked")
}

/// Stage 3: freezing/melting + breakup, one launch unit per `(j,k)` row,
/// and the tally of everything stages 1 and 3 metered.
fn post_sweep(v: &PatchViews<'_>, launcher: &Launcher<'_>) -> Tally {
    let ip = v.patch.ip;
    let total = Mutex::new(Tally::default());
    launcher.sweep(v.row_count() as u64, |row| {
        let row = row as usize;
        let (j, k) = v.row(row);
        let outs = v.outcomes.subslice_mut(row * ip.len(), ip.len());
        let tally = post_row(v, j, k, ip, outs);
        *total.lock().expect("a row unit panicked") += tally;
    });
    total.into_inner().expect("a row unit panicked")
}

/// Stage 4: column sedimentation, one launch unit per `(i,j)` column:
/// the fall carries a dependence from level to level, so the `k`
/// recurrence stays serial inside the unit. Each unit leaves its column's
/// precipitation and metered work in its own [`ColumnFall`] slot; the
/// driver folds them afterwards.
fn sedimentation_sweep(v: &PatchViews<'_>, launcher: &Launcher<'_>, dz: f32) {
    launcher.sweep(v.patch.compute_columns() as u64, |col| {
        let col = col as usize;
        let (i, j) = v.column(col);
        let fall = COLUMN_SCRATCH.with(|cell| sediment_column(v, dz, i, j, &mut cell.borrow_mut()));
        v.fall.set(col, fall);
    });
}

// ---- Launching ----------------------------------------------------------

/// The scheme's pool in `cell`, created on first use (see
/// [`FastSbm::pool`]).
fn new_pool<'a>(cell: &'a OnceLock<Executor>, cfg: &SbmConfig) -> &'a Executor {
    cell.get_or_init(|| match cfg.workers {
        _ if !cfg.version.offloaded() && cfg.tiles <= 1 => Executor::new(1),
        Some(w) => Executor::new(w),
        None => Executor::new(std::thread::available_parallelism().map_or(4, |n| n.get())),
    })
}

/// Where a step's parallel launches run — tiles and collision units
/// alike — on the scheme's pool. The one place that tells [`ExecMode`]'s
/// variants apart.
struct Launcher<'a> {
    sched: ExecMode,
    exec: &'a Executor,
}

impl Launcher<'_> {
    /// Runs `body(u)` for every launch unit `u` in `0..total` on the pool
    /// and returns the wall seconds: automatically sized chunks under
    /// work stealing, one contiguous block per worker under static tiles.
    /// Static dispatch: `body` is inlined into the pool's loop.
    fn run<F>(&self, total: u64, body: F) -> f64
    where
        F: Fn(u64) + Sync,
    {
        let chunk = match self.sched {
            ExecMode::WorkSteal => None,
            ExecMode::StaticTiles => Some(total.div_ceil(self.exec.workers() as u64)),
        };
        self.exec.run_indexed(total, chunk, body)
    }

    /// [`Launcher::run`] for fine-grained units of which only some are
    /// active. Work-stealing queues just `active()`'s list, so no device
    /// thread is ever parked on an empty (cloud-free) unit — the
    /// work-queue analogue of warp compaction; the static partition
    /// covers all of `0..total` and `body` skips the idle units itself.
    fn run_active<F>(&self, total: u64, active: impl FnOnce() -> Vec<u32>, body: F) -> f64
    where
        F: Fn(u64) + Sync,
    {
        match self.sched {
            ExecMode::WorkSteal => {
                let list = active();
                self.exec.run_ranges(list.len() as u64, None, |lo, hi| {
                    for x in lo..hi {
                        body(u64::from(list[x as usize]));
                    }
                })
            }
            ExecMode::StaticTiles => self.run(total, body),
        }
    }

    /// Runs `body(u)` for every unit in `0..total` of a sweep around the
    /// collision launch — `(j,k)` rows, `(i,j)` columns. Work stealing
    /// spreads them over the pool; the static arm is the paper's program,
    /// where only the collision loop is offloaded, and loops on the
    /// calling thread.
    fn sweep<F>(&self, total: u64, body: F)
    where
        F: Fn(u64) + Sync,
    {
        match self.sched {
            ExecMode::WorkSteal => {
                self.exec.run_indexed(total, None, body);
            }
            ExecMode::StaticTiles => (0..total).for_each(body),
        }
    }
}

/// Reusable per-step buffers: they grow to the patch size on the first
/// step and are reused afterwards, so steady-state steps perform no heap
/// allocation (asserted by the counting-allocator test).
#[derive(Default)]
struct StepScratch {
    sweep: SweepArrays,
    coal: CoalLists,
}

/// The patch-sized arrays launch units write through [`PatchViews`].
#[derive(Default)]
struct SweepArrays {
    /// `call_coal_bott_new`, `[row][i]` over the compute points.
    predicate: Vec<bool>,
    /// Per-point outcomes, same order.
    outcomes: Vec<SweepSlot>,
    /// Per-point key slot, same order: the [`condensation_key`] the
    /// pre-sweep's row launch leaves for its condensation launch
    /// ([`NO_CONDENSATION`] where a point needs none), then, once
    /// [`build_cond_batch_list`] has read it, the spectrum key
    /// ([`lane_coherence_keys`]) the condensation launch leaves for the
    /// collision list at each predicate-true point.
    cond_key: Vec<u64>,
    /// Per-column sedimentation results, `[j][i]` ([`SbmPatchState::rainnc`]
    /// order).
    fall: Vec<ColumnFall>,
}

/// What the panel launches derive from the sweep arrays: the lane
/// batches of the condensation launch (from the key slots), then those of
/// the collision launch (from the predicate), in the same reused buffers.
#[derive(Default)]
struct CoalLists {
    /// Per-column "any point active" flags of the `collapse(2)` launch.
    lane_active: Vec<bool>,
    /// The offloaded collision launch's metered flops per launch unit
    /// ([`FastSbm::coal_profile`]); left empty by the CPU versions' tiles.
    profile: Vec<u64>,
    /// The launch units of the panel condensation launch, then of the
    /// panel `collapse(3)` launch, level by level.
    batches: Vec<PanelBatch>,
    /// The points [`build_cond_batch_list`] or [`build_batch_list`] is
    /// cutting (the patch's pending points, or one level's predicate-true
    /// points), keyed for the sort. Reused from level to level and step to
    /// step.
    level: Vec<LanePoint>,
    /// Test-only: how a level's collision points are grouped.
    #[cfg(test)]
    order: BatchOrder,
    /// Test-only: how the patch's condensation points are grouped.
    #[cfg(test)]
    cond_order: BatchOrder,
}

/// One point as a batch builder sorts it: the group no batch crosses
/// (pressure bits for the collision list, 0 for the condensation list,
/// whose lanes may mix pressures), the key that groups look-alikes
/// ([`lane_coherence_keys`], [`condensation_key`]), the flat index into the
/// sweep arrays. The index makes every entry distinct, so an unstable
/// sort is deterministic.
type LanePoint = (u32, u64, u32);

/// The key slot of a point the condensation launch has nothing to do for.
const NO_CONDENSATION: u64 = u64::MAX;

/// A point's slot in the sweep arrays: the parts of its [`PointOutcome`]
/// the pre and post sweeps write (collision reports through
/// [`Tally::coal`], sedimentation through its column's [`ColumnFall`]),
/// and what its condensation relaxes floored, folded in point order after
/// the step. `clear` marks an active point whose every class the pre
/// stage left all `±0` ([`BinsView::is_clear`]); nothing later in the
/// step fills it, so the post-sweep and sedimentation take it as read. A
/// patch-sized array, so it holds nothing more: the flags share the
/// padding before the meters, and the slot stays 96 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SweepSlot {
    active: bool,
    coal_called: bool,
    clear: bool,
    nucl: PointWork,
    cond: PointWork,
    freeze: PointWork,
    breakup: PointWork,
    floored: Floored,
}

impl SweepSlot {
    /// The slot of a point whose nucleation head
    /// ([`fast_sbm_nucleate`]) returned `out`.
    fn pre(out: &PointOutcome) -> Self {
        SweepSlot {
            active: out.active,
            coal_called: out.coal_called,
            nucl: out.work.nucl,
            cond: out.work.cond,
            floored: out.floored,
            ..SweepSlot::default()
        }
    }
}

/// What sedimentation leaves behind for one column: surface precipitation
/// per class, kg/m² (`+0.0` for a class with nothing to fall), the
/// metered work, what the write-back floored, and whether every level
/// was clear (then all else is the default: nothing fell or was metered).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ColumnFall {
    pub(crate) precip: [f32; NTYPES],
    pub(crate) work: PointWork,
    pub(crate) floored: Floored,
    pub(crate) clear: bool,
}

/// One thread's sedimentation column: the densities and their fall-speed
/// factors ([`density_factor`]), and the column of one class while it
/// falls, bin-major so each bin's k-sweep is a contiguous, cache-blocked
/// pass.
struct ColumnScratch {
    rho: Vec<f32>,
    factor: Vec<f32>,
    sed: SedScratch,
}

/// One SoA lane batch of a panel launch: up to [`LANES`] points that
/// need condensation, from anywhere in the patch, or up to [`LANES`]
/// predicate-true points of one level sharing pressure bits (so the
/// collision kernel value per `(i, j)` is resolved once for the whole
/// batch), from any rows of that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PanelBatch {
    /// The batch's points: flat indices into the sweep arrays (`[row][i]`
    /// over the compute points).
    points: [u32; LANES],
    len: u8,
}

// Per-thread sedimentation column: the column units of one sweep run on
// every pool thread at once, and steady-state steps stay allocation-free.
thread_local! {
    static COLUMN_SCRATCH: std::cell::RefCell<ColumnScratch> = const {
        std::cell::RefCell::new(ColumnScratch {
            rho: Vec::new(),
            factor: Vec::new(),
            sed: SedScratch::new(),
        })
    };
}

/// Everything a stage function needs, borrowed once per step: the static
/// physics tables, the read-only fields, and disjoint-write views of the
/// fields the microphysics updates. Flat indices are recomputed from the
/// patch spans (`Field3` order: `i` fastest, then `k`, then `j`; the bin
/// slabs prepend the bin index), so the views need no field borrows.
struct PatchViews<'a> {
    patch: PatchSpec,
    grids: &'a Grids,
    tables: &'a KernelTables,
    kcache: Option<&'a KernelCache>,
    splits: &'a DepositSplits,
    clear_post: &'a ClearPostMeters,
    dt: f32,
    /// The most points a lane batch holds ([`Layout::width`]).
    width: usize,
    t_old: &'a [f32],
    p: &'a [f32],
    rho: &'a [f32],
    tt: SyncWriteSlice<'a, f32>,
    qv: SyncWriteSlice<'a, f32>,
    ff: [SyncWriteSlice<'a, f32>; NTYPES],
    /// The [`SweepArrays`]: a row unit owns its row's predicate, outcome
    /// and key slots, a lane batch its points' predicate and outcome
    /// slots, a column unit its column's slot.
    predicate: SyncWriteSlice<'a, bool>,
    outcomes: SyncWriteSlice<'a, SweepSlot>,
    cond_key: SyncWriteSlice<'a, u64>,
    fall: SyncWriteSlice<'a, ColumnFall>,
}

impl<'a> PatchViews<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        grids: &'a Grids,
        tables: &'a KernelTables,
        kcache: Option<&'a KernelCache>,
        splits: &'a DepositSplits,
        clear_post: &'a ClearPostMeters,
        cfg: &SbmConfig,
        state: &'a mut SbmPatchState,
        sweep: &'a mut SweepArrays,
    ) -> Self {
        let mut slabs = state.ff.iter_mut();
        // SAFETY: the views are written only by the stage functions below,
        // and every stage function touches nothing but the `tt`/`qv`
        // elements, bin slices and sweep-array slots of the grid points of
        // the launch unit it was called for — a tile, a `(j,k)` row of one
        // (a `collapse(2)` "column"), a collision lane batch of distinct
        // points, a `(j,k)` row of the pre- or post-sweep
        // (with that row's `predicate`/`outcomes`/`cond_key` slots), a
        // condensation lane batch of distinct points (with those points'
        // `predicate`/`outcomes`/`cond_key` slots), or an `(i,j)` column
        // of the sedimentation sweep (every level of that column, and its
        // `fall` slot; it also reads, and never writes, its own column's
        // `outcomes` slots, which the finished pre- and post-sweep
        // launches wrote). The units of one launch partition the compute
        // points: tiles partition the patch; compacted lists and batch
        // lists name each unit, and each point, at most once; the sweeps index
        // `0..rows` and `0..columns`, which `row`/`idx3` map one-to-one
        // onto the compute points (`many_tiles_cover_exactly`,
        // `batch_list_covers_active_points_exactly_once`,
        // `cond_batch_list_covers_pending_points_exactly_once` and
        // `sweep_units_cover_rows_and_columns_exactly_once` test the
        // four). Launches never overlap — every `Launcher` entry returns
        // only once all its units have — so within a launch no element is
        // written by two threads, or read by one while another writes it
        // (the Codee-proven independence of the grid loop; a batch list is
        // built on the calling thread between two launches — the
        // condensation list from the `cond_key` slots the finished row
        // launch wrote, before the condensation launch writes them again;
        // the collision list from the whole `predicate` and the
        // `cond_key` slots the finished condensation launch wrote, which
        // the collision launch only reads). `t_old`, `p` and `rho` are
        // never written during a step.
        let (tt, qv, ff, predicate, outcomes, cond_key, fall) = unsafe {
            (
                SyncWriteSlice::new(state.tt.as_mut_slice()),
                SyncWriteSlice::new(state.qv.as_mut_slice()),
                std::array::from_fn(|_| {
                    SyncWriteSlice::new(slabs.next().expect("NTYPES slabs").as_mut_slice())
                }),
                SyncWriteSlice::new(sweep.predicate.as_mut_slice()),
                SyncWriteSlice::new(sweep.outcomes.as_mut_slice()),
                SyncWriteSlice::new(sweep.cond_key.as_mut_slice()),
                SyncWriteSlice::new(sweep.fall.as_mut_slice()),
            )
        };
        PatchViews {
            patch: state.patch,
            grids,
            tables,
            kcache,
            splits,
            clear_post,
            dt: cfg.dt,
            width: cfg.layout.width(),
            t_old: state.t_old.as_slice(),
            p: state.p.as_slice(),
            rho: state.rho.as_slice(),
            tt,
            qv,
            ff,
            predicate,
            outcomes,
            cond_key,
            fall,
        }
    }

    /// Flat index of a grid point in the 3-D fields.
    #[inline]
    fn idx3(&self, i: i32, k: i32, j: i32) -> usize {
        let p = &self.patch;
        let (ii, kk, jj) = (i - p.im.lo, k - p.km.lo, j - p.jm.lo);
        ii as usize + p.im.len() * (kk as usize + p.km.len() * jj as usize)
    }

    /// The compute rows in sweep order (`j` outer, `k` inner) as `(j, k)`:
    /// what [`PatchViews::row`] is tested against.
    #[cfg(test)]
    fn rows(&self) -> impl Iterator<Item = (i32, i32)> {
        let kp = self.patch.kp;
        (self.patch.jp.iter()).flat_map(move |j| kp.iter().map(move |k| (j, k)))
    }

    /// Number of compute rows.
    fn row_count(&self) -> usize {
        self.patch.jp.len() * self.patch.kp.len()
    }

    /// `(j, k)` of the `row`-th compute row in sweep order.
    #[inline]
    fn row(&self, row: usize) -> (i32, i32) {
        let (p, klen) = (&self.patch, self.patch.kp.len());
        (p.jp.lo + (row / klen) as i32, p.kp.lo + (row % klen) as i32)
    }

    /// Flat field index of the `idx`-th compute point in predicate order
    /// (`[row][i]`).
    #[inline]
    fn at_point(&self, idx: usize) -> usize {
        let ilen = self.patch.ip.len();
        let (j, k) = self.row(idx / ilen);
        self.idx3(self.patch.ip.lo + (idx % ilen) as i32, k, j)
    }

    /// Index of the compute point `(i, k, j)` in the sweep arrays
    /// (`[row][i]`): what [`PatchViews::at_point`] inverts.
    #[inline]
    fn slot(&self, i: i32, k: i32, j: i32) -> usize {
        let p = &self.patch;
        let row = (j - p.jp.lo) as usize * p.kp.len() + (k - p.kp.lo) as usize;
        row * p.ip.len() + (i - p.ip.lo) as usize
    }

    /// `(i, j)` of the `col`-th compute column ([`SbmPatchState::rainnc`]
    /// order: `j` outer, `i` inner).
    #[inline]
    fn column(&self, col: usize) -> (i32, i32) {
        let (p, ilen) = (&self.patch, self.patch.ip.len());
        (p.ip.lo + (col % ilen) as i32, p.jp.lo + (col / ilen) as i32)
    }

    #[inline]
    fn thermo(&self, at: usize) -> PointThermo {
        PointThermo {
            t: self.tt.get(at),
            qv: self.qv.get(at),
            p: self.p[at],
            rho: self.rho[at],
        }
    }

    #[inline]
    fn store_thermo(&self, at: usize, th: &PointThermo) {
        self.tt.set(at, th.t);
        self.qv.set(at, th.qv);
    }

    /// An in-place [`BinsView`] over the seven slab slices at a point
    /// (Listing 8's pointers into `temp_arrays`).
    #[inline]
    fn bins(&self, at: usize) -> BinsView<'_> {
        BinsView::from_slices(std::array::from_fn(|c| {
            self.ff[c].subslice_mut(at * NKR, NKR)
        }))
    }

    /// Gathers the point at `at` into the panel's next lane.
    #[inline]
    fn gather(&self, at: usize, panel: &mut SoaPanel) {
        let (th, src) = (self.thermo(at), self.bins(at));
        panel.push_with(th.t, th.qv, th.p, th.rho, |c, kk| src.n[c][kk]);
    }

    /// Scatters lane `l` back to the point at `at`: its bins and its
    /// temperature (vapor moves only in condensation, whose caller
    /// stores it).
    #[inline]
    fn scatter(&self, at: usize, panel: &SoaPanel, l: usize) {
        let mut dst = self.bins(at);
        panel.scatter_with(l, |c, kk, x| dst.n[c][kk] = x);
        self.tt.set(at, panel.t[l]);
    }

    /// Kernel mode for a non-dense collision call at level `k` and
    /// pressure `p`.
    #[inline]
    fn kernel_mode(&self, k: i32, p: f32) -> KernelMode<'_> {
        match self.kcache {
            Some(cache) => KernelMode::Cached {
                cache,
                tables: self.tables,
                level: (k - self.patch.kp.lo) as usize,
                p,
            },
            None => KernelMode::OnDemand {
                tables: self.tables,
                p,
            },
        }
    }

    /// The kernel mode of one collision call at pressure `p`: a fresh
    /// `kernals_ks` fill of the caller's dense tables (metered into
    /// `kernals` — the baseline's defining cost), or the lookup mode.
    fn collision_kernels<'d>(
        &'d self,
        k: i32,
        p: f32,
        dense: Option<&'d mut CollisionTables>,
        kernals: &mut PointWork,
    ) -> KernelMode<'d> {
        match dense {
            Some(dense) => {
                kernals_ks(self.tables, p, dense, kernals);
                KernelMode::Dense(dense)
            }
            None => self.kernel_mode(k, p),
        }
    }
}

// ---- Row-level stages -----------------------------------------------------
//
// A row is the `i`-span `it` at one `(j, k)`; `pred` and `outs` are its
// predicate and outcome slots.

/// The per-point head of the pre-stage at the point `at`, in place: the
/// `T_OLD` guard and nucleation, leaving the point's outcome in `out`,
/// then [`panel_condensation`]'s guard on the slab slices, with the sum
/// it makes (and the predicate makes again). Returns the point's thermo
/// after nucleation when it has condensate or is supersaturated over
/// liquid — it needs a panel. An active point with neither is one whose
/// lane would stop at that guard and read a false predicate: it is
/// metered as both would have metered it, marked clear when it holds
/// nothing, and finished here, like an inactive one.
fn nucleate_point(v: &PatchViews<'_>, at: usize, out: &mut SweepSlot) -> Option<PointThermo> {
    let mut th = v.thermo(at);
    let nucleated = fast_sbm_nucleate(&mut v.bins(at), &mut th, v.grids, v.dt, v.t_old[at]);
    *out = nucleated
        .as_ref()
        .map_or_else(SweepSlot::default, SweepSlot::pre);
    nucleated?;
    v.store_thermo(at, &th);
    let mut sum = PointWork::ZERO;
    let (condensate, clear) = v.bins(at).condensate_and_clear(v.grids, &mut sum);
    if condensate <= Q_EPS && supersat_liquid(th.t, th.p, th.qv) <= 0.0 {
        out.cond = sum + sum;
        out.cond.f(25);
        out.clear = clear;
        return None;
    }
    Some(th)
}

/// The pre-sweep's row unit: [`nucleate_point`] over the row
/// whose first point is at `at0`. A point that needs condensation leaves
/// its [`condensation_key`] in its `keys` slot and every other point
/// [`NO_CONDENSATION`]; the predicate reads false until the condensation
/// launch sets it for the points it condenses.
fn nucleate_row(
    v: &PatchViews<'_>,
    at0: usize,
    pred: &mut [bool],
    outs: &mut [SweepSlot],
    keys: &mut [u64],
) {
    for (ix, ((p, out), key)) in pred.iter_mut().zip(outs).zip(keys).enumerate() {
        let at = at0 + ix;
        *key = nucleate_point(v, at, out).map_or(NO_CONDENSATION, |th| {
            u64::from(condensation_key(&v.bins(at), &th))
        });
        *p = false;
    }
}

/// Gather → condensation and the collision predicate → scatter for one
/// lane batch of the condensation launch (`points` are flat indices into
/// the sweep arrays): each lane's bins, temperature and vapor go back to
/// its point, its metered work, predicate and clear flag to its outcome
/// and predicate slots, and a predicate-true lane's spectrum key
/// ([`lane_coherence_keys`], read from the panel the lane's bins are
/// scattered from) to its key slot. Returns how full the relaxes ran.
fn cond_batch(v: &PatchViews<'_>, points: &[u32]) -> LaneFill {
    let mut panel = SoaPanel::new();
    let mut ats = [0usize; LANES];
    for (at, &pt) in ats.iter_mut().zip(points) {
        *at = v.at_point(pt as usize);
        v.gather(*at, &mut panel);
    }
    let mut works = [PointWork::ZERO; LANES];
    let mut floored = [Floored::default(); LANES];
    let fill = panel_condensation(&mut panel, v.grids, v.dt, &mut works, &mut floored);
    let preds = panel_coal_predicate(&panel, v.grids, &mut works);
    let keys = lane_coherence_keys(&panel);
    for (l, (&pt, &at)) in points.iter().zip(&ats).enumerate() {
        v.scatter(at, &panel, l);
        v.qv.set(at, panel.qv[l]);
        let pt = pt as usize;
        let out = &mut v.outcomes.subslice_mut(pt, 1)[0];
        out.cond = works[l];
        out.floored = floored[l];
        out.coal_called = preds[l];
        out.clear = !preds[l] && v.bins(at).is_clear();
        v.predicate.set(pt, preds[l]);
        if preds[l] {
            v.cond_key.set(pt, keys[l]);
        }
    }
    fill
}

/// The collision stage over the predicate-true points of one row: a CPU
/// tile's step through its rows and the body of one `collapse(2)` launch
/// unit (a column with its serial `i` loop), over pressure-uniform lane
/// batches formed on the fly.
fn coal_row(
    v: &PatchViews<'_>,
    j: i32,
    k: i32,
    it: Span,
    pred: &[bool],
    mut dense: Option<&mut CollisionTables>,
) -> Tally {
    let mut tally = Tally::default();
    let at0 = v.idx3(it.lo, k, j);
    let p = &v.p[at0..at0 + it.len()];
    let mut ix = 0;
    while let Some((ixs, len)) = next_batch(pred, p, v.width, &mut ix) {
        let ats = ixs.map(|ix| at0 + ix as usize);
        let (per_lane, fill) = coal_batch(v, k, &ats[..len], dense.as_deref_mut());
        tally.lanes += fill;
        per_lane.for_each(|lane| tally += lane);
    }
    tally
}

/// Gather → `panel_coal` → scatter for one pressure-uniform lane batch at
/// level `k` (`ats` are the flat field indices of its points); yields the
/// per-lane tallies and how full the batch's lane slots ran. With dense
/// tables the batch shares one fill (identical pressure), metered per
/// point: each point pays for the fill it would make alone.
fn coal_batch(
    v: &PatchViews<'_>,
    k: i32,
    ats: &[usize],
    dense: Option<&mut CollisionTables>,
) -> (impl Iterator<Item = Tally>, LaneFill) {
    let mut panel = SoaPanel::new();
    for &at in ats {
        v.gather(at, &mut panel);
    }
    let mut kernals = PointWork::ZERO;
    let km = v.collision_kernels(k, panel.p[0], dense, &mut kernals);
    let mut works = [PointWork::ZERO; LANES];
    let mut entries = [0u64; LANES];
    let fill = panel_coal(
        &mut panel,
        v.grids,
        km,
        v.splits,
        v.dt,
        &mut works,
        &mut entries,
    );
    for (l, &at) in ats.iter().enumerate() {
        v.scatter(at, &panel, l);
    }
    let n = ats.len();
    let per_lane = (0..n).map(move |l| Tally::coal(entries[l], works[l], kernals));
    (per_lane, fill)
}

/// Freezing/melting + breakup over the row's active points, per point
/// and in place; returns the tally of the row's outcomes (all
/// that the pre-sweep and this stage metered, and the point counts). A
/// clear point takes its meter from the [`ClearPostMeters`] table by its
/// `T` and keeps its bins and the rest of its thermo unread, and all of
/// them unwritten.
fn post_row(v: &PatchViews<'_>, j: i32, k: i32, it: Span, outs: &mut [SweepSlot]) -> Tally {
    let mut tally = Tally::default();
    for (i, out) in it.iter().zip(outs) {
        if out.active {
            let at = v.idx3(i, k, j);
            (out.freeze, out.breakup) = if out.clear {
                v.clear_post.at(v.tt.get(at))
            } else {
                let mut th = v.thermo(at);
                let mut post = PointOutcome {
                    active: true,
                    ..PointOutcome::default()
                };
                fast_sbm_post(&mut v.bins(at), &mut th, v.grids, v.dt, &mut post);
                v.store_thermo(at, &th);
                (post.work.freeze, post.work.breakup)
            };
        }
        tally.add_point(out);
    }
    tally
}

/// The post stage's `(freeze, breakup)` meter of a clear point, which
/// depends on its `T` alone ([`fast_sbm_post_clear`]) and through one
/// comparison with `T_0`: freezing below, melting above, neither at
/// `T_0` or at NaN. Three entries, replayed once per scheme instance.
#[derive(Debug, Clone, Copy)]
struct ClearPostMeters([(PointWork, PointWork); 3]);

impl ClearPostMeters {
    fn new(grids: &Grids, dt: f32) -> Self {
        let replay = |t: f32| {
            let th = PointThermo {
                t,
                qv: 0.0,
                p: 0.0,
                rho: 0.0,
            };
            let mut post = PointOutcome {
                active: true,
                ..PointOutcome::default()
            };
            fast_sbm_post_clear(th, grids, dt, &mut PointBins::empty(), &mut post);
            (post.work.freeze, post.work.breakup)
        };
        ClearPostMeters([T_0 - 1.0, T_0 + 1.0, T_0].map(replay))
    }

    /// The meter of a clear point at temperature `t`.
    #[inline]
    fn at(&self, t: f32) -> (PointWork, PointWork) {
        let entry = if t < T_0 {
            0
        } else if t > T_0 {
            1
        } else {
            2
        };
        self.0[entry]
    }
}

/// Sedimentation of the column at `(i, j)`, class by class, each class's
/// column held bin-major while it falls. The levels' fall-speed factors
/// are taken once, when the column's first class falls, and serve all
/// seven. The write-back is the step's last write of every class the
/// column holds, so it floors the tails there ([`Floored::floor`],
/// levels bottom up, bins ascending); a class with no positive value is
/// skipped, written by nothing.
///
/// Which classes hold a positive value is read once per level the
/// pre-sweep did not mark clear, as one fold a class; a clear level holds
/// none. A column all of whose levels are clear skips every class, so it
/// returns the empty fall without reading a density or a bin.
fn sediment_column(
    v: &PatchViews<'_>,
    dz: f32,
    i: i32,
    j: i32,
    scratch: &mut ColumnScratch,
) -> ColumnFall {
    let kp = v.patch.kp;
    let nz = kp.len();
    let (slot0, ilen) = (v.slot(i, kp.lo, j), v.patch.ip.len());
    let clear = |kx: usize| v.outcomes.get(slot0 + kx * ilen).clear;
    if (0..nz).all(clear) {
        return ColumnFall {
            clear: true,
            ..ColumnFall::default()
        };
    }
    let mut held = [0u32; NTYPES];
    for kx in (0..nz).filter(|&kx| !clear(kx)) {
        let at = v.idx3(i, kp.lo + kx as i32, j);
        for (h, slab) in held.iter_mut().zip(&v.ff) {
            let level = slab.subslice_mut(at * NKR, NKR);
            *h |= level.iter().fold(0, |h, &x| h | u32::from(x > 0.0));
        }
    }
    let ColumnScratch { rho, factor, sed } = scratch;
    rho.clear();
    rho.extend(kp.iter().map(|k| v.rho[v.idx3(i, k, j)]));
    factor.clear();
    sed.ensure(nz);
    let mut fall = ColumnFall::default();
    for (c, slab) in v.ff.iter().enumerate() {
        let grid = v.grids.by_index(c);
        let level = |kx: usize| slab.subslice_mut(v.idx3(i, kp.lo + kx as i32, j) * NKR, NKR);
        // Most columns hold one class: copy only what can fall.
        if held[c] == 0 {
            continue;
        }
        if factor.is_empty() {
            factor.extend(rho.iter().map(|&r| density_factor(r)));
        }
        for kx in 0..nz {
            for (kb, &x) in level(kx).iter().enumerate() {
                sed.bins[kb * nz + kx] = x;
            }
        }
        fall.precip[c] = sedimentation_column_soa(sed, grid, rho, factor, dz, v.dt, &mut fall.work);
        for kx in 0..nz {
            for (kb, d) in level(kx).iter_mut().enumerate() {
                *d = fall.floored.floor(sed.bins[kb * nz + kx], grid.mass[kb]);
            }
        }
    }
    fall
}

/// The next collision lane batch of a row: starting at `*ix`, up to
/// `width` (at most [`LANES`]) predicate-true offsets whose pressures
/// share the first one's bits (gaps of predicate-false points allowed; a
/// pressure change ends the batch). Returns `None` once the row holds no
/// further active point.
fn next_batch(
    pred: &[bool],
    p: &[f32],
    width: usize,
    ix: &mut usize,
) -> Option<([u32; LANES], usize)> {
    let mut ixs = [0u32; LANES];
    let mut len = 0;
    while *ix < pred.len() && len < width {
        if pred[*ix] {
            if len > 0 && p[*ix].to_bits() != p[ixs[0] as usize].to_bits() {
                break;
            }
            ixs[len] = *ix as u32;
            len += 1;
        }
        *ix += 1;
    }
    (len > 0).then_some((ixs, len))
}

/// [`lane_coherence_keys`]' key of one point, read from its bins: the
/// oracle the scheme's read from the condensation panel is tested
/// against.
#[cfg(test)]
fn coherence_key(bins: &BinsView<'_>) -> u64 {
    let (mut present, mut tops) = (0u64, 0u64);
    for n in &bins.n {
        let top = n.iter().rposition(|&x| x > N_EPS);
        present = present << 1 | u64::from(top.is_some());
        tops = tops << 6 | top.map_or(0, |t| t as u64 + 1);
    }
    present << (6 * NTYPES) | tops
}

/// What decides which cells a point's collision sweep visits, as one
/// sortable word: which classes hold a bin above [`N_EPS`] (one bit a
/// class, water first — the pairs a lane enters at all), then the top
/// occupied bin of each class, plus one (six bits a class, 0 for an empty
/// one — where its `(i, j)` windows end). Read for every lane of the
/// condensation panel at once, one select a bin row; a live lane's bins
/// are the ones scattered to its point. Points whose keys are close
/// sweep nearly the same windows, so a batch of them wastes few slots on
/// the union.
fn lane_coherence_keys(panel: &SoaPanel) -> [u64; LANES] {
    let (mut present, mut tops) = ([0u64; LANES], [0u64; LANES]);
    for n in &panel.n {
        let mut top = [0u32; LANES];
        for (k, slots) in (1..).zip(n) {
            for (t, &x) in top.iter_mut().zip(slots) {
                *t = if x > N_EPS { k } else { *t };
            }
        }
        for l in 0..LANES {
            present[l] = present[l] << 1 | u64::from(top[l] > 0);
            tops[l] = tops[l] << 6 | u64::from(top[l]);
        }
    }
    std::array::from_fn(|l| present[l] << (6 * NTYPES) | tops[l])
}

/// What decides which relaxes a point's condensation runs, as one
/// sortable word: its [`condensation::branch`] (the liquid leg, the ice
/// leg or both), then which classes hold more than [`N_EPS`] in number
/// (one bit a class, water first — a relax all of whose lanes hold
/// nothing of its class returns after the capacity sum). `th` is the
/// point's thermo after nucleation. Points with one key run the same
/// relax calls, so a batch of them leaves no lane slot idle.
fn condensation_key(bins: &BinsView<'_>, th: &PointThermo) -> u16 {
    let numbers = HydroClass::ALL.map(|c| bins.number_of(c));
    let s = supersat_liquid(th.t, th.p, th.qv);
    let present = numbers
        .iter()
        .fold(0, |bits, &n| bits << 1 | u16::from(n > N_EPS));
    u16::from(condensation::branch(th.t, s, &numbers)) << NTYPES | present
}

/// Pre-builds the launch units of the panel condensation launch from the
/// key slots the row launch left: every point of the patch that needs
/// condensation, sorted by [`condensation_key`] and then by index, cut
/// into runs of the batch width. A condensation lane takes nothing from its
/// batch — no kernel row, no pressure — so one patch-wide sort serves:
/// only the last batch can be ragged, and only a batch that straddles a
/// change of key mixes relax sequences.
///
/// Which points share a batch is invisible to every one of them: a lane
/// picks its own branch and runs its own relax sequence under its own
/// mask (`panel_condensation`), and what it reports — its metered
/// work, its predicate — is filed per point. So any grouping gives the
/// same bits (`cond_batch_membership_is_invisible_to_every_point` steps
/// row-order, sorted and shuffled membership side by side).
fn build_cond_batch_list(v: &PatchViews<'_>, lists: &mut CoalLists) {
    #[cfg(test)]
    let order = lists.cond_order;
    let CoalLists { batches, level, .. } = lists;
    let ilen = v.patch.ip.len();
    // The row launch has finished, and the condensation launch, which
    // writes the key slots of its predicate-true points, has not begun.
    let keys: &[u64] = v.cond_key.subslice_mut(0, v.row_count() * ilen);
    level.clear();
    for (idx, &key) in keys.iter().enumerate() {
        if key == NO_CONDENSATION {
            continue;
        }
        let point = (0, key, idx as u32);
        #[cfg(test)]
        let point = order.cond_rekey(point, ilen);
        level.push(point);
    }
    sort_points(level);
    batches.clear();
    cut_batches(level, v.width, batches);
}

/// Sorts a batch builder's points in tuple order, compared as one packed
/// `u128` (group, key and index from the top): the same order, in one
/// integer compare instead of up to three.
fn sort_points(points: &mut [LanePoint]) {
    points.sort_unstable_by_key(|&(group, key, idx)| {
        u128::from(group) << 96 | u128::from(key) << 32 | u128::from(idx)
    });
}

/// Appends sorted points to `batches`, cut where the group changes and
/// into runs of at most `width` (at most [`LANES`]) within a group.
fn cut_batches(sorted: &[LanePoint], width: usize, batches: &mut Vec<PanelBatch>) {
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        for lanes in run.chunks(width) {
            let mut points = [0u32; LANES];
            for (slot, &(_, _, idx)) in points.iter_mut().zip(lanes) {
                *slot = idx;
            }
            let len = lanes.len() as u8;
            batches.push(PanelBatch { points, len });
        }
    }
}

/// Pre-builds the launch units of the panel `collapse(3)` kernel, level
/// by level: a level's predicate-true points across all its rows, sorted
/// by pressure bits and then by the spectrum key
/// ([`lane_coherence_keys`]) the condensation launch left in each one's
/// key slot, cut into runs of one pressure and those into batches of at
/// most the batch width. `predicate` is laid out `[row][i]` over the
/// patch's compute points.
///
/// Which points share a batch is invisible to every one of them: a lane
/// runs its own `(i, j)` sequence under its own window
/// (`panel_coal`), the kernel values it reads depend on the pressure bits
/// alone, and what it reports is integer counts filed per point. So any
/// grouping of same-pressure points gives the same bits, and the sort is
/// free to chase the slots (`batch_membership_is_invisible_to_every_point`
/// steps row-order, sorted and shuffled membership side by side).
fn build_batch_list(v: &PatchViews<'_>, predicate: &[bool], lists: &mut CoalLists) {
    #[cfg(test)]
    let order = lists.order;
    #[cfg(test)]
    if order == BatchOrder::Rows {
        return build_row_batches(v, predicate, &mut lists.batches);
    }
    let CoalLists { batches, level, .. } = lists;
    let (ilen, klen) = (v.patch.ip.len(), v.patch.kp.len());
    // The condensation launch has finished, and nothing writes a key slot
    // again this step.
    let keys: &[u64] = v.cond_key.subslice_mut(0, v.row_count() * ilen);
    batches.clear();
    for kx in 0..klen {
        level.clear();
        for row in (kx..v.row_count()).step_by(klen) {
            let at0 = v.at_point(row * ilen);
            for idx in (row * ilen..(row + 1) * ilen).filter(|&idx| predicate[idx]) {
                let at = at0 + idx % ilen;
                let key = keys[idx];
                #[cfg(test)]
                let key = order.rekey(key, idx);
                level.push((v.p[at].to_bits(), key, idx as u32));
            }
        }
        sort_points(level);
        cut_batches(level, v.width, batches);
    }
}

/// How [`build_batch_list`] groups a level's points, and
/// [`build_cond_batch_list`] the patch's — a test hook, not an option:
/// production is `Sorted` and nothing outside `cfg(test)` can say
/// otherwise.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BatchOrder {
    /// Pressure bits, then [`lane_coherence_keys`]; [`condensation_key`]
    /// patch-wide.
    #[default]
    Sorted,
    /// Row by row: [`next_batch`], the builder `coal_row` uses; each
    /// row's pending points in order.
    Rows,
    /// Pressure bits, then a hash of the seed and the point: level-wide
    /// (patch-wide for condensation) membership drawn at random.
    Shuffled(u64),
}

#[cfg(test)]
impl BatchOrder {
    fn rekey(self, key: u64, point: usize) -> u64 {
        match self {
            BatchOrder::Shuffled(seed) => splitmix64(seed ^ point as u64),
            _ => key,
        }
    }

    /// A pending point of the condensation list, regrouped: `Rows` makes
    /// each compute row (`ilen` points) a group of its own, in index order.
    fn cond_rekey(self, (group, key, idx): LanePoint, ilen: usize) -> LanePoint {
        match self {
            BatchOrder::Rows => (idx / ilen as u32, 0, idx),
            _ => (group, self.rekey(key, idx as usize), idx),
        }
    }
}

/// The splitmix64 finalizer: the tests' stateless hash.
#[cfg(test)]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`BatchOrder::Rows`]: every row's [`next_batch`] batches, in sweep
/// order.
#[cfg(test)]
fn build_row_batches(v: &PatchViews<'_>, predicate: &[bool], out: &mut Vec<PanelBatch>) {
    let ilen = v.patch.ip.len();
    out.clear();
    for (row, pred) in predicate.chunks_exact(ilen).enumerate() {
        let at0 = v.at_point(row * ilen);
        let mut ix = 0;
        while let Some((ixs, len)) = next_batch(pred, &v.p[at0..at0 + ilen], v.width, &mut ix) {
            let points = ixs.map(|ix| (row * ilen) as u32 + ix);
            let len = len as u8;
            out.push(PanelBatch { points, len });
        }
    }
}

// ---- Statistics -------------------------------------------------------------

/// What a launch unit or a sweep adds to the step statistics. All
/// counters are integers, so the order units finish in cannot change the
/// sums.
#[derive(Clone, Copy, Default)]
struct Tally {
    active: usize,
    /// Active points the pre-sweep left clear.
    clear: usize,
    coal_points: usize,
    coal_entries: u64,
    /// How full the panel collision batches ran (per batch, not per
    /// point).
    lanes: LaneFill,
    /// How full the panel condensation relaxes ran (per panel).
    cond_lanes: LaneFill,
    work: WorkBreakdown,
}

impl Tally {
    /// The collision stage's share of one point.
    fn coal(coal_entries: u64, coal: PointWork, kernals: PointWork) -> Self {
        Tally {
            coal_entries,
            work: WorkBreakdown {
                coal,
                kernals,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The pre and post stages' share of one point (its collision share
    /// arrives through [`Tally::coal`]).
    fn add_point(&mut self, out: &SweepSlot) {
        self.active += usize::from(out.active);
        self.clear += usize::from(out.clear);
        self.coal_points += usize::from(out.coal_called);
        self.work += WorkBreakdown {
            nucl: out.nucl,
            cond: out.cond,
            freeze: out.freeze,
            breakup: out.breakup,
            ..WorkBreakdown::default()
        };
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.active += rhs.active;
        self.clear += rhs.clear;
        self.coal_points += rhs.coal_points;
        self.coal_entries += rhs.coal_entries;
        self.lanes += rhs.lanes;
        self.cond_lanes += rhs.cond_lanes;
        self.work += rhs.work;
    }
}

/// Where the collision launch's units report: the running tally and
/// the metered collision flops per launch unit.
struct CoalSink<'a> {
    tally: Tally,
    profile: &'a mut [u64],
}

impl CoalSink<'_> {
    fn add(&mut self, unit: usize, tally: Tally) {
        self.tally += tally;
        self.profile[unit] += tally.work.coal.flops;
    }
}

fn empty_stats(points: usize) -> SbmStepStats {
    SbmStepStats {
        points,
        active_points: 0,
        coal_points: 0,
        coal_entries: 0,
        work: WorkBreakdown::default(),
        coal_iters: 0,
        warp_efficiency: 1.0,
        lane_slots: 0,
        lane_cells: 0,
        cond_slots: 0,
        cond_cells: 0,
        clear_points: 0,
        clear_columns: 0,
        precip: 0.0,
        floored: Floored::default(),
        coal_wall: 0.0,
    }
}

/// [`pre_sweep`] at `layout`'s batch width over the patch of `st` on the
/// calling thread, then, given `fall = Some(skip_clear)`, the sedimentation
/// sweep (with `skip_clear` false the pre-sweep's clear flags are dropped
/// first, so every column takes the full loop): the state after them and
/// the sweep arrays.
#[cfg(test)]
fn sweeps_on(
    mut st: SbmPatchState,
    layout: Layout,
    fall: Option<bool>,
) -> (SbmPatchState, SweepArrays) {
    let sbm = FastSbm::new(SbmConfig {
        layout,
        ..SbmConfig::new(SbmVersion::OffloadCollapse3)
    });
    let p = st.patch;
    let mut sweep = SweepArrays {
        predicate: vec![false; p.compute_points()],
        outcomes: vec![SweepSlot::default(); p.compute_points()],
        cond_key: vec![NO_CONDENSATION; p.compute_points()],
        fall: vec![ColumnFall::default(); p.compute_columns()],
    };
    let exec = Executor::new(1);
    let launcher = Launcher {
        sched: ExecMode::StaticTiles,
        exec: &exec,
    };
    let (grids, tables, splits) = (&sbm.grids, &sbm.tables, &sbm.splits);
    let v = PatchViews::new(
        grids,
        tables,
        None,
        splits,
        &sbm.clear_post,
        &sbm.cfg,
        &mut st,
        &mut sweep,
    );
    pre_sweep(&v, &launcher, &mut CoalLists::default());
    if let Some(skip_clear) = fall {
        if !skip_clear {
            (0..v.outcomes.len()).for_each(|pt| v.outcomes.subslice_mut(pt, 1)[0].clear = false);
        }
        sedimentation_sweep(&v, &launcher, sbm.cfg.dz);
    }
    (st, sweep)
}

/// [`sweeps_on`] with the sedimentation sweep, `T_OLD` taken first: the
/// state after it and every column's fall, in `rainnc` order.
#[cfg(test)]
pub(crate) fn fall_after_pre(
    mut st: SbmPatchState,
    layout: Layout,
    skip_clear: bool,
) -> (SbmPatchState, Vec<ColumnFall>) {
    st.snapshot_t_old();
    let (st, sweep) = sweeps_on(st, layout, Some(skip_clear));
    (st, sweep.fall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermo::qsat_liquid;
    use wrf_grid::{two_d_decomposition, Domain};

    /// Builds a small cloudy test patch: a warm moist blob in the middle,
    /// dry air elsewhere.
    pub(crate) fn test_state() -> SbmPatchState {
        let d = Domain::new(10, 6, 8);
        let patch = two_d_decomposition(d, 1, 0).patches[0];
        let mut st = SbmPatchState::new(patch);
        for j in patch.jm.iter() {
            for k in patch.km.iter() {
                for i in patch.im.iter() {
                    let p = 90_000.0 - 6_000.0 * (k - 1) as f32;
                    let t = 292.0 - 5.0 * (k - 1) as f32;
                    st.p.set(i, k, j, p);
                    st.tt.set(i, k, j, t);
                    st.rho.set(i, k, j, crate::thermo::air_density(t, p));
                    let cloudy = (3..=7).contains(&i) && (2..=5).contains(&j) && k <= 4;
                    let qv = if cloudy {
                        qsat_liquid(t, p) * 1.02
                    } else {
                        qsat_liquid(t, p) * 0.5
                    };
                    st.qv.set(i, k, j, qv);
                }
            }
        }
        // Seed droplets in the cloudy region.
        let mut bins = PointBins::empty();
        for b in 7..=12 {
            bins.n[0][b] = 2.0e7;
        }
        for j in 2..=5 {
            for k in 1..=4 {
                for i in 3..=7 {
                    st.store_bins(i, k, j, &bins);
                }
            }
        }
        st
    }

    fn run_version(v: SbmVersion, steps: usize) -> (SbmPatchState, SbmStepStats) {
        let mut st = test_state();
        let mut cfg = SbmConfig::new(v);
        cfg.workers = Some(4);
        let mut scheme = FastSbm::new(cfg);
        let mut last = None;
        for _ in 0..steps {
            last = Some(scheme.step(&mut st));
        }
        (st, last.unwrap())
    }

    fn max_rel_diff(a: &SbmPatchState, b: &SbmPatchState) -> f64 {
        let mut worst = 0.0f64;
        for (fa, fb) in a.ff.iter().zip(&b.ff) {
            for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
                let denom = x.abs().max(y.abs()).max(1e-6);
                worst = worst.max(((x - y).abs() / denom) as f64);
            }
        }
        for (x, y) in a.tt.as_slice().iter().zip(b.tt.as_slice()) {
            worst = worst.max(((x - y).abs() / 300.0) as f64);
        }
        worst
    }

    #[test]
    fn all_versions_agree() {
        let (base, sbase) = run_version(SbmVersion::Baseline, 3);
        for v in [
            SbmVersion::Lookup,
            SbmVersion::OffloadCollapse2,
            SbmVersion::OffloadCollapse3,
        ] {
            let (st, s) = run_version(v, 3);
            let d = max_rel_diff(&base, &st);
            assert!(d < 1e-5, "{v:?} diverges from baseline by {d}");
            assert_eq!(s.active_points, sbase.active_points, "{v:?}");
            assert_eq!(s.coal_points, sbase.coal_points, "{v:?}");
            assert_eq!(s.coal_entries, sbase.coal_entries, "{v:?}");
        }
    }

    #[test]
    fn baseline_pays_kernals_cost_lookup_does_not() {
        let (_, sb) = run_version(SbmVersion::Baseline, 1);
        let (_, sl) = run_version(SbmVersion::Lookup, 1);
        assert!(sb.work.kernals.flops > 0);
        assert_eq!(sl.work.kernals.flops, 0);
        // The dense fill dominates: per coal point it costs 4 flops × 20×33²
        // while the sparse math touches a fraction of entries.
        assert!(
            sb.work.kernals.flops > sb.work.coal.flops,
            "kernals {} vs coal {}",
            sb.work.kernals.flops,
            sb.work.coal.flops
        );
        // Lookup evaluates exactly the entries the math needs.
        assert!(sl.work.coal_loop().flops < sb.work.coal_loop().flops / 2);
    }

    /// The four versions are four values of the plan: dense tables only
    /// in the baseline, an offload only in the offloaded pair — stack
    /// arrays at `collapse(2)`, point-major slabs at `collapse(3)` — and
    /// the public views of the plan agree with it, down to the §VI
    /// kernels' geometry (fat threads with 20 KiB of automatics, thin
    /// threads on 640 B of slab views).
    #[test]
    fn version_plans_are_the_papers_ladder() {
        use gpu_sim::schedule::{Collapse::*, Storage::*};
        let ladder = [
            (true, None, None),
            (false, None, None),
            (false, Some((Two, Stack)), Some((2, 168, 20 * 1024))),
            (false, Some((Three, SlabPointMajor)), Some((3, 80, 640))),
        ];
        for (version, (dense_tables, offload, geometry)) in SbmVersion::ALL.into_iter().zip(ladder)
        {
            let plan = CollisionPlan {
                dense_tables,
                offload: offload.map(|(collapse, storage)| Offload { collapse, storage }),
            };
            assert_eq!(version.plan(), plan, "{version:?}");
            assert_eq!(version.offloaded(), offload.is_some(), "{version:?}");
            let spec = version.kernel_spec();
            let got = spec
                .as_ref()
                .map(|s| (s.collapse, s.regs_per_thread, s.stack_bytes_per_thread));
            assert_eq!(got, geometry, "{version:?}");
            if let Some(s) = spec {
                assert_eq!(s.name, format!("coal_bott_new_loop_collapse{}", s.collapse));
                assert_eq!(s.block_threads, 128);
            }
        }
    }

    #[test]
    fn offload_versions_report_launch_geometry() {
        let (_, s2) = run_version(SbmVersion::OffloadCollapse2, 1);
        let (_, s3) = run_version(SbmVersion::OffloadCollapse3, 1);
        let k2 = SbmVersion::OffloadCollapse2.kernel_spec().unwrap();
        let k3 = SbmVersion::OffloadCollapse3.kernel_spec().unwrap();
        assert_eq!(k2.collapse, 2);
        assert_eq!(k3.collapse, 3);
        assert!(k2.stack_bytes_per_thread > 4096, "automatic arrays");
        assert!(k3.stack_bytes_per_thread < 4096, "slab pointers");
        // collapse(3) launches ilen× more iterations.
        assert_eq!(s3.coal_iters, s2.coal_iters * 10);
        assert!(s2.warp_efficiency > 0.0 && s2.warp_efficiency <= 1.0);
        assert!(s3.warp_efficiency > 0.0 && s3.warp_efficiency <= 1.0);
    }

    /// [`test_state`] with drizzle already in the lowest two levels of
    /// the cloud, so the first steps deliver surface precipitation and the
    /// sedimentation fold has something to get wrong.
    fn rainy_state() -> SbmPatchState {
        let mut st = test_state();
        let mut bins = PointBins::empty();
        for j in 2..=5 {
            for k in 1..=2 {
                for i in 3..=7 {
                    st.load_bins(i, k, j, &mut bins);
                    for b in 20..=26 {
                        bins.n[0][b] = 5.0e2;
                    }
                    st.store_bins(i, k, j, &bins);
                }
            }
        }
        st
    }

    /// Three steps from [`rainy_state`]; the wall clock is zeroed so the
    /// step statistics compare whole.
    fn run_rainy(cfg: SbmConfig) -> (SbmPatchState, Vec<SbmStepStats>, FastSbm) {
        let mut st = rainy_state();
        let mut scheme = FastSbm::new(cfg);
        let stats = (0..3)
            .map(|_| SbmStepStats {
                coal_wall: 0.0,
                ..scheme.step(&mut st)
            })
            .collect();
        (st, stats, scheme)
    }

    /// Neither the scheduler, the pool width nor the kernel cache can move
    /// a bit, in any version or layout: every work-stealing run — its
    /// three sweeps and the collision launch on 1, 2, 3 or 8 pool threads
    /// — and the static partition on 3 threads reproduce the static
    /// partition on 4 in state, precipitation and statistics.
    #[test]
    fn exec_modes_and_kernel_cache_are_bitwise_identical() {
        for version in SbmVersion::ALL {
            for layout in Layout::ALL {
                // Reference: the static partition with no cache.
                let mut cfg = SbmConfig::new(version);
                cfg.layout = layout;
                cfg.workers = Some(4);
                cfg.sched = ExecMode::StaticTiles;
                let (ref_state, ref_stats, _) = run_rainy(cfg);
                assert!(ref_stats[2].precip > 0.0, "the fold must be exercised");
                assert!(ref_stats[2].work.sed.flops > 0 && ref_stats[2].work.cond.flops > 0);

                let variants = [
                    (ExecMode::StaticTiles, false, 3),
                    (ExecMode::WorkSteal, true, 1),
                    (ExecMode::WorkSteal, false, 1),
                    (ExecMode::WorkSteal, false, 2),
                    (ExecMode::WorkSteal, false, 3),
                    (ExecMode::WorkSteal, false, 8),
                    (ExecMode::WorkSteal, true, 4),
                    (ExecMode::StaticTiles, true, 4),
                ];
                for (sched, cached, workers) in variants {
                    let what =
                        format!("{version:?} {layout:?} {sched:?} cached={cached} x{workers}");
                    cfg.sched = sched;
                    cfg.cached_kernels = cached;
                    cfg.workers = Some(workers);
                    let (st, stats, scheme) = run_rainy(cfg);
                    for (step, (got, want)) in stats.iter().zip(&ref_stats).enumerate() {
                        // Whole statistics (`work.sed`, `work.cond`, the
                        // counts, the launch geometry), and the f64 fold
                        // to the bit.
                        assert_eq!(got, want, "{what} step {step}");
                        assert_eq!(got.precip.to_bits(), want.precip.to_bits(), "{what} {step}");
                    }
                    assert_eq!(st.tt.as_slice(), ref_state.tt.as_slice(), "{what}: T");
                    assert_eq!(st.qv.as_slice(), ref_state.qv.as_slice(), "{what}: qv");
                    for c in 0..NTYPES {
                        assert_eq!(
                            st.ff[c].as_slice(),
                            ref_state.ff[c].as_slice(),
                            "{what}: class {c} bins"
                        );
                    }
                    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&st.rainnc), bits(&ref_state.rainnc), "{what}: rainnc");
                    assert_eq!(
                        st.precip_acc.to_bits(),
                        ref_state.precip_acc.to_bits(),
                        "{what}: precip_acc"
                    );
                    if cached && version.offloaded() {
                        let summary = scheme.exec_summary(&ref_stats[2]);
                        assert_eq!(summary.cache_hit_rate, 1.0, "pressure is k-only here");
                        assert_eq!(summary.workers, workers);
                    }
                }
            }
        }
    }

    /// Launches on one persistent pool, back to back for hundreds of
    /// steps: the executor's epoch handover (a late worker must never
    /// carry one launch's body into the next) under the scheme's real
    /// traffic — five launches a step in the production configuration
    /// and in a tiled CPU version whose collision launch is three coarse
    /// tiles between the same sweeps, and the static-tiles offloaded
    /// step's one collision launch of contiguous blocks. Every step's
    /// statistics (wall clock zeroed; `floored` to the bit) and digest at
    /// 2 and 3 workers must equal the one-worker run's: a race on the
    /// sweep arrays moves a count before it moves a bit of state — a lost
    /// key slot regroups the collision batches and shows in
    /// `lane_slots`. 300 steps under `CI_NIGHTLY` (`./ci.sh
    /// pool_stress`), 24 otherwise.
    #[test]
    fn pool_stress_every_step_matches_one_worker() {
        let nightly = std::env::var_os("CI_NIGHTLY").is_some_and(|v| !v.is_empty());
        let steps = if nightly { 300 } else { 24 };
        let mut production = SbmConfig::new(SbmVersion::OffloadCollapse3);
        production.cached_kernels = true;
        let mut tiled = SbmConfig::new(SbmVersion::Lookup);
        tiled.tiles = 3;
        let mut blocks = SbmConfig::new(SbmVersion::OffloadCollapse3);
        blocks.sched = ExecMode::StaticTiles;
        for mut cfg in [production, tiled, blocks] {
            let what = format!("{} {}", cfg.version.label(), cfg.sched.label());
            let launches = match cfg.sched {
                ExecMode::WorkSteal => 5,
                ExecMode::StaticTiles => 1,
            };
            let mut run = |workers: usize| {
                let mut st = test_state();
                cfg.workers = Some(workers);
                let mut scheme = FastSbm::new(cfg);
                let per_step: Vec<_> = (0..steps)
                    .map(|_| {
                        let stats = SbmStepStats {
                            coal_wall: 0.0,
                            ..scheme.step(&mut st)
                        };
                        let floored = [stats.floored.number, stats.floored.mass].map(f64::to_bits);
                        (st.digest(), stats, floored)
                    })
                    .collect();
                let epochs = scheme.pool().stats().epochs;
                assert_eq!(epochs, launches * steps as u64, "{what}: launches a step");
                per_step
            };
            let want = run(1);
            let evolved = want[0].0 != want[steps - 1].0;
            assert!(evolved, "{what}: the state must evolve");
            for workers in [2, 3] {
                for (step, (got, want)) in run(workers).iter().zip(&want).enumerate() {
                    let at = format!("{what}: {workers} workers, step {step}");
                    assert_eq!((&got.1, got.2), (&want.1, want.2), "{at}: stats");
                    assert_eq!(got.0, want.0, "{at}");
                }
            }
        }
    }

    /// A supercell-like storm on a 20 × 12 × 12 patch, spun up for three
    /// production steps (microphysics only — the case library and the
    /// dycore sit above this crate): a saturated updraft core carrying
    /// supercooled droplets into graupel and hail, a rain shaft under its
    /// east flank, an ice-and-snow anvil spreading aloft, dry air around.
    /// Spectra reach further the nearer a parcel is to the storm's axis,
    /// so a row — which crosses the storm — mixes wide windows with
    /// narrow ones, while a level holds rings of look-alikes in different
    /// rows. Row-order batches run 0.39 full here and coherent ones 0.78
    /// (the ledger's `sbm_dense` snapshot: 0.26 and 0.63).
    fn storm_spinup_state() -> SbmPatchState {
        let d = Domain::new(20, 12, 12);
        let patch = two_d_decomposition(d, 1, 0).patches[0];
        let mut st = SbmPatchState::new(patch);
        let noise =
            |i: i32, k: i32, j: i32| splitmix64((i as u64) << 40 | (k as u64) << 20 | j as u64);
        for j in patch.jm.iter() {
            for k in patch.km.iter() {
                for i in patch.im.iter() {
                    let p = 95_000.0 - 6_000.0 * (k - 1) as f32;
                    let t = 298.0 - 7.0 * (k - 1) as f32;
                    let r = ((i as f32 - 10.5).powi(2) + (j as f32 - 6.5).powi(2)).sqrt();
                    let (core, shaft) = (r < 3.5, r < 6.0 && i > 10 && k <= 4);
                    let anvil = r < 9.0 && k >= 9;
                    let mut bins = PointBins::empty();
                    // A parcel's age: every spectrum it holds reaches up
                    // to eight bins further, furthest at the storm's axis.
                    let age = ((9.0 - r).max(0.0) * 0.8) as usize + (noise(i, k, j) % 2) as usize;
                    let mut seed = |class: usize, lo: usize, hi: usize, n: f32| {
                        (lo + age..=hi + age).for_each(|b| bins.n[class][b] = n);
                    };
                    if core && k <= 9 {
                        seed(0, 5, 10, 2.0e7);
                    }
                    if shaft || (r < 2.5 && k <= 5) {
                        seed(0, 18, 22, 4.0e2);
                    }
                    if r < 2.5 && (4..=10).contains(&k) {
                        seed(5, 12, 16, 2.0e2);
                    }
                    if r < 1.5 && (6..=10).contains(&k) {
                        seed(6, 18, 20, 5.0);
                    }
                    if (core && k >= 7) || anvil {
                        seed(1 + (k % 3) as usize, 4, 8, 4.0e4);
                        if r < 6.0 {
                            seed(4, 8, 13, 8.0e3);
                        }
                    }
                    let sat = if core {
                        1.02
                    } else if shaft || anvil {
                        0.97
                    } else {
                        0.5
                    };
                    st.p.set(i, k, j, p);
                    st.tt.set(i, k, j, t);
                    st.rho.set(i, k, j, crate::thermo::air_density(t, p));
                    st.qv.set(i, k, j, qsat_liquid(t, p) * sat);
                    st.store_bins(i, k, j, &bins);
                }
            }
        }
        let mut cfg = SbmConfig::new(SbmVersion::OffloadCollapse3);
        cfg.workers = Some(2);
        cfg.cached_kernels = true;
        let mut scheme = FastSbm::new(cfg);
        for _ in 0..3 {
            scheme.step(&mut st);
        }
        st
    }

    /// `steps` production steps (cached kernels) from `start` with the
    /// panel collision launch batching in `order` and the condensation
    /// launch in `cond_order`, on `workers` pool threads: the state bits
    /// after them, each step's statistics, wall clock zeroed, and each
    /// step's per-point collision profile.
    fn run_ordered(
        start: &SbmPatchState,
        order: BatchOrder,
        cond_order: BatchOrder,
        workers: usize,
        steps: usize,
    ) -> (Vec<u32>, Vec<SbmStepStats>, Vec<Vec<u64>>) {
        let mut st = start.clone();
        let mut cfg = SbmConfig::new(SbmVersion::OffloadCollapse3);
        cfg.workers = Some(workers);
        cfg.cached_kernels = true;
        let mut scheme = FastSbm::new(cfg);
        scheme.scratch.coal.order = order;
        scheme.scratch.coal.cond_order = cond_order;
        let (stats, profiles) = (0..steps)
            .map(|_| {
                let stats = SbmStepStats {
                    coal_wall: 0.0,
                    ..scheme.step(&mut st)
                };
                (stats, scheme.coal_profile().to_vec())
            })
            .unzip();
        (state_bits(&st), stats, profiles)
    }

    /// `stats` without the counts that depend on who shares a batch: the
    /// collision list's `lane_slots` when `coal` varies, the condensation
    /// list's `cond_slots` when `cond` does.
    fn membership_free(stats: &[SbmStepStats], coal: bool, cond: bool) -> Vec<SbmStepStats> {
        let strip = |s: &SbmStepStats| SbmStepStats {
            lane_slots: if coal { 0 } else { s.lane_slots },
            cond_slots: if cond { 0 } else { s.cond_slots },
            ..*s
        };
        stats.iter().map(strip).collect()
    }

    /// The four memberships the invisibility tests step side by side.
    const ORDERS: [BatchOrder; 4] = [
        BatchOrder::Rows,
        BatchOrder::Sorted,
        BatchOrder::Shuffled(1),
        BatchOrder::Shuffled(0xfeed),
    ];

    /// Who shares a lane batch with whom is schedule, not physics: the
    /// spun-up storm stepped twice with row-order batches, coherent
    /// batches and two random level-wide memberships, on 1, 2 and 3 pool
    /// threads, ends in the same state bits with the same statistics —
    /// every `Tally` count, `coal_entries`, `lane_cells`, and the per-point
    /// collision profile ([`FastSbm::coal_profile`]) — and only
    /// `lane_slots` tells the groupings apart.
    #[test]
    fn batch_membership_is_invisible_to_every_point() {
        let start = storm_spinup_state();
        let run = |order, workers| run_ordered(&start, order, BatchOrder::Sorted, workers, 2);
        let (want_bits, want, want_profiles) = run(BatchOrder::Rows, 1);
        assert!(want[1].coal_points > 200 && want[1].lane_cells > 0);
        assert!(want_profiles[1].iter().any(|&f| f > 0));
        let mut slots = std::collections::BTreeSet::new();
        for order in ORDERS {
            for workers in [1, 2, 3] {
                let (bits, stats, profiles) = run(order, workers);
                assert!(bits == want_bits, "{order:?} x{workers}: state bits");
                assert!(profiles == want_profiles, "{order:?} x{workers}: profile");
                assert_eq!(
                    membership_free(&stats, true, false),
                    membership_free(&want, true, false),
                    "{order:?} x{workers}"
                );
                slots.insert((stats[1].lane_slots, format!("{order:?}")));
            }
        }
        assert_eq!(
            slots.len(),
            4,
            "one slot count an order, whatever the pool: {slots:?}"
        );
    }

    /// The point of the sort, in the counts it is meant to move: on the
    /// spun-up storm the coherent batches sweep at most 0.55 of the lane
    /// slots row order sweeps, for the same cells, and at least half of
    /// what they sweep is some point's own work.
    #[test]
    fn sorted_batches_sweep_fewer_slots_than_row_order() {
        let start = storm_spinup_state();
        let (_, rows, _) = run_ordered(&start, BatchOrder::Rows, BatchOrder::Sorted, 2, 1);
        let (_, sorted, _) = run_ordered(&start, BatchOrder::Sorted, BatchOrder::Sorted, 2, 1);
        let (rows, sorted) = (&rows[0], &sorted[0]);
        assert_eq!(sorted.lane_cells, rows.lane_cells);
        assert!(
            sorted.lane_efficiency() >= 0.5,
            "sorted lanes ran {:.3} full (row order {:.3})",
            sorted.lane_efficiency(),
            rows.lane_efficiency()
        );
        assert!(
            sorted.lane_slots as f64 <= 0.55 * rows.lane_slots as f64,
            "sorted {} slots, row order {}",
            sorted.lane_slots,
            rows.lane_slots
        );
    }

    /// Who shares a condensation lane batch is schedule too: the spun-up
    /// storm stepped twice with row-order condensation batches, coherent
    /// ones and two random patch-wide memberships, on 1, 2 and 3 pool
    /// threads, ends in the same state bits with the same statistics —
    /// `work.cond`, the predicate's counts, every collision count,
    /// `cond_cells` — and only `cond_slots` tells the groupings apart.
    #[test]
    fn cond_batch_membership_is_invisible_to_every_point() {
        let start = storm_spinup_state();
        let run = |order, workers| run_ordered(&start, BatchOrder::Sorted, order, workers, 2);
        let (want_bits, want, want_profiles) = run(BatchOrder::Rows, 1);
        assert!(want[1].cond_cells > 0 && want[1].work.cond.flops > 0);
        let mut slots = std::collections::BTreeSet::new();
        for order in ORDERS {
            for workers in [1, 2, 3] {
                let (bits, stats, profiles) = run(order, workers);
                assert!(bits == want_bits, "{order:?} x{workers}: state bits");
                assert!(profiles == want_profiles, "{order:?} x{workers}: profile");
                assert_eq!(
                    membership_free(&stats, false, true),
                    membership_free(&want, false, true),
                    "{order:?} x{workers}"
                );
                slots.insert((stats[1].cond_slots, format!("{order:?}")));
            }
        }
        assert_eq!(
            slots.len(),
            4,
            "one slot count an order, whatever the pool: {slots:?}"
        );
    }

    /// The point of the condensation list, in the counts it moves: on the
    /// spun-up storm the coherent batches run at least 0.95 of their relax
    /// slots on lanes the relax was called for — the same relaxes as row
    /// order, in fewer calls.
    #[test]
    fn cond_batches_run_their_relaxes_full() {
        let start = storm_spinup_state();
        let (_, rows, _) = run_ordered(&start, BatchOrder::Sorted, BatchOrder::Rows, 2, 1);
        let (_, sorted, _) = run_ordered(&start, BatchOrder::Sorted, BatchOrder::Sorted, 2, 1);
        let (rows, sorted) = (&rows[0], &sorted[0]);
        assert_eq!(sorted.cond_cells, rows.cond_cells);
        assert!(
            sorted.cond_lane_efficiency() >= 0.95,
            "sorted relaxes ran {:.3} full (row order {:.3})",
            sorted.cond_lane_efficiency(),
            rows.cond_lane_efficiency()
        );
        assert!(
            sorted.cond_slots < rows.cond_slots,
            "sorted {} slots, row order {}",
            sorted.cond_slots,
            rows.cond_slots
        );
    }

    /// One pre-sweep for every version: on the spun-up storm the first
    /// step of all four — lookup or dense tables, tiles or an offloaded
    /// launch — nucleates and condenses in the same coherent lane batches,
    /// so the condensation fill and the metered nucleation and
    /// condensation work agree to the count.
    #[test]
    fn every_version_condenses_in_the_same_batches() {
        let start = storm_spinup_state();
        let firsts = SbmVersion::ALL.map(|version| {
            let mut st = start.clone();
            let mut cfg = SbmConfig::new(version);
            cfg.workers = Some(2);
            let s = FastSbm::new(cfg).step(&mut st);
            (s.cond_slots, s.cond_cells, s.work.nucl, s.work.cond)
        });
        assert!(firsts[0].1 > 0 && firsts[0].3.flops > 0, "{:?}", firsts[0]);
        for (version, first) in SbmVersion::ALL.into_iter().zip(firsts) {
            assert_eq!(first, firsts[0], "{version:?}");
        }
    }

    /// The collision profile is the offloaded launch's work, unit by unit:
    /// on the spun-up storm both offloaded versions leave `coal_iters`
    /// entries summing to the step's metered collision flops, and the CPU
    /// versions' tiles leave none.
    #[test]
    fn coal_profile_holds_each_launch_unit() {
        let start = storm_spinup_state();
        for version in SbmVersion::ALL {
            let mut st = start.clone();
            let mut cfg = SbmConfig::new(version);
            cfg.workers = Some(2);
            let mut scheme = FastSbm::new(cfg);
            let s = scheme.step(&mut st);
            let profile = scheme.coal_profile();
            if version.plan().offload.is_some() {
                assert!(s.work.coal.flops > 0, "{version:?}");
                assert_eq!(profile.len() as u64, s.coal_iters, "{version:?}");
                assert_eq!(
                    profile.iter().sum::<u64>(),
                    s.work.coal.flops,
                    "{version:?}"
                );
            } else {
                assert!(profile.is_empty(), "{version:?}");
            }
        }
    }

    /// Nightly (`CI_NIGHTLY=1 ./ci.sh pool_stress`, release): 200 seeded
    /// shuffles of both lists — level-wide collision and patch-wide
    /// condensation membership — three steps each on two pool threads,
    /// against the coherent run: state bits, the collision profile and
    /// every statistic but `lane_slots` and `cond_slots`.
    #[test]
    #[ignore = "nightly: run in release through CI_NIGHTLY=1 ./ci.sh pool_stress"]
    fn batch_shuffle_fuzz() {
        let start = storm_spinup_state();
        let (want_bits, want, want_profiles) =
            run_ordered(&start, BatchOrder::Sorted, BatchOrder::Sorted, 2, 3);
        for seed in 0..200 {
            let order = BatchOrder::Shuffled(seed);
            let (bits, stats, profiles) = run_ordered(&start, order, order, 2, 3);
            assert!(bits == want_bits, "shuffle {seed}: state bits");
            assert!(profiles == want_profiles, "shuffle {seed}: profile");
            assert_eq!(
                membership_free(&stats, true, true),
                membership_free(&want, true, true),
                "shuffle {seed}"
            );
        }
    }

    /// A one-row patch of `points` — `(t, qv / qsat_liquid, bins)` each —
    /// at 70 kPa, `T_OLD` taken.
    fn row_state(points: &[(f32, f32, PointBins)]) -> SbmPatchState {
        let d = Domain::new(points.len() as i32, 1, 1);
        let patch = two_d_decomposition(d, 1, 0).patches[0];
        let mut st = SbmPatchState::new(patch);
        let (j, k, p) = (patch.jp.lo, patch.kp.lo, 70_000.0);
        for (i, (t, sat, bins)) in patch.ip.iter().zip(points) {
            st.p.set(i, k, j, p);
            st.tt.set(i, k, j, *t);
            st.rho.set(i, k, j, crate::thermo::air_density(*t, p));
            st.qv.set(i, k, j, qsat_liquid(*t, p) * sat);
            st.store_bins(i, k, j, bins);
        }
        st.snapshot_t_old();
        st
    }

    /// [`pre_sweep`] at `layout`'s width over the patch of `st` (the one-row
    /// patch of a [`row_state`], or a whole storm), on the calling
    /// thread: the state after it, the predicate and the outcomes.
    fn pre_sweep_on(
        st: SbmPatchState,
        layout: Layout,
    ) -> (SbmPatchState, Vec<bool>, Vec<SweepSlot>) {
        let (st, sweep) = sweeps_on(st, layout, None);
        (st, sweep.predicate, sweep.outcomes)
    }

    fn state_bits(st: &SbmPatchState) -> Vec<u32> {
        let fields = [st.tt.as_slice(), st.qv.as_slice()];
        let slabs = st.ff.iter().map(|f| f.as_slice());
        (fields.into_iter().chain(slabs))
            .flat_map(|f| f.iter().map(|x| x.to_bits()))
            .collect()
    }

    /// [`pre_sweep`] one point a batch and [`LANES`] a batch on a row
    /// holding every kind of point the pre-sweep tells apart, eleven of
    /// them panel-bound (one full panel and a ragged one at the wider
    /// width): identical state bits, predicate and whole outcomes, and
    /// each kind where it belongs.
    #[test]
    fn pre_row_forms_agree_case_by_case() {
        let mut warm = PointBins::empty();
        (7..=12).for_each(|b| warm.n[0][b] = 2.0e7);
        let mut ice = PointBins::empty();
        ice.n[2][6] = 4.0e4;
        ice.n[4][10] = 8.0e4;
        let mut mixed = ice.clone();
        mixed.n[0] = warm.n[0];
        // Tiny negatives in classes the lane's first relax (water) does
        // not move: one where no later relax visits them, one where the
        // ice relaxes follow.
        let mut warm_neg = warm.clone();
        warm_neg.n[4][3] = -1.0e-7;
        warm_neg.n[6][30] = -3.0e-6;
        let mut mixed_neg = mixed.clone();
        mixed_neg.n[5][20] = -2.0e-7;
        mixed_neg.n[6][0] = -1.0e-6;

        let clear = (285.0, 0.5, PointBins::empty());
        let supersaturated = (285.0, 1.02, PointBins::empty());
        let evaporating = (288.0, 0.97, warm.clone());
        let mixed_phase = (263.0, 1.0, mixed.clone());
        let glaciated = (250.0, 0.8, ice.clone());
        let frigid = (190.0, 0.5, warm.clone());
        let points = [
            clear.clone(),
            supersaturated.clone(),
            evaporating.clone(),
            mixed_phase.clone(),
            glaciated.clone(),
            frigid,
            (286.0, 1.01, warm_neg),
            (262.0, 1.01, mixed_neg),
            evaporating,
            clear,
            mixed_phase,
            supersaturated,
            glaciated,
            (287.0, 0.99, warm),
        ];
        let (aos, aos_pred, aos_outs) = pre_sweep_on(row_state(&points), Layout::PointAos);
        let (soa, soa_pred, soa_outs) = pre_sweep_on(row_state(&points), Layout::PanelSoa);
        assert_eq!(state_bits(&soa), state_bits(&aos));
        assert_eq!(soa_pred, aos_pred);
        assert_eq!(soa_outs, aos_outs);

        let want_pred = [0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1].map(|x| x == 1);
        assert_eq!(soa_pred, want_pred);
        let ip = soa.patch.ip;
        let bins_at = |st: &SbmPatchState, ix: usize| {
            let mut bins = PointBins::empty();
            st.load_bins(ip.lo + ix as i32, st.patch.kp.lo, st.patch.jp.lo, &mut bins);
            bins
        };
        for (ix, (_, _, before)) in points.iter().enumerate() {
            let (out, after) = (&soa_outs[ix], bins_at(&soa, ix));
            assert_eq!(out.active, ix != 5, "point {ix}");
            match ix {
                // Clear and frigid points keep their bins; the clear one
                // is still metered: condensation's sum and guard, then
                // the predicate's sum.
                0 | 9 => {
                    assert_eq!(after, *before, "point {ix}");
                    let sum = 7 * NKR as u64;
                    assert_eq!(out.cond.flops, 2 * 2 * sum + 25, "point {ix}");
                    assert_eq!(out.cond.mem_ops, 2 * sum, "point {ix}");
                }
                5 => assert_eq!(after, *before, "point {ix}"),
                // A clear supersaturated point nucleates, then condenses.
                1 | 11 => assert!(after.n[0].iter().sum::<f32>() > 0.0, "point {ix}"),
                // The negatives are gone after the pre-sweep alone.
                6 | 7 => assert!(after.n.iter().flatten().all(|&x| x >= 0.0), "point {ix}"),
                // The glaciated point stays liquid-free; the others moved.
                4 | 12 => assert_eq!(after.n[0], [0.0; NKR], "point {ix}"),
                _ => assert_ne!(after, *before, "point {ix}"),
            }
        }
    }

    /// What condensation leaves behind: the spun-up storm after the
    /// pre-sweep (nucleation, condensation, the predicate) holds no bin
    /// value that is subnormal or in `(0, N_FLOOR)`, at either batch
    /// width, and both floored the same values point by point. The
    /// storm holds no such value before the sweep; the relaxes' own
    /// deposits form them (7 490, 546 of them subnormal, when the relax's
    /// scrub does not floor), so the floor must fire on the way.
    #[test]
    fn condensation_leaves_no_tails() {
        let runs = Layout::ALL.map(|layout| pre_sweep_on(storm_spinup_state(), layout));
        for (layout, (st, _, outs)) in Layout::ALL.iter().zip(&runs) {
            let census = st.tail_census();
            assert_eq!(census, crate::state::TailCensus::default(), "{layout:?}");
            let floored: u64 = outs.iter().map(|o| o.floored.values).sum();
            assert!(floored > 0, "{layout:?}: nothing floored");
        }
        let [(aos, _, aos_outs), (soa, _, soa_outs)] = &runs;
        assert_eq!(state_bits(aos), state_bits(soa));
        assert_eq!(aos_outs, soa_outs);
    }

    /// The collision list's keys come from the condensation panel: after
    /// the pre-sweep over the spun-up storm, at either batch width, every
    /// predicate-true point's key slot holds [`coherence_key`] of the bins
    /// scattered to it.
    #[test]
    fn hot_keys_are_the_scattered_bins_keys() {
        for layout in Layout::ALL {
            let (mut st, mut sweep) = sweeps_on(storm_spinup_state(), layout, None);
            let predicate = sweep.predicate.clone();
            let sbm = FastSbm::new(SbmConfig {
                layout,
                ..SbmConfig::new(SbmVersion::OffloadCollapse3)
            });
            let (grids, tables, splits) = (&sbm.grids, &sbm.tables, &sbm.splits);
            let v = PatchViews::new(
                grids,
                tables,
                None,
                splits,
                &sbm.clear_post,
                &sbm.cfg,
                &mut st,
                &mut sweep,
            );
            let hot: Vec<usize> = (0..predicate.len()).filter(|&pt| predicate[pt]).collect();
            assert!(hot.len() > 200, "{layout:?}: {} hot points", hot.len());
            for pt in hot {
                let want = coherence_key(&v.bins(v.at_point(pt)));
                assert_eq!(v.cond_key.get(pt), want, "{layout:?}: point {pt}");
            }
        }
    }

    /// The clear post meter by table against its replay: at `T_0` and one
    /// ULP either side, at ±∞ and at NaN, [`ClearPostMeters::at`] is
    /// [`fast_sbm_post_clear`]'s meter at that `T`.
    #[test]
    fn clear_post_meters_match_the_replay() {
        let sbm = FastSbm::new(SbmConfig::new(SbmVersion::OffloadCollapse3));
        let temps = [
            T_0,
            T_0.next_down(),
            T_0.next_up(),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for t in temps {
            let th = PointThermo {
                t,
                qv: 2.0e-3,
                p: 70_000.0,
                rho: 0.9,
            };
            let mut post = PointOutcome {
                active: true,
                ..PointOutcome::default()
            };
            fast_sbm_post_clear(
                th,
                &sbm.grids,
                sbm.cfg.dt,
                &mut PointBins::empty(),
                &mut post,
            );
            let want = (post.work.freeze, post.work.breakup);
            assert_eq!(sbm.clear_post.at(t), want, "T = {t}");
        }
    }

    /// A row that is clear and subsaturated over liquid and over ice —
    /// warm, cold, and colder than the collision floor — nucleates
    /// nothing, so neither form may move a state bit, and both mark every
    /// point clear.
    #[test]
    fn pre_row_leaves_a_clear_dry_row_untouched() {
        let temps = [
            291.0, 280.0, 271.0, 262.0, 250.0, 240.0, 230.0, 220.0, 205.0, 196.0,
        ];
        let before = row_state(&temps.map(|t| (t, 0.4, PointBins::empty())));
        let mut outcomes = Vec::new();
        for layout in Layout::ALL {
            let (after, pred, outs) = pre_sweep_on(before.clone(), layout);
            assert_eq!(state_bits(&after), state_bits(&before), "{layout:?}");
            assert!(
                outs.iter().all(|o| o.active && !o.coal_called && o.clear),
                "{layout:?}"
            );
            assert!(!pred.contains(&true), "{layout:?}");
            outcomes.push(outs);
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    /// Most of the test patch is cloud-free, and most of that is clear:
    /// the pre-sweep marks the same points and columns clear in either
    /// layout and under either schedule.
    #[test]
    fn activity_is_sparse_like_conus() {
        let (_, s) = run_version(SbmVersion::Lookup, 1);
        assert!(s.active_points > 0);
        assert!(s.coal_points > 0);
        assert!(
            s.coal_points < s.points / 2,
            "most of the domain is cloud-free: {} of {}",
            s.coal_points,
            s.points
        );
        assert!(
            s.clear_points > s.points / 2 && s.clear_points <= s.active_points - s.coal_points,
            "clear points: {} of {}",
            s.clear_points,
            s.points
        );
        let patch = test_state().patch;
        let (columns, levels) = (patch.compute_columns(), patch.kp.len());
        assert!(s.clear_columns > columns / 2 && s.clear_columns * levels <= s.clear_points);
        for layout in Layout::ALL {
            for sched in [ExecMode::StaticTiles, ExecMode::work_steal()] {
                let mut cfg = SbmConfig::new(SbmVersion::Lookup);
                (cfg.layout, cfg.sched, cfg.workers) = (layout, sched, Some(2));
                let got = FastSbm::new(cfg).step(&mut test_state());
                let counts = |s: &SbmStepStats| (s.clear_points, s.clear_columns);
                assert_eq!(counts(&got), counts(&s), "{layout:?}, {sched:?}");
            }
        }
    }

    /// The clear flag rides in the slot's padding: a patch-sized array
    /// of 152-byte slots cost the sparse dwarf 2 MiB of peak memory.
    #[test]
    fn sweep_slot_stays_96_bytes() {
        assert_eq!(std::mem::size_of::<SweepSlot>(), 96);
    }

    #[test]
    fn microphysics_conserves_water_mass() {
        let mut st = test_state();
        let mut scheme = FastSbm::new(SbmConfig::new(SbmVersion::Lookup));
        let total_water_before: f64 = {
            let qv: f64 = st
                .patch
                .jp
                .iter()
                .flat_map(|j| {
                    let st = &st;
                    st.patch.kp.iter().flat_map(move |k| {
                        st.patch.ip.iter().map(move |i| st.qv.get(i, k, j) as f64)
                    })
                })
                .sum();
            qv + st.total_condensate_sum()
        };
        let mut precip = 0.0;
        for _ in 0..5 {
            precip += scheme.step(&mut st).precip;
        }
        let total_water_after: f64 = {
            let qv: f64 = st
                .patch
                .jp
                .iter()
                .flat_map(|j| {
                    let st = &st;
                    st.patch.kp.iter().flat_map(move |k| {
                        st.patch.ip.iter().map(move |i| st.qv.get(i, k, j) as f64)
                    })
                })
                .sum();
            qv + st.total_condensate_sum()
        };
        // Precip leaves the column as kg/m²; convert to the mixing-ratio
        // budget with ρ·dz (approximate with ρ ≈ 1, dz = 400).
        let leaked = (total_water_before - total_water_after - precip / 400.0).abs();
        assert!(
            leaked / total_water_before < 0.02,
            "water budget drift: {leaked} of {total_water_before} (precip {precip})"
        );
    }

    #[test]
    fn precipitation_eventually_forms() {
        let mut st = test_state();
        let mut scheme = FastSbm::new(SbmConfig::new(SbmVersion::Lookup));
        for _ in 0..30 {
            scheme.step(&mut st);
        }
        assert!(
            st.precip_acc > 0.0,
            "a supersaturated cloud must eventually rain"
        );
        // RAINNC: the per-column accumulation sums to the scalar total
        // and rains where the cloud is (the seeded blob).
        let sum: f64 = st.rainnc.iter().map(|&v| v as f64).sum();
        assert!(
            (sum - st.precip_acc).abs() / st.precip_acc < 1e-4,
            "rainnc sum {sum} vs precip_acc {}",
            st.precip_acc
        );
        let max = st.rainnc.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 0.0);
        // The driest columns got little or nothing.
        let dry = st.rainnc.iter().filter(|&&v| v < max * 1e-3).count();
        assert!(dry > 0, "rain is localized");
    }
}

#[cfg(test)]
mod tile_tests {
    use super::*;
    use crate::scheme::tests as base_tests;

    /// WRF numtiles > 1 must be bitwise identical to one tile — the
    /// shared-memory level of Fig. 1 changes nothing, including for the
    /// baseline once its tables are THREADPRIVATE — in both layouts and
    /// under both tile schedulers (the static one runs its four collision
    /// tiles on threads, not inline), down to every step statistic.
    #[test]
    fn tiled_equals_serial_bitwise() {
        for version in [SbmVersion::Baseline, SbmVersion::Lookup] {
            for layout in Layout::ALL {
                for sched in [ExecMode::work_steal(), ExecMode::StaticTiles] {
                    let what = format!("{version:?} {layout:?} {sched:?}");
                    let mut serial_state = base_tests::test_state();
                    let mut tiled_state = serial_state.clone();

                    let mut cfg = SbmConfig::new(version);
                    cfg.layout = layout;
                    let mut serial = FastSbm::new(cfg);
                    cfg.tiles = 4;
                    cfg.sched = sched;
                    let mut tiled = FastSbm::new(cfg);

                    for _ in 0..3 {
                        let a = serial.step(&mut serial_state);
                        let b = tiled.step(&mut tiled_state);
                        assert_eq!(a, b, "{what}");
                    }
                    assert_eq!(
                        serial_state.tt.as_slice(),
                        tiled_state.tt.as_slice(),
                        "{what}: temperatures must match bitwise"
                    );
                    for c in 0..NTYPES {
                        assert_eq!(
                            serial_state.ff[c].as_slice(),
                            tiled_state.ff[c].as_slice(),
                            "{what}: class {c} bins must match bitwise"
                        );
                    }
                }
            }
        }
    }

    /// `Launcher::run_active` under both schedulers: work stealing calls
    /// the body for exactly the listed units, once each; the static
    /// partition builds no list and covers the whole range.
    #[test]
    fn run_active_queues_the_list_only_under_work_stealing() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let exec = Executor::new(3);
        let active = || (0..1000u32).filter(|i| i % 7 == 0).collect::<Vec<_>>();
        for sched in [ExecMode::WorkSteal, ExecMode::StaticTiles] {
            let launcher = Launcher { sched, exec: &exec };
            let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
            launcher.run_active(1000, active, |u| {
                hits[u as usize].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                let listed = i % 7 == 0 || sched == ExecMode::StaticTiles;
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    u32::from(listed),
                    "{sched:?} {i}"
                );
            }
        }
    }

    /// The static launch on the pool: one contiguous block per worker,
    /// every unit run exactly once — with no units, with more workers
    /// than units, and on a 1-wide pool.
    #[test]
    fn static_partition_covers_all_iterations() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for workers in [1usize, 2, 3, 8] {
            let exec = Executor::new(workers);
            let launcher = Launcher {
                sched: ExecMode::StaticTiles,
                exec: &exec,
            };
            for total in [0u64, 1, 2, 5, 10_000] {
                let chunks = exec.stats().total_chunks();
                let hits: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
                launcher.run(total, |u| {
                    hits[u as usize].fetch_add(1, Ordering::Relaxed);
                });
                let what = format!("{workers} workers, {total} units");
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{what}"
                );
                let block = total.div_ceil(workers as u64).max(1);
                let ran = exec.stats().total_chunks() - chunks;
                assert_eq!(ran, total.div_ceil(block), "{what}: blocks");
                assert!(ran <= workers as u64, "{what}: at most one block a worker");
            }
        }
    }

    /// `Launcher::sweep` under both schedulers: without work stealing —
    /// or on a 1-wide pool — it is a plain loop, every unit in order on
    /// the calling thread; work stealing runs every unit exactly once.
    #[test]
    fn sweep_is_a_plain_loop_except_under_work_stealing() {
        let (exec, serial) = (Executor::new(3), Executor::new(1));
        let me = std::thread::current().id();
        let arms = [
            (ExecMode::StaticTiles, &exec, true),
            (ExecMode::WorkSteal, &serial, true),
            (ExecMode::WorkSteal, &exec, false),
        ];
        for (sched, exec, inline) in arms {
            let launcher = Launcher { sched, exec };
            let seen = Mutex::new(Vec::new());
            launcher.sweep(1000, |u| {
                let here = std::thread::current().id();
                seen.lock().unwrap().push((u, here));
            });
            let mut seen = seen.into_inner().unwrap();
            if inline {
                assert!(seen.iter().all(|&(_, t)| t == me), "{sched:?}: off-thread");
            } else {
                seen.sort_unstable_by_key(|&(u, _)| u);
            }
            let units: Vec<u64> = seen.iter().map(|&(u, _)| u).collect();
            assert_eq!(units, (0..1000).collect::<Vec<_>>(), "{sched:?}");
        }
        assert_eq!(exec.stats().epochs, 1, "only work stealing used the pool");
    }

    /// The sweeps' launch units, as the disjoint-write views rely on
    /// them: row units `0..row_count` and column units `0..columns` each
    /// map onto every compute point exactly once and onto no halo point,
    /// and onto their own predicate/outcome rows and `rainnc`-order column
    /// slots — on a one-point patch, a one-row and a one-column one, and a
    /// ragged patch with halos. (That the launcher runs every unit once
    /// is the test above.)
    #[test]
    fn sweep_units_cover_rows_and_columns_exactly_once() {
        let sbm = FastSbm::new(SbmConfig::new(SbmVersion::OffloadCollapse3));
        for (ni, nk, nj, halo) in [(1, 1, 1, 0), (9, 1, 1, 1), (1, 5, 1, 0), (7, 3, 5, 2)] {
            let what = format!("{ni}x{nk}x{nj} halo {halo}");
            let d = wrf_grid::Domain::new(ni, nk, nj);
            let patch = wrf_grid::two_d_decomposition(d, 1, halo).patches[0];
            // `probe` answers `column_index` while `state` is lent out.
            let (probe, mut state) = (SbmPatchState::new(patch), SbmPatchState::new(patch));
            let mut sweep = SweepArrays::default();
            let (grids, tables, splits) = (&sbm.grids, &sbm.tables, &sbm.splits);
            let v = PatchViews::new(
                grids,
                tables,
                None,
                splits,
                &sbm.clear_post,
                &sbm.cfg,
                &mut state,
                &mut sweep,
            );
            // Hits per memory point: once in the compute region, never
            // in the halo.
            let covered = |hits: &[u8]| {
                let compute: Vec<usize> = v
                    .rows()
                    .flat_map(|(j, k)| patch.ip.iter().map(move |i| (i, k, j)))
                    .map(|(i, k, j)| v.idx3(i, k, j))
                    .collect();
                compute.iter().all(|&at| hits[at] == 1)
                    && hits.iter().map(|&h| h as usize).sum::<usize>() == compute.len()
            };

            let mut hits = vec![0u8; v.tt.len()];
            for row in 0..v.row_count() {
                let (j, k) = v.row(row);
                assert_eq!(v.rows().nth(row), Some((j, k)), "{what}: sweep order");
                for i in patch.ip.iter() {
                    hits[v.idx3(i, k, j)] += 1;
                }
            }
            assert!(covered(&hits), "{what}: row units");
            assert_eq!(v.row_count() * patch.ip.len(), patch.compute_points());

            let mut hits = vec![0u8; v.tt.len()];
            for col in 0..patch.compute_columns() {
                let (i, j) = v.column(col);
                assert!(patch.ip.contains(i) && patch.jp.contains(j), "{what}");
                assert_eq!(probe.column_index(i, j), col, "{what}: rainnc order");
                for k in patch.kp.iter() {
                    hits[v.idx3(i, k, j)] += 1;
                }
            }
            assert!(covered(&hits), "{what}: column units");
        }
    }

    /// The launch units the disjoint-write views rely on: any tile count
    /// (more tiles than j-rows included) covers every compute point
    /// exactly once, and the compacted column list names each active
    /// column once.
    #[test]
    fn many_tiles_cover_exactly() {
        let mut state = base_tests::test_state();
        let p = state.patch;
        for ntiles in [1, 2, 3, 5, 8, 16] {
            let mut hits = vec![0u8; p.jp.len() * p.ip.len()];
            for t in split_patch_into_tiles(&p, ntiles) {
                assert_eq!(t.kt, p.kp, "tiles never split k");
                for j in t.jt.iter() {
                    for i in t.it.iter() {
                        assert!(p.jp.contains(j) && p.ip.contains(i));
                        hits[(j - p.jp.lo) as usize * p.ip.len() + (i - p.ip.lo) as usize] += 1;
                    }
                }
            }
            assert!(hits.iter().all(|&h| h == 1), "{ntiles} tiles");
        }

        let ilen = 5;
        let predicate: Vec<bool> = (0..60)
            .map(|x| x % 7 == 0 || (20..25).contains(&x))
            .collect();
        let columns = compact_active_columns(&predicate, ilen);
        assert!(columns.windows(2).all(|w| w[0] < w[1]), "each column once");
        for (c, col) in predicate.chunks_exact(ilen).enumerate() {
            assert_eq!(columns.contains(&(c as u32)), col.contains(&true));
        }

        let mut cfg = SbmConfig::new(SbmVersion::Lookup);
        cfg.tiles = 16;
        let mut scheme = FastSbm::new(cfg);
        let stats = scheme.step(&mut state);
        assert_eq!(stats.active_points, state.patch.compute_points());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The panel `collapse(3)` launch units at either batch width:
        /// over random predicates, pressure fields and spectra, the batch
        /// list covers every predicate-true point exactly once and never a
        /// predicate-false one; each batch holds at most `width` points of
        /// one level with identical pressure bits, from any of its rows;
        /// the points of a level that share pressure bits fill
        /// `ceil(n / width)` batches (so a level whose pressure differs
        /// from point to point ships single-lane batches, as row order
        /// did); building twice gives the same list. The key slots are the
        /// ones the pre-sweep leaves over the random state, supersaturated
        /// at 280 K. When the patch has two levels the first is emptied
        /// and the second cut down to one point.
        #[test]
        fn batch_list_covers_active_points_exactly_once(
            ni in 1i32..40, nk in 1i32..4, nj in 1i32..4, halo in 0i32..3,
            act10 in 0u64..11, levels in 1u64..5, seed in 1u64..1_000_000,
            layout in 0usize..2,
        ) {
            let d = wrf_grid::Domain::new(ni, nk, nj);
            let patch = wrf_grid::two_d_decomposition(d, 1, halo).patches[0];
            let mut state = SbmPatchState::new(patch);
            let mut rng = seed;
            let mut draw = |n: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            // `levels == 4`: no two points share pressure bits.
            for (at, v) in state.p.as_mut_slice().iter_mut().enumerate() {
                *v = if levels == 4 {
                    90_000.0 - at as f32
                } else {
                    90_000.0 - 1_000.0 * draw(levels) as f32
                };
            }
            // A few occupied bins a point, so the keys differ.
            for slab in state.ff.iter_mut() {
                for bins in slab.as_mut_slice().chunks_exact_mut(NKR) {
                    if draw(3) == 0 {
                        bins[draw(NKR as u64) as usize] = 1.0;
                    }
                }
            }
            for (at, &p) in state.p.as_slice().iter().enumerate() {
                state.tt.as_mut_slice()[at] = 280.0;
                state.rho.as_mut_slice()[at] = crate::thermo::air_density(280.0, p);
                state.qv.as_mut_slice()[at] = crate::thermo::qsat_liquid(280.0, p) * 1.01;
            }
            state.snapshot_t_old();
            let ilen = patch.ip.len();
            let mut predicate: Vec<bool> =
                (0..patch.compute_points()).map(|_| draw(10) < act10).collect();
            let level_of = |idx: usize| (idx / ilen) % patch.kp.len();
            if nk >= 2 {
                let mut kept = false;
                for (idx, on) in predicate.iter_mut().enumerate() {
                    *on &= level_of(idx) >= 2 || (level_of(idx) == 1 && !kept);
                    kept |= *on && level_of(idx) == 1;
                }
            }

            let layout = Layout::ALL[layout];
            let width = layout.width();
            let sbm = FastSbm::new(SbmConfig { layout, ..SbmConfig::new(SbmVersion::OffloadCollapse3) });
            let (mut state, mut sweep) = sweeps_on(state, layout, None);
            let v = PatchViews::new(
                &sbm.grids, &sbm.tables, None, &sbm.splits, &sbm.clear_post, &sbm.cfg,
                &mut state, &mut sweep,
            );
            let mut lists = CoalLists::default();
            build_batch_list(&v, &predicate, &mut lists);
            let first = lists.batches.clone();
            build_batch_list(&v, &predicate, &mut lists);
            proptest::prop_assert_eq!(&first, &lists.batches, "rebuilding moved the list");

            let mut hits = vec![0u8; predicate.len()];
            // (level, pressure bits) → (points, batches).
            let mut groups = std::collections::BTreeMap::<(usize, u32), (usize, usize)>::new();
            for b in &lists.batches {
                let points = &b.points[..b.len as usize];
                proptest::prop_assert!(!points.is_empty() && points.len() <= width);
                let group = (level_of(points[0] as usize), v.p[v.at_point(points[0] as usize)].to_bits());
                for &pt in points {
                    let pt = pt as usize;
                    proptest::prop_assert!(pt < predicate.len(), "point {} leaves the patch", pt);
                    proptest::prop_assert_eq!((level_of(pt), v.p[v.at_point(pt)].to_bits()), group);
                    hits[pt] += 1;
                }
                let g = groups.entry(group).or_default();
                *g = (g.0 + points.len(), g.1 + 1);
            }
            for (idx, (&h, &on)) in hits.iter().zip(&predicate).enumerate() {
                proptest::prop_assert_eq!(h, u8::from(on), "point {}", idx);
            }
            for (group, (points, batches)) in groups {
                proptest::prop_assert_eq!(batches, points.div_ceil(width), "{:?}", group);
                proptest::prop_assert!(levels != 4 || points == 1, "{:?}", group);
            }
            if nk >= 2 {
                let lens_on = |l: usize| -> Vec<u8> {
                    let on = lists.batches.iter().filter(|b| level_of(b.points[0] as usize) == l);
                    on.map(|b| b.len).collect()
                };
                proptest::prop_assert!(lens_on(0).is_empty(), "the emptied level");
                proptest::prop_assert!(matches!(lens_on(1)[..], [] | [1]), "the one-point level");
            }
        }

        /// The panel condensation launch units at either batch width:
        /// over random key slots on random patches, the list names every
        /// point that left a key exactly once and no other, in (key,
        /// index) order, in `ceil(n / width)` batches of which only the
        /// last may be short; building twice gives the same list. The
        /// row-order hook cuts each row's keyed points, in order, into
        /// batches of their own.
        #[test]
        fn cond_batch_list_covers_pending_points_exactly_once(
            ni in 1i32..40, nk in 1i32..4, nj in 1i32..4, halo in 0i32..3,
            pend10 in 0u64..11, seed in 1u64..1_000_000, layout in 0usize..2,
        ) {
            let d = wrf_grid::Domain::new(ni, nk, nj);
            let patch = wrf_grid::two_d_decomposition(d, 1, halo).patches[0];
            let mut rng = seed;
            let mut draw = |n: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            let keys: Vec<u64> = (0..patch.compute_points())
                .map(|_| if draw(10) < pend10 { draw(512) } else { NO_CONDENSATION })
                .collect();
            let mut state = SbmPatchState::new(patch);
            let layout = Layout::ALL[layout];
            let width = layout.width();
            let sbm = FastSbm::new(SbmConfig { layout, ..SbmConfig::new(SbmVersion::OffloadCollapse3) });
            let mut sweep = SweepArrays { cond_key: keys.clone(), ..Default::default() };
            let v = PatchViews::new(
                &sbm.grids, &sbm.tables, None, &sbm.splits, &sbm.clear_post, &sbm.cfg,
                &mut state, &mut sweep,
            );
            let mut lists = CoalLists::default();
            build_cond_batch_list(&v, &mut lists);
            let first = lists.batches.clone();
            build_cond_batch_list(&v, &mut lists);
            proptest::prop_assert_eq!(&first, &lists.batches, "rebuilding moved the list");

            let listed = |batches: &[PanelBatch]| -> Vec<u32> {
                batches.iter().flat_map(|b| b.points[..b.len as usize].to_vec()).collect()
            };
            let mut want: Vec<u32> = (0..keys.len() as u32)
                .filter(|&pt| keys[pt as usize] != NO_CONDENSATION)
                .collect();
            let in_rows = want.clone();
            want.sort_by_key(|&pt| (keys[pt as usize], pt));
            proptest::prop_assert_eq!(listed(&lists.batches), want.clone());
            proptest::prop_assert_eq!(lists.batches.len(), want.len().div_ceil(width));
            let short = lists.batches.iter().filter(|b| usize::from(b.len) < width).count();
            proptest::prop_assert!(short <= 1, "{} short batches", short);

            let ilen = patch.ip.len() as u32;
            lists.cond_order = BatchOrder::Rows;
            build_cond_batch_list(&v, &mut lists);
            proptest::prop_assert_eq!(listed(&lists.batches), in_rows);
            for b in &lists.batches {
                let points = &b.points[..b.len as usize];
                proptest::prop_assert!(points.iter().all(|&pt| pt / ilen == points[0] / ilen));
            }
        }
    }
}
