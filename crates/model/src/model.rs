//! Single-rank functional model.

use crate::config::ModelConfig;
use fsbm_core::meter::PointWork;
use fsbm_core::panels::LANES;
use fsbm_core::point::Floored;
use fsbm_core::scheme::{FastSbm, SbmStepStats};
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use fsbm_core::ExecMode;
use mpi_sim::CommMode;
use prof_sim::Stopwatch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use wrf_cases::ConusCase;
use wrf_dycore::diffusion::horizontal_diffusion;
use wrf_dycore::rk3::{refresh_now, rk3_advect_panel, FieldTag, HaloEngine, Rk3Work};
use wrf_dycore::wind::{storm_wind, StormWind, Wind};
use wrf_exec::Executor;
use wrf_grid::{two_d_decomposition, Field3, Field4, PatchSpec};

/// Per-step report of the functional model.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Advection work split by routine.
    pub rk3: Rk3Work,
    /// Wind-fill work (part of the residual dynamics).
    pub wind_work: PointWork,
    /// Number of 3-D scalars advected this step (θ, vapor, and every
    /// occupied bin: 2 + bins).
    pub scalars_advected: usize,
    /// Microphysics statistics.
    pub sbm: SbmStepStats,
    /// Wall seconds in the dynamics phase.
    pub wall_dynamics: f64,
    /// Wall seconds in the microphysics phase.
    pub wall_sbm: f64,
}

/// Accumulated run report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Steps taken.
    pub steps: usize,
    /// Summed advection work.
    pub rk3: Rk3Work,
    /// Summed microphysics work.
    pub sbm_work: fsbm_core::meter::WorkBreakdown,
    /// Final-step microphysics stats (activity snapshot).
    pub last_sbm: Option<SbmStepStats>,
    /// Total surface precipitation, kg/m² summed over columns.
    pub precip: f64,
    /// Total coal-kernel entries evaluated.
    pub coal_entries: u64,
    /// Bin-tail values stored as `+0.0` over the run
    /// ([`fsbm_core::point::floor_tail`]): each step's transport tally
    /// (`rk3.floored`) then the scheme's (`sbm.floored`: its condensation
    /// relaxes, then sedimentation), in step order. Only the scheme's
    /// share carries a mass.
    pub floored: Floored,
    /// Wall seconds (dynamics, microphysics).
    pub wall: (f64, f64),
    /// Wall seconds inside the collision-stage launches alone.
    pub coal_wall: f64,
    /// Executor/cache summary of the run (workers, steals, activity,
    /// kernel-cache hit rate).
    pub exec: Option<fsbm_core::exec::ExecSummary>,
    /// Modeled halo-communication summary (multi-rank runs only).
    pub comm: Option<crate::parallel::CommStats>,
    /// Modeled device occupancy per step (offloaded runs on a shared
    /// pool only): kernel + staged-transfer seconds derived from the
    /// metered counters, never wall clocks, so the post-run device
    /// replay is deterministic.
    pub device_secs_per_step: Vec<f64>,
    /// Device-sharing summary from the post-run pool replay (offloaded
    /// runs with `cfg.gpus > 0` only).
    pub share: Option<crate::parallel::ShareStats>,
}

impl RunReport {
    /// Folds one step's report into the run totals.
    pub fn absorb(&mut self, s: StepReport) {
        self.steps += 1;
        self.rk3 += s.rk3;
        self.sbm_work += s.sbm.work;
        self.precip += s.sbm.precip;
        self.coal_entries += s.sbm.coal_entries;
        self.floored += s.rk3.floored;
        self.floored += s.sbm.floored;
        self.wall.0 += s.wall_dynamics;
        self.wall.1 += s.wall_sbm;
        self.coal_wall += s.sbm.coal_wall;
        self.last_sbm = Some(s.sbm);
    }
}

/// The occupied-bin masks of `state`, per class: a bin is occupied when
/// any point of the slab (halo included) holds particles in it, so
/// cloud-free bins skip transport. WRF advects all bins unconditionally;
/// the analytic performance model accounts for the full 231+1 scalar
/// cost — the masks only accelerate the functional plane.
pub fn occupied_masks(state: &SbmPatchState) -> [[bool; NKR]; NTYPES] {
    std::array::from_fn(|c| {
        let mut mask = [false; NKR];
        for chunk in state.ff[c].as_slice().chunks_exact(NKR) {
            for (b, &v) in chunk.iter().enumerate() {
                if v > 0.0 {
                    mask[b] = true;
                }
            }
        }
        mask
    })
}

/// Exner-function exponent Rd/cp used to convert between T and θ (also
/// needed by the nest driver to build θ boundary values from parent
/// snapshots).
pub const KAPPA: f32 = 0.2854;

/// A one-patch functional model instance.
pub struct Model {
    /// Configuration.
    pub cfg: ModelConfig,
    /// The generated scenario.
    pub case: ConusCase,
    /// This rank's patch.
    pub patch: PatchSpec,
    /// Prognostic state.
    pub state: SbmPatchState,
    /// Wind fields.
    pub wind: Wind,
    sbm: FastSbm,
    /// The calling thread's transport workspace.
    transport: Transport,
    /// One more workspace per further worker of the scheme's pool, grown
    /// on the first pooled step (empty until then).
    helpers: Vec<Mutex<Transport>>,
    /// The step's transport jobs, refilled every step.
    jobs: JobList,
    /// Model time, s.
    pub time: f32,
}

impl Model {
    /// Builds a single-rank model over the whole (possibly scaled) domain.
    pub fn single_rank(cfg: ModelConfig) -> Self {
        let dd = two_d_decomposition(cfg.case.domain(), 1, cfg.halo);
        Self::for_patch(cfg, dd.patches[0])
    }

    /// Builds a model over one rank's patch.
    pub fn for_patch(cfg: ModelConfig, patch: PatchSpec) -> Self {
        let case = ConusCase::new(cfg.case);
        Self::for_patch_with_case(cfg, patch, case)
    }

    /// Builds a model over one rank's patch with a pre-built scenario
    /// (the nest driver passes the parent case refined into child
    /// coordinates, which `ConusCase::new(cfg.case)` cannot produce).
    /// `cfg.case` must still describe `case.params`' grid.
    pub fn for_patch_with_case(cfg: ModelConfig, patch: PatchSpec, case: ConusCase) -> Self {
        let state = case.init_state(&patch);
        Model {
            cfg,
            case,
            patch,
            state,
            wind: Wind::calm(&patch),
            sbm: FastSbm::new(cfg.scheme_config()),
            transport: Transport::new(&patch),
            helpers: Vec::new(),
            jobs: JobList::default(),
            time: 0.0,
        }
    }

    /// The storm-wind parameters consistent with the configured domain
    /// and the case's circulation (per-case shear is what differentiates
    /// the library cases dynamically; the default `CaseWind::CONUS`
    /// values equal the historical `StormWind::default()`).
    fn wind_params(&self) -> StormWind {
        let w = self.cfg.case.wind;
        StormWind {
            w_max: w.w_max,
            u_surface: w.u_surface,
            u_shear: w.u_shear,
            cell_wavelength: w.cell_wavelength,
            nz: self.cfg.case.nz as f32,
            x_offset: w.x_offset,
            j_offset: w.j_offset,
            j_period: w.j_period,
        }
    }

    /// Advances the model by one step with a doubly-periodic single-patch
    /// halo refresh and this rank's own occupied-bin masks. Under work
    /// stealing the step's transport jobs run on the scheme's pool when it
    /// is wider than the calling thread (each worker with its own
    /// workspace and periodic engine), else one after another on the
    /// calling thread; the bits are the same either way.
    pub fn step(&mut self) -> StepReport {
        let masks = self.occupied_masks();
        self.advance(None, &masks)
    }

    /// The occupied-bin masks of all classes (the scalar set this rank
    /// would advect). Multi-rank drivers OR these across ranks before
    /// stepping so every rank advects the same sequence.
    pub fn occupied_masks(&self) -> [[bool; NKR]; NTYPES] {
        occupied_masks(&self.state)
    }

    /// Advances one step: every scalar selected by `masks` (e.g. the
    /// globally OR-reduced occupied bins) is advected with its halo filled
    /// by `engine` — the periodic wrap, the multi-rank driver's MPI
    /// exchange, the nest driver's parent-interpolated forcing — then the
    /// microphysics runs. The plain loop drives the transport: one job
    /// after another on the calling thread, in job-list order, so an
    /// engine that exchanges messages sees the same sequence on every
    /// rank (only [`Model::step`], the periodic wrap, hands the jobs to
    /// the scheme's pool). `cfg.comm` decides only *when* the interior
    /// tendency runs: blocking after each complete refresh, overlapped on
    /// the scheme's pool between every round's `post` and `finish`. Both
    /// are bitwise-identical given the same exchange data.
    pub fn step_with(
        &mut self,
        engine: &mut dyn HaloEngine,
        masks: &[[bool; NKR]; NTYPES],
    ) -> StepReport {
        self.advance(Some(engine), masks)
    }

    /// One step: the dynamics with `engine`'s halos (`None`: the periodic
    /// wrap), then the microphysics.
    fn advance(
        &mut self,
        engine: Option<&mut dyn HaloEngine>,
        masks: &[[bool; NKR]; NTYPES],
    ) -> StepReport {
        let sw = Stopwatch::start();
        let (rk3, wind_work, scalars_advected) = self.dynamics(engine, masks);
        let wall_dynamics = sw.elapsed_secs();

        let sw = Stopwatch::start();
        let sbm = self.sbm.step(&mut self.state);
        let wall_sbm = sw.elapsed_secs();

        self.time += self.cfg.case.dt;
        StepReport {
            rk3,
            wind_work,
            scalars_advected,
            sbm,
            wall_dynamics,
            wall_sbm,
        }
    }

    /// The dynamics phase of a step: the wind at the current time, then
    /// the step's job list — θ, vapor (with its diffusion) and every bin
    /// `masks` selects, in panels — through RK3 transport: the plain loop
    /// with a caller's `engine`, overlapped on the scheme's pool when
    /// `cfg.comm` says so; for the periodic wrap (`None`), under work
    /// stealing the scheme's pool when it is wider than the calling
    /// thread, else the plain loop. Returns the advection work, the
    /// residual dynamics work (wind fill, θ conversion, diffusion) and the
    /// number of scalars advected.
    fn dynamics(
        &mut self,
        engine: Option<&mut dyn HaloEngine>,
        masks: &[[bool; NKR]; NTYPES],
    ) -> (Rk3Work, PointWork, usize) {
        let sp = self.wind_params();
        let (dx, dz, dt) = (self.cfg.case.dx, self.cfg.case.dz, self.cfg.case.dt);
        let residual = storm_wind(&mut self.wind, &self.patch, &sp, self.time, dx, dz);

        let Model {
            ref cfg,
            ref patch,
            ref wind,
            state: ref mut st,
            ref sbm,
            ref mut transport,
            ref mut helpers,
            ref mut jobs,
            ..
        } = *self;
        // The jobs walk raw buffers side by side: every state field must
        // have the `Field3::for_patch` layout of the workspace lanes.
        let cells = transport.lanes[0].as_slice().len();
        assert!(
            st.tt.as_slice().len() == cells
                && st.p.as_slice().len() == cells
                && st.qv.as_slice().len() == cells
                && st.ff.iter().all(|f| f.as_slice().len() == NKR * cells),
            "state fields must cover the patch's memory extent"
        );
        let advected = jobs.fill(masks);
        let jobs = jobs.as_slice();
        let mut slabs = st.ff.iter_mut().map(Mutex::new);
        let fields = StepFields {
            tt: Mutex::new(&mut st.tt),
            qv: Mutex::new(&mut st.qv),
            ff: std::array::from_fn(|_| slabs.next().expect("one slab per class")),
            p: &st.p,
            wind,
            patch,
            dx,
            dz,
            dt,
        };

        let mut work = (Rk3Work::default(), residual);
        let mut plain = |engine: &mut dyn HaloEngine, overlap: Option<&Executor>| {
            for &job in jobs {
                run_job(job, transport, engine, overlap, &fields, &mut work);
            }
        };
        let pool = sbm.pool();
        let overlap = matches!(cfg.comm, CommMode::Overlapped).then_some(pool);
        match engine {
            Some(engine) => plain(engine, overlap),
            // One dispatch: each index is a worker's slot — its own
            // workspace and engine — claiming jobs in list order until
            // none is left. The cursor publishes nothing (the list is
            // read-only, the state sits behind its locks).
            None if cfg.sched == ExecMode::WorkSteal && pool.workers() > 1 => {
                let workers = pool.workers();
                helpers.resize_with(workers - 1, || Mutex::new(Transport::new(patch)));
                // Each job's advection work lands in its own slot and
                // is folded in list order below, as the plain loop
                // folds it: the floored tally's sums are floating
                // point, so the order they add in must not be the
                // claim order.
                let (cursor, total) = (AtomicUsize::new(0), Mutex::new(&mut work.1));
                let per_job = Mutex::new([Rk3Work::default(); MAX_JOBS]);
                let claim = |ws: &mut Transport| {
                    let mut engine = PeriodicEngine { patch: *patch };
                    let mut residual = PointWork::ZERO;
                    loop {
                        let ix = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&job) = jobs.get(ix) else { break };
                        let mut mine = (Rk3Work::default(), PointWork::ZERO);
                        run_job(job, ws, &mut engine, None, &fields, &mut mine);
                        lock(&per_job)[ix] = mine.0;
                        residual += mine.1;
                    }
                    **lock(&total) += residual;
                };
                let first = Mutex::new(transport);
                pool.run_indexed(workers as u64, Some(1), |slot| match slot as usize {
                    0 => claim(&mut lock(&first)),
                    helper => claim(&mut lock(&helpers[helper - 1])),
                });
                for job in &lock(&per_job)[..jobs.len()] {
                    work.0 += *job;
                }
            }
            None => plain(&mut PeriodicEngine { patch: *patch }, None),
        }
        (work.0, work.1, advected)
    }

    /// The `-gpu=autocompare` analogue of §VII-B: advances one step with
    /// this model's configured version while a baseline copy of the
    /// microphysics runs on a cloned state, and returns the per-step
    /// digit agreement of the worst microphysics field (the paper
    /// reports 6-7 digits per step; our simulated device is bit-exact).
    pub fn step_autocompare(&mut self) -> (StepReport, u32) {
        // Reference: the baseline scheme over the same pre-step state,
        // advanced by the identical dynamics.
        let ref_cfg = ModelConfig {
            version: fsbm_core::scheme::SbmVersion::Baseline,
            ..self.cfg
        };
        let mut reference = Model::for_patch_with_case(ref_cfg, self.patch, self.case.clone());
        reference.state = self.state.clone();
        reference.time = self.time;

        let report = self.step();
        reference.step();
        let diff = wrf_cases::diffwrf::diffwrf(&self.state, &reference.state);
        (
            report,
            diff.min_microphysics_digits().min(diff.min_state_digits()),
        )
    }

    /// Runs `steps` steps, accumulating a report.
    pub fn run(&mut self, steps: usize) -> RunReport {
        let mut rep = RunReport::default();
        for _ in 0..steps {
            let s = self.step();
            rep.absorb(s);
        }
        if let Some(last) = &rep.last_sbm {
            rep.exec = Some(self.sbm.exec_summary(last));
        }
        rep
    }

    /// Executor/cache summary for the given step's stats (see
    /// [`FastSbm::exec_summary`]).
    pub fn exec_summary(&self, stats: &SbmStepStats) -> fsbm_core::exec::ExecSummary {
        self.sbm.exec_summary(stats)
    }
}

/// One unit of a step's transport. Jobs write disjoint scalars and read
/// only the wind and pressure besides, so any worker may run any job, in
/// any order, with the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// θ: convert from T, advect, convert back.
    Theta,
    /// Vapor, in place, then its diffusion.
    Vapor,
    /// The first `len` of `bins`, occupied bins of `class`, as one panel.
    Bins {
        class: usize,
        bins: [usize; LANES],
        len: usize,
    },
}

/// The most jobs a step can hold: θ, vapor and every bin in full panels.
const MAX_JOBS: usize = 2 + NTYPES * NKR.div_ceil(LANES);

/// A step's transport jobs, inline, so refilling the list never
/// allocates.
struct JobList {
    jobs: [Job; MAX_JOBS],
    len: usize,
}

impl Default for JobList {
    fn default() -> Self {
        JobList {
            jobs: [Job::Theta; MAX_JOBS],
            len: 0,
        }
    }
}

impl JobList {
    /// Refills the list with a step's transport in the plain loop's
    /// order — θ, vapor, then class by class the bins `masks` selects,
    /// ascending, in panels of up to `LANES` — and returns the number of
    /// scalars it advects.
    fn fill(&mut self, masks: &[[bool; NKR]; NTYPES]) -> usize {
        self.len = 0;
        self.push(Job::Theta);
        self.push(Job::Vapor);
        let mut scalars = 2;
        for (class, mask) in masks.iter().enumerate() {
            let (mut occupied, mut count) = ([0usize; NKR], 0);
            for b in (0..NKR).filter(|&b| mask[b]) {
                occupied[count] = b;
                count += 1;
            }
            for panel in occupied[..count].chunks(LANES) {
                let mut bins = [0; LANES];
                bins[..panel.len()].copy_from_slice(panel);
                let len = panel.len();
                self.push(Job::Bins { class, bins, len });
            }
            scalars += count;
        }
        scalars
    }

    fn push(&mut self, job: Job) {
        self.jobs[self.len] = job;
        self.len += 1;
    }

    fn as_slice(&self) -> &[Job] {
        &self.jobs[..self.len]
    }
}

/// The state a step's jobs share. Each field a job writes sits behind
/// its own lock, held for a gather, a scatter or a conversion — and by
/// the vapor job, which advances vapor in place, for the whole job. Jobs
/// write disjoint scalars, so the locks order access, never arithmetic.
struct StepFields<'a> {
    tt: Mutex<&'a mut Field3<f32>>,
    qv: Mutex<&'a mut Field3<f32>>,
    ff: [Mutex<&'a mut Field4<f32>>; NTYPES],
    p: &'a Field3<f32>,
    wind: &'a Wind,
    patch: &'a PatchSpec,
    dx: f32,
    dz: f32,
    dt: f32,
}

/// Runs one job in the workspace `ws`, its halos refreshed by `engine`,
/// and adds its advection and residual work to `rk3` and `residual`.
fn run_job(
    job: Job,
    ws: &mut Transport,
    engine: &mut dyn HaloEngine,
    overlap: Option<&Executor>,
    f: &StepFields<'_>,
    (rk3, residual): &mut (Rk3Work, PointWork),
) {
    let Transport {
        lanes,
        scratch,
        tend,
    } = ws;
    // `dy` equals `dx` everywhere in this model.
    let mut advect = |engine: &mut dyn HaloEngine,
                      lanes: &mut [Field3<f32>],
                      tags: &[FieldTag],
                      positive: bool| {
        rk3_advect_panel(
            lanes, tags, f.wind, f.patch, f.dx, f.dx, f.dz, f.dt, positive, scratch, tend, engine,
            overlap,
        )
    };
    match job {
        // Potential temperature: WRF transports θ (conserved under
        // advection), not T. Convert, advect, convert back — over the
        // whole memory extent, so T's halo follows θ's.
        Job::Theta => {
            let theta = &mut lanes[..1];
            let p = f.p.as_slice();
            for ((th, &t), &p) in (theta[0].as_mut_slice().iter_mut())
                .zip(lock(&f.tt).as_slice())
                .zip(p)
            {
                *th = t * (100_000.0 / p).powf(KAPPA);
            }
            // θ is the one scalar without positive-definite clipping.
            *rk3 += advect(engine, theta, &[FieldTag::Theta], false);
            for ((t, &th), &p) in (lock(&f.tt).as_mut_slice().iter_mut())
                .zip(theta[0].as_slice())
                .zip(p)
            {
                *t = th * (p / 100_000.0).powf(KAPPA);
            }
            // (3 flops, 3 memory ops) per memory point for each conversion.
            let converted = 2 * 3 * f.patch.memory_points() as u64;
            residual.fm(converted, converted);
        }
        Job::Vapor => {
            let qv: &mut Field3<f32> = &mut lock(&f.qv);
            *rk3 += advect(engine, std::slice::from_mut(qv), &[FieldTag::Qv], true);
            // Weak second-order horizontal diffusion on the moisture field
            // (WRF diff_opt=1-style hygiene on the kinematic core).
            engine.select(FieldTag::Qv);
            refresh_now(engine, qv);
            horizontal_diffusion(qv, f.patch, 1.0e4, f.dx, f.dt, residual);
        }
        // Every occupied hydrometeor bin is a transported scalar: a panel
        // is gathered from and scattered to the class slab in one pass
        // over it — the whole memory extent, so the slab's halo follows
        // the lanes'. Bins no job names are never touched.
        Job::Bins { class, bins, len } => {
            let (bins, lanes) = (&bins[..len], &mut lanes[..len]);
            let mut tags = [FieldTag::Bin(class, 0); LANES];
            for (tag, &b) in tags.iter_mut().zip(bins) {
                *tag = FieldTag::Bin(class, b);
            }
            for (point, all) in lock(&f.ff[class]).as_slice().chunks_exact(NKR).enumerate() {
                for (lane, &b) in lanes.iter_mut().zip(bins) {
                    lane.as_mut_slice()[point] = all[b];
                }
            }
            *rk3 += advect(engine, lanes, &tags[..len], true);
            for (point, all) in (lock(&f.ff[class]).as_mut_slice())
                .chunks_exact_mut(NKR)
                .enumerate()
            {
                for (lane, &b) in lanes.iter().zip(bins) {
                    all[b] = lane.as_slice()[point];
                }
            }
        }
    }
}

/// Locks `m`, ignoring poison: a job that panics propagates out of its
/// step, the state locks live for that step only, and a workspace is
/// scratch that every job writes before it reads.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The transport workspace: up to `LANES` panel lanes, each with a
/// provisional field and a tendency — every `Field3` scalar transport
/// needs besides the state, allocated once per worker.
struct Transport {
    lanes: Vec<Field3<f32>>,
    scratch: Vec<Field3<f32>>,
    tend: Vec<Field3<f32>>,
}

impl Transport {
    fn new(patch: &PatchSpec) -> Self {
        let fields = || (0..LANES).map(|_| Field3::for_patch(patch)).collect();
        Transport {
            lanes: fields(),
            scratch: fields(),
            tend: fields(),
        }
    }
}

/// The doubly-periodic single-patch boundary: each round wraps the
/// field onto itself in place (no pack buffers), deferred to `finish`
/// so overlapped interior compute sees stale halos exactly as with real
/// in-flight messages.
struct PeriodicEngine {
    patch: PatchSpec,
}

impl HaloEngine for PeriodicEngine {
    fn rounds(&self) -> usize {
        2
    }

    fn post(&mut self, _round: usize, _field: &Field3<f32>) {}

    fn finish(&mut self, round: usize, f: &mut Field3<f32>) {
        let p = &self.patch;
        let halo = p.halo as usize;
        if round == 0 {
            // i-direction wrap: within each row, the `halo` cells inside
            // one compute edge onto the halo run beyond the other.
            let lo = (p.ip.lo - f.ispan().lo) as usize;
            let end = lo + p.ip.len();
            for j in p.jp.iter() {
                for k in p.kp.iter() {
                    let row = f.row_mut(k, j);
                    row.copy_within(end - halo..end, lo - halo);
                    row.copy_within(lo..lo + halo, end);
                }
            }
        } else {
            // j-direction wrap of whole rows: the full memory i-range, so
            // corners ride along.
            let (i_lo, ni) = (f.ispan().lo, f.ispan().len());
            for k in p.kp.iter() {
                for h in 1..=p.halo {
                    for (to, from) in [
                        (p.jp.lo - h, p.jp.hi - h + 1),
                        (p.jp.hi + h, p.jp.lo + h - 1),
                    ] {
                        let (to, from) = (f.flat_index(i_lo, k, to), f.flat_index(i_lo, k, from));
                        f.as_mut_slice().copy_within(from..from + ni, to);
                    }
                }
            }
        }
    }

    fn absorb(&mut self, _work: PointWork) {}
}

/// Doubly-periodic halo refresh for a single patch: the periodic
/// engine's two rounds, back-to-back.
pub fn periodic_refresh(p: PatchSpec) -> impl FnMut(&mut Field3<f32>) {
    let mut engine = PeriodicEngine { patch: p };
    move |f: &mut Field3<f32>| refresh_now(&mut engine, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::scheme::{Layout, SbmVersion};
    use fsbm_core::ExecMode;
    use wrf_cases::CaseKind;

    fn tiny(version: SbmVersion) -> Model {
        Model::single_rank(ModelConfig::functional(version, 0.05, 10))
    }

    /// The tiny case with the production scheme on a `workers`-wide pool,
    /// which `Model::step` shares for its transport jobs.
    fn pooled(workers: usize) -> Model {
        let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse3, 0.05, 10);
        cfg.device_workers = Some(workers);
        Model::single_rank(cfg)
    }

    /// What one step leaves, bit for bit: every digested field's checksum
    /// and the accumulated precipitation's bits (a long run can reach
    /// NaN, which the digest's float summaries never equal), then the
    /// dynamics' metering (advection, residual, scalars advected).
    type StepBits = (Vec<u64>, u64, Rk3Work, PointWork, usize);

    /// The supercell gate case under the production scheme, `sched` on
    /// `workers` workers, stepped `steps` times from a cold start: every
    /// step's bits, and the epochs its pool ran.
    fn supercell_steps(sched: ExecMode, workers: usize, steps: usize) -> (Vec<StepBits>, u64) {
        let version = SbmVersion::OffloadCollapse3;
        let cfg = ModelConfig::case_gate(CaseKind::Supercell, version, sched, workers);
        let mut m = Model::single_rank(cfg);
        let bits = (0..steps)
            .map(|_| {
                let s = m.step();
                let fields = m.state.digest().fields.iter().map(|f| f.checksum).collect();
                let precip = m.state.precip_acc.to_bits();
                (fields, precip, s.rk3, s.wind_work, s.scalars_advected)
            })
            .collect();
        (bits, m.sbm.pool().stats().epochs)
    }

    #[test]
    fn model_steps_and_rains() {
        let mut m = tiny(SbmVersion::Lookup);
        let rep = m.run(8);
        assert_eq!(rep.steps, 8);
        assert!(rep.coal_entries > 0, "storms must collide");
        assert!(rep.rk3.tend.flops > 0);
        assert!(rep.last_sbm.as_ref().unwrap().active_points > 0);
        assert!(m.time > 39.0);
    }

    #[test]
    fn only_occupied_bins_are_advected() {
        let mut m = tiny(SbmVersion::Lookup);
        let s = m.step();
        // 2 (θ and qv) + occupied bins; far fewer than the full 233.
        assert!(s.scalars_advected > 5);
        assert!(s.scalars_advected < 120, "advected {}", s.scalars_advected);
    }

    #[test]
    fn storms_convert_vapor_to_condensate() {
        let mut m = tiny(SbmVersion::Lookup);
        let cond0 = m.state.total_condensate_sum();
        m.run(6);
        let cond1 = m.state.total_condensate_sum();
        // The storm stays within physical bounds: clouds neither vanish
        // nor blow up, and the water that leaves shows up as precip.
        assert!(
            cond1 > 0.3 * cond0 && cond1 < 3.0 * cond0,
            "condensate must stay sane: {cond0} -> {cond1}"
        );
        assert!(m.state.precip_acc >= 0.0);
    }

    #[test]
    fn offloaded_versions_run_in_model() {
        for v in [SbmVersion::OffloadCollapse2, SbmVersion::OffloadCollapse3] {
            let mut m = tiny(v);
            let rep = m.run(3);
            assert!(rep.coal_entries > 0, "{v:?}");
            assert!(rep.last_sbm.unwrap().coal_iters > 0, "{v:?}");
            let spec = v.kernel_spec().expect("offloaded");
            assert_eq!(
                spec.collapse,
                if v == SbmVersion::OffloadCollapse2 {
                    2
                } else {
                    3
                }
            );
        }
    }

    /// The ledger's `sbm_dense` snapshot — the supercell gate case after
    /// eight steps — as the panel launches see it: at least half of the
    /// collision lane slots swept are some point's own cells (row-order
    /// batches ran 0.26 full on this state, coherent ones 0.63), at least
    /// 0.95 of the condensation relax slots belong to a lane the relax
    /// was called for (row-order panels ran 0.46), and the executor
    /// summary carries the same figures.
    #[test]
    fn supercell_spinup_runs_its_lanes_coherently() {
        let (version, sched) = (
            SbmVersion::OffloadCollapse3,
            fsbm_core::ExecMode::work_steal(),
        );
        let cfg = ModelConfig::case_gate(wrf_cases::CaseKind::Supercell, version, sched, 2);
        let mut m = Model::single_rank(cfg);
        let rep = m.run(8);
        let sbm = rep.last_sbm.expect("eight steps");
        assert!(sbm.coal_points > 1000 && sbm.lane_cells > 0);
        assert!(
            sbm.lane_efficiency() >= 0.5,
            "lanes ran {:.3} full ({} of {} slots)",
            sbm.lane_efficiency(),
            sbm.lane_cells,
            sbm.lane_slots
        );
        assert!(
            sbm.cond_lane_efficiency() >= 0.95,
            "relaxes ran {:.3} full ({} of {} slots)",
            sbm.cond_lane_efficiency(),
            sbm.cond_cells,
            sbm.cond_slots
        );
        let exec = rep.exec.expect("summary");
        assert_eq!(exec.lane_efficiency, sbm.lane_efficiency());
        assert_eq!(exec.cond_efficiency, sbm.cond_lane_efficiency());
    }

    /// The periodic source through both modes: interior slabs between
    /// `post` and `finish`, on the model's own 2-wide pool, must
    /// reproduce `Model::step` bit for bit.
    #[test]
    fn periodic_engine_overlapped_matches_step_bitwise() {
        let mut blocking = pooled(2);
        let mut overlapped = pooled(2);
        overlapped.cfg.comm = CommMode::Overlapped;
        let mut engine = PeriodicEngine {
            patch: overlapped.patch,
        };
        let mut rained = 0u64;
        for step in 0..4 {
            let want = blocking.step();
            let masks = overlapped.occupied_masks();
            let got = overlapped.step_with(&mut engine, &masks);
            assert_eq!(got.rk3, want.rk3, "step {step}");
            assert_eq!(got.scalars_advected, want.scalars_advected, "step {step}");
            assert_eq!(
                overlapped.state.digest(),
                blocking.state.digest(),
                "step {step}"
            );
            rained += want.sbm.coal_entries;
        }
        assert!(rained > 0, "the case must rain for bins to be advected");
        let epochs = |m: &Model| m.sbm.pool().stats().epochs;
        assert_eq!(overlapped.sbm.pool().workers(), 2);
        assert!(
            epochs(&overlapped) > epochs(&blocking),
            "the hidden rows ran on the model's pool"
        );
    }

    /// One pool per model, as wide as its collision launch: a CPU version
    /// on one tile gets a 1-wide pool whatever `device_workers` and the
    /// comm mode say; an offloaded one gets `device_workers` under either
    /// schedule.
    #[test]
    fn pool_width_follows_the_collision_launch() {
        for (version, sched, width) in [
            (SbmVersion::Lookup, ExecMode::work_steal(), 1),
            (SbmVersion::Lookup, ExecMode::StaticTiles, 1),
            (SbmVersion::OffloadCollapse3, ExecMode::work_steal(), 4),
            (SbmVersion::OffloadCollapse3, ExecMode::StaticTiles, 4),
        ] {
            let mut cfg = ModelConfig::functional(version, 0.05, 10);
            cfg.sched = sched;
            cfg.comm = CommMode::Overlapped;
            assert_eq!(cfg.device_workers, Some(4));
            let mut m = Model::single_rank(cfg);
            let s = m.step();
            let what = format!("{version:?} {sched:?}");
            assert_eq!(m.exec_summary(&s.sbm).workers, width, "{what}");
        }
    }

    /// A mask with holes. Only the selected bins move: every other bin
    /// keeps its bits over the whole memory extent (halo cells, `-0.0`s
    /// and all), and the panel the four selected bins ride reproduces
    /// transport one scalar at a time through the single-scalar driver,
    /// in both comm modes of the plain loop and on the scheme's pool.
    #[test]
    fn masked_out_bins_keep_their_bits_and_panels_match_single_scalars() {
        use wrf_dycore::rk3_advect_scalar;

        let mut m = tiny(SbmVersion::Lookup);
        let p = m.patch;
        let occupied = [3usize, 4, 9, 31];
        let mut masks = [[false; NKR]; NTYPES];
        for b in occupied {
            masks[2][b] = true;
        }
        // Something to move in the selected bins, something that must
        // stay put in their neighbours and in an unselected class.
        let mut n = 0u32;
        for (c, bins) in [(2, &[3usize, 4, 5, 9, 31][..]), (5, &[0, 7][..])] {
            for all in m.state.ff[c].as_mut_slice().chunks_exact_mut(NKR) {
                for &b in bins {
                    n = n.wrapping_mul(1664525).wrapping_add(1013904223);
                    all[b] = (n >> 20) as f32 * 1.0e3;
                }
                all[10] = -0.0;
            }
        }
        let corner = m.state.ff[2].bin_slice_mut(p.im.lo, p.kp.lo, p.jm.lo);
        (corner[5], corner[6]) = (-0.0, 123.5);
        let before = m.state.clone();

        // One scalar at a time: per-element gather, the one-lane
        // driver, per-element scatter.
        let mut r = tiny(SbmVersion::Lookup);
        r.state = before.clone();
        let (dx, dz, dt) = (r.cfg.case.dx, r.cfg.case.dz, r.cfg.case.dt);
        let sp = r.wind_params();
        storm_wind(&mut r.wind, &p, &sp, r.time, dx, dz);
        let (mut scalar, mut scratch, mut tend) = (
            Field3::for_patch(&p),
            Field3::for_patch(&p),
            Field3::for_patch(&p),
        );
        let mut refresh = periodic_refresh(p);
        let mut want = Rk3Work::default();
        let mut one_at_a_time =
            |st: &mut SbmPatchState,
             positive: bool,
             get: &dyn Fn(&SbmPatchState, i32, i32, i32) -> f32,
             set: &dyn Fn(&mut SbmPatchState, i32, i32, i32, f32)| {
                for j in p.jm.iter() {
                    for k in p.km.iter() {
                        for i in p.im.iter() {
                            scalar.set(i, k, j, get(st, i, k, j));
                        }
                    }
                }
                want += rk3_advect_scalar(
                    &mut scalar,
                    &r.wind,
                    &p,
                    dx,
                    dx,
                    dz,
                    dt,
                    positive,
                    &mut scratch,
                    &mut tend,
                    &mut refresh,
                );
                for j in p.jm.iter() {
                    for k in p.km.iter() {
                        for i in p.im.iter() {
                            set(st, i, k, j, scalar.get(i, k, j));
                        }
                    }
                }
            };
        one_at_a_time(
            &mut r.state,
            false,
            &|st, i, k, j| st.tt.get(i, k, j) * (100_000.0 / st.p.get(i, k, j)).powf(KAPPA),
            &|st, i, k, j, th| {
                let t = th * (st.p.get(i, k, j) / 100_000.0).powf(KAPPA);
                st.tt.set(i, k, j, t);
            },
        );
        one_at_a_time(
            &mut r.state,
            true,
            &|st, i, k, j| st.qv.get(i, k, j),
            &|st, i, k, j, v| st.qv.set(i, k, j, v),
        );
        periodic_refresh(p)(&mut r.state.qv);
        let mut unmetered = PointWork::ZERO;
        horizontal_diffusion(&mut r.state.qv, &p, 1.0e4, dx, dt, &mut unmetered);
        for b in occupied {
            one_at_a_time(
                &mut r.state,
                true,
                &|st, i, k, j| st.ff[2].bin_slice(i, k, j)[b],
                &|st, i, k, j, v| st.ff[2].bin_slice_mut(i, k, j)[b] = v,
            );
        }

        for mode in ["blocking", "overlapped", "pooled"] {
            let mut m = match mode {
                "blocking" => tiny(SbmVersion::Lookup),
                _ => pooled(2),
            };
            if mode == "overlapped" {
                m.cfg.comm = CommMode::Overlapped;
            }
            m.state = before.clone();
            let mut engine = PeriodicEngine { patch: p };
            let (rk3, _, advected) = match mode {
                "pooled" => m.dynamics(None, &masks),
                _ => m.dynamics(Some(&mut engine), &masks),
            };
            let epochs = m.sbm.pool().stats().epochs;
            let want_epochs = match mode {
                "blocking" => 0..=0,
                "pooled" => 1..=1,
                _ => 2..=u64::MAX,
            };
            assert!(want_epochs.contains(&epochs), "{mode}: {epochs} epochs");
            assert_eq!(advected, 2 + occupied.len(), "{mode}");
            assert_eq!(rk3, want, "{mode}");
            for (c, mask) in masks.iter().enumerate() {
                let (now, was) = (m.state.ff[c].as_slice(), before.ff[c].as_slice());
                for (point, (now, was)) in now.chunks(NKR).zip(was.chunks(NKR)).enumerate() {
                    for b in (0..NKR).filter(|&b| !mask[b]) {
                        assert_eq!(
                            now[b].to_bits(),
                            was[b].to_bits(),
                            "class {c} bin {b} point {point}"
                        );
                    }
                }
            }
            assert_ne!(m.state.ff[2], before.ff[2], "the selected bins moved");
            assert_eq!(m.state.digest(), r.state.digest(), "{mode}");
        }
    }

    /// `state` is a public field: one built for another grid is refused
    /// up front, not truncated by the slice-wise passes — ahead of the
    /// pooled dispatch (checked here) and of the plain loop (the panic the
    /// test expects).
    #[test]
    #[should_panic(expected = "memory extent")]
    fn state_of_another_shape_is_rejected() {
        let taller = ModelConfig::functional(SbmVersion::Lookup, 0.05, 12);
        let mut m = pooled(2);
        m.state = Model::single_rank(taller).state;
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.step()));
        let payload = refused.expect_err("the pooled dispatch must refuse it");
        let text = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(text.contains("memory extent"), "pooled: {text:?}");
        let mut m = tiny(SbmVersion::Lookup);
        m.state = Model::single_rank(taller).state;
        m.step();
    }

    /// The job list of random masks: θ then vapor, then every selected
    /// (class, bin) exactly once, class by class and ascending — the
    /// plain loop's order — in one-class panels of up to `LANES`, full
    /// but for each class's last.
    #[test]
    fn job_list_covers_each_selected_bin_once() {
        let mut list = JobList::default();
        let mut n = 7u64;
        for round in 0..200 {
            let mut masks = [[false; NKR]; NTYPES];
            for mask in masks.iter_mut() {
                for bin in mask.iter_mut() {
                    n = n
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Empty, full and everything between.
                    *bin = match round % 4 {
                        0 => false,
                        1 => true,
                        _ => (n >> 33).is_multiple_of(3),
                    };
                }
            }
            let scalars = list.fill(&masks);
            let jobs = list.as_slice();
            assert_eq!(jobs[..2], [Job::Theta, Job::Vapor]);
            let mut listed = Vec::new();
            for (at, job) in jobs[2..].iter().enumerate() {
                let Job::Bins { class, bins, len } = *job else {
                    panic!("θ and vapor appear once each: {job:?}");
                };
                assert!((1..=LANES).contains(&len), "{job:?}");
                let last_of_class = match jobs.get(at + 3) {
                    Some(Job::Bins { class: next, .. }) => *next != class,
                    _ => true,
                };
                assert!(len == LANES || last_of_class, "{job:?}");
                listed.extend(bins[..len].iter().map(|&b| (class, b)));
            }
            let selected: Vec<_> = (0..NTYPES)
                .flat_map(|c| (0..NKR).map(move |b| (c, b)))
                .filter(|&(c, b)| masks[c][b])
                .collect();
            assert_eq!(listed, selected, "round {round}");
            assert_eq!(scalars, 2 + selected.len());
        }
    }

    /// The supercell gate case for eight steps with the pool running the
    /// dynamics (work stealing at 2 and 3 workers) and without (static
    /// tiles — the ledger's oracle — and one worker): every step's field
    /// checksums, advection work, wind work and scalar count are the
    /// same.
    #[test]
    fn pooled_dynamics_matches_the_plain_loop_bitwise() {
        let steps = 8;
        let (want, epochs) = supercell_steps(ExecMode::StaticTiles, 1, steps);
        assert!(
            epochs <= steps as u64,
            "static tiles: the collision launch alone"
        );
        assert!(want[steps - 1].4 > want[0].4, "the storm must grow bins");
        let mut scheme_epochs = 0;
        for workers in [1, 2, 3] {
            let (got, epochs) = supercell_steps(ExecMode::work_steal(), workers, steps);
            // One worker: the scheme's launches alone (one that finds no
            // work dispatches nothing). With a helper to share them, one
            // dynamics dispatch a step more.
            if workers == 1 {
                scheme_epochs = epochs;
            } else {
                assert_eq!(epochs, scheme_epochs + steps as u64, "{workers} workers");
            }
            for (step, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "{workers} workers, step {step}");
            }
        }
    }

    /// Two job shapes on one pool every step — the dynamics dispatch, then
    /// the scheme's five launches — back to back: every step's bits at 2
    /// and 3 workers equal the one-worker run's. 48 steps under
    /// `CI_NIGHTLY` (`./ci.sh pool_stress`), 8 otherwise.
    #[test]
    fn pooled_dynamics_every_step_matches_one_worker() {
        let nightly = std::env::var_os("CI_NIGHTLY").is_some_and(|v| !v.is_empty());
        let steps = if nightly { 48 } else { 8 };
        let (want, scheme_epochs) = supercell_steps(ExecMode::work_steal(), 1, steps);
        assert_ne!(want[0].0, want[steps - 1].0, "the state must evolve");
        for workers in [2, 3] {
            let (got, epochs) = supercell_steps(ExecMode::work_steal(), workers, steps);
            let dispatches = steps as u64;
            assert_eq!(epochs, scheme_epochs + dispatches, "{workers} workers");
            for (step, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "{workers} workers, step {step}");
            }
        }
    }

    /// The scheme's clear-air paths under the pool: the ledger's sparse
    /// state (`ShallowConvection` at scale 0.12, gate levels, spun up one
    /// model step, about a tenth of it cloudy), then scheme steps back to
    /// back at 2 and 3 workers in lockstep with 1. Every step's whole
    /// `SbmStepStats` (the collision wall clock aside) and every bit of
    /// the state are the same. 40 steps under `CI_NIGHTLY`
    /// (`./ci.sh pool_stress`), 4 otherwise.
    #[test]
    fn pool_stress_clear_air_matches_one_worker() {
        let nightly = std::env::var_os("CI_NIGHTLY").is_some_and(|v| !v.is_empty());
        let steps = if nightly { 40 } else { 4 };
        let kind = CaseKind::ShallowConvection;
        let mut cfg = ModelConfig::case_gate(
            kind,
            SbmVersion::OffloadCollapse3,
            ExecMode::work_steal(),
            1,
        );
        cfg.case = kind.params(0.12);
        cfg.case.nz = ModelConfig::GATE_NZ;
        cfg.layout = Layout::PanelSoa;
        let mut m = Model::single_rank(cfg);
        m.step();
        let mut runs: Vec<(FastSbm, SbmPatchState)> = [1, 2, 3]
            .map(|workers| {
                let mut scheme = cfg.scheme_config();
                scheme.workers = Some(workers);
                (FastSbm::new(scheme), m.state.clone())
            })
            .into();
        let bits = |st: &SbmPatchState| -> Vec<u32> {
            let fields = [&st.tt, &st.qv].into_iter().map(|f| f.as_slice());
            let slabs = st.ff.iter().map(|f| f.as_slice());
            fields
                .chain(slabs)
                .chain([&st.rainnc[..]])
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        for step in 0..steps {
            let stats: Vec<SbmStepStats> = runs
                .iter_mut()
                .map(|(scheme, st)| SbmStepStats {
                    coal_wall: 0.0,
                    ..scheme.step(st)
                })
                .collect();
            let (want, rest) = stats.split_first().expect("three runs");
            assert!(
                want.coal_points > 0 && want.coal_points * 4 < want.points,
                "step {step}: mostly clear, not empty: {} of {}",
                want.coal_points,
                want.points
            );
            let want_bits = bits(&runs[0].1);
            for (workers, (got, (_, st))) in (2..).zip(rest.iter().zip(&runs[1..])) {
                assert_eq!(got, want, "{workers} workers, step {step}: stats");
                assert!(
                    bits(st) == want_bits,
                    "{workers} workers, step {step}: state"
                );
                assert_eq!(
                    st.precip_acc.to_bits(),
                    runs[0].1.precip_acc.to_bits(),
                    "{workers} workers, step {step}: precip_acc"
                );
            }
        }
    }

    #[test]
    fn periodic_refresh_wraps_both_dims() {
        let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.05, 6);
        let dd = two_d_decomposition(cfg.case.domain(), 1, cfg.halo);
        let p = dd.patches[0];
        let mut f = Field3::for_patch(&p);
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                f.set(i, 1, j, (i * 100 + j) as f32);
            }
        }
        periodic_refresh(p)(&mut f);
        // West halo mirrors the east edge.
        assert_eq!(f.get(p.ip.lo - 1, 1, p.jp.lo), f.get(p.ip.hi, 1, p.jp.lo));
        // South halo mirrors the north edge.
        assert_eq!(f.get(p.ip.lo, 1, p.jp.lo - 1), f.get(p.ip.lo, 1, p.jp.hi));
        // Corner propagated.
        assert_eq!(
            f.get(p.ip.lo - 1, 1, p.jp.lo - 1),
            f.get(p.ip.hi, 1, p.jp.hi)
        );
    }
}
