//! Single-rank functional model.

use crate::config::ModelConfig;
use fsbm_core::meter::PointWork;
use fsbm_core::scheme::{FastSbm, SbmConfig, SbmStepStats};
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use prof_sim::Stopwatch;
use wrf_cases::ConusCase;
use wrf_dycore::diffusion::horizontal_diffusion;
use wrf_dycore::rk3::{
    refresh_now, rk3_advect_scalar, rk3_advect_scalar_overlapped, FieldTag, HaloEngine, Rk3Work,
};
use wrf_dycore::wind::{storm_wind, StormWind, Wind};
use wrf_exec::Executor;
use wrf_grid::{two_d_decomposition, Field3, PatchSpec};

/// Per-step report of the functional model.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Advection work split by routine.
    pub rk3: Rk3Work,
    /// Wind-fill work (part of the residual dynamics).
    pub wind_work: PointWork,
    /// Number of 3-D scalars advected this step (vapor + occupied bins).
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
        self.wall.0 += s.wall_dynamics;
        self.wall.1 += s.wall_sbm;
        self.coal_wall += s.sbm.coal_wall;
        self.last_sbm = Some(s.sbm);
    }
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
    scratch: Field3<f32>,
    scratch2: Field3<f32>,
    tendency: Field3<f32>,
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
        let mut sbm_cfg = SbmConfig::new(cfg.version);
        sbm_cfg.dt = cfg.case.dt;
        sbm_cfg.dz = cfg.case.dz;
        sbm_cfg.workers = cfg.device_workers;
        sbm_cfg.tiles = cfg.tiles.max(1);
        sbm_cfg.sched = cfg.sched;
        sbm_cfg.cached_kernels = cfg.cached_kernels;
        sbm_cfg.profile_coal = cfg.profile_coal;
        sbm_cfg.layout = cfg.layout;
        Model {
            cfg,
            case,
            patch,
            state,
            wind: Wind::calm(&patch),
            sbm: FastSbm::new(sbm_cfg),
            scratch: Field3::for_patch(&patch),
            scratch2: Field3::for_patch(&patch),
            tendency: Field3::for_patch(&patch),
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

    /// Occupied-bin mask for one class (any point holds particles in
    /// that bin), so cloud-free bins skip transport. WRF advects all
    /// bins unconditionally; the analytic performance model accounts for
    /// the full 231+1 scalar cost — this mask only accelerates the
    /// functional plane.
    fn occupied_bins(&self, class: usize) -> [bool; NKR] {
        let mut mask = [false; NKR];
        for chunk in self.state.ff[class].as_slice().chunks_exact(NKR) {
            for (b, &v) in chunk.iter().enumerate() {
                if v > 0.0 {
                    mask[b] = true;
                }
            }
        }
        mask
    }

    /// Advances the model by one step with a doubly-periodic single-patch
    /// halo refresh and this rank's own occupied-bin masks.
    pub fn step(&mut self) -> StepReport {
        let masks = self.occupied_masks();
        self.step_with(&mut PeriodicEngine { patch: self.patch }, None, &masks)
    }

    /// The occupied-bin masks of all classes (the scalar set this rank
    /// would advect). Multi-rank drivers OR these across ranks before
    /// stepping so every rank advects the same sequence.
    pub fn occupied_masks(&self) -> [[bool; NKR]; NTYPES] {
        std::array::from_fn(|c| self.occupied_bins(c))
    }

    /// Advances one step: every scalar selected by `masks` (e.g. the
    /// globally OR-reduced occupied bins) is advected with its halo filled
    /// by `engine` — the periodic wrap, the multi-rank driver's MPI
    /// exchange, the nest driver's parent-interpolated forcing — then the
    /// microphysics runs. `overlap` decides only *when* the interior
    /// tendency runs: `None` after each complete refresh, `Some(pool)`
    /// between every round's `post` and `finish`. Both are
    /// bitwise-identical given the same exchange data.
    pub fn step_with(
        &mut self,
        engine: &mut dyn HaloEngine,
        overlap: Option<&Executor>,
        masks: &[[bool; NKR]; NTYPES],
    ) -> StepReport {
        let sw = Stopwatch::start();
        let sp = self.wind_params();
        let wind_work = storm_wind(
            &mut self.wind,
            &self.patch,
            &sp,
            self.time,
            self.cfg.case.dx,
            self.cfg.case.dz,
        );

        let dt = self.cfg.case.dt;
        let dx = self.cfg.case.dx;
        let mut wind_extra = PointWork::ZERO;

        // Potential temperature: WRF transports θ (conserved under
        // advection), not T. Convert, advect, convert back.
        let mut rk3 = self.transport(
            engine,
            overlap,
            FieldTag::Theta,
            |st, i, k, j| st.tt.get(i, k, j) * (100_000.0 / st.p.get(i, k, j)).powf(KAPPA),
            |st, i, k, j, th| {
                let t = th * (st.p.get(i, k, j) / 100_000.0).powf(KAPPA);
                st.tt.set(i, k, j, t);
            },
        );
        // (3 flops, 3 memory ops) per memory point for each conversion.
        let converted = 2 * 3 * self.patch.memory_points() as u64;
        wind_extra.fm(converted, converted);

        // Vapor, in place.
        rk3 += advect_one(
            engine,
            overlap,
            FieldTag::Qv,
            &mut self.state.qv,
            &self.wind,
            &self.patch,
            &self.cfg,
            &mut self.scratch,
            &mut self.tendency,
        );
        // Weak second-order horizontal diffusion on the moisture field
        // (WRF diff_opt=1-style hygiene on the kinematic core).
        engine.select(FieldTag::Qv);
        refresh_now(engine, &mut self.state.qv);
        horizontal_diffusion(
            &mut self.state.qv,
            &self.patch,
            1.0e4,
            dx,
            dt,
            &mut wind_extra,
        );
        let mut advected = 2usize;

        // Every occupied hydrometeor bin is a transported scalar.
        for (c, mask) in masks.iter().enumerate() {
            for (b, _) in mask.iter().enumerate().filter(|(_, &occ)| occ) {
                rk3 += self.transport(
                    engine,
                    overlap,
                    FieldTag::Bin(c, b),
                    |st, i, k, j| st.ff[c].bin_slice(i, k, j)[b],
                    |st, i, k, j, v| st.ff[c].bin_slice_mut(i, k, j)[b] = v,
                );
                advected += 1;
            }
        }
        let wall_dynamics = sw.elapsed_secs();

        // Microphysics.
        let sw = Stopwatch::start();
        let sbm = self.sbm.step(&mut self.state);
        let wall_sbm = sw.elapsed_secs();

        self.time += dt;
        StepReport {
            rk3,
            wind_work: {
                let mut w = wind_work;
                w += wind_extra;
                w
            },
            scalars_advected: advected,
            sbm,
            wall_dynamics,
            wall_sbm,
        }
    }

    /// Transports one scalar that does not live in a `Field3` of its
    /// own: `get` gathers it over the memory extent into a 3-D workspace,
    /// it is advected there, and `set` scatters it back.
    fn transport(
        &mut self,
        engine: &mut dyn HaloEngine,
        overlap: Option<&Executor>,
        tag: FieldTag,
        get: impl Fn(&SbmPatchState, i32, i32, i32) -> f32,
        set: impl Fn(&mut SbmPatchState, i32, i32, i32, f32),
    ) -> Rk3Work {
        let p = self.patch;
        for j in p.jm.iter() {
            for k in p.km.iter() {
                for i in p.im.iter() {
                    self.scratch2.set(i, k, j, get(&self.state, i, k, j));
                }
            }
        }
        let work = advect_one(
            engine,
            overlap,
            tag,
            &mut self.scratch2,
            &self.wind,
            &p,
            &self.cfg,
            &mut self.scratch,
            &mut self.tendency,
        );
        for j in p.jm.iter() {
            for k in p.km.iter() {
                for i in p.im.iter() {
                    set(&mut self.state, i, k, j, self.scratch2.get(i, k, j));
                }
            }
        }
        work
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

/// Advances one scalar with its halo filled by `engine`. This is the
/// model's one comm-mode branch: without a pool the engine's rounds run
/// back-to-back as the blocking refresh ahead of one whole-patch
/// tendency; with one, interior slabs run between `post` and `finish`.
/// `dy` equals `dx` everywhere in this model; positive-definite clipping
/// applies to every scalar but θ.
#[allow(clippy::too_many_arguments)]
fn advect_one(
    engine: &mut dyn HaloEngine,
    overlap: Option<&Executor>,
    tag: FieldTag,
    scalar: &mut Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    cfg: &ModelConfig,
    scratch: &mut Field3<f32>,
    tend: &mut Field3<f32>,
) -> Rk3Work {
    let (dx, dz, dt) = (cfg.case.dx, cfg.case.dz, cfg.case.dt);
    let positive = tag != FieldTag::Theta;
    engine.select(tag);
    match overlap {
        None => rk3_advect_scalar(
            scalar,
            wind,
            patch,
            dx,
            dx,
            dz,
            dt,
            positive,
            scratch,
            tend,
            &mut |f| refresh_now(engine, f),
        ),
        Some(pool) => rk3_advect_scalar_overlapped(
            scalar, wind, patch, dx, dx, dz, dt, positive, scratch, tend, engine, pool,
        ),
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
        if round == 0 {
            // i-direction wrap.
            for j in p.jp.iter() {
                for k in p.kp.iter() {
                    for h in 1..=p.halo {
                        let from_hi = f.get(p.ip.hi - h + 1, k, j);
                        f.set(p.ip.lo - h, k, j, from_hi);
                        let from_lo = f.get(p.ip.lo + h - 1, k, j);
                        f.set(p.ip.hi + h, k, j, from_lo);
                    }
                }
            }
        } else {
            // j-direction wrap over the full memory i-range (corners).
            for k in p.kp.iter() {
                for h in 1..=p.halo {
                    for i in p.im.iter() {
                        let from_hi = f.get(i, k, p.jp.hi - h + 1);
                        f.set(i, k, p.jp.lo - h, from_hi);
                        let from_lo = f.get(i, k, p.jp.lo + h - 1);
                        f.set(i, k, p.jp.hi + h, from_lo);
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
    use fsbm_core::scheme::SbmVersion;

    fn tiny(version: SbmVersion) -> Model {
        Model::single_rank(ModelConfig::functional(version, 0.05, 10))
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
        // 1 (qv) + occupied bins; far fewer than the full 232.
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
            let spec = rep.last_sbm.unwrap().kernel_spec.expect("offloaded");
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

    /// The periodic source through both modes: interior slabs between
    /// `post` and `finish` must reproduce `Model::step` bit for bit.
    #[test]
    fn periodic_engine_overlapped_matches_step_bitwise() {
        let mut blocking = tiny(SbmVersion::Lookup);
        let mut overlapped = tiny(SbmVersion::Lookup);
        let mut engine = PeriodicEngine {
            patch: overlapped.patch,
        };
        let pool = Executor::new(2);
        let mut rained = 0u64;
        for step in 0..4 {
            let want = blocking.step();
            let masks = overlapped.occupied_masks();
            let got = overlapped.step_with(&mut engine, Some(&pool), &masks);
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
