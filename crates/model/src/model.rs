//! Single-rank functional model.

use crate::config::ModelConfig;
use fsbm_core::meter::PointWork;
use fsbm_core::panels::LANES;
use fsbm_core::scheme::{FastSbm, SbmConfig, SbmStepStats};
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use prof_sim::Stopwatch;
use wrf_cases::ConusCase;
use wrf_dycore::diffusion::horizontal_diffusion;
use wrf_dycore::rk3::{refresh_now, rk3_advect_panel, FieldTag, HaloEngine, Rk3Work};
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
    transport: Transport,
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
            transport: Transport::new(&patch),
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
    /// halo refresh and this rank's own occupied-bin masks.
    pub fn step(&mut self) -> StepReport {
        let masks = self.occupied_masks();
        self.step_with(&mut PeriodicEngine { patch: self.patch }, None, &masks)
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
        let (rk3, wind_work, scalars_advected) = self.dynamics(engine, overlap, masks);
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
    /// θ, vapor (with its diffusion) and every bin `masks` selects through
    /// RK3 transport. Returns the advection work, the residual dynamics
    /// work (wind fill, θ conversion, diffusion) and the number of
    /// scalars advected.
    fn dynamics(
        &mut self,
        engine: &mut dyn HaloEngine,
        overlap: Option<&Executor>,
        masks: &[[bool; NKR]; NTYPES],
    ) -> (Rk3Work, PointWork, usize) {
        let sp = self.wind_params();
        let (dx, dz, dt) = (self.cfg.case.dx, self.cfg.case.dz, self.cfg.case.dt);
        let mut residual = storm_wind(&mut self.wind, &self.patch, &sp, self.time, dx, dz);

        let (st, wind, patch) = (&mut self.state, &self.wind, &self.patch);
        let Transport {
            lanes,
            scratch,
            tend,
        } = &mut self.transport;
        // The passes below walk raw buffers side by side: every one must
        // have the `Field3::for_patch` layout of the workspace lanes.
        let cells = lanes[0].as_slice().len();
        assert!(
            st.tt.as_slice().len() == cells
                && st.p.as_slice().len() == cells
                && st.qv.as_slice().len() == cells
                && st.ff.iter().all(|f| f.as_slice().len() == NKR * cells),
            "state fields must cover the patch's memory extent"
        );
        // `dy` equals `dx` everywhere in this model.
        let mut advect = |engine: &mut dyn HaloEngine,
                          lanes: &mut [Field3<f32>],
                          tags: &[FieldTag],
                          positive: bool| {
            rk3_advect_panel(
                lanes, tags, wind, patch, dx, dx, dz, dt, positive, scratch, tend, engine, overlap,
            )
        };

        // Potential temperature: WRF transports θ (conserved under
        // advection), not T. Convert, advect, convert back — over the
        // whole memory extent, so T's halo follows θ's.
        let theta = &mut lanes[..1];
        let (tt, p) = (st.tt.as_mut_slice(), st.p.as_slice());
        for ((th, &t), &p) in theta[0].as_mut_slice().iter_mut().zip(&*tt).zip(p) {
            *th = t * (100_000.0 / p).powf(KAPPA);
        }
        // θ is the one scalar without positive-definite clipping.
        let mut rk3 = advect(engine, theta, &[FieldTag::Theta], false);
        for ((t, &th), &p) in tt.iter_mut().zip(theta[0].as_slice()).zip(p) {
            *t = th * (p / 100_000.0).powf(KAPPA);
        }
        // (3 flops, 3 memory ops) per memory point for each conversion.
        let converted = 2 * 3 * patch.memory_points() as u64;
        residual.fm(converted, converted);

        // Vapor, in place.
        let qv = std::slice::from_mut(&mut st.qv);
        rk3 += advect(engine, qv, &[FieldTag::Qv], true);
        // Weak second-order horizontal diffusion on the moisture field
        // (WRF diff_opt=1-style hygiene on the kinematic core).
        engine.select(FieldTag::Qv);
        refresh_now(engine, &mut st.qv);
        horizontal_diffusion(&mut st.qv, patch, 1.0e4, dx, dt, &mut residual);
        let mut advected = 2usize;

        // Every occupied hydrometeor bin is a transported scalar. A
        // class's occupied bins ride panels of up to LANES lanes, each
        // panel gathered from and scattered to the class slab in one pass
        // over it — the whole memory extent, so the slab's halo follows
        // the lanes'. Bins the mask leaves out are never touched.
        for (c, mask) in masks.iter().enumerate() {
            let (mut occupied, mut count) = ([0usize; NKR], 0);
            for b in (0..NKR).filter(|&b| mask[b]) {
                occupied[count] = b;
                count += 1;
            }
            for bins in occupied[..count].chunks(LANES) {
                let lanes = &mut lanes[..bins.len()];
                let mut tags = [FieldTag::Bin(c, 0); LANES];
                for (tag, &b) in tags.iter_mut().zip(bins) {
                    *tag = FieldTag::Bin(c, b);
                }
                let tags = &tags[..bins.len()];
                for (point, all) in st.ff[c].as_slice().chunks_exact(NKR).enumerate() {
                    for (lane, &b) in lanes.iter_mut().zip(bins) {
                        lane.as_mut_slice()[point] = all[b];
                    }
                }
                rk3 += advect(engine, lanes, tags, true);
                for (point, all) in st.ff[c].as_mut_slice().chunks_exact_mut(NKR).enumerate() {
                    for (lane, &b) in lanes.iter().zip(bins) {
                        all[b] = lane.as_slice()[point];
                    }
                }
                advected += bins.len();
            }
        }
        (rk3, residual, advected)
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

/// The transport workspace: up to `LANES` panel lanes, each with a
/// provisional field and a tendency — every `Field3` scalar transport
/// needs besides the state, allocated once per model.
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

    /// The ledger's `sbm_dense` snapshot — the supercell gate case after
    /// eight steps — as the collision launch sees it: at least half of
    /// the lane slots swept are some point's own cells (row-order batches
    /// ran 0.26 full on this state, coherent ones 0.63), and the executor
    /// summary carries the same figure.
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
        assert_eq!(
            rep.exec.expect("summary").lane_efficiency,
            sbm.lane_efficiency()
        );
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

    /// A mask with holes. Only the selected bins move: every other bin
    /// keeps its bits over the whole memory extent (halo cells, `-0.0`s
    /// and all), and the panel the four selected bins ride reproduces
    /// transport one scalar at a time through the single-scalar driver,
    /// in both comm modes.
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

        let pool = Executor::new(2);
        for overlap in [None, Some(&pool)] {
            let mut m = tiny(SbmVersion::Lookup);
            m.state = before.clone();
            let (rk3, _, advected) = m.dynamics(&mut PeriodicEngine { patch: p }, overlap, &masks);
            assert_eq!(advected, 2 + occupied.len());
            assert_eq!(rk3, want);
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
            assert_eq!(m.state.digest(), r.state.digest());
        }
    }

    /// `state` is a public field: one built for another grid is refused
    /// up front, not truncated by the slice-wise passes.
    #[test]
    #[should_panic(expected = "memory extent")]
    fn state_of_another_shape_is_rejected() {
        let mut m = tiny(SbmVersion::Lookup);
        let taller = ModelConfig::functional(SbmVersion::Lookup, 0.05, 12);
        m.state = Model::single_rank(taller).state;
        m.step();
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
