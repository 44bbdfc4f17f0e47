//! The four workloads: what each one runs, how its inputs are made
//! from the seed, and how its output is checked against the oracle.
//!
//! Every workload is a *fixed unit of work* repeated from a cold start
//! (closed loop, one unit at a time): repeats are comparable samples,
//! and the per-repeat set-up gives `setup_s` its samples for free.

use crate::calib::{Clock, Timing};
use crate::trace::Recorder;
use fsbm_core::exec::{ExecMode, ExecSummary};
use fsbm_core::scheme::{FastSbm, Layout, SbmConfig, SbmStepStats, SbmVersion};
use fsbm_core::state::SbmPatchState;
use miniwrf::{Model, ModelConfig, RestartConfig, RunReport};
use mpi_sim::CommMode;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use wrf_cases::{diffwrf, CaseKind, ConusCase};
use wrf_grid::{two_d_decomposition, PatchSpec};

/// Worker threads of the single-process workloads, and ranks of the
/// parallel one: fixed, not derived from the host, so results from
/// different hosts describe the same program.
pub const THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole single-rank forecast of the supercell case.
    SoloSupercell,
    /// Two-rank restartable forecast of the squall-line case.
    Ranks2Squall,
    /// Microphysics dwarf on a dense (mostly cloudy) state.
    SbmDense,
    /// Microphysics dwarf on a sparse (mostly clear) state, 6× the points.
    SbmSparse,
}

impl Workload {
    /// All workloads, in ledger order.
    pub const ALL: [Workload; 4] = [
        Workload::SoloSupercell,
        Workload::Ranks2Squall,
        Workload::SbmDense,
        Workload::SbmSparse,
    ];

    /// Name as declared in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloSupercell => "solo_supercell",
            Workload::Ranks2Squall => "ranks2_squall",
            Workload::SbmDense => "sbm_dense",
            Workload::SbmSparse => "sbm_sparse",
        }
    }

    /// Parses a declared name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (mirrors `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoloSupercell => {
                "whole forecast on one rank: dycore blocking sweep plus bin gather/scatter dominate, fsbm-core is the rest"
            }
            Workload::Ranks2Squall => {
                "same dycore through the overlapped split path, plus halo pack/unpack, rank channels, collectives and checkpoint writes"
            }
            Workload::SbmDense => {
                "microphysics alone on a mostly cloudy state: collision and executor scaling show at full size, dycore not at all"
            }
            Workload::SbmSparse => {
                "microphysics alone on a mostly clear state six times larger: predicate sweep, compaction, condensation dominate; collision changes should not move it"
            }
        }
    }

    /// Threads the workload keeps busy for most of its wall: both for
    /// the two ranks; one for the single-rank workloads, whose second
    /// worker only joins in the collision stage.
    pub fn busy_threads(self) -> usize {
        if self == Workload::Ranks2Squall {
            THREADS
        } else {
            1
        }
    }

    fn case(self) -> CaseKind {
        match self {
            Workload::SoloSupercell | Workload::SbmDense => CaseKind::Supercell,
            Workload::Ranks2Squall => CaseKind::SquallLine,
            Workload::SbmSparse => CaseKind::ShallowConvection,
        }
    }
}

/// How much work one unit holds. `full` is what the numbers in
/// `README.md` were measured with; `smoke` only proves the plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Model steps per unit (solo, ranks2), from a cold start.
    pub model_steps: usize,
    /// Steps between checkpoints in the ranks2 unit.
    pub restart_interval: usize,
    /// Scheme steps per unit (dwarfs), each on a fresh snapshot clone.
    pub scheme_steps: usize,
    /// Model steps that spin the dense dwarf's snapshot up.
    pub spinup_dense: usize,
    /// Model steps that spin the sparse dwarf's snapshot up.
    pub spinup_sparse: usize,
    /// Set-ups timed before each unit of the model workloads, whose
    /// set-up takes milliseconds.
    pub setups_per_repeat: usize,
    /// Set-ups timed before each dwarf unit; each costs a scheme step.
    pub dwarf_setups_per_repeat: usize,
    /// Calls per layer probe.
    pub probe_calls: usize,
}

impl Sizes {
    /// Measurement sizes.
    pub const fn full() -> Self {
        Sizes {
            model_steps: 8,
            restart_interval: 4,
            scheme_steps: 10,
            spinup_dense: 8,
            spinup_sparse: 1,
            setups_per_repeat: 5,
            dwarf_setups_per_repeat: 2,
            probe_calls: 30,
        }
    }

    /// Plumbing-check sizes (`--smoke`).
    pub const fn smoke() -> Self {
        Sizes {
            model_steps: 2,
            restart_interval: 1,
            scheme_steps: 2,
            spinup_dense: 1,
            spinup_sparse: 1,
            setups_per_repeat: 1,
            dwarf_setups_per_repeat: 1,
            probe_calls: 3,
        }
    }
}

/// The production hot path on `kind`'s gate grid: offloaded collapse(3),
/// work-stealing with compaction, cached kernels, SoA panels.
pub fn production_config(w: Workload, seed: u64) -> ModelConfig {
    let parallel = w == Workload::Ranks2Squall;
    let workers = if parallel { 1 } else { THREADS };
    let mut cfg = ModelConfig::case_gate(
        w.case(),
        SbmVersion::OffloadCollapse3,
        ExecMode::work_steal(),
        workers,
    );
    cfg.cached_kernels = true;
    // `Layout::default()` is `PointAos`; the production layout is not.
    cfg.layout = Layout::PanelSoa;
    if parallel {
        cfg.ranks = THREADS;
        cfg.comm = CommMode::Overlapped;
    }
    if w == Workload::SbmSparse {
        // ~6× the dense working set, ~10 % of it cloudy.
        let mut case = CaseKind::ShallowConvection.params(0.12);
        case.nz = ModelConfig::GATE_NZ;
        cfg.case = case;
    }
    // The program only ever sees the generated configuration.
    cfg.case.seed ^= seed;
    cfg
}

/// The oracle for `cfg`: same inputs through the plainest code path
/// (lookup scheme, AoS points, static tiles, one worker, blocking halo
/// exchange). Every optimised path is pinned bitwise to it.
pub fn oracle_config(cfg: &ModelConfig) -> ModelConfig {
    ModelConfig {
        version: SbmVersion::Lookup,
        sched: ExecMode::StaticTiles,
        device_workers: Some(1),
        cached_kernels: false,
        layout: Layout::PointAos,
        comm: CommMode::Blocking,
        ..*cfg
    }
}

/// The scheme configuration `Model` builds from a `ModelConfig`
/// (`Model` keeps its scheme private, so the dwarfs rebuild it).
pub fn scheme_config(cfg: &ModelConfig) -> SbmConfig {
    let mut s = SbmConfig::new(cfg.version);
    s.dt = cfg.case.dt;
    s.dz = cfg.case.dz;
    s.workers = cfg.device_workers;
    s.tiles = cfg.tiles.max(1);
    s.sched = cfg.sched;
    s.cached_kernels = cfg.cached_kernels;
    s.layout = cfg.layout;
    s
}

/// The single patch of a one-rank run of `cfg`.
pub fn whole_patch(cfg: &ModelConfig) -> PatchSpec {
    two_d_decomposition(cfg.case.domain(), 1, cfg.halo).patches[0]
}

/// What the program reported about one step (model or scheme).
#[derive(Debug, Clone)]
pub struct StepFacts {
    /// Wall of the call, timed from outside.
    pub wall: Timing,
    /// `StepReport::wall_dynamics`, s (0 for scheme steps).
    pub dyn_s: f64,
    /// `StepReport::wall_sbm`, s (the call wall for scheme steps).
    pub sbm_s: f64,
    /// Scalars advected (0 for scheme steps).
    pub scalars: usize,
    /// Microphysics statistics of the step.
    pub sbm: SbmStepStats,
}

/// One executed unit of work.
#[derive(Debug)]
pub struct Unit {
    /// Timed operations (steps; one call for ranks2).
    pub ops: Vec<Timing>,
    /// Per-step facts (empty for ranks2: the call is monolithic).
    pub steps: Vec<StepFacts>,
    /// Per-rank accumulated reports (ranks2 only).
    pub ranks: Vec<RunReport>,
    /// Executor and kernel-cache summary at the end of the unit.
    pub exec: Option<ExecSummary>,
    /// Restart files the unit wrote.
    pub checkpoint_writes: u64,
    /// Final state per rank (one entry for single-rank workloads).
    pub finals: Vec<SbmPatchState>,
}

impl Unit {
    /// Raw wall of the unit, s.
    pub fn raw_s(&self) -> f64 {
        self.ops.iter().map(|t| t.raw_s).sum()
    }
    /// Calibrated wall of the unit, s.
    pub fn cal_s(&self) -> f64 {
        self.ops.iter().map(|t| t.cal_s).sum()
    }
}

/// Outcome of the output checks: operations attempted and failed, and
/// the worst digits of agreement with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Check operations attempted.
    pub attempted: u64,
    /// Check operations failed.
    pub failed: u64,
    /// Worst `diffwrf` digits against the oracle (15 = bitwise).
    pub digits_min: u32,
}

impl Checks {
    /// No checks yet; digits start at the bitwise ceiling.
    pub fn new() -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            digits_min: 15,
        }
    }

    /// Counts one check operation.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Compares `got` with the oracle's `want`, rank by rank.
    pub fn against_oracle(&mut self, what: &str, got: &[SbmPatchState], want: &[SbmPatchState]) {
        self.op(&format!("{what}: rank count"), got.len() == want.len());
        for (r, (g, w)) in got.iter().zip(want).enumerate() {
            let d = diffwrf(g, w);
            let digits = d.min_state_digits().min(d.min_microphysics_digits());
            self.digits_min = self.digits_min.min(digits);
            self.op(
                &format!("{what}: rank {r} agrees to {digits} digits, want 15"),
                digits == 15,
            );
        }
    }
}

impl Default for Checks {
    fn default() -> Self {
        Self::new()
    }
}

/// True when every prognostic value of `s` is finite.
pub fn all_finite(s: &SbmPatchState) -> bool {
    let ok = |v: &[f32]| v.iter().all(|x| x.is_finite());
    ok(s.tt.as_slice())
        && ok(s.qv.as_slice())
        && ok(&s.rainnc)
        && s.ff.iter().all(|f| ok(f.as_slice()))
        && s.precip_acc.is_finite()
}

/// A workload instantiated for one seed and size.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// Production configuration (seed applied).
    pub cfg: ModelConfig,
    /// Scratch directory for restart files (inside the checkout).
    tmp: PathBuf,
    /// Dwarfs: the spun-up snapshot every scheme step starts from.
    snapshot: Option<SbmPatchState>,
}

impl Bench {
    /// Builds the workload's inputs from `seed`. For the dwarfs this
    /// runs the spin-up (input generation, not timed as set-up).
    pub fn new(
        workload: Workload,
        sizes: Sizes,
        seed: u64,
        tmp: &Path,
        rec: &mut Recorder,
    ) -> Self {
        let cfg = production_config(workload, seed);
        let mut b = Bench {
            workload,
            sizes,
            cfg,
            tmp: tmp.to_path_buf(),
            snapshot: None,
        };
        if let Some(spinup) = b.spinup_steps() {
            let id = rec.open("spinup", None, None);
            let mut m = Model::single_rank(cfg);
            for _ in 0..spinup {
                m.step();
            }
            rec.close(id);
            b.snapshot = Some(m.state);
        }
        b
    }

    fn spinup_steps(&self) -> Option<usize> {
        match self.workload {
            Workload::SbmDense => Some(self.sizes.spinup_dense),
            Workload::SbmSparse => Some(self.sizes.spinup_sparse),
            _ => None,
        }
    }

    /// True for the two microphysics dwarfs.
    pub fn is_dwarf(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Compute points of the whole domain.
    pub fn points(&self) -> usize {
        self.cfg.case.domain().points()
    }

    /// Steps (model or scheme) in one unit.
    pub fn steps(&self) -> usize {
        if self.is_dwarf() {
            self.sizes.scheme_steps
        } else {
            self.sizes.model_steps
        }
    }

    /// Set-ups to time before each unit.
    pub fn setups_per_repeat(&self) -> usize {
        if self.is_dwarf() {
            self.sizes.dwarf_setups_per_repeat
        } else {
            self.sizes.setups_per_repeat
        }
    }

    /// The dwarf snapshot (spun-up state), if this is a dwarf.
    pub fn snapshot(&self) -> Option<&SbmPatchState> {
        self.snapshot.as_ref()
    }

    /// Times one set-up: everything up to and including the first step,
    /// because the stack initialises lazily (executor spawn, kernel-cache
    /// fill, scratch growth all happen inside the first step) — work
    /// moved between constructor and first step must not hide. Solo:
    /// `Model::single_rank` + one step; ranks2: a one-step `run_parallel`
    /// (rank spawn, per-rank build, step, teardown); dwarfs: case
    /// initialisation, `FastSbm::new` and one scheme step.
    pub fn setup_once(&mut self, clock: &mut Clock, rec: &mut Recorder) -> Timing {
        let cfg = self.cfg;
        let id = rec.open("setup", None, None);
        let (_, t) = match self.workload {
            Workload::SoloSupercell => clock.time(|| {
                let mut model = rec.span("model_build", || Model::single_rank(cfg));
                rec.span("first_step", || black_box(model.step()));
            }),
            Workload::Ranks2Squall => clock.time(|| {
                black_box(miniwrf::run_parallel(cfg, 1));
            }),
            Workload::SbmDense | Workload::SbmSparse => {
                let snap = self.snapshot.as_ref().expect("dwarf snapshot");
                clock.time(|| {
                    let patch = whole_patch(&cfg);
                    let init =
                        rec.span("case_init", || ConusCase::new(cfg.case).init_state(&patch));
                    black_box(init);
                    let mut sbm = rec.span("table_build", || FastSbm::new(scheme_config(&cfg)));
                    let mut state = snap.clone();
                    rec.span("first_step", || black_box(sbm.step(&mut state)));
                })
            }
        };
        rec.close(id);
        t
    }

    /// Runs one unit of work from a cold start.
    pub fn unit(&mut self, clock: &mut Clock, rec: &mut Recorder, repeat: usize) -> Unit {
        match self.workload {
            Workload::SoloSupercell => self.unit_solo(clock, rec, repeat),
            Workload::Ranks2Squall => self.unit_ranks(clock, rec, repeat),
            Workload::SbmDense | Workload::SbmSparse => self.unit_dwarf(clock, rec, repeat),
        }
    }

    fn unit_solo(&mut self, clock: &mut Clock, rec: &mut Recorder, repeat: usize) -> Unit {
        let mut model = Model::single_rank(self.cfg);
        let mut ops = Vec::new();
        let mut steps = Vec::new();
        for i in 0..self.sizes.model_steps {
            let id = rec.open("step", Some(repeat), Some(i));
            let (s, wall) = clock.time(|| model.step());
            rec.arg(id, "dyn_ms", s.wall_dynamics * 1e3);
            rec.arg(id, "sbm_ms", s.wall_sbm * 1e3);
            rec.arg(id, "coal_ms", s.sbm.coal_wall * 1e3);
            rec.close(id);
            ops.push(wall);
            steps.push(StepFacts {
                wall,
                dyn_s: s.wall_dynamics,
                sbm_s: s.wall_sbm,
                scalars: s.scalars_advected,
                sbm: s.sbm,
            });
        }
        let exec = steps.last().map(|s| model.exec_summary(&s.sbm));
        Unit {
            ops,
            steps,
            ranks: Vec::new(),
            exec,
            checkpoint_writes: 0,
            finals: vec![model.state],
        }
    }

    fn unit_ranks(&mut self, clock: &mut Clock, rec: &mut Recorder, repeat: usize) -> Unit {
        let dir = self.tmp.join(format!("restart_{repeat}"));
        let _ = std::fs::remove_dir_all(&dir);
        let rcfg = RestartConfig::new(&dir, self.sizes.restart_interval);
        let (cfg, n) = (self.cfg, self.sizes.model_steps);
        let id = rec.open("run_parallel_restartable", Some(repeat), None);
        let (out, wall) = clock.time(|| miniwrf::run_parallel_restartable(cfg, n, &rcfg, None));
        rec.close(id);
        let (run, recovery) = out.expect("fault-free restartable run");
        let _ = std::fs::remove_dir_all(&dir);
        let exec = run.reports.first().and_then(|r| r.exec);
        Unit {
            ops: vec![wall],
            steps: Vec::new(),
            ranks: run.reports,
            exec,
            checkpoint_writes: recovery.checkpoint_writes,
            finals: run.states,
        }
    }

    fn unit_dwarf(&mut self, clock: &mut Clock, rec: &mut Recorder, repeat: usize) -> Unit {
        let snap = self.snapshot.as_ref().expect("dwarf snapshot");
        // A fresh scheme per unit, as the model workloads build a fresh
        // model: the first step carries the lazy set-up every time.
        let mut sbm = FastSbm::new(scheme_config(&self.cfg));
        let mut ops = Vec::new();
        let mut steps = Vec::new();
        let mut last = None;
        for i in 0..self.sizes.scheme_steps {
            // Cloning the snapshot is input preparation, not scheme work.
            let mut state = snap.clone();
            let id = rec.open("step", Some(repeat), Some(i));
            let (stats, wall) = clock.time(|| sbm.step(&mut state));
            rec.arg(id, "coal_ms", stats.coal_wall * 1e3);
            rec.close(id);
            ops.push(wall);
            steps.push(StepFacts {
                wall,
                dyn_s: 0.0,
                sbm_s: wall.raw_s,
                scalars: 0,
                sbm: stats,
            });
            last = Some(state);
        }
        let exec = steps.last().map(|s| sbm.exec_summary(&s.sbm));
        Unit {
            ops,
            steps,
            ranks: Vec::new(),
            exec,
            checkpoint_writes: 0,
            finals: last.into_iter().collect(),
        }
    }

    /// Runs the oracle on the same inputs and returns its final
    /// state(s): the whole unit for the model workloads, one scheme step
    /// for the dwarfs.
    pub fn oracle(&self) -> Vec<SbmPatchState> {
        let ocfg = oracle_config(&self.cfg);
        match self.workload {
            Workload::SoloSupercell => {
                let mut m = Model::single_rank(ocfg);
                m.run(self.sizes.model_steps);
                vec![m.state]
            }
            Workload::Ranks2Squall => miniwrf::run_parallel(ocfg, self.sizes.model_steps).states,
            Workload::SbmDense | Workload::SbmSparse => {
                let mut state = self.snapshot.clone().expect("dwarf snapshot");
                FastSbm::new(scheme_config(&ocfg)).step(&mut state);
                vec![state]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_configs_are_production() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            let c = production_config(w, 0);
            assert_eq!(c.version, SbmVersion::OffloadCollapse3);
            assert_eq!(c.layout, Layout::PanelSoa);
            assert!(c.cached_kernels);
            assert_eq!(c.sched, ExecMode::work_steal());
            // Two runnable threads, however the host is shaped.
            assert_eq!(c.ranks * c.device_workers.unwrap(), THREADS);
            let o = oracle_config(&c);
            assert_eq!(
                (o.version, o.layout),
                (SbmVersion::Lookup, Layout::PointAos)
            );
            assert_eq!(o.case, c.case);
        }
        assert!(Workload::from_name("nope").is_none());
    }

    #[test]
    fn seed_changes_only_the_case_seed() {
        let a = production_config(Workload::SbmSparse, 0);
        let b = production_config(Workload::SbmSparse, 5);
        assert_eq!(a.case.seed ^ 5, b.case.seed);
        assert_eq!(
            (a.case.nx, a.case.ny, a.case.nz),
            (b.case.nx, b.case.ny, b.case.nz)
        );
        // The sparse dwarf is the large one.
        assert!(
            a.case.domain().points()
                > 5 * production_config(Workload::SbmDense, 0)
                    .case
                    .domain()
                    .points()
        );
    }
}
