//! Namelist-style model configuration.

use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmConfig, SbmVersion};
use gpu_sim::machine::{default_backend, Backend};
use mpi_sim::CommMode;
use wrf_cases::{CaseKind, ConusParams};
use wrf_dycore::nest::NestSpec;

/// Configuration of a model run (the subset of WRF's `namelist.input`
/// the paper's experiments exercise).
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Scenario parameters (grid, spacing, Δt, storms).
    pub case: ConusParams,
    /// Which library case `case` was built from (namelist `&case name`),
    /// used for labeling fixtures/benches; `CaseKind::Conus` for the
    /// legacy default.
    pub case_kind: CaseKind,
    /// One-way nested child grid riding inside this run's domain
    /// (namelist `&case nest_* keys`); `None` for un-nested runs.
    pub nest: Option<NestSpec>,
    /// Microphysics version under test.
    pub version: SbmVersion,
    /// MPI ranks (domain decomposition).
    pub ranks: usize,
    /// OpenMP tiles per rank (WRF `numtiles`; the paper runs 1).
    pub tiles: usize,
    /// Halo width (WRF uses 3 for 5th-order advection; ≥ 2 required).
    pub halo: i32,
    /// Host threads standing in for one GPU's parallelism: the width of
    /// each rank's one pool when its collision stage launches parallel
    /// units (offloaded, or tiles > 1), else 1 (`None` = all available).
    pub device_workers: Option<usize>,
    /// Simulated GPUs the ranks share round-robin (namelist `gpus`; K
    /// ranks a device is `gpus = ⌈ranks / K⌉`). 0 runs offloaded versions
    /// on exclusive devices (one per rank) — no admission, no queueing.
    /// With `gpus > 0`, rank `r` is resident on device `r % gpus`:
    /// memory-capped admission can fail, and time-shared devices expose
    /// deterministic queueing in the run report. Arithmetic is
    /// bitwise-identical either way.
    pub gpus: usize,
    /// Simulation length in minutes (the paper runs 10).
    pub minutes: f64,
    /// Device-thread scheduling for the functional plane (static
    /// partition vs the persistent work-stealing executor).
    pub sched: ExecMode,
    /// Halo-exchange execution: blocking four-side exchanges (WRF's
    /// stock behaviour) or the nonblocking engine overlapping interior
    /// tendencies on the rank's pool with in-flight messages; results
    /// are bitwise-identical.
    pub comm: CommMode,
    /// Memoize per-k-level collision kernels (bitwise-identical to the
    /// on-demand path).
    pub cached_kernels: bool,
    /// Collect the per-launch-unit collision work profile
    /// (`SbmStepStats::coal_profile`) for schedule replay in
    /// `bench-exec`; off by default.
    pub profile_coal: bool,
    /// Steps between WRF-style restart checkpoints (namelist
    /// `restart_interval`, here in steps rather than minutes). 0
    /// disables checkpointing.
    pub restart_interval: usize,
    /// Batch width of the microphysics lane panels: up to `LANES` points
    /// (`PanelSoa`, the production default) or one (`PointAos`, the
    /// reference the gates compare against). Bitwise-identical results;
    /// set programmatically, there is no namelist key.
    pub layout: Layout,
    /// Hardware backend the performance plane prices this run on
    /// (namelist `&parallel backend`, one of [`gpu_sim::machine::ZOO`]).
    /// The functional plane is backend-independent; the default backend
    /// is the Perlmutter A100-80GB bundle and prices bitwise as before
    /// the zoo existed.
    pub backend: &'static Backend,
}

impl ModelConfig {
    /// The paper's headline configuration: CONUS-12km, 16 ranks,
    /// 1 thread/rank, 10 simulated minutes.
    pub fn paper_default(version: SbmVersion) -> Self {
        ModelConfig {
            case: ConusParams::full(),
            case_kind: CaseKind::Conus,
            nest: None,
            version,
            ranks: 16,
            tiles: 1,
            halo: 3,
            device_workers: None,
            gpus: 0,
            minutes: 10.0,
            sched: ExecMode::work_steal(),
            comm: CommMode::Blocking,
            cached_kernels: false,
            profile_coal: false,
            restart_interval: 0,
            layout: Layout::default(),
            backend: default_backend(),
        }
    }

    /// A reduced functional configuration for tests and coefficient
    /// measurement: `scale` shrinks the horizontal grid, `nz` the levels.
    pub fn functional(version: SbmVersion, scale: f64, nz: i32) -> Self {
        let mut case = ConusParams::at_scale(scale);
        case.nz = nz;
        ModelConfig {
            case,
            case_kind: CaseKind::Conus,
            nest: None,
            version,
            ranks: 1,
            tiles: 1,
            halo: 3,
            device_workers: Some(4),
            gpus: 0,
            minutes: 1.0,
            sched: ExecMode::work_steal(),
            comm: CommMode::Blocking,
            cached_kernels: true,
            profile_coal: false,
            restart_interval: 0,
            layout: Layout::default(),
            backend: default_backend(),
        }
    }

    /// The deterministic reproduction-gate case: a small storm scenario
    /// whose end-of-run state is pinned by `goldens/case_conus.golden`
    /// (`repro cases`; `CaseKind::Conus` is this state). Everything about it is fixed — scale,
    /// levels, storm count, seed — so any digest drift is a physics
    /// change, not a scenario change. Run it for [`Self::GATE_STEPS`]
    /// steps.
    pub fn gate(version: SbmVersion, sched: ExecMode, workers: usize) -> Self {
        let mut cfg = Self::functional(version, Self::GATE_SCALE, Self::GATE_NZ);
        cfg.sched = sched;
        cfg.device_workers = Some(workers.max(1));
        // The kernel cache is bitwise-identical to the on-demand path
        // (PR 1 invariant); keep it on only for the work-stealing arm so
        // the gate exercises both kernel paths.
        cfg.cached_kernels = sched == ExecMode::WorkSteal;
        cfg
    }

    /// Like [`Self::gate`] for one of the library cases: the same gate
    /// scale, levels, and step count, with the case's own sounding,
    /// moisture/CCN loading, storm placement, and wind shear overlaid
    /// (the per-case grid comes from the one shared column builder, so
    /// a case cannot silently diverge from the gate sounding). The end
    /// state is pinned by `goldens/case_<slug>.golden`.
    pub fn case_gate(kind: CaseKind, version: SbmVersion, sched: ExecMode, workers: usize) -> Self {
        let mut cfg = Self::gate(version, sched, workers);
        let mut case = kind.params(Self::GATE_SCALE);
        case.nz = Self::GATE_NZ;
        cfg.case = case;
        cfg.case_kind = kind;
        cfg
    }

    /// The pinned nested configuration of the cases gate: a ratio-2
    /// child over an 8 × 6 parent-cell window centered in the gate
    /// domain (16 × 12 child points), far enough from the parent edge
    /// that the child halo never reads parent halo cells.
    pub const GATE_NEST: NestSpec = NestSpec {
        ratio: 2,
        i0: 7,
        j0: 5,
        w: 8,
        h: 6,
    };

    /// Horizontal scale of the gate case.
    pub const GATE_SCALE: f64 = 0.05;
    /// Vertical levels of the gate case.
    pub const GATE_NZ: i32 = 8;
    /// Steps the gate case is integrated for before digesting.
    pub const GATE_STEPS: usize = 4;

    /// The scheme configuration a model of this run builds (the one
    /// `ModelConfig` → `SbmConfig` mapping).
    pub fn scheme_config(&self) -> SbmConfig {
        SbmConfig {
            dt: self.case.dt,
            dz: self.case.dz,
            workers: self.device_workers,
            tiles: self.tiles.max(1),
            sched: self.sched,
            cached_kernels: self.cached_kernels,
            profile_coal: self.profile_coal,
            layout: self.layout,
            ..SbmConfig::new(self.version)
        }
    }

    /// Number of time steps in the configured run.
    pub fn steps(&self) -> usize {
        ((self.minutes * 60.0) / self.case.dt as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv() {
        let c = ModelConfig::paper_default(SbmVersion::Baseline);
        assert_eq!(c.ranks, 16);
        assert_eq!(c.tiles, 1);
        assert_eq!(c.steps(), 120);
        assert_eq!(c.case.nx, 425);
    }

    #[test]
    fn case_gate_overlays_the_library_case_on_the_gate_grid() {
        let base = ModelConfig::gate(SbmVersion::Lookup, ExecMode::StaticTiles, 1);
        let c = ModelConfig::case_gate(
            CaseKind::Supercell,
            SbmVersion::Lookup,
            ExecMode::StaticTiles,
            1,
        );
        assert_eq!(c.case_kind, CaseKind::Supercell);
        assert_eq!(
            (c.case.nx, c.case.ny, c.case.nz),
            (base.case.nx, base.case.ny, base.case.nz)
        );
        assert_ne!(c.case.seed, base.case.seed);
        // The pinned nest window fits the gate domain with halo room.
        assert!(ModelConfig::GATE_NEST
            .validate(base.case.nx, base.case.ny, base.halo)
            .is_ok());
    }

    #[test]
    fn functional_config_shrinks() {
        let c = ModelConfig::functional(SbmVersion::Lookup, 0.05, 12);
        assert!(c.case.nx <= 25);
        assert_eq!(c.case.nz, 12);
        assert!(c.steps() >= 1);
    }
}
