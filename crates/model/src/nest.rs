//! One-way grid nesting: a coarse parent integration feeding a refined
//! child patch.
//!
//! WRF's most common production configuration is a nest: a parent
//! domain advances at coarse resolution, and a child domain covering a
//! sub-region advances `ratio` smaller steps on a `ratio`× finer grid,
//! taking its lateral boundary values from the parent (one-way: the
//! child never feeds back). This module reproduces that structure on
//! the mini-model:
//!
//! * The child scenario is [`wrf_cases::ConusCase::refined`] — the
//!   parent's analytic cloud/wind fields sampled on the finer grid, so
//!   parent and child solve the *same* physical setup.
//! * Per parent step, the parent state is snapshotted at both ends and
//!   the child's halo strips are filled with deterministically
//!   time-interpolated parent values ([`wrf_dycore::nest::time_interp`]
//!   at `τ = (s+1)/ratio` for child substep `s`), per scalar selected
//!   through [`FieldTag`] (θ from `tt`/`p` via [`crate::model::KAPPA`],
//!   vapor, every occupied bin).
//! * The boundary injection rides the existing halo machinery: a
//!   [`HaloEngine`] whose `finish` writes the halo strips
//!   ([`wrf_dycore::nest::fill_halo_round`]) in the same two rounds as
//!   the periodic and MPI engines, so — exactly like them — both comm
//!   modes are bitwise-identical.
//!
//! [`run_solo_fine`] integrates the identical child scenario with
//! doubly-periodic boundaries for `steps × ratio` steps — the reference
//! the cases gate compares the nested child's interior against.

use crate::config::ModelConfig;
use crate::model::{Model, KAPPA};
use fsbm_core::meter::PointWork;
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use wrf_cases::ConusCase;
use wrf_dycore::nest::{fill_halo_round, time_interp, NestMap, NestSpec};
use wrf_dycore::rk3::{FieldTag, HaloEngine};
use wrf_grid::{two_d_decomposition, Field3, PatchSpec};

/// End states of a one-way nested integration.
#[derive(Debug, Clone)]
pub struct NestedRun {
    /// Parent end-of-run state (identical to an un-nested run of the
    /// same configuration — one-way nesting never feeds back).
    pub parent: SbmPatchState,
    /// Child end-of-run state on the refined patch.
    pub child: SbmPatchState,
    /// The child's patch (for interior comparisons).
    pub child_patch: PatchSpec,
    /// The nest geometry that produced it.
    pub spec: NestSpec,
}

/// The parent-grid scalar a child boundary cell samples, per advected
/// field: θ is reconstructed from `tt`/`p` exactly as the transport
/// scheme does, vapor and bins are read directly.
fn parent_scalar(st: &SbmPatchState, tag: FieldTag, i: i32, k: i32, j: i32) -> f32 {
    match tag {
        FieldTag::Theta => st.tt.get(i, k, j) * (100_000.0 / st.p.get(i, k, j)).powf(KAPPA),
        FieldTag::Qv => st.qv.get(i, k, j),
        FieldTag::Bin(c, b) => st.ff[c].bin_slice(i, k, j)[b],
    }
}

/// One child boundary value: the containing parent cell's scalar,
/// time-interpolated between the bracketing parent states.
fn boundary_sample(
    snap0: &SbmPatchState,
    snap1: &SbmPatchState,
    tau: f32,
    map: &NestMap,
    tag: FieldTag,
    at: (i32, i32, i32),
) -> f32 {
    let (ic, k, jc) = at;
    let ip = map.parent_i(ic);
    let jp = map.parent_j(jc);
    let a = parent_scalar(snap0, tag, ip, k, jp);
    let b = parent_scalar(snap1, tag, ip, k, jp);
    time_interp(a, b, tau)
}

/// The nest boundary: `finish` writes the selected scalar's halo strips
/// from the bracketing parent snapshots, in the same two rounds as the
/// periodic/MPI engines.
struct NestEngine<'a> {
    snap0: &'a SbmPatchState,
    snap1: &'a SbmPatchState,
    tau: f32,
    map: NestMap,
    patch: PatchSpec,
    tag: FieldTag,
}

impl HaloEngine for NestEngine<'_> {
    fn rounds(&self) -> usize {
        2
    }

    fn select(&mut self, tag: FieldTag) {
        self.tag = tag;
    }

    fn post(&mut self, _round: usize, _field: &Field3<f32>) {}

    fn finish(&mut self, round: usize, field: &mut Field3<f32>) {
        let (s0, s1, tau, map, tag) = (self.snap0, self.snap1, self.tau, self.map, self.tag);
        let mut sample =
            |i: i32, k: i32, j: i32| boundary_sample(s0, s1, tau, &map, tag, (i, k, j));
        fill_halo_round(field, &self.patch, round, &mut sample);
    }

    fn absorb(&mut self, _work: PointWork) {}
}

/// OR of two occupied-bin masks: the nested child advects the union of
/// its own occupied set and the parent's, so inflow of a class the
/// child has not condensed yet is still transported in (and the scalar
/// sequence stays deterministic).
fn or_masks(a: [[bool; NKR]; NTYPES], b: [[bool; NKR]; NTYPES]) -> [[bool; NKR]; NTYPES] {
    std::array::from_fn(|c| std::array::from_fn(|k| a[c][k] || b[c][k]))
}

/// Builds the child model of `parent` under `spec`: the refined
/// scenario on its own single-rank patch, with `dx`, `dt`, and the wind
/// phase scaled so the child integrates the same physical setup.
fn child_model(cfg: &ModelConfig, parent_case: &ConusCase, spec: NestSpec) -> Model {
    let child_case = parent_case.refined(spec.ratio, spec.i0, spec.j0, spec.w, spec.h);
    let mut child_cfg = *cfg;
    child_cfg.case = child_case.params;
    child_cfg.nest = None;
    let dd = two_d_decomposition(child_cfg.case.domain(), 1, child_cfg.halo);
    Model::for_patch_with_case(child_cfg, dd.patches[0], child_case)
}

/// Integrates `cfg` (which must carry a validated `cfg.nest`) for
/// `steps` parent steps with a one-way nested child riding inside it.
/// Per parent step the child takes `ratio` substeps, each forced at its
/// lateral boundary by time-interpolated parent values; `cfg.comm`
/// selects when the interior tendency runs (bitwise-equal either way).
pub fn run_nested(cfg: ModelConfig, steps: usize) -> Result<NestedRun, String> {
    let spec = cfg
        .nest
        .ok_or_else(|| "run_nested: cfg.nest is None".to_string())?;
    spec.validate(cfg.case.nx, cfg.case.ny, cfg.halo)?;

    let mut parent_cfg = cfg;
    parent_cfg.nest = None;
    let mut parent = Model::single_rank(parent_cfg);
    let mut child = child_model(&parent_cfg, &parent.case, spec);
    let child_patch = child.patch;

    let ratio = spec.ratio.max(1) as usize;
    let map = spec.map();

    let mut snap0 = parent.state.clone();
    for _ in 0..steps {
        parent.step();
        let snap1 = parent.state.clone();
        for s in 0..ratio {
            let tau = (s + 1) as f32 / ratio as f32;
            let masks = or_masks(child.occupied_masks(), parent.occupied_masks());
            let mut engine = NestEngine {
                snap0: &snap0,
                snap1: &snap1,
                tau,
                map,
                patch: child_patch,
                tag: FieldTag::Qv,
            };
            child.step_with(&mut engine, &masks);
        }
        snap0 = snap1;
    }

    Ok(NestedRun {
        parent: parent.state,
        child: child.state,
        child_patch,
        spec,
    })
}

/// Integrates the nested child's scenario *solo*: the identical refined
/// case, doubly-periodic boundaries, `steps × ratio` fine steps. The
/// nested child's interior must track this run to the documented digit
/// floor — boundary effects only penetrate a few cells in a short gate
/// run.
pub fn run_solo_fine(cfg: ModelConfig, steps: usize) -> Result<SbmPatchState, String> {
    let spec = cfg
        .nest
        .ok_or_else(|| "run_solo_fine: cfg.nest is None".to_string())?;
    spec.validate(cfg.case.nx, cfg.case.ny, cfg.halo)?;
    let mut parent_cfg = cfg;
    parent_cfg.nest = None;
    let parent_case = ConusCase::new(parent_cfg.case);
    let mut child = child_model(&parent_cfg, &parent_case, spec);
    for _ in 0..steps * spec.ratio.max(1) as usize {
        child.step();
    }
    Ok(child.state)
}

/// Maximum relative difference of `tt` and `qv` between two states on
/// the same patch, over the compute interior shrunk by `margin` cells
/// on each lateral side (the band where boundary treatment differs is
/// excluded; the remaining interior is where nested-vs-solo agreement
/// is asserted). As in `diffwrf`, a differing pair with a non-finite
/// side reads `f64::INFINITY`.
pub fn interior_max_rel(a: &SbmPatchState, b: &SbmPatchState, margin: i32) -> f64 {
    assert_eq!(a.patch.ip, b.patch.ip, "states must share a patch");
    let p = a.patch;
    let mut worst = 0.0f64;
    for j in (p.jp.lo + margin)..=(p.jp.hi - margin) {
        for k in p.kp.iter() {
            for i in (p.ip.lo + margin)..=(p.ip.hi - margin) {
                for (x, y) in [
                    (a.tt.get(i, k, j), b.tt.get(i, k, j)),
                    (a.qv.get(i, k, j), b.qv.get(i, k, j)),
                ] {
                    if x.to_bits() != y.to_bits() && !(x.is_finite() && y.is_finite()) {
                        return f64::INFINITY;
                    }
                    let denom = f64::from(x.abs().max(y.abs()));
                    if denom > 0.0 {
                        let rel = f64::from((x - y).abs()) / denom;
                        worst = worst.max(rel);
                    }
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::exec::ExecMode;
    use fsbm_core::scheme::SbmVersion;
    use mpi_sim::CommMode;
    use wrf_cases::CaseKind;

    fn nested_cfg(comm: CommMode) -> ModelConfig {
        let mut cfg = ModelConfig::case_gate(
            CaseKind::SquallLine,
            SbmVersion::Lookup,
            ExecMode::StaticTiles,
            1,
        );
        cfg.nest = Some(ModelConfig::GATE_NEST);
        cfg.comm = comm;
        cfg
    }

    #[test]
    fn nested_run_is_deterministic() {
        let cfg = nested_cfg(CommMode::Blocking);
        let a = run_nested(cfg, 2).unwrap();
        let b = run_nested(cfg, 2).unwrap();
        assert_eq!(a.parent.digest(), b.parent.digest());
        assert_eq!(a.child.digest(), b.child.digest());
    }

    #[test]
    fn blocking_and_overlapped_nests_agree_bitwise() {
        let a = run_nested(nested_cfg(CommMode::Blocking), 2).unwrap();
        let b = run_nested(nested_cfg(CommMode::Overlapped), 2).unwrap();
        assert_eq!(a.parent.digest(), b.parent.digest());
        assert_eq!(a.child.digest(), b.child.digest());
    }

    #[test]
    fn parent_is_unaffected_by_the_nest() {
        let cfg = nested_cfg(CommMode::Blocking);
        let nested = run_nested(cfg, 2).unwrap();
        let mut solo_cfg = cfg;
        solo_cfg.nest = None;
        let mut solo = Model::single_rank(solo_cfg);
        solo.run(2);
        assert_eq!(nested.parent.digest(), solo.state.digest());
    }

    /// One NaN in the child's interior `T`, on either side of the
    /// comparison, is the worst disagreement there is, not agreement.
    #[test]
    fn interior_nan_reads_as_infinite_disagreement() {
        let cfg = nested_cfg(CommMode::Blocking);
        let solo = Model::single_rank(cfg).state;
        let mut child = solo.clone();
        let p = child.patch;
        assert_eq!(interior_max_rel(&child, &solo, 4), 0.0);
        child.tt.set(p.ip.lo + 4, p.kp.lo, p.jp.lo + 4, f32::NAN);
        assert_eq!(interior_max_rel(&child, &solo, 4), f64::INFINITY);
        assert_eq!(interior_max_rel(&solo, &child, 4), f64::INFINITY);
        assert_eq!(interior_max_rel(&child, &child.clone(), 4), 0.0);
    }

    #[test]
    fn nested_child_tracks_the_solo_fine_run() {
        let cfg = nested_cfg(CommMode::Blocking);
        let nested = run_nested(cfg, ModelConfig::GATE_STEPS).unwrap();
        let solo = run_solo_fine(cfg, ModelConfig::GATE_STEPS).unwrap();
        let rel = interior_max_rel(&nested.child, &solo, 4);
        assert!(
            rel < 1.0e-3,
            "nested child interior must track the solo fine run, max rel {rel:e}"
        );
    }
}
