//! The WRF RK3 time integrator for scalars.
//!
//! WRF's `solve_em` advances each scalar with the Wicker–Skamarock
//! three-stage scheme: `φ* = φⁿ + Δt/3·L(φⁿ)`, `φ** = φⁿ + Δt/2·L(φ*)`,
//! `φⁿ⁺¹ = φⁿ + Δt·L(φ**)`, refreshing halos between stages. Every
//! scalar sees the same wind, so the one driver ([`rk3_advect_panel`])
//! advances a *panel* of scalars stage by stage: a refresh is a panel
//! operation ([`HaloEngine::post_panel`] / [`HaloEngine::finish_panel`],
//! which fill every lane's halo with the values it would get advanced
//! alone), and the tendency of all lanes is one sweep that computes each
//! row's face velocities once. [`rk3_advect_scalar`] and
//! [`rk3_advect_scalar_overlapped`] are its one-lane case. The comm mode
//! decides only what "refresh the halo and evaluate the tendency" means:
//! refresh fully, then one whole-patch tendency, or the regions of
//! [`wrf_grid::overlap_plan`] between each round's post and finish —
//! the first core row's interior behind round 0, every later core row at
//! full patch width and the first row's edge pieces behind round 1 —
//! then the south and north strips. The plan is a disjoint cover of the
//! patch, so either way every point runs the one row kernel once and the
//! two agree bit for bit.

use crate::advect::{tend_panel_region, tend_panel_region_pool, update_rows, STENCIL_WIDTH};
use crate::wind::Wind;
use fsbm_core::meter::PointWork;
use fsbm_core::point::Floored;
use wrf_exec::Executor;
use wrf_grid::{overlap_plan, Field3, HaloSide, PatchSpec, Region};

/// Halo refresh callback invoked on the provisional field before each
/// tendency evaluation.
pub type HaloRefresh<'a> = dyn FnMut(&mut Field3<f32>) + 'a;

/// Identity of the scalar a halo refresh is servicing. Periodic and MPI
/// exchanges ignore it (the wire format is field-agnostic), but nest
/// boundary engines must know *which* scalar they are forcing: the
/// parent supplies different interpolated values for θ, vapor, and each
/// hydrometeor bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldTag {
    /// Potential temperature θ.
    Theta,
    /// Water-vapor mixing ratio.
    Qv,
    /// Hydrometeor bin `(class, bin)`.
    Bin(usize, usize),
}

/// Work accounting of one RK3 advance, split by the paper's hotspot
/// routine names, and what the final stage's tail floor removed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rk3Work {
    /// `rk_scalar_tend` work.
    pub tend: PointWork,
    /// `rk_update_scalar` work.
    pub update: PointWork,
    /// Values of positive-definite lanes the final stage stored as `+0.0`
    /// ([`fsbm_core::point::floor_tail`]), summed lane by lane.
    pub floored: Floored,
}

impl std::ops::AddAssign for Rk3Work {
    fn add_assign(&mut self, rhs: Rk3Work) {
        self.tend += rhs.tend;
        self.update += rhs.update;
        self.floored += rhs.floored;
    }
}

/// The three Wicker–Skamarock stages of a panel over caller workspaces
/// (`scratch` and `tend`, at least one field per lane, reused across
/// hundreds of bin scalars). φⁿ is never copied: stages 1–2 read it from
/// `lanes`, which nothing overwrites until stage 3 updates it in place.
/// `tags`, when given, names the lanes to the engine's panel hooks; the
/// one-lane wrappers leave the selection to their caller.
#[allow(clippy::too_many_arguments)]
fn rk3_stages(
    lanes: &mut [Field3<f32>],
    tags: Option<&[FieldTag]>,
    wind: &Wind,
    patch: &PatchSpec,
    (dx, dy, dz): (f32, f32, f32),
    dt: f32,
    positive: bool,
    scratch: &mut [Field3<f32>],
    tend: &mut [Field3<f32>],
    engine: &mut dyn HaloEngine,
    overlap: Option<&Executor>,
) -> Rk3Work {
    let n = lanes.len();
    let (scratch, tend) = (&mut scratch[..n], &mut tend[..n]);
    let whole = Region {
        i: patch.ip,
        j: patch.jp,
    };
    let rounds = engine.rounds();
    let plan = overlap.map(|pool| {
        assert_eq!(
            rounds,
            HaloSide::ROUNDS.len(),
            "the overlapped sweep hides work behind the W/E and S/N rounds of HaloSide::ROUNDS; \
             an engine with another round count must run blocking (overlap = None)"
        );
        (pool, overlap_plan(patch, STENCIL_WIDTH))
    });
    // What must wait for complete halos: the whole patch, or with a pool
    // to overlap on, only what the plan leaves after the last round.
    let after_refresh = match &plan {
        None => std::slice::from_ref(&whole),
        Some((_, plan)) => &plan.after[..],
    };
    // Leaves `tend[l] = L(fields[l])` with every field's halo refreshed:
    // round by round for the whole panel, and with a pool the plan's
    // regions for round `r` of all lanes while that round is in flight
    // (their stencils read only halo cells earlier rounds finished, and
    // `finish_panel` writes only halo cells), then one sweep over the
    // rest.
    let refresh_tend = |fields: &mut [Field3<f32>],
                        tend: &mut [Field3<f32>],
                        engine: &mut dyn HaloEngine,
                        work: &mut PointWork| {
        for r in 0..rounds {
            engine.post_panel(r, fields, tags);
            if let Some((pool, plan)) = &plan {
                // A patch with an empty core hides nothing.
                if !plan.hidden[r].is_empty() {
                    let mut w = PointWork::ZERO;
                    for region in plan.hidden[r].iter() {
                        tend_panel_region_pool(
                            fields, wind, patch, region, dx, dy, dz, tend, pool, &mut w,
                        );
                    }
                    engine.absorb(w);
                    *work += w;
                }
            }
            engine.finish_panel(r, fields, tags);
        }
        for region in after_refresh {
            tend_panel_region(fields, wind, patch, region, dx, dy, dz, tend, work);
        }
    };
    let mut work = Rk3Work::default();
    let update = |out: &mut [Field3<f32>],
                  base: Option<&[Field3<f32>]>,
                  tend: &[Field3<f32>],
                  dt_stage: f32,
                  work: &mut Rk3Work| {
        for (lane, (out, tend)) in out.iter_mut().zip(tend).enumerate() {
            let base = base.map(|b| &b[lane]);
            let (meter, floored) = (&mut work.update, &mut work.floored);
            update_rows(out, base, tend, dt_stage, patch, positive, meter, floored);
        }
    };

    // Stage 1: φ* = φⁿ + Δt/3 · L(φⁿ)
    refresh_tend(lanes, tend, engine, &mut work.tend);
    update(scratch, Some(lanes), tend, dt / 3.0, &mut work);

    // Stage 2: φ** = φⁿ + Δt/2 · L(φ*)
    refresh_tend(scratch, tend, engine, &mut work.tend);
    update(scratch, Some(lanes), tend, dt / 2.0, &mut work);

    // Stage 3: φⁿ⁺¹ = φⁿ + Δt · L(φ**), the tails of positive lanes
    // floored where they are written.
    refresh_tend(scratch, tend, engine, &mut work.tend);
    update(lanes, None, tend, dt, &mut work);

    // The post-update refresh has no compute to hide behind (the next
    // consumer of the lanes is outside this call): rounds back-to-back.
    for r in 0..rounds {
        engine.post_panel(r, lanes, tags);
        engine.finish_panel(r, lanes, tags);
    }
    work
}

/// Advances a panel of scalars by `dt` with RK3, stage by stage, over
/// the workspaces `scratch` and `tend` (at least `lanes.len()` fields
/// each, shaped like the lanes). `engine` refreshes the panel — round
/// by round through [`HaloEngine::post_panel`] and
/// [`HaloEngine::finish_panel`], which get `tags` to name the lanes —
/// before every stage's tendency and once more after the final update:
/// four refreshes a call whatever the panel width, each lane's halo
/// ending up with the values it would get advanced alone. What a refresh
/// costs is the engine's: one that batches (the MPI exchange) sends one
/// message per neighbour per round carrying every lane's strip, so its
/// message count and tags follow the number of panels while its bytes
/// follow the number of scalars; one on the default hooks services the
/// lanes one after another. `overlap` decides when the tendency runs:
/// `None` after the panel is refreshed, as one sweep sharing each row's
/// face velocities across the lanes; `Some(pool)` as the whole panel's
/// share of [`wrf_grid::overlap_plan`] on `pool` between each round's
/// post and finish (the first core row's interior in round 0, every
/// later core row at full width and the first row's edges in round 1),
/// then the south and north strips. `Some` needs an engine with the two
/// rounds of [`HaloSide::ROUNDS`]. Both are bitwise-identical, per
/// lane, to advancing that scalar on its own. `positive` enables WRF's
/// positive-definite clipping (negatives to zero at every stage) and the
/// final stage's tail floor (values below
/// [`fsbm_core::point::N_FLOOR`] to `+0.0`).
#[allow(clippy::too_many_arguments)]
pub fn rk3_advect_panel(
    lanes: &mut [Field3<f32>],
    tags: &[FieldTag],
    wind: &Wind,
    patch: &PatchSpec,
    dx: f32,
    dy: f32,
    dz: f32,
    dt: f32,
    positive: bool,
    scratch: &mut [Field3<f32>],
    tend: &mut [Field3<f32>],
    engine: &mut dyn HaloEngine,
    overlap: Option<&Executor>,
) -> Rk3Work {
    assert_eq!(tags.len(), lanes.len(), "one tag per lane");
    rk3_stages(
        lanes,
        Some(tags),
        wind,
        patch,
        (dx, dy, dz),
        dt,
        positive,
        scratch,
        tend,
        engine,
        overlap,
    )
}

/// A whole-refresh callback as a one-round engine (completed in
/// `finish`), so the callback driver is the panel driver too.
struct CallbackEngine<'a, 'b>(&'a mut HaloRefresh<'b>);

impl HaloEngine for CallbackEngine<'_, '_> {
    fn rounds(&self) -> usize {
        1
    }
    fn post(&mut self, _round: usize, _field: &Field3<f32>) {}
    fn finish(&mut self, _round: usize, field: &mut Field3<f32>) {
        (self.0)(field);
    }
    fn absorb(&mut self, _work: PointWork) {}
}

/// Advances one scalar by `dt` with RK3: before each stage `refresh`
/// completes the whole halo, then one whole-patch `rk_scalar_tend` runs.
/// `positive` enables WRF's positive-definite clipping and the final
/// stage's tail floor. The one-lane case of [`rk3_advect_panel`].
#[allow(clippy::too_many_arguments)]
pub fn rk3_advect_scalar(
    scalar: &mut Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    dx: f32,
    dy: f32,
    dz: f32,
    dt: f32,
    positive: bool,
    scratch: &mut Field3<f32>,
    tend: &mut Field3<f32>,
    refresh: &mut HaloRefresh<'_>,
) -> Rk3Work {
    rk3_stages(
        std::slice::from_mut(scalar),
        None,
        wind,
        patch,
        (dx, dy, dz),
        dt,
        positive,
        std::slice::from_mut(scratch),
        std::slice::from_mut(tend),
        &mut CallbackEngine(refresh),
        None,
    )
}

/// Split-phase halo exchange: the one way a halo gets filled.
///
/// A refresh becomes `rounds()` dependent exchange rounds (WRF's
/// `HALO_EM_*` W/E-then-S/N corner dependency: round 1's south/north
/// buffers span the full memory `i`-range, including halo columns
/// received in round 0). A caller with nothing to overlap runs the
/// rounds back-to-back ([`refresh_now`]); the overlapped driver advances
/// tendencies between the post and the finish of each round and reports
/// the work via `absorb`, which the engine's cost model counts as hiding
/// the in-flight message time.
///
/// The round contract the overlapped driver relies on (its plan is
/// [`wrf_grid::overlap_plan`]) is that of [`HaloSide::ROUNDS`]: two
/// rounds; once round 0 has finished, every W/E halo cell of the compute
/// rows is final; round 1 fills the S/N halo rows over the full memory
/// `i`-range, corners included. Between a round's post and its finish,
/// the driver reads no halo cell that round or a later one fills. Every
/// engine in the tree keeps this contract; the overlapped driver asserts
/// the round count and an engine with another one must run blocking.
///
/// The RK3 driver refreshes a whole panel per round through
/// [`HaloEngine::post_panel`] and [`HaloEngine::finish_panel`]. An
/// engine that holds one lane's pending state implements the four
/// required methods and inherits those; one that can carry every lane in
/// a single exchange (the MPI engine: one message per neighbour per
/// round) overrides both.
pub trait HaloEngine {
    /// Number of dependent exchange rounds per refresh.
    fn rounds(&self) -> usize;
    /// Names the scalar the following rounds will refresh. Exchange
    /// engines that move bytes between ranks don't care and keep the
    /// default no-op; nest boundary engines use it to pick the parent
    /// field they interpolate from.
    fn select(&mut self, _tag: FieldTag) {}
    /// Posts round `round` nonblocking (pack + `isend` + `irecv`). May
    /// read halo cells written by earlier rounds' `finish`.
    fn post(&mut self, round: usize, field: &Field3<f32>);
    /// Completes round `round`: waits on its requests and unpacks the
    /// received strips into `field`'s halo cells (only halo cells).
    fn finish(&mut self, round: usize, field: &mut Field3<f32>);
    /// Reports tendency work computed while round messages were in
    /// flight, available to hide their modeled cost.
    fn absorb(&mut self, work: PointWork);
    /// Posts round `round` for every lane of a panel at once; `tags`,
    /// when given, names the lanes. It may write the halo cells this
    /// round or a later one fills (an engine that receives in place
    /// leaves them undefined until their round finishes), and nothing
    /// else. The default posts nothing and leaves the round to
    /// [`HaloEngine::finish_panel`].
    fn post_panel(
        &mut self,
        _round: usize,
        _fields: &mut [Field3<f32>],
        _tags: Option<&[FieldTag]>,
    ) {
    }
    /// Completes round `round` for every lane of the panel. The default
    /// serves an engine that holds one lane's pending state: per lane,
    /// `select`, `post` and `finish` back-to-back. Posting this late is
    /// legal because what the driver computes between the two panel hooks
    /// writes no field (only tendencies), so `post` packs the cells it
    /// would have packed earlier, and round `r + 1` of a lane still packs
    /// after its round `r` has unpacked.
    fn finish_panel(
        &mut self,
        round: usize,
        fields: &mut [Field3<f32>],
        tags: Option<&[FieldTag]>,
    ) {
        for (lane, field) in fields.iter_mut().enumerate() {
            if let Some(tags) = tags {
                self.select(tags[lane]);
            }
            self.post(round, field);
            self.finish(round, field);
        }
    }
}

/// A complete refresh of `field` with no compute to hide it behind:
/// every round posted and finished back-to-back.
pub fn refresh_now<E: HaloEngine + ?Sized>(engine: &mut E, field: &mut Field3<f32>) {
    for r in 0..engine.rounds() {
        engine.post(r, field);
        engine.finish(r, field);
    }
}

/// Advances one scalar by `dt` with RK3 like [`rk3_advect_scalar`], but
/// each of the three pre-tendency halo refreshes is split-phase: halo
/// messages fly while the rows [`wrf_grid::overlap_plan`] hides behind
/// each round run on `pool`, and only the south and north strips wait
/// for the last round. The one-lane case of [`rk3_advect_panel`]
/// with `overlap = Some(pool)`; the caller has `select`ed the scalar.
#[allow(clippy::too_many_arguments)]
pub fn rk3_advect_scalar_overlapped(
    scalar: &mut Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    dx: f32,
    dy: f32,
    dz: f32,
    dt: f32,
    positive: bool,
    scratch: &mut Field3<f32>,
    tend: &mut Field3<f32>,
    engine: &mut dyn HaloEngine,
    pool: &Executor,
) -> Rk3Work {
    rk3_stages(
        std::slice::from_mut(scalar),
        None,
        wind,
        patch,
        (dx, dy, dz),
        dt,
        positive,
        std::slice::from_mut(scratch),
        std::slice::from_mut(tend),
        engine,
        Some(pool),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::PeriodicEngine;
    use wrf_grid::{two_d_decomposition, Domain};

    fn periodic_i(p: PatchSpec) -> impl FnMut(&mut Field3<f32>) {
        move |f: &mut Field3<f32>| {
            for j in p.jm.iter() {
                for k in p.kp.iter() {
                    for h in 1..=p.halo {
                        let wrap_hi = f.get(p.ip.hi - h + 1, k, j);
                        f.set(p.ip.lo - h, k, j, wrap_hi);
                        let wrap_lo = f.get(p.ip.lo + h - 1, k, j);
                        f.set(p.ip.hi + h, k, j, wrap_lo);
                    }
                }
            }
        }
    }

    #[test]
    fn rk3_translates_with_less_dissipation_than_euler() {
        let p = two_d_decomposition(Domain::new(48, 6, 16), 1, 2).patches[0];
        let mut wind = Wind::calm(&p);
        for v in wind.u.as_mut_slice() {
            *v = 10.0;
        }
        let mut scalar = Field3::for_patch(&p);
        for i in 10..=18 {
            let x = (i - 14) as f32 / 4.0;
            scalar.set(i, 3, 8, (-x * x).exp());
        }
        let mut scratch = Field3::for_patch(&p);
        let mut tend = Field3::for_patch(&p);
        let mut refresh = periodic_i(p);
        let mass0 = scalar.compute_sum(&p);
        let mut work = Rk3Work::default();
        for _ in 0..24 {
            // CFL = 10·10/500 = 0.2. Clipping off: the conservation check
            // needs the raw flux form (naive clipping creates mass).
            work += rk3_advect_scalar(
                &mut scalar,
                &wind,
                &p,
                500.0,
                500.0,
                400.0,
                10.0,
                false,
                &mut scratch,
                &mut tend,
                &mut refresh,
            );
        }
        let mass1 = scalar.compute_sum(&p);
        assert!(
            (mass1 - mass0).abs() / mass0 < 5e-3,
            "mass {mass0} -> {mass1}"
        );
        // After 240 s at 10 m/s = 2400 m = 4.8 cells, the peak survives.
        assert!(scalar.max_abs() > 0.7, "peak {}", scalar.max_abs());
        // Tendency work is ~an order of magnitude above update work,
        // as in Table I's rk_scalar_tend vs rk_update_scalar split.
        assert!(work.tend.flops > 5 * work.update.flops);
    }

    #[test]
    fn overlapped_rk3_is_bitwise_equal_to_blocking() {
        let p = two_d_decomposition(Domain::new(40, 6, 28), 1, 2).patches[0];
        let mut wind = Wind::calm(&p);
        for (n, v) in wind.u.as_mut_slice().iter_mut().enumerate() {
            *v = 8.0 + (n % 7) as f32 * 0.5;
        }
        for (n, v) in wind.v.as_mut_slice().iter_mut().enumerate() {
            *v = -3.0 + (n % 5) as f32 * 0.25;
        }
        let mut init = Field3::for_patch(&p);
        for j in p.jp.iter() {
            for k in p.kp.iter() {
                for i in p.ip.iter() {
                    init.set(i, k, j, ((i * 31 + k * 7 + j * 13) % 17) as f32 * 0.1);
                }
            }
        }

        // Blocking reference: full two-round refresh before each stage.
        let mut blocking = init.clone();
        let mut scratch = Field3::for_patch(&p);
        let mut tend = Field3::for_patch(&p);
        let mut periodic = PeriodicEngine::new(p);
        let mut refresh = |f: &mut Field3<f32>| refresh_now(&mut periodic, f);
        let mut want = Rk3Work::default();
        for _ in 0..3 {
            want += rk3_advect_scalar(
                &mut blocking,
                &wind,
                &p,
                500.0,
                500.0,
                400.0,
                10.0,
                true,
                &mut scratch,
                &mut tend,
                &mut refresh,
            );
        }

        for workers in [1usize, 4] {
            let pool = Executor::new(workers);
            let mut over = init.clone();
            let mut scratch2 = Field3::for_patch(&p);
            let mut tend2 = Field3::for_patch(&p);
            let mut engine = PeriodicEngine::new(p);
            let mut got = Rk3Work::default();
            for _ in 0..3 {
                got += rk3_advect_scalar_overlapped(
                    &mut over,
                    &wind,
                    &p,
                    500.0,
                    500.0,
                    400.0,
                    10.0,
                    true,
                    &mut scratch2,
                    &mut tend2,
                    &mut engine,
                    &pool,
                );
            }
            // Bitwise equality over the whole allocation (halo included:
            // the final refresh ran in both paths).
            for (a, b) in over.as_slice().iter().zip(blocking.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
            assert_eq!(got, want, "metered work must match (workers={workers})");
            // The interior core did real work while rounds were open.
            assert!(engine.absorbed.flops > 0);
            assert!(engine.absorbed.flops < want.tend.flops);
        }
    }

    #[test]
    fn overlapped_rk3_handles_patch_with_no_interior() {
        // A patch thinner than 2·width+1: everything is boundary frame,
        // nothing absorbs — the engine must still produce the blocking
        // answer.
        let p = two_d_decomposition(Domain::new(4, 4, 4), 1, 2).patches[0];
        let mut wind = Wind::calm(&p);
        for v in wind.u.as_mut_slice() {
            *v = 5.0;
        }
        let mut init = Field3::for_patch(&p);
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                init.set(i, 1, j, (i + j) as f32);
            }
        }
        let mut blocking = init.clone();
        let mut scratch = Field3::for_patch(&p);
        let mut tend = Field3::for_patch(&p);
        let mut periodic = PeriodicEngine::new(p);
        let mut refresh = |f: &mut Field3<f32>| refresh_now(&mut periodic, f);
        let want = rk3_advect_scalar(
            &mut blocking,
            &wind,
            &p,
            500.0,
            500.0,
            400.0,
            6.0,
            true,
            &mut scratch,
            &mut tend,
            &mut refresh,
        );

        let pool = Executor::new(2);
        let mut over = init.clone();
        let mut engine = PeriodicEngine::new(p);
        let got = rk3_advect_scalar_overlapped(
            &mut over,
            &wind,
            &p,
            500.0,
            500.0,
            400.0,
            6.0,
            true,
            &mut scratch,
            &mut tend,
            &mut engine,
            &pool,
        );
        for (a, b) in over.as_slice().iter().zip(blocking.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(got, want);
        assert_eq!(engine.absorbed, PointWork::ZERO);
    }

    #[test]
    #[should_panic(expected = "an engine with another round count must run blocking")]
    fn overlap_refuses_an_engine_with_other_rounds() {
        let p = two_d_decomposition(Domain::new(8, 2, 8), 1, 2).patches[0];
        let wind = Wind::calm(&p);
        let mut f = Field3::for_patch(&p);
        let (mut scratch, mut tend) = (Field3::for_patch(&p), Field3::for_patch(&p));
        let mut refresh = periodic_i(p);
        rk3_advect_scalar_overlapped(
            &mut f,
            &wind,
            &p,
            500.0,
            500.0,
            400.0,
            5.0,
            true,
            &mut scratch,
            &mut tend,
            &mut CallbackEngine(&mut refresh),
            &Executor::new(1),
        );
    }

    #[test]
    fn rk3_keeps_positivity() {
        let p = two_d_decomposition(Domain::new(32, 4, 12), 1, 2).patches[0];
        let mut wind = Wind::calm(&p);
        for v in wind.u.as_mut_slice() {
            *v = 15.0;
        }
        let mut scalar = Field3::for_patch(&p);
        scalar.set(16, 2, 6, 1.0);
        let mut scratch = Field3::for_patch(&p);
        let mut tend = Field3::for_patch(&p);
        let mut refresh = periodic_i(p);
        for _ in 0..30 {
            rk3_advect_scalar(
                &mut scalar,
                &wind,
                &p,
                500.0,
                500.0,
                400.0,
                8.0,
                true,
                &mut scratch,
                &mut tend,
                &mut refresh,
            );
        }
        assert!(scalar.as_slice().iter().all(|&v| v >= 0.0));
    }
}
