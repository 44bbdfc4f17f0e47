//! The WRF RK3 time integrator for scalars.
//!
//! WRF's `solve_em` advances each scalar with the Wicker–Skamarock
//! three-stage scheme: `φ* = φⁿ + Δt/3·L(φⁿ)`, `φ** = φⁿ + Δt/2·L(φ*)`,
//! `φⁿ⁺¹ = φⁿ + Δt·L(φ**)`, refreshing halos between stages. Both
//! drivers share one stage body ([`rk3_stages`]) and differ only in what
//! "refresh the halo and evaluate the tendency" means: refresh fully,
//! then one whole-patch tendency ([`rk3_advect_scalar`]), or interior
//! slabs between a [`HaloEngine`]'s `post` and `finish`, then the
//! boundary frame ([`rk3_advect_scalar_overlapped`]).

use crate::advect::{
    rk_scalar_tend, rk_scalar_tend_region, rk_scalar_tend_region_pool, rk_update_scalar,
    STENCIL_WIDTH,
};
use crate::wind::Wind;
use fsbm_core::meter::PointWork;
use wrf_exec::Executor;
use wrf_grid::{interior_split, Field3, InteriorSplit, PatchSpec, Region};

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
/// routine names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rk3Work {
    /// `rk_scalar_tend` work.
    pub tend: PointWork,
    /// `rk_update_scalar` work.
    pub update: PointWork,
}

impl std::ops::AddAssign for Rk3Work {
    fn add_assign(&mut self, rhs: Rk3Work) {
        self.tend += rhs.tend;
        self.update += rhs.update;
    }
}

/// The three Wicker–Skamarock stages over caller workspaces (`scratch`
/// and `tend` avoid per-call allocation over hundreds of bin scalars).
/// `refresh_tend(field, tend, work)` must leave `tend = L(field)` with
/// `field`'s halo refreshed; the post-update refresh of `scalar` is the
/// caller's.
fn rk3_stages(
    scalar: &mut Field3<f32>,
    patch: &PatchSpec,
    dt: f32,
    positive: bool,
    scratch: &mut Field3<f32>,
    tend: &mut Field3<f32>,
    mut refresh_tend: impl FnMut(&mut Field3<f32>, &mut Field3<f32>, &mut PointWork),
) -> Rk3Work {
    let mut work = Rk3Work::default();
    let base = scalar.clone();
    let up = &mut work.update;

    // Stage 1: φ* = φⁿ + Δt/3 · L(φⁿ)
    refresh_tend(scalar, tend, &mut work.tend);
    rk_update_scalar(scratch, &base, tend, dt / 3.0, patch, positive, up);

    // Stage 2: φ** = φⁿ + Δt/2 · L(φ*)
    refresh_tend(scratch, tend, &mut work.tend);
    rk_update_scalar(scratch, &base, tend, dt / 2.0, patch, positive, up);

    // Stage 3: φⁿ⁺¹ = φⁿ + Δt · L(φ**)
    refresh_tend(scratch, tend, &mut work.tend);
    rk_update_scalar(scalar, &base, tend, dt, patch, positive, up);

    work
}

/// Advances one scalar by `dt` with RK3: before each stage `refresh`
/// completes the whole halo, then one whole-patch `rk_scalar_tend` runs.
/// `positive` enables WRF's positive-definite clipping.
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
    let work = rk3_stages(scalar, patch, dt, positive, scratch, tend, |f, tend, w| {
        refresh(f);
        rk_scalar_tend(f, wind, patch, dx, dy, dz, tend, w);
    });
    refresh(scalar);
    work
}

/// Split-phase halo exchange: the one way a halo gets filled.
///
/// A refresh becomes `rounds()` dependent exchange rounds (WRF's
/// `HALO_EM_*` W/E-then-S/N corner dependency: round 1's south/north
/// buffers span the full memory `i`-range, including halo columns
/// received in round 0). A caller with nothing to overlap runs the
/// rounds back-to-back ([`refresh_now`]); the overlapped driver advances
/// interior tendencies between `post` and `finish` of each round and
/// reports the work via `absorb`, which the engine's cost model counts
/// as hiding the in-flight message time.
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
}

/// A complete refresh of `field` with no compute to hide it behind:
/// every round posted and finished back-to-back.
pub fn refresh_now<E: HaloEngine + ?Sized>(engine: &mut E, field: &mut Field3<f32>) {
    for r in 0..engine.rounds() {
        engine.post(r, field);
        engine.finish(r, field);
    }
}

/// One overlapped refresh+tendency pass over `field`: halo rounds are
/// posted nonblocking while the interior core's tendency advances on
/// the pool, then the boundary frame is finished serially once every
/// halo strip has arrived. Bitwise-identical to `refresh(field)`
/// followed by a full `rk_scalar_tend` because the per-point arithmetic
/// is shared, interior stencils never read halo cells, and unpack
/// writes only halo cells.
#[allow(clippy::too_many_arguments)]
fn overlapped_refresh_tend(
    field: &mut Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    split: &InteriorSplit,
    dx: f32,
    dy: f32,
    dz: f32,
    tend: &mut Field3<f32>,
    engine: &mut dyn HaloEngine,
    pool: &Executor,
    work: &mut PointWork,
) {
    let rounds = engine.rounds();
    // One interior j-slab per round, so every round has compute to hide
    // behind (empty slabs for thin cores are skipped).
    let slabs: Vec<Region> = split
        .core
        .j
        .split(rounds)
        .into_iter()
        .map(|j| Region { i: split.core.i, j })
        .collect();
    for (r, slab) in slabs.iter().enumerate() {
        engine.post(r, field);
        if !split.core.is_empty() && !slab.is_empty() {
            let mut w = PointWork::ZERO;
            rk_scalar_tend_region_pool(field, wind, patch, slab, dx, dy, dz, tend, pool, &mut w);
            engine.absorb(w);
            *work += w;
        }
        engine.finish(r, field);
    }
    // Boundary strips read fresh halo cells: evaluated after the last
    // round completes.
    for strip in &split.frame {
        rk_scalar_tend_region(field, wind, patch, strip, dx, dy, dz, tend, work);
    }
}

/// Advances one scalar by `dt` with RK3 like [`rk3_advect_scalar`], but
/// each of the three pre-tendency halo refreshes is split-phase: halo
/// messages fly while the interior tendency runs on `pool`, and only
/// the boundary frame waits. The trailing post-update refresh has no
/// compute to hide behind (the next consumer of `scalar` is outside
/// this call) and runs its rounds back-to-back.
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
    let split = interior_split(patch, STENCIL_WIDTH);
    let work = rk3_stages(scalar, patch, dt, positive, scratch, tend, |f, tend, w| {
        overlapped_refresh_tend(f, wind, patch, &split, dx, dy, dz, tend, engine, pool, w);
    });
    refresh_now(engine, scalar);
    work
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Doubly-periodic refresh in two rounds mirroring the W/E-then-S/N
    /// exchange: round 0 wraps `i` over compute `j`, round 1 wraps `j`
    /// over the full memory `i` range (corners ride along, as in
    /// `HALO_EM_*`).
    fn wrap_we(f: &mut Field3<f32>, p: &PatchSpec) {
        for j in p.jp.iter() {
            for k in p.kp.iter() {
                for h in 1..=p.halo {
                    let west = f.get(p.ip.hi - h + 1, k, j);
                    f.set(p.ip.lo - h, k, j, west);
                    let east = f.get(p.ip.lo + h - 1, k, j);
                    f.set(p.ip.hi + h, k, j, east);
                }
            }
        }
    }

    fn wrap_sn(f: &mut Field3<f32>, p: &PatchSpec) {
        for i in p.im.iter() {
            for k in p.kp.iter() {
                for h in 1..=p.halo {
                    let south = f.get(i, k, p.jp.hi - h + 1);
                    f.set(i, k, p.jp.lo - h, south);
                    let north = f.get(i, k, p.jp.lo + h - 1);
                    f.set(i, k, p.jp.hi + h, north);
                }
            }
        }
    }

    /// A fully local engine: each round's "exchange" is the periodic
    /// wrap, deferred from `post` to `finish` so interior compute runs
    /// on stale halos exactly as with real in-flight messages.
    struct PeriodicEngine {
        patch: PatchSpec,
        absorbed: PointWork,
    }

    impl HaloEngine for PeriodicEngine {
        fn rounds(&self) -> usize {
            2
        }
        fn post(&mut self, _round: usize, _field: &Field3<f32>) {}
        fn finish(&mut self, round: usize, field: &mut Field3<f32>) {
            if round == 0 {
                wrap_we(field, &self.patch);
            } else {
                wrap_sn(field, &self.patch);
            }
        }
        fn absorb(&mut self, work: PointWork) {
            self.absorbed += work;
        }
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
        let mut refresh = |f: &mut Field3<f32>| {
            wrap_we(f, &p);
            wrap_sn(f, &p);
        };
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
            let mut engine = PeriodicEngine {
                patch: p,
                absorbed: PointWork::ZERO,
            };
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
        let mut refresh = |f: &mut Field3<f32>| {
            wrap_we(f, &p);
            wrap_sn(f, &p);
        };
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
        let mut engine = PeriodicEngine {
            patch: p,
            absorbed: PointWork::ZERO,
        };
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
