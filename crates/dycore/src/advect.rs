//! `rk_scalar_tend` / `rk_update_scalar`: flux-divergence tendencies and
//! RK3 stage updates, following WRF's `module_advect_em` structure
//! (third-order upwind-biased horizontal fluxes, second-order vertical,
//! positive-definite clipping of every stage, and the tail floor
//! [`fsbm_core::point::N_FLOOR`] on the final one).
//!
//! Every driver here is one row kernel: for each `i`-run of a `(k, j)`
//! row the six face velocities are computed once (`FaceRows`) and
//! applied through equal-length slices to each scalar of a panel. The
//! goldens pin f32 bit patterns, so the kernel moves loads and loops but
//! keeps every operation of the per-point body it replaced (kept, for
//! tests, in `crate::reference`).

use crate::wind::Wind;
use fsbm_core::meter::PointWork;
use fsbm_core::panels::LANES;
use fsbm_core::point::Floored;
use gpu_sim::syncslice::SyncWriteSlice;
use wrf_exec::Executor;
use wrf_grid::{Field3, PatchSpec, Region, Span};

/// Horizontal half-width of the tendency stencil: `flux3` reads `±2`
/// cells in `i` and `j`, which is also the halo depth a refresh must
/// provide and the shrink [`wrf_grid::interior_split`] needs for
/// overlap-safe interiors.
pub const STENCIL_WIDTH: i32 = 2;

/// Metered FLOPs per grid point per scalar per tendency evaluation
/// (exported so the performance model prices full-scale transport with
/// the same constants the functional meter uses).
pub const TEND_FLOPS_PER_POINT: u64 = 58;
/// Metered 4-byte memory operands per point per tendency evaluation.
pub const TEND_MEMOPS_PER_POINT: u64 = 22;
/// Metered FLOPs per point per RK3 stage update.
pub const UPDATE_FLOPS_PER_POINT: u64 = 3;
/// Metered memory operands per point per stage update.
pub const UPDATE_MEMOPS_PER_POINT: u64 = 3;

/// Third-order upwind-biased interface value from the four surrounding
/// cells (WRF's `flux3`): for wind ≥ 0 the stencil is biased upstream.
#[inline]
pub(crate) fn flux3(qm2: f32, qm1: f32, q0: f32, qp1: f32, vel: f32) -> f32 {
    // Fourth-order symmetric part plus a dissipative third-order upwind
    // correction carrying the sign of the wind (WRF's `flux3`).
    // For vel > 0 the third-order upwind value is (−q₋₂ + 5q₋₁ + 2q₀)/6
    // = sym + diss; for vel < 0 the mirrored stencil gives sym − diss.
    let sym = (7.0 * (qm1 + q0) - (qm2 + qp1)) / 12.0;
    let diss = ((qp1 - qm2) - 3.0 * (q0 - qm1)) / 12.0;
    let sign = if vel >= 0.0 { 1.0 } else { -1.0 };
    vel * (sym + sign * diss)
}

/// Longest `i`-run one [`FaceRows`] holds; a longer row goes in pieces.
const ROW_BLOCK: usize = 64;

/// The pieces of `i`, each at most [`ROW_BLOCK`] long.
fn row_blocks(i: Span) -> impl Iterator<Item = Span> {
    (i.lo..=i.hi).step_by(ROW_BLOCK).map(move |lo| Span {
        lo,
        hi: (lo + ROW_BLOCK as i32 - 1).min(i.hi),
    })
}

/// What every scalar's tendency over one `i`-run of a `(k, j)` row
/// shares: the six face velocities (whose signs are the upwind
/// selection) and the vertical neighbours clamped into the column.
/// Filled once per run and applied to each lane of a panel, so the wind
/// is read once however many scalars ride it.
struct FaceRows {
    run: Span,
    k: i32,
    j: i32,
    /// `k − 1` and `k + 1` clamped into the column: equal to `k` at a
    /// column end, where no flux crosses the face.
    k_below: i32,
    k_above: i32,
    u_m: [f32; ROW_BLOCK],
    u_p: [f32; ROW_BLOCK],
    v_m: [f32; ROW_BLOCK],
    v_p: [f32; ROW_BLOCK],
    w_m: [f32; ROW_BLOCK],
    w_p: [f32; ROW_BLOCK],
}

impl FaceRows {
    fn new() -> Self {
        let (run, zero) = (Span { lo: 0, hi: -1 }, [0.0; ROW_BLOCK]);
        FaceRows {
            run,
            k: 0,
            j: 0,
            k_below: 0,
            k_above: 0,
            u_m: zero,
            u_p: zero,
            v_m: zero,
            v_p: zero,
            w_m: zero,
            w_p: zero,
        }
    }

    /// Interface velocities at `i ∓ 1/2`, `j ∓ 1/2`, `k ∓ 1/2` for the
    /// run `run` (at most [`ROW_BLOCK`] long) of row `(k, j)`.
    fn fill(&mut self, wind: &Wind, run: Span, k: i32, j: i32, kp: Span) {
        let n = run.len();
        let (k_below, k_above) = ((k - 1).max(kp.lo), (k + 1).min(kp.hi));
        let u = Stencil::new(&wind.u, run, k, j);
        let (west, here, east) = (u.at(-1, 0, 0), u.at(0, 0, 0), u.at(1, 0, 0));
        for x in 0..n {
            self.u_m[x] = 0.5 * (west[x] + here[x]);
            self.u_p[x] = 0.5 * (here[x] + east[x]);
        }
        let v = Stencil::new(&wind.v, run, k, j);
        let (south, here, north) = (v.at(0, 0, -1), v.at(0, 0, 0), v.at(0, 0, 1));
        for x in 0..n {
            self.v_m[x] = 0.5 * (south[x] + here[x]);
            self.v_p[x] = 0.5 * (here[x] + north[x]);
        }
        let w = Stencil::new(&wind.w, run, k, j);
        let (below, here, above) = (
            w.at(0, k_below - k, 0),
            w.at(0, 0, 0),
            w.at(0, k_above - k, 0),
        );
        for x in 0..n {
            self.w_m[x] = 0.5 * (below[x] + here[x]);
            self.w_p[x] = 0.5 * (here[x] + above[x]);
        }
        (self.run, self.k, self.j) = (run, k, j);
        (self.k_below, self.k_above) = (k_below, k_above);
    }

    /// The flux-divergence tendency of `q` over the filled run, written
    /// to `out` — the one arithmetic body behind every tendency driver,
    /// so every execution strategy produces bitwise-identical values.
    fn tend(&self, q: &Field3<f32>, dx: f32, dy: f32, dz: f32, out: &mut [f32]) {
        let (k, n) = (self.k, self.run.len());
        // Every operand as a slice of exactly the run's length, so the
        // loop carries no index arithmetic or bounds checks and
        // vectorizes.
        let q = Stencil::new(q, self.run, k, self.j);
        let (im2, im1, ip1, ip2) = (q.at(-2, 0, 0), q.at(-1, 0, 0), q.at(1, 0, 0), q.at(2, 0, 0));
        let (jm2, jm1, jp1, jp2) = (q.at(0, 0, -2), q.at(0, 0, -1), q.at(0, 0, 1), q.at(0, 0, 2));
        let (below, above) = (q.at(0, self.k_below - k, 0), q.at(0, self.k_above - k, 0));
        let (bottom, top) = (self.k_below == k, self.k_above == k);
        let q0 = q.at(0, 0, 0);
        let (u_m, u_p) = (&self.u_m[..n], &self.u_p[..n]);
        let (v_m, v_p) = (&self.v_m[..n], &self.v_p[..n]);
        let (w_m, w_p) = (&self.w_m[..n], &self.w_p[..n]);
        let out = &mut out[..n];
        for x in 0..n {
            let q0 = q0[x];
            // x-direction interfaces at i−1/2 and i+1/2.
            let fx_m = flux3(im2[x], im1[x], q0, ip1[x], u_m[x]);
            let fx_p = flux3(im1[x], q0, ip1[x], ip2[x], u_p[x]);
            // y-direction.
            let fy_m = flux3(jm2[x], jm1[x], q0, jp1[x], v_m[x]);
            let fy_p = flux3(jm1[x], q0, jp1[x], jp2[x], v_p[x]);
            // z-direction: second-order centered; no flux crosses a
            // column end (selected after the fact to keep the loop
            // branch-free — the clamped neighbour is always readable).
            let fz_m = w_m[x] * 0.5 * (below[x] + q0);
            let fz_p = w_p[x] * 0.5 * (q0 + above[x]);
            let fz_m = if bottom { 0.0 } else { fz_m };
            let fz_p = if top { 0.0 } else { fz_p };
            out[x] = -((fx_p - fx_m) / dx + (fy_p - fy_m) / dy + (fz_p - fz_m) / dz);
        }
    }
}

/// The runs of a field displaced by whole cells from one `i`-run of a
/// `(k, j)` row, all reached from a single index computation.
struct Stencil<'a> {
    data: &'a [f32],
    at: isize,
    k_stride: isize,
    j_stride: isize,
    n: usize,
}

impl<'a> Stencil<'a> {
    fn new(f: &'a Field3<f32>, run: Span, k: i32, j: i32) -> Self {
        let (k_stride, j_stride) = f.strides();
        Stencil {
            data: f.as_slice(),
            at: f.flat_index(run.lo, k, j) as isize,
            k_stride: k_stride as isize,
            j_stride: j_stride as isize,
            n: run.len(),
        }
    }

    /// The run displaced by `(di, dk, dj)` cells. Bounds-checked against
    /// the allocation; staying inside the row's halo is the caller's
    /// (`patch.halo >= 2`).
    #[inline]
    fn at(&self, di: i32, dk: i32, dj: i32) -> &'a [f32] {
        let start =
            self.at + di as isize + dk as isize * self.k_stride + dj as isize * self.j_stride;
        &self.data[start as usize..][..self.n]
    }
}

/// Computes the advective tendency `−∇·(v q)` of `scalar` into `tend`
/// over the compute region of `patch`. Requires 2 halo cells in `i`/`j`.
/// Velocities are cell-centered (an intentional simplification of WRF's
/// C-grid staggering; the flux stencils and cost are the same).
#[allow(clippy::too_many_arguments)] // mirrors WRF's advect_scalar signature
pub fn rk_scalar_tend(
    scalar: &Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    dx: f32,
    dy: f32,
    dz: f32,
    tend: &mut Field3<f32>,
    work: &mut PointWork,
) {
    let whole = Region {
        i: patch.ip,
        j: patch.jp,
    };
    tend_panel_region(
        std::slice::from_ref(scalar),
        wind,
        patch,
        &whole,
        dx,
        dy,
        dz,
        std::slice::from_mut(tend),
        work,
    );
}

/// Row by row through plane `j` over the `i`-span `i`: fills the face
/// rows of each run of at most [`ROW_BLOCK`] cells and hands them to
/// `apply` with the run and its `k` — the one row loop behind the serial
/// sweep and the pool's plane units.
fn plane_rows(
    wind: &Wind,
    patch: &PatchSpec,
    i: Span,
    j: i32,
    mut apply: impl FnMut(&FaceRows, Span, i32),
) {
    let mut faces = FaceRows::new();
    for k in patch.kp.iter() {
        for run in row_blocks(i) {
            faces.fill(wind, run, k, j, patch.kp);
            apply(&faces, run, k);
        }
    }
}

/// Meters one tendency evaluation of `lanes` scalars over `region` (a
/// fixed count per point, so it is the same however the sweep is cut).
fn meter_tend(region: &Region, patch: &PatchSpec, lanes: usize, work: &mut PointWork) {
    let points = (region.columns() * patch.kp.len() * lanes) as u64;
    work.fm(
        points * TEND_FLOPS_PER_POINT,
        points * TEND_MEMOPS_PER_POINT,
    );
}

/// [`rk_scalar_tend`] for a panel over one horizontal sub-rectangle of
/// the patch (full `k` extent): `tend[l] = L(scalars[l])` over `region`,
/// with each row's face velocities computed once and applied to every
/// lane. Identical per-point arithmetic whatever the region, so a cover
/// of disjoint regions — the interior/boundary split of comm–compute
/// overlap — reproduces the full sweep bit for bit, with the same total
/// metered work.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tend_panel_region(
    scalars: &[Field3<f32>],
    wind: &Wind,
    patch: &PatchSpec,
    region: &Region,
    dx: f32,
    dy: f32,
    dz: f32,
    tend: &mut [Field3<f32>],
    work: &mut PointWork,
) {
    assert!(patch.halo >= 2, "third-order stencils need 2 halo cells");
    assert_eq!(scalars.len(), tend.len(), "one tendency per lane");
    if region.is_empty() {
        return;
    }
    for j in region.j.iter() {
        plane_rows(wind, patch, region.i, j, |faces, run, k| {
            for (q, t) in scalars.iter().zip(tend.iter_mut()) {
                faces.tend(q, dx, dy, dz, t.run_mut(run, k, j));
            }
        });
    }
    meter_tend(region, patch, scalars.len(), work);
}

/// [`tend_panel_region`] on the pool: one unit per `j`-plane of the
/// whole panel (at most [`LANES`] lanes, all shaped alike), so a plane's
/// face velocities are still computed once for every lane. Every `tend`
/// cell is written by exactly one plane and the row arithmetic is shared
/// with the serial path, so results are bitwise identical under every
/// worker count, and the metered work (a fixed per-point count) is
/// accumulated once for the whole region. A one-worker pool runs the
/// units in order on the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tend_panel_region_pool(
    scalars: &[Field3<f32>],
    wind: &Wind,
    patch: &PatchSpec,
    region: &Region,
    dx: f32,
    dy: f32,
    dz: f32,
    tend: &mut [Field3<f32>],
    pool: &Executor,
    work: &mut PointWork,
) {
    assert!(patch.halo >= 2, "third-order stencils need 2 halo cells");
    assert_eq!(scalars.len(), tend.len(), "one tendency per lane");
    assert!(tend.len() <= LANES, "a panel has at most {LANES} lanes");
    if region.is_empty() || tend.is_empty() {
        return;
    }
    let shape = |t: &Field3<f32>| (t.ispan(), t.kspan(), t.jspan());
    let (ti, tk, tj) = shape(&tend[0]);
    assert!(
        tend.iter().all(|t| shape(t) == (ti, tk, tj)),
        "the tendency lanes share one shape"
    );
    let flat = move |i: i32, k: i32, j: i32| -> usize {
        (i - ti.lo) as usize + ti.len() * ((k - tk.lo) as usize + tk.len() * (j - tj.lo) as usize)
    };
    let mut lanes = tend.iter_mut();
    let views: [Option<SyncWriteSlice<'_, f32>>; LANES] = std::array::from_fn(|_| {
        let lane = lanes.next()?;
        // SAFETY: plane `j` writes only indices with that `j` coordinate,
        // of every lane (each lane is a slice of its own, so lanes never
        // alias); planes are disjoint and `run_indexed` hands each index
        // to exactly one worker.
        Some(unsafe { SyncWriteSlice::new(lane.as_mut_slice()) })
    });
    let j_lo = region.j.lo;
    pool.run_indexed(region.j.len() as u64, Some(1), |jj| {
        let j = j_lo + jj as i32;
        plane_rows(wind, patch, region.i, j, |faces, run, k| {
            let at = flat(run.lo, k, j);
            for (q, view) in scalars.iter().zip(views.iter().flatten()) {
                faces.tend(q, dx, dy, dz, view.subslice_mut(at, run.len()));
            }
        });
    });
    meter_tend(region, patch, scalars.len(), work);
}

/// One RK3 stage value: `base + dt_stage · tend`, negatives clipped to
/// zero when `positive` (WRF's positive-definite clipping). The final
/// stage's tail floor is [`update_rows`]'s.
#[inline]
fn stage_value(base: f32, tend: f32, dt_stage: f32, positive: bool) -> f32 {
    let v = base + dt_stage * tend;
    if positive && v < 0.0 {
        0.0
    } else {
        v
    }
}

/// RK3 stage update: `out = base + dt_stage · tend`, with WRF-style
/// positive-definite clipping for moisture scalars when `positive`
/// (negatives to zero). An intermediate stage: the tail floor
/// ([`fsbm_core::point::N_FLOOR`]) is applied by the final stage alone.
pub fn rk_update_scalar(
    out: &mut Field3<f32>,
    base: &Field3<f32>,
    tend: &Field3<f32>,
    dt_stage: f32,
    patch: &PatchSpec,
    positive: bool,
    work: &mut PointWork,
) {
    let mut unused = Floored::default();
    update_rows(
        out,
        Some(base),
        tend,
        dt_stage,
        patch,
        positive,
        work,
        &mut unused,
    );
}

/// [`rk_update_scalar`] by rows; `base: None` updates `out` in place
/// (`out` is its own base — the final RK3 stage, which needs no copy of
/// φⁿ because nothing overwrites it earlier) and, when `positive`, maps
/// each value below [`fsbm_core::point::N_FLOOR`] to `+0.0` (row by
/// row, in `j`, `k`, `i` order, tallied into `floored`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_rows(
    out: &mut Field3<f32>,
    base: Option<&Field3<f32>>,
    tend: &Field3<f32>,
    dt_stage: f32,
    patch: &PatchSpec,
    positive: bool,
    work: &mut PointWork,
    floored: &mut Floored,
) {
    let points = patch.ip.len() as u64;
    for j in patch.jp.iter() {
        for k in patch.kp.iter() {
            let out = out.run_mut(patch.ip, k, j);
            let tend = tend.run(patch.ip, k, j);
            match base {
                Some(base) => {
                    let base = base.run(patch.ip, k, j);
                    for ((o, &b), &t) in out.iter_mut().zip(base).zip(tend) {
                        *o = stage_value(b, t, dt_stage, positive);
                    }
                }
                None => {
                    for (o, &t) in out.iter_mut().zip(tend) {
                        *o = stage_value(*o, t, dt_stage, positive);
                    }
                    // A second pass, so the stage loop above stays a
                    // vector loop.
                    if positive {
                        for o in out.iter_mut() {
                            *o = floored.floor(*o, 0.0);
                        }
                    }
                }
            }
            work.fm(
                points * UPDATE_FLOPS_PER_POINT,
                points * UPDATE_MEMOPS_PER_POINT,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrf_grid::{two_d_decomposition, Domain};

    fn setup() -> (PatchSpec, Wind) {
        let p = two_d_decomposition(Domain::new(32, 8, 24), 1, 2).patches[0];
        let wind = Wind::calm(&p);
        (p, wind)
    }

    fn fill_halo_periodic_i(f: &mut Field3<f32>, p: &PatchSpec) {
        for j in p.jm.iter() {
            for k in p.kp.iter() {
                for h in 1..=p.halo {
                    let left = f.get(p.ip.hi - h + 1, k, j);
                    f.set(p.ip.lo - h, k, j, left);
                    let right = f.get(p.ip.lo + h - 1, k, j);
                    f.set(p.ip.hi + h, k, j, right);
                }
            }
        }
    }

    #[test]
    fn uniform_field_has_zero_tendency() {
        let (p, mut wind) = setup();
        // Non-trivial but divergence-free-ish wind: constant u.
        for v in wind.u.as_mut_slice() {
            *v = 7.0;
        }
        let scalar = Field3::filled(p.im, p.km, p.jm, 3.5f32);
        let mut tend = Field3::for_patch(&p);
        let mut w = PointWork::ZERO;
        rk_scalar_tend(&scalar, &wind, &p, 500.0, 500.0, 400.0, &mut tend, &mut w);
        for j in p.jp.iter() {
            for k in p.kp.iter() {
                for i in p.ip.iter() {
                    assert!(
                        tend.get(i, k, j).abs() < 1e-4,
                        "tend({i},{k},{j}) = {}",
                        tend.get(i, k, j)
                    );
                }
            }
        }
    }

    #[test]
    fn constant_u_translates_a_blob() {
        let (p, mut wind) = setup();
        for v in wind.u.as_mut_slice() {
            *v = 5.0; // m/s eastward
        }
        let mut scalar = Field3::for_patch(&p);
        let (k0, j0) = (4, 12);
        for i in 10..=14 {
            scalar.set(i, k0, j0, 1.0);
        }
        fill_halo_periodic_i(&mut scalar, &p);
        let mut tend = Field3::for_patch(&p);
        let mut w = PointWork::ZERO;
        // Center of mass before.
        let com = |f: &Field3<f32>| -> f32 {
            let (mut m, mut mx) = (0.0f32, 0.0f32);
            for i in p.ip.iter() {
                let v = f.get(i, k0, j0);
                m += v;
                mx += v * i as f32;
            }
            mx / m
        };
        let before = com(&scalar);
        // Forward-Euler advect a few small steps.
        let dx = 500.0;
        for _ in 0..10 {
            rk_scalar_tend(&scalar, &wind, &p, dx, dx, 400.0, &mut tend, &mut w);
            let base = scalar.clone();
            rk_update_scalar(&mut scalar, &base, &tend, 10.0, &p, true, &mut w);
            fill_halo_periodic_i(&mut scalar, &p);
        }
        let after = com(&scalar);
        // 5 m/s × 100 s / 500 m = 1 grid point eastward.
        assert!(
            (after - before - 1.0).abs() < 0.25,
            "moved {} cells",
            after - before
        );
    }

    #[test]
    fn advection_conserves_mass_with_periodic_bc() {
        let (p, mut wind) = setup();
        for v in wind.u.as_mut_slice() {
            *v = 4.0;
        }
        let mut scalar = Field3::for_patch(&p);
        for i in 8..=20 {
            for k in p.kp.iter() {
                scalar.set(i, k, 10, (i - 8) as f32);
            }
        }
        fill_halo_periodic_i(&mut scalar, &p);
        let mass0 = scalar.compute_sum(&p);
        let mut tend = Field3::for_patch(&p);
        let mut w = PointWork::ZERO;
        for _ in 0..5 {
            rk_scalar_tend(&scalar, &wind, &p, 500.0, 500.0, 400.0, &mut tend, &mut w);
            let base = scalar.clone();
            rk_update_scalar(&mut scalar, &base, &tend, 5.0, &p, false, &mut w);
            fill_halo_periodic_i(&mut scalar, &p);
        }
        let mass1 = scalar.compute_sum(&p);
        assert!(
            (mass1 - mass0).abs() / mass0.abs().max(1.0) < 1e-3,
            "mass {mass0} -> {mass1}"
        );
    }

    #[test]
    fn positive_definite_clipping() {
        let (p, _) = setup();
        let base = Field3::filled(p.im, p.km, p.jm, 0.1f32);
        let tend = Field3::filled(p.im, p.km, p.jm, -1.0f32);
        let mut out = Field3::for_patch(&p);
        let mut w = PointWork::ZERO;
        rk_update_scalar(&mut out, &base, &tend, 1.0, &p, true, &mut w);
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                assert_eq!(out.get(i, p.kp.lo, j), 0.0);
            }
        }
        // Without clipping it goes negative.
        rk_update_scalar(&mut out, &base, &tend, 1.0, &p, false, &mut w);
        assert!(out.get(p.ip.lo, p.kp.lo, p.jp.lo) < 0.0);
    }

    #[test]
    fn upwind_bias_dissipates_not_amplifies() {
        let (p, mut wind) = setup();
        for v in wind.u.as_mut_slice() {
            *v = 6.0;
        }
        let mut scalar = Field3::for_patch(&p);
        // Single-cell spike: maximally harsh on the stencil.
        scalar.set(16, 4, 12, 1.0);
        fill_halo_periodic_i(&mut scalar, &p);
        let mut tend = Field3::for_patch(&p);
        let mut w = PointWork::ZERO;
        let mut peak = 1.0f32;
        for _ in 0..20 {
            rk_scalar_tend(&scalar, &wind, &p, 500.0, 500.0, 400.0, &mut tend, &mut w);
            let base = scalar.clone();
            rk_update_scalar(&mut scalar, &base, &tend, 5.0, &p, true, &mut w);
            fill_halo_periodic_i(&mut scalar, &p);
            peak = scalar.max_abs();
        }
        assert!(peak <= 1.05, "scheme must not amplify: peak {peak}");
        assert!(peak > 0.05, "blob still exists");
    }

    /// Rows longer than `ROW_BLOCK` go through the kernel in pieces,
    /// serially and one `j`-plane per task on a three-worker pool: both
    /// must still be the per-point reference, bit for bit.
    #[test]
    fn long_rows_and_pool_tasks_match_the_reference() {
        use crate::reference;
        let p = two_d_decomposition(Domain::new(150, 6, 24), 1, 2).patches[0];
        let mut wind = Wind::calm(&p);
        let mut scalar = Field3::for_patch(&p);
        let fields = [&mut wind.u, &mut wind.v, &mut wind.w, &mut scalar];
        for (f, scale) in fields.into_iter().zip([9.0, -6.0, 2.0, 1.0]) {
            for (n, v) in f.as_mut_slice().iter_mut().enumerate() {
                *v = scale * (((n * 37) % 23) as f32 - 11.0) / 11.0;
            }
        }
        let (dx, dy, dz) = (500.0, 450.0, 400.0);
        let bits =
            |f: &Field3<f32>| -> Vec<u32> { f.as_slice().iter().map(|v| v.to_bits()).collect() };

        let whole = Region { i: p.ip, j: p.jp };
        let (mut want, mut got) = (Field3::for_patch(&p), Field3::for_patch(&p));
        let (mut want_work, mut got_work) = (PointWork::ZERO, PointWork::ZERO);
        reference::tend_region(
            &scalar,
            &wind,
            &p,
            &whole,
            dx,
            dy,
            dz,
            &mut want,
            &mut want_work,
        );
        rk_scalar_tend(&scalar, &wind, &p, dx, dy, dz, &mut got, &mut got_work);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got_work, want_work);

        let core = wrf_grid::interior_split(&p, STENCIL_WIDTH).core;
        let (mut want, mut got) = (Field3::for_patch(&p), Field3::for_patch(&p));
        let (mut want_work, mut got_work) = (PointWork::ZERO, PointWork::ZERO);
        reference::tend_region(
            &scalar,
            &wind,
            &p,
            &core,
            dx,
            dy,
            dz,
            &mut want,
            &mut want_work,
        );
        let pool = Executor::new(3);
        tend_panel_region_pool(
            std::slice::from_ref(&scalar),
            &wind,
            &p,
            &core,
            dx,
            dy,
            dz,
            std::slice::from_mut(&mut got),
            &pool,
            &mut got_work,
        );
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got_work, want_work);
    }

    /// The invariant behind the one `unsafe` site here
    /// (`tend_panel_region_pool`'s `SyncWriteSlice`s): plane unit `jj`
    /// writes only cells whose `j` coordinate is its own, in every lane,
    /// so no two units ever hold the same cell. A claims ledger records which unit
    /// is handed which flat range — the ranges the launch body takes,
    /// rebuilt here from the same `row_blocks` and field spans — and
    /// fails on a double claim; then the real launch of a three-lane
    /// panel, at 2 and 3 workers, must have written exactly the claimed
    /// cells of every lane and left every other one (halo, frame, other
    /// planes' cells of a narrower region) as it found it.
    #[test]
    fn pool_planes_claim_disjoint_cells_of_their_own_j() {
        let p = two_d_decomposition(Domain::new(150, 6, 24), 1, 2).patches[0];
        let mut wind = Wind::calm(&p);
        let mut scalar = Field3::for_patch(&p);
        for (f, scale) in [&mut wind.u, &mut wind.v, &mut wind.w, &mut scalar]
            .into_iter()
            .zip([9.0, -6.0, 2.0, 1.0])
        {
            for (n, v) in f.as_mut_slice().iter_mut().enumerate() {
                *v = scale * (((n * 37) % 23) as f32 - 11.0) / 11.0;
            }
        }
        let tend: Field3<f32> = Field3::for_patch(&p);
        let (ti, tk, tj) = (tend.ispan(), tend.kspan(), tend.jspan());
        let cells = tend.as_slice().len();
        let whole = Region { i: p.ip, j: p.jp };
        let core = wrf_grid::interior_split(&p, STENCIL_WIDTH).core;
        assert!(!core.is_empty() && core != whole);
        for region in [whole, core] {
            // The ledger: owner[cell] = the plane unit handed that cell.
            let mut owner: Vec<Option<usize>> = vec![None; cells];
            for unit in 0..region.j.len() {
                let j = region.j.lo + unit as i32;
                for k in p.kp.iter() {
                    for run in row_blocks(region.i) {
                        let start = (run.lo - ti.lo) as usize
                            + ti.len() * ((k - tk.lo) as usize + tk.len() * (j - tj.lo) as usize);
                        let claim = owner.iter_mut().enumerate().skip(start).take(run.len());
                        for (cell, slot) in claim {
                            let (ci, ck, cj) = (
                                ti.lo + (cell % ti.len()) as i32,
                                tk.lo + (cell / ti.len() % tk.len()) as i32,
                                tj.lo + (cell / (ti.len() * tk.len())) as i32,
                            );
                            assert_eq!(cj, j, "unit {unit} is handed a cell of plane {cj}");
                            assert!(region.i.contains(ci) && p.kp.contains(ck));
                            let before = slot.replace(unit);
                            assert_eq!(
                                before, None,
                                "cell {cell} claimed by {before:?} and {unit}"
                            );
                        }
                    }
                }
            }
            let claimed = owner.iter().flatten().count();
            assert_eq!(claimed, region.columns() * p.kp.len());

            // The launch writes the claimed cells and nothing else.
            const UNTOUCHED: u32 = 0x7fc0_dead;
            for workers in [2usize, 3] {
                let pool = Executor::new(workers);
                let panel = vec![scalar.clone(); 3];
                for _ in 0..20 {
                    let mut untouched: Field3<f32> = Field3::for_patch(&p);
                    untouched.as_mut_slice().fill(f32::from_bits(UNTOUCHED));
                    let mut tend = vec![untouched; panel.len()];
                    let mut work = PointWork::ZERO;
                    tend_panel_region_pool(
                        &panel, &wind, &p, &region, 500.0, 450.0, 400.0, &mut tend, &pool,
                        &mut work,
                    );
                    for (lane, tend) in tend.iter().enumerate() {
                        for (cell, v) in tend.as_slice().iter().enumerate() {
                            let written = v.to_bits() != UNTOUCHED;
                            assert_eq!(
                                written,
                                owner[cell].is_some(),
                                "lane {lane} cell {cell}, {workers} workers"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "halo")]
    fn thin_halo_rejected() {
        let p = two_d_decomposition(Domain::new(16, 4, 16), 1, 1).patches[0];
        let wind = Wind::calm(&p);
        let scalar = Field3::for_patch(&p);
        let mut tend = Field3::for_patch(&p);
        let mut w = PointWork::ZERO;
        rk_scalar_tend(&scalar, &wind, &p, 500.0, 500.0, 400.0, &mut tend, &mut w);
    }
}
