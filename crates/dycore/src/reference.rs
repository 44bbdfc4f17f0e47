//! The per-point transport reference (test builds only).
//!
//! Tendency, stage update and RK3 as they stood before the row kernel:
//! one `Field3::get` per operand, one point and one scalar at a time, φⁿ
//! cloned. Nothing here is fast or shared with the production path
//! beyond [`flux3`]; it exists so the row kernel, the panel driver and
//! both comm modes can be compared against it bit for bit.

use crate::advect::{
    flux3, TEND_FLOPS_PER_POINT, TEND_MEMOPS_PER_POINT, UPDATE_FLOPS_PER_POINT,
    UPDATE_MEMOPS_PER_POINT,
};
use crate::rk3::{refresh_now, HaloEngine, Rk3Work};
use crate::wind::Wind;
use fsbm_core::meter::PointWork;
use fsbm_core::point::N_FLOOR;
use wrf_grid::{Field3, PatchSpec, Region};

/// The per-point flux-divergence tendency at `(i, k, j)`.
#[allow(clippy::too_many_arguments)]
fn tend_point(
    scalar: &Field3<f32>,
    wind: &Wind,
    i: i32,
    k: i32,
    j: i32,
    kl: i32,
    kh: i32,
    dx: f32,
    dy: f32,
    dz: f32,
) -> f32 {
    let q = |ii: i32, kk: i32, jj: i32| scalar.get(ii, kk.clamp(kl, kh), jj);

    // x-direction interfaces at i−1/2 and i+1/2.
    let u_m = 0.5 * (wind.u.get(i - 1, k, j) + wind.u.get(i, k, j));
    let u_p = 0.5 * (wind.u.get(i, k, j) + wind.u.get(i + 1, k, j));
    let fx_m = flux3(
        q(i - 2, k, j),
        q(i - 1, k, j),
        q(i, k, j),
        q(i + 1, k, j),
        u_m,
    );
    let fx_p = flux3(
        q(i - 1, k, j),
        q(i, k, j),
        q(i + 1, k, j),
        q(i + 2, k, j),
        u_p,
    );

    // y-direction.
    let v_m = 0.5 * (wind.v.get(i, k, j - 1) + wind.v.get(i, k, j));
    let v_p = 0.5 * (wind.v.get(i, k, j) + wind.v.get(i, k, j + 1));
    let fy_m = flux3(
        q(i, k, j - 2),
        q(i, k, j - 1),
        q(i, k, j),
        q(i, k, j + 1),
        v_m,
    );
    let fy_p = flux3(
        q(i, k, j - 1),
        q(i, k, j),
        q(i, k, j + 1),
        q(i, k, j + 2),
        v_p,
    );

    // z-direction: second-order centered with clamped ends.
    let w_m = 0.5 * (wind.w.get(i, (k - 1).max(kl), j) + wind.w.get(i, k, j));
    let w_p = 0.5 * (wind.w.get(i, k, j) + wind.w.get(i, (k + 1).min(kh), j));
    let fz_m = if k == kl {
        0.0
    } else {
        w_m * 0.5 * (q(i, k - 1, j) + q(i, k, j))
    };
    let fz_p = if k == kh {
        0.0
    } else {
        w_p * 0.5 * (q(i, k, j) + q(i, k + 1, j))
    };

    -((fx_p - fx_m) / dx + (fy_p - fy_m) / dy + (fz_p - fz_m) / dz)
}

/// Per-point tendency of `scalar` over `region`, metered per point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tend_region(
    scalar: &Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    region: &Region,
    dx: f32,
    dy: f32,
    dz: f32,
    tend: &mut Field3<f32>,
    work: &mut PointWork,
) {
    let (kl, kh) = (patch.kp.lo, patch.kp.hi);
    for j in region.j.iter() {
        for k in patch.kp.iter() {
            for i in region.i.iter() {
                let v = tend_point(scalar, wind, i, k, j, kl, kh, dx, dy, dz);
                tend.set(i, k, j, v);
                work.fm(TEND_FLOPS_PER_POINT, TEND_MEMOPS_PER_POINT);
            }
        }
    }
}

/// Per-point stage update `out = base + dt_stage · tend`.
pub(crate) fn update(
    out: &mut Field3<f32>,
    base: &Field3<f32>,
    tend: &Field3<f32>,
    dt_stage: f32,
    patch: &PatchSpec,
    positive: bool,
    work: &mut PointWork,
) {
    for j in patch.jp.iter() {
        for k in patch.kp.iter() {
            for i in patch.ip.iter() {
                let mut v = base.get(i, k, j) + dt_stage * tend.get(i, k, j);
                if positive && v < 0.0 {
                    v = 0.0;
                }
                out.set(i, k, j, v);
                work.fm(UPDATE_FLOPS_PER_POINT, UPDATE_MEMOPS_PER_POINT);
            }
        }
    }
}

/// One scalar through the three stages with a blocking refresh before
/// each whole-patch tendency and after the final update, from a clone
/// of φⁿ and fresh workspaces.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rk3(
    scalar: &mut Field3<f32>,
    wind: &Wind,
    patch: &PatchSpec,
    dx: f32,
    dy: f32,
    dz: f32,
    dt: f32,
    positive: bool,
    engine: &mut dyn HaloEngine,
) -> Rk3Work {
    let whole = Region {
        i: patch.ip,
        j: patch.jp,
    };
    let mut work = Rk3Work::default();
    let base = scalar.clone();
    let mut scratch = Field3::for_patch(patch);
    let mut tend = Field3::for_patch(patch);
    let mut refresh_tend = |f: &mut Field3<f32>, tend: &mut Field3<f32>, w: &mut PointWork| {
        refresh_now(engine, f);
        tend_region(f, wind, patch, &whole, dx, dy, dz, tend, w);
    };

    refresh_tend(scalar, &mut tend, &mut work.tend);
    let up = &mut work.update;
    update(&mut scratch, &base, &tend, dt / 3.0, patch, positive, up);

    refresh_tend(&mut scratch, &mut tend, &mut work.tend);
    let up = &mut work.update;
    update(&mut scratch, &base, &tend, dt / 2.0, patch, positive, up);

    refresh_tend(&mut scratch, &mut tend, &mut work.tend);
    update(scalar, &base, &tend, dt, patch, positive, &mut work.update);
    if positive {
        // The final stage's tail floor, point by point.
        for j in patch.jp.iter() {
            for k in patch.kp.iter() {
                for i in patch.ip.iter() {
                    let v = scalar.get(i, k, j);
                    if v > 0.0 && v < N_FLOOR {
                        work.floored.values += 1;
                        work.floored.number += f64::from(v);
                        scalar.set(i, k, j, 0.0);
                    }
                }
            }
        }
    }

    refresh_now(engine, scalar);
    work
}

/// A fully local doubly-periodic engine, per element: round 0 wraps `i`
/// over compute `j`, round 1 wraps `j` over the full memory `i` range
/// (corners ride along, as in `HALO_EM_*`). The wrap is deferred from
/// `post` to `finish` so interior compute runs on stale halos exactly as
/// with real in-flight messages.
pub(crate) struct PeriodicEngine {
    pub patch: PatchSpec,
    pub absorbed: PointWork,
}

impl PeriodicEngine {
    pub(crate) fn new(patch: PatchSpec) -> Self {
        PeriodicEngine {
            patch,
            absorbed: PointWork::ZERO,
        }
    }
}

impl HaloEngine for PeriodicEngine {
    fn rounds(&self) -> usize {
        2
    }
    fn post(&mut self, _round: usize, _field: &Field3<f32>) {}
    fn finish(&mut self, round: usize, f: &mut Field3<f32>) {
        let p = &self.patch;
        if round == 0 {
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
        } else {
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
    }
    fn absorb(&mut self, work: PointWork) {
        self.absorbed += work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advect::tend_panel_region;
    use crate::rk3::{rk3_advect_panel, FieldTag};
    use fsbm_core::panels::LANES;
    use proptest::prelude::*;
    use wrf_exec::Executor;
    use wrf_grid::{two_d_decomposition, Domain, Span};

    /// A small deterministic generator: the shim's strategies draw the
    /// seed, this fills the fields.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as u32
        }

        /// Roughly uniform in `[-scale, scale]`, with exact `0.0` and
        /// `-0.0` about once in eight draws each.
        fn signed(&mut self, scale: f32) -> f32 {
            match self.next() % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => (self.next() % 2001) as f32 / 1000.0 * scale - scale,
            }
        }
    }

    fn bits(f: &Field3<f32>) -> Vec<u32> {
        f.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Random patch (thin ones have no interior core), wind and scalars.
    fn scenario(
        (nx, nz, ny, halo): (i32, i32, i32, i32),
        lanes: usize,
        seed: u64,
    ) -> (PatchSpec, Wind, Vec<Field3<f32>>) {
        let patch = two_d_decomposition(Domain::new(nx, nz, ny), 1, halo).patches[0];
        let mut rng = Lcg(seed);
        let mut wind = Wind::calm(&patch);
        for f in [&mut wind.u, &mut wind.v, &mut wind.w] {
            for v in f.as_mut_slice() {
                *v = rng.signed(12.0);
            }
        }
        let scalars = (0..lanes)
            .map(|_| {
                let mut f = Field3::for_patch(&patch);
                for v in f.as_mut_slice() {
                    *v = rng.signed(2.0);
                }
                f
            })
            .collect();
        (patch, wind, scalars)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The panel tendency over any sub-region equals the per-point
        /// reference lane by lane, bit for bit over the whole allocation
        /// (cells outside the region keep their contents), with the same
        /// metered work.
        #[test]
        fn panel_tendency_is_the_reference_bitwise(
            shape in (2i32..15, 1i32..5, 2i32..13, 2i32..4),
            lanes in 1usize..=LANES + 1,
            cut in (0i32..4, 0i32..4, 0i32..4, 0i32..4),
            seed in any::<u64>(),
        ) {
            let (patch, wind, scalars) = scenario(shape, lanes, seed);
            // A sub-rectangle of the compute region, possibly empty.
            let span = |s: Span, lo: i32, hi: i32| {
                let lo = (s.lo + lo).min(s.hi + 1);
                Span::new(lo, (s.hi - hi).max(lo - 1))
            };
            let region = Region {
                i: span(patch.ip, cut.0, cut.1),
                j: span(patch.jp, cut.2, cut.3),
            };
            let (dx, dy, dz) = (500.0, 450.0, 400.0);
            let stale = Field3::filled(patch.im, patch.km, patch.jm, -7.25f32);

            let mut want = vec![stale.clone(); lanes];
            let mut want_work = PointWork::ZERO;
            for (q, t) in scalars.iter().zip(&mut want) {
                tend_region(q, &wind, &patch, &region, dx, dy, dz, t, &mut want_work);
            }
            let mut got = vec![stale; lanes];
            let mut got_work = PointWork::ZERO;
            for (q, t) in scalars.chunks(LANES).zip(got.chunks_mut(LANES)) {
                tend_panel_region(q, &wind, &patch, &region, dx, dy, dz, t, &mut got_work);
            }
            for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(bits(g), bits(w), "lane {}", lane);
            }
            prop_assert_eq!(got_work, want_work);
        }

        /// Panels of up to `LANES` lanes through the blocking driver and
        /// through the overlapped driver at 1 and 3 workers equal the
        /// reference advanced one scalar at a time: bit for bit over the
        /// whole allocation (halo included), in metered work and in what
        /// the tail floor removed.
        #[test]
        fn panel_rk3_is_the_reference_bitwise(
            shape in (2i32..15, 1i32..5, 2i32..13, 2i32..4),
            lanes in 1usize..=LANES + 1,
            positive in any::<bool>(),
            tail in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (patch, wind, mut scalars) = scenario(shape, lanes, seed);
            // Bin-tail magnitudes: the final stage floors some of them.
            if tail {
                for v in scalars.iter_mut().flat_map(|f| f.as_mut_slice()) {
                    *v *= 1.0e-25;
                }
            }
            let (dx, dy, dz, dt) = (500.0, 450.0, 400.0, 6.0);

            let mut want = scalars.clone();
            let mut want_work = Rk3Work::default();
            let mut engine = PeriodicEngine::new(patch);
            for q in &mut want {
                want_work += rk3(q, &wind, &patch, dx, dy, dz, dt, positive, &mut engine);
            }

            let tags: Vec<FieldTag> = (0..lanes).map(|b| FieldTag::Bin(0, b)).collect();
            let pools = [None, Some(Executor::new(1)), Some(Executor::new(3))];
            for pool in &pools {
                let mut got = scalars.clone();
                let mut got_work = Rk3Work::default();
                let mut engine = PeriodicEngine::new(patch);
                // Workspaces start dirty: nothing may leak out of them.
                let dirty = Field3::filled(patch.im, patch.km, patch.jm, f32::NAN);
                let mut scratch = vec![dirty.clone(); LANES];
                let mut tend = vec![dirty; LANES];
                for (panel, tags) in got.chunks_mut(LANES).zip(tags.chunks(LANES)) {
                    got_work += rk3_advect_panel(
                        panel, tags, &wind, &patch, dx, dy, dz, dt, positive,
                        &mut scratch, &mut tend, &mut engine, pool.as_ref(),
                    );
                }
                let workers = pool.as_ref().map(Executor::workers);
                for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(bits(g), bits(w), "lane {} workers {:?}", lane, workers);
                }
                prop_assert_eq!(got_work, want_work, "workers {:?}", workers);
            }
        }
    }
}
