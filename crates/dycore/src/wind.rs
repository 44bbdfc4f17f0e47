//! Kinematic storm-scale wind fields.
//!
//! A streamfunction-shaped circulation: convective updraft cells whose
//! horizontal positions drift with a sheared steering flow, after
//! `ψ = A sin(kx x) sin(kz z)`; the meridional component is a sheared
//! zonal jet. This is the kinematic-driver idealization used in
//! microphysics testbeds (e.g. KiD), substituting for WRF's Euler solver.
//!
//! The overturning is **not** divergence-free. `w` below is already
//! `−∂ψ/∂x` and is stored negated, so the analytic divergence of the
//! fields is `∂u/∂x + ∂w/∂z = 2 w_max kz cos(kx x) cos(kz z)` (times the
//! row's `j` modulation), not 0, and the flux-form transport turns it
//! into a source `q·D`. The winds also sit at cell centres and are
//! averaged to faces, so even with the sign fixed the discrete divergence
//! is not zero. ROADMAP item 1 measured both; the fix it plans puts ψ on
//! cell corners, with face winds as exact differences of it.

use fsbm_core::meter::PointWork;
use wrf_grid::{Field3, PatchSpec};

/// Cell-centered wind components over a patch.
#[derive(Debug, Clone)]
pub struct Wind {
    /// West–east wind, m/s.
    pub u: Field3<f32>,
    /// South–north wind, m/s.
    pub v: Field3<f32>,
    /// Vertical wind, m/s.
    pub w: Field3<f32>,
}

impl Wind {
    /// Allocates a calm wind field.
    pub fn calm(patch: &PatchSpec) -> Self {
        Wind {
            u: Field3::for_patch(patch),
            v: Field3::for_patch(patch),
            w: Field3::for_patch(patch),
        }
    }
}

/// Parameters of the kinematic storm circulation.
#[derive(Debug, Clone, Copy)]
pub struct StormWind {
    /// Peak updraft speed, m/s.
    pub w_max: f32,
    /// Steering flow at the surface, m/s.
    pub u_surface: f32,
    /// Shear across the column, m/s (added linearly with height).
    pub u_shear: f32,
    /// Horizontal wavelength of the updraft cells, grid points.
    pub cell_wavelength: f32,
    /// Domain vertical extent in grid points (for the half-sine profile).
    pub nz: f32,
    /// Index offset added to `i` before scaling by `dx`, grid points —
    /// lets a refined child grid sample the parent's wind field at the
    /// right physical phase (0 for an un-nested run).
    pub x_offset: f32,
    /// Index offset added to `j` in the meridional modulation.
    pub j_offset: f32,
    /// Period of the meridional storm-line modulation, grid points
    /// (the historical hard-coded 40; a child grid scales it by the
    /// refinement ratio).
    pub j_period: f32,
}

impl Default for StormWind {
    fn default() -> Self {
        StormWind {
            w_max: 8.0,
            u_surface: 5.0,
            u_shear: 15.0,
            cell_wavelength: 24.0,
            nz: 50.0,
            x_offset: 0.0,
            j_offset: 0.0,
            j_period: 40.0,
        }
    }
}

/// Fills `wind` with the storm circulation at time `t` (cells drift with
/// the mid-level steering flow). `dx`/`dz` are grid spacings in meters.
/// Returns the metering of the fill (it is part of the dynamics cost).
pub fn storm_wind(
    wind: &mut Wind,
    patch: &PatchSpec,
    sp: &StormWind,
    t: f32,
    dx: f32,
    dz: f32,
) -> PointWork {
    let mut work = PointWork::ZERO;
    let kx = 2.0 * std::f32::consts::PI / (sp.cell_wavelength * dx);
    let kz = std::f32::consts::PI / (sp.nz * dz);
    let drift = (sp.u_surface + 0.5 * sp.u_shear) * t;
    for j in patch.jm.iter() {
        for k in patch.km.iter() {
            for i in patch.im.iter() {
                let x = (i as f32 + sp.x_offset) * dx - drift;
                let z = (k - patch.km.lo) as f32 * dz;
                let zfrac = (k - patch.km.lo) as f32 / sp.nz.max(1.0);
                // ψ = A sin(kx x) sin(kz z): u' = ∂ψ/∂z, w = −∂ψ/∂x.
                let a = sp.w_max / kx;
                let u_over = a * kz * (kx * x).sin() * (kz * z).cos();
                let w = -a * kx * (kx * x).cos() * (kz * z).sin();
                // Modulate cells in j so the storm line is finite.
                let jmod = 0.5
                    * (1.0
                        + (2.0 * std::f32::consts::PI * (j as f32 + sp.j_offset) / sp.j_period)
                            .sin());
                wind.u
                    .set(i, k, j, sp.u_surface + sp.u_shear * zfrac + u_over * jmod);
                wind.v.set(i, k, j, 2.0 * (1.0 - zfrac));
                wind.w.set(i, k, j, -w * jmod);
                work.fm(30, 3);
            }
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrf_grid::{two_d_decomposition, Domain};

    fn patch() -> PatchSpec {
        two_d_decomposition(Domain::new(48, 20, 32), 1, 2).patches[0]
    }

    #[test]
    fn updrafts_and_downdrafts_coexist() {
        let p = patch();
        let mut wind = Wind::calm(&p);
        storm_wind(&mut wind, &p, &StormWind::default(), 0.0, 500.0, 400.0);
        let wmax = wind.w.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        let wmin = wind.w.as_slice().iter().cloned().fold(f32::MAX, f32::min);
        assert!(wmax > 1.0, "updrafts exist: {wmax}");
        assert!(wmin < -1.0, "downdrafts exist: {wmin}");
        assert!(wmax <= 8.5 && wmin >= -8.5);
    }

    #[test]
    fn shear_increases_u_with_height() {
        let p = patch();
        let mut wind = Wind::calm(&p);
        storm_wind(&mut wind, &p, &StormWind::default(), 0.0, 500.0, 400.0);
        let mut lo_sum = 0.0;
        let mut hi_sum = 0.0;
        let mut n = 0;
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                lo_sum += wind.u.get(i, p.kp.lo, j);
                hi_sum += wind.u.get(i, p.kp.hi, j);
                n += 1;
            }
        }
        assert!(hi_sum / n as f32 > lo_sum / n as f32 + 5.0);
    }

    #[test]
    fn vertical_velocity_vanishes_at_boundaries() {
        let p = patch();
        let sp = StormWind {
            nz: p.kp.len() as f32,
            ..Default::default()
        };
        let mut wind = Wind::calm(&p);
        storm_wind(&mut wind, &p, &sp, 0.0, 500.0, 400.0);
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                assert!(
                    wind.w.get(i, p.kp.lo, j).abs() < 0.5,
                    "w near surface must be small"
                );
            }
        }
    }

    #[test]
    fn cells_drift_with_time() {
        let p = patch();
        let mut w0 = Wind::calm(&p);
        let mut w1 = Wind::calm(&p);
        storm_wind(&mut w0, &p, &StormWind::default(), 0.0, 500.0, 400.0);
        storm_wind(&mut w1, &p, &StormWind::default(), 300.0, 500.0, 400.0);
        let diff: f32 =
            w0.w.as_slice()
                .iter()
                .zip(w1.w.as_slice())
                .map(|(a, b)| (a - b).abs())
                .sum();
        assert!(diff > 1.0, "the pattern must move");
    }

    #[test]
    fn fill_is_metered() {
        let p = patch();
        let mut wind = Wind::calm(&p);
        let w = storm_wind(&mut wind, &p, &StormWind::default(), 0.0, 500.0, 400.0);
        assert_eq!(w.flops, 30 * p.memory_points() as u64);
    }
}
