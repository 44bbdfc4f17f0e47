//! Mass-doubling bin grids and terminal velocities.
//!
//! FSBM discretizes each class onto `nkr = 33` bins with mass doubling,
//! `m_{k+1} = 2 m_k`, spanning cloud droplets of 2 µm radius up to
//! millimetric precipitation. Terminal velocities follow the classic
//! three-regime power laws (Stokes / intermediate / aerodynamic) with an
//! air-density correction — these feed both sedimentation and the
//! gravitational collection kernels.

use crate::constants::RHO_AIR_REF;
use crate::types::{HydroClass, NKR};

/// The bin grid for one hydrometeor class.
#[derive(Debug, Clone, PartialEq)]
pub struct BinGrid {
    /// Class this grid belongs to.
    pub class: HydroClass,
    /// Bin-center particle masses, kg.
    pub mass: [f32; NKR],
    /// Bin-center (melted-equivalent volume) radii, m.
    pub radius: [f32; NKR],
    /// Terminal velocities at reference density, m/s.
    pub vt: [f32; NKR],
}

/// Smallest droplet radius (2 µm), m.
pub const R_MIN_WATER: f32 = 2.0e-6;

impl BinGrid {
    /// Builds the mass-doubling grid for `class`.
    pub fn new(class: HydroClass) -> Self {
        let rho_p = class.density();
        // All classes share the *mass* grid anchored at the 2 µm droplet
        // (FSBM uses one mass grid so collision outcomes land on-grid
        // across classes).
        let m0 = 4.0 / 3.0 * std::f32::consts::PI * R_MIN_WATER.powi(3) * 1000.0;
        let mut mass = [0.0f32; NKR];
        let mut radius = [0.0f32; NKR];
        let mut vt = [0.0f32; NKR];
        for k in 0..NKR {
            mass[k] = m0 * (2.0f32).powi(k as i32);
            // Spherical equivalent radius at the class's bulk density.
            radius[k] = (3.0 * mass[k] / (4.0 * std::f32::consts::PI * rho_p)).powf(1.0 / 3.0);
            vt[k] = terminal_velocity(radius[k], rho_p);
        }
        BinGrid {
            class,
            mass,
            radius,
            vt,
        }
    }

    /// Terminal velocity of bin `k` at air density `rho_air`, m/s:
    /// `vt[k] × density_factor(rho_air)`. A caller that evaluates many
    /// bins at one density takes the factor once and multiplies, which
    /// gives the same bits.
    #[inline]
    pub fn vt_at(&self, k: usize, rho_air: f32) -> f32 {
        self.vt[k] * density_factor(rho_air)
    }
}

/// The Foote–du Toit air-density correction of fall speeds,
/// `(ρ_ref / ρ)^0.4` (density floored at 1e-3 kg/m³): the one factor that
/// scales every bin's reference-density terminal velocity at `rho_air`.
#[inline]
pub fn density_factor(rho_air: f32) -> f32 {
    (RHO_AIR_REF / rho_air.max(1e-3)).powf(0.4)
}

/// Three-regime terminal velocity for a sphere of radius `r` (m) and bulk
/// density `rho_p` (kg/m³) in air at reference density.
pub fn terminal_velocity(r: f32, rho_p: f32) -> f32 {
    // Density factor relative to liquid water (lighter particles of the
    // same size fall slower).
    let df = (rho_p / 1000.0).sqrt();
    // Regime constants chosen continuous at the 40 µm and 0.8 mm
    // boundaries: k2 = k1·r₁, k3 = k2·√r₂.
    let v = if r < 40.0e-6 {
        // Stokes regime: v = k1 r², k1 ≈ 1.19e8 /(m·s).
        1.19e8 * r * r
    } else if r < 0.8e-3 {
        // Intermediate: v = k2 r, k2 = 1.19e8 × 40 µm = 4.76e3 /s.
        4.76e3 * r
    } else {
        // Aerodynamic: v = k3 √r, capped at hail speeds.
        (134.6 * r.sqrt()).min(20.0)
    };
    v * df
}

/// All seven bin grids in class-storage order.
pub fn all_grids() -> Vec<BinGrid> {
    HydroClass::ALL.iter().map(|&c| BinGrid::new(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_doubles() {
        let g = BinGrid::new(HydroClass::Water);
        for k in 1..NKR {
            let ratio = g.mass[k] / g.mass[k - 1];
            assert!((ratio - 2.0).abs() < 1e-4, "bin {k}: ratio {ratio}");
        }
    }

    #[test]
    fn water_grid_spans_cloud_to_rain() {
        let g = BinGrid::new(HydroClass::Water);
        assert!((g.radius[0] - 2.0e-6).abs() / 2.0e-6 < 0.01);
        // 2 µm × 2^(32/3) ≈ 3.2 mm.
        assert!(g.radius[NKR - 1] > 2.0e-3 && g.radius[NKR - 1] < 5.0e-3);
    }

    #[test]
    fn snow_is_larger_than_water_at_same_mass() {
        let w = BinGrid::new(HydroClass::Water);
        let s = BinGrid::new(HydroClass::Snow);
        for k in 0..NKR {
            assert!(s.radius[k] > w.radius[k]);
            assert_eq!(s.mass[k], w.mass[k], "shared mass grid");
        }
    }

    #[test]
    fn terminal_velocity_monotone_with_size() {
        let g = BinGrid::new(HydroClass::Water);
        for k in 1..NKR {
            assert!(
                g.vt[k] >= g.vt[k - 1],
                "vt must not decrease: bin {k} {} < {}",
                g.vt[k],
                g.vt[k - 1]
            );
        }
        // Cloud droplets ~cm/s, raindrops ~m/s.
        assert!(g.vt[0] < 0.01);
        assert!(g.vt[NKR - 1] > 5.0);
    }

    #[test]
    fn terminal_velocity_regimes_are_continuousish() {
        // No wild discontinuity at regime boundaries.
        let v1 = terminal_velocity(39.9e-6, 1000.0);
        let v2 = terminal_velocity(40.1e-6, 1000.0);
        assert!((v1 - v2).abs() / v1 < 0.02);
        let v3 = terminal_velocity(0.799e-3, 1000.0);
        let v4 = terminal_velocity(0.801e-3, 1000.0);
        assert!((v3 - v4).abs() / v3 < 0.02);
    }

    #[test]
    fn density_correction_speeds_up_in_thin_air() {
        let g = BinGrid::new(HydroClass::Water);
        let v_surface = g.vt_at(20, 1.2);
        let v_aloft = g.vt_at(20, 0.6);
        assert!(v_aloft > v_surface);
    }

    #[test]
    fn all_grids_cover_classes() {
        let gs = all_grids();
        assert_eq!(gs.len(), 7);
        for (i, g) in gs.iter().enumerate() {
            assert_eq!(g.class.index(), i);
        }
    }
}
