//! Freezing and melting transfers between liquid and frozen classes.
//!
//! Immersion freezing follows a Bigg-type volume-dependent exponential
//! law (large supercooled drops freeze first, into graupel or hail by
//! size); homogeneous freezing empties all liquid below −38 °C; melting
//! returns frozen mass to the liquid grid above 0 °C with a
//! size-dependent timescale.

use crate::constants::{CP, L_F, T_0};
use crate::meter::PointWork;
use crate::point::{all_zero, deposit_mass, BinsView, Grids, PointThermo};
use crate::types::{HydroClass, NKR};

/// Bigg freezing rate coefficient, 1/(kg·s) scaled for bin masses.
pub(crate) const BIGG_B: f32 = 1.0e2;
/// Bigg exponential slope per kelvin of supercooling.
pub(crate) const BIGG_A: f32 = 0.66;
/// Homogeneous freezing threshold, K.
pub(crate) const T_HOM: f32 = T_0 - 38.0;
/// Melting timescale at 1 K above freezing, s.
pub(crate) const TAU_MELT: f32 = 60.0;
/// Drops at least this radius freeze into hail, smaller into graupel, m.
pub(crate) const R_HAIL: f32 = 4.0e-4;

/// Applies freezing (below 0 °C) or melting (above) over `dt`.
pub fn freezing_melting(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    w: &mut PointWork,
) {
    if th.t < T_0 {
        freeze(bins, th, grids, dt, w);
    } else if th.t > T_0 {
        melt(bins, th, grids, dt, w);
    }
}

fn freeze(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    w: &mut PointWork,
) {
    w.f(8);
    let mut frozen_mass = 0.0f32;
    if all_zero(bins.class(HydroClass::Water).iter().copied()) {
        // No water, nothing to freeze: the bin loop would only count its
        // loads, and `T` moves by `+0.0` below either way.
        w.m(NKR as u64);
    } else {
        let gw = grids.of(HydroClass::Water);
        let supercool = T_0 - th.t;
        let homogeneous = th.t < T_HOM;
        let expfac = (BIGG_A * supercool).min(40.0).exp() - 1.0;
        for k in 0..NKR {
            let n = bins.class(HydroClass::Water)[k];
            w.m(1);
            if n <= 0.0 {
                continue;
            }
            let frac = if homogeneous {
                1.0
            } else {
                (BIGG_B * gw.mass[k] * expfac * dt).min(1.0)
            };
            w.f(5);
            if frac <= 0.0 {
                continue;
            }
            let dn = n * frac;
            let target = if gw.radius[k] >= R_HAIL {
                HydroClass::Hail
            } else {
                HydroClass::Graupel
            };
            bins.class_mut(HydroClass::Water)[k] -= dn;
            deposit_mass(bins.class_mut(target), grids.of(target), gw.mass[k], dn, w);
            frozen_mass += dn * gw.mass[k];
            w.fm(4, 2);
        }
    }
    th.t += L_F * frozen_mass / CP;
    w.f(3);
}

fn melt(bins: &mut BinsView<'_>, th: &mut PointThermo, grids: &Grids, dt: f32, w: &mut PointWork) {
    let gw = grids.of(HydroClass::Water);
    let warm = th.t - T_0;
    let mut melted_mass = 0.0f32;
    for class in HydroClass::ALL.iter().filter(|c| c.is_ice()) {
        // An empty class melts nothing: count the loop's loads, skip it.
        if all_zero(bins.class(*class).iter().copied()) {
            w.m(NKR as u64);
            continue;
        }
        let g = grids.of(*class);
        for k in 0..NKR {
            let n = bins.class(*class)[k];
            w.m(1);
            if n <= 0.0 {
                continue;
            }
            // Bigger particles melt slower (surface/volume).
            let size_slow = (g.radius[k] / 1.0e-3).max(0.1);
            let frac = (warm * dt / (TAU_MELT * size_slow)).min(1.0);
            w.f(6);
            if frac <= 0.0 {
                continue;
            }
            let dn = n * frac;
            bins.class_mut(*class)[k] -= dn;
            deposit_mass(bins.class_mut(HydroClass::Water), gw, g.mass[k], dn, w);
            melted_mass += dn * g.mass[k];
            w.fm(4, 2);
        }
    }
    th.t -= L_F * melted_mass / CP;
    w.f(3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::PointBins;

    fn grids() -> Grids {
        Grids::new()
    }

    fn thermo(t: f32) -> PointThermo {
        PointThermo {
            t,
            qv: 0.003,
            p: 60_000.0,
            rho: 0.8,
        }
    }

    #[test]
    fn homogeneous_freezing_empties_liquid() {
        let g = grids();
        let mut b = PointBins::empty();
        for k in 5..=15 {
            b.n[0][k] = 1.0e7;
        }
        let mut th = thermo(230.0); // −43 °C
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        freezing_melting(&mut v, &mut th, &g, 5.0, &mut w);
        assert_eq!(v.number_of(HydroClass::Water), 0.0);
        let frozen = v.number_of(HydroClass::Graupel) + v.number_of(HydroClass::Hail);
        assert!(frozen > 0.0);
        assert!(th.t > 230.0, "fusion heat released");
    }

    #[test]
    fn big_drops_freeze_first_into_hail() {
        let g = grids();
        let mut b = PointBins::empty();
        b.n[0][5] = 1.0e7; // tiny droplets
        b.n[0][NKR - 2] = 1.0e3; // big drops
        let mut th = thermo(261.0); // −12 °C
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        freezing_melting(&mut v, &mut th, &g, 5.0, &mut w);
        let small_left = v.class(HydroClass::Water)[5];
        assert!(
            small_left > 0.99e7,
            "small droplets mostly unfrozen: {small_left}"
        );
        assert!(v.number_of(HydroClass::Hail) > 0.0, "big drops → hail");
        assert_eq!(v.class(HydroClass::Water)[NKR - 2], 0.0);
    }

    #[test]
    fn nothing_happens_at_exactly_freezing() {
        let g = grids();
        let mut b = PointBins::empty();
        b.n[0][10] = 1.0e7;
        b.n[5][10] = 1.0e5;
        let before = b.clone();
        let mut th = thermo(T_0);
        let mut w = PointWork::ZERO;
        freezing_melting(&mut b.view(), &mut th, &g, 5.0, &mut w);
        assert_eq!(b, before);
    }

    #[test]
    fn melting_returns_mass_to_water_and_cools() {
        let g = grids();
        let mut b = PointBins::empty();
        b.n[4][10] = 1.0e6; // snow
        b.n[5][12] = 1.0e5; // graupel
        let mut th = thermo(278.0); // +5 °C
        let t0 = th.t;
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let q_ice_before =
            v.mass_of(HydroClass::Snow, &g, &mut w) + v.mass_of(HydroClass::Graupel, &g, &mut w);
        freezing_melting(&mut v, &mut th, &g, 30.0, &mut w);
        let q_w = v.mass_of(HydroClass::Water, &g, &mut w);
        assert!(q_w > 0.0);
        assert!(q_w <= q_ice_before * 1.001);
        assert!(th.t < t0, "melting consumes heat");
    }

    #[test]
    fn melting_conserves_total_condensate() {
        let g = grids();
        let mut b = PointBins::empty();
        b.n[4][14] = 1.0e6;
        let mut th = thermo(280.0);
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let before = v.total_condensate(&g, &mut w);
        freezing_melting(&mut v, &mut th, &g, 120.0, &mut w);
        let after = v.total_condensate(&g, &mut w);
        assert!(
            (after - before).abs() / before < 1e-3,
            "{before} -> {after}"
        );
    }
}
