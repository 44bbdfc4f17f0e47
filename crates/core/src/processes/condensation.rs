//! `onecond1` / `onecond2` / `onecond3`: diffusional growth and
//! evaporation.
//!
//! Bin condensation uses the quasi-analytic supersaturation relaxation:
//! the phase-relaxation time `τ = 1/(4π G Σ n_k r_k)` gives the vapor
//! mass exchanged over the step, `Δq = (qv − qs)(1 − e^{−dt/τ})`, which is
//! then distributed across bins in proportion to their diffusional uptake
//! (`n_k r_k`) and re-binned with the conserving two-bin split. This is
//! unconditionally stable at WRF's Δt = 5 s, where explicit per-bin Euler
//! growth is not.
//!
//! `onecond1` handles warm liquid points; `onecond2` handles mixed-phase
//! points, relaxing first toward water saturation for droplets and then
//! toward ice saturation for the frozen classes — the Bergeron–Findeisen
//! transfer appears because `e_s,ice < e_s,liquid` below freezing;
//! `onecond3` handles glaciated points, the ice classes alone. The body is
//! [`crate::panels::panel_condensation`], which runs all three over a lane
//! batch of points with per-branch lane masks; one point is a batch of
//! its own ([`crate::panels::one_lane`]).

use crate::constants::T_0;
use crate::point::N_EPS;
use crate::types::{HydroClass, NTYPES};

/// Internal condensation substeps per model step. Bin-resolved
/// diffusional growth must track the supersaturation transient as the
/// spectrum shifts between bins, so FSBM's `onecond*` routines integrate
/// with small internal time steps — the dominant cost of the cloudy
/// points outside the collision loop.
pub const NCOND: u32 = 12;

/// Listing 1's branch rule, stated once for every caller: `onecond1` (1)
/// when the point is warm or holds no ice, `onecond2` (2) when it also
/// holds liquid — droplets, or supersaturation over water — and
/// `onecond3` (3) when it is glaciated. `numbers` are the point's class
/// number totals in [`HydroClass::ALL`] order and `s` its supersaturation
/// over liquid.
pub fn branch(t: f32, s: f32, numbers: &[f32; NTYPES]) -> u8 {
    let has_ice = HydroClass::ALL
        .iter()
        .zip(numbers)
        .any(|(c, &n)| c.is_ice() && n > N_EPS);
    let has_liquid = numbers[HydroClass::Water.index()] > N_EPS || s > 0.0;
    if t >= T_0 || !has_ice {
        1
    } else if has_liquid {
        2
    } else {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::PointWork;
    use crate::panels::{one_lane, panel_condensation, LANES};
    use crate::point::{BinsView, Floored, Grids, PointBins, PointThermo};
    use crate::thermo::{qsat_ice, qsat_liquid, supersat_liquid};

    /// One point's condensation over `dt`, batched alone: the vapor it
    /// consumed (negative = evaporated into vapor), its work metered into
    /// `w`.
    fn condense(
        bins: &mut BinsView<'_>,
        th: &mut PointThermo,
        grids: &Grids,
        dt: f32,
        w: &mut PointWork,
    ) -> f32 {
        let qv = th.qv;
        let (mut works, mut floored) = ([PointWork::ZERO; LANES], [Floored::default(); LANES]);
        one_lane(bins, th, |panel| {
            panel_condensation(panel, grids, dt, &mut works, &mut floored)
        });
        *w += works[0];
        qv - th.qv
    }

    fn grids() -> Grids {
        Grids::new()
    }

    fn supersaturated(t: f32, factor: f32) -> PointThermo {
        let p = 80_000.0;
        PointThermo {
            t,
            qv: qsat_liquid(t, p) * factor,
            p,
            rho: 1.0,
        }
    }

    #[test]
    fn condensation_consumes_supersaturation_and_warms() {
        let g = grids();
        let mut b = PointBins::empty();
        for k in 5..=12 {
            b.n[0][k] = 5.0e7;
        }
        let mut th = supersaturated(285.0, 1.02);
        let t0 = th.t;
        let s0 = supersat_liquid(th.t, th.p, th.qv);
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let q_before = v.mass_of(HydroClass::Water, &g, &mut w);
        let dq = condense(&mut v, &mut th, &g, 5.0, &mut w);
        let q_after = v.mass_of(HydroClass::Water, &g, &mut w);
        assert!(dq > 0.0, "supersaturated point must condense");
        assert!(th.t > t0, "latent heating");
        let s1 = supersat_liquid(th.t, th.p, th.qv);
        assert!(s1 < s0, "supersaturation must relax: {s0} -> {s1}");
        assert!(
            (q_after - q_before - dq).abs() / dq.abs() < 0.05,
            "condensed vapor must appear as liquid: Δliq {} vs Δq {}",
            q_after - q_before,
            dq
        );
    }

    #[test]
    fn subsaturated_point_evaporates() {
        let g = grids();
        let mut b = PointBins::empty();
        for k in 8..=14 {
            b.n[0][k] = 2.0e7;
        }
        let mut th = supersaturated(285.0, 0.8);
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let q_before = v.mass_of(HydroClass::Water, &g, &mut w);
        let dq = condense(&mut v, &mut th, &g, 5.0, &mut w);
        let q_after = v.mass_of(HydroClass::Water, &g, &mut w);
        assert!(dq < 0.0);
        assert!(q_after < q_before);
        assert!(th.qv > qsat_liquid(285.0, 80_000.0) * 0.8, "vapor returned");
    }

    #[test]
    fn evaporation_never_overdraws() {
        let g = grids();
        let mut b = PointBins::empty();
        b.n[0][6] = 1.0e5; // tiny liquid content
        let mut th = supersaturated(290.0, 0.3); // very dry
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let q_before = v.mass_of(HydroClass::Water, &g, &mut w);
        let dq = condense(&mut v, &mut th, &g, 60.0, &mut w);
        // `dq` is read off the stored vapor, which the relax's update
        // rounds to the vapor's ulp: within that, what returned to vapor
        // is at most what the class held.
        let ulp = f32::from_bits(th.qv.to_bits() + 1) - th.qv;
        assert!(
            -dq <= q_before * 1.0001 + ulp,
            "dq {} vs q {}",
            dq,
            q_before
        );
        let q_after = v.mass_of(HydroClass::Water, &g, &mut w);
        assert!(q_after >= -1e-15);
    }

    #[test]
    fn no_droplets_no_exchange() {
        let g = grids();
        let mut b = PointBins::empty();
        let mut th = supersaturated(285.0, 1.05);
        let qv0 = th.qv;
        let mut w = PointWork::ZERO;
        let dq = condense(&mut b.view(), &mut th, &g, 5.0, &mut w);
        assert_eq!(dq, 0.0);
        assert_eq!(th.qv, qv0);
    }

    #[test]
    fn bergeron_grows_ice_at_water_saturation() {
        let g = grids();
        let mut b = PointBins::empty();
        for k in 5..=10 {
            b.n[0][k] = 3.0e7; // supercooled droplets
        }
        b.n[2][8] = 1.0e5; // plates
        let t = 263.0;
        let p = 60_000.0;
        let mut th = PointThermo {
            t,
            qv: qsat_liquid(t, p), // exactly water-saturated
            p,
            rho: 0.8,
        };
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let qi_before = v.mass_of(HydroClass::IcePlates, &g, &mut w);
        condense(&mut v, &mut th, &g, 5.0, &mut w);
        let qi_after = v.mass_of(HydroClass::IcePlates, &g, &mut w);
        assert!(
            qi_after > qi_before,
            "ice must deposit at water saturation (Bergeron): {qi_before} -> {qi_after}"
        );
    }

    #[test]
    fn branch_selection_matches_listing1() {
        let g = grids();
        let mut w = PointWork::ZERO;
        // Warm + ice present → still onecond1 (t >= T_0).
        let mut b = PointBins::empty();
        b.n[0][8] = 1.0e7;
        b.n[4][8] = 1.0e5;
        let mut th = supersaturated(290.0, 1.01);
        let dq_warm = condense(&mut b.view(), &mut th, &g, 5.0, &mut w);
        assert!(dq_warm > 0.0);
        // Cold + ice → onecond2 path must touch ice classes.
        let mut b2 = PointBins::empty();
        b2.n[4][8] = 1.0e6;
        let t = 260.0;
        let p = 60_000.0;
        let mut th2 = PointThermo {
            t,
            qv: qsat_ice(t, p) * 1.1,
            p,
            rho: 0.8,
        };
        let mut v2 = b2.view();
        let qs_before = v2.mass_of(HydroClass::Snow, &g, &mut w);
        condense(&mut v2, &mut th2, &g, 5.0, &mut w);
        let qs_after = v2.mass_of(HydroClass::Snow, &g, &mut w);
        assert!(qs_after > qs_before, "snow deposition in cold branch");
    }

    #[test]
    fn repeated_steps_converge_to_saturation() {
        let g = grids();
        let mut b = PointBins::empty();
        for k in 5..=12 {
            b.n[0][k] = 8.0e7;
        }
        let mut th = supersaturated(283.0, 1.05);
        let mut w = PointWork::ZERO;
        for _ in 0..50 {
            let mut v = b.view();
            condense(&mut v, &mut th, &g, 5.0, &mut w);
        }
        let s = supersat_liquid(th.t, th.p, th.qv);
        assert!(s.abs() < 0.01, "should be near saturation, s = {s}");
    }
}
