//! `onecond1` / `onecond2`: diffusional growth and evaporation.
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
//! transfer appears because `e_s,ice < e_s,liquid` below freezing.

use crate::constants::T_0;
use crate::meter::PointWork;
use crate::point::{deposit_mass, BinsView, Floored, Grids, PointThermo, N_EPS, Q_EPS};
use crate::thermo::{growth_coefficient, latent_heating, qsat_ice, qsat_liquid, supersat_liquid};
use crate::types::{HydroClass, NKR, NTYPES};

/// Internal condensation substeps per model step. Bin-resolved
/// diffusional growth must track the supersaturation transient as the
/// spectrum shifts between bins, so FSBM's `onecond*` routines integrate
/// with small internal time steps — the dominant cost of the cloudy
/// points outside the collision loop.
pub const NCOND: u32 = 12;

/// One class's diffusional exchange toward saturation `qs` over `dt`.
/// Returns the vapor consumed (negative = evaporated into vapor). A relax
/// that moves mass ends with [`BinsView::scrub_tails`], whose floor is
/// tallied in `floored`.
#[allow(clippy::too_many_arguments)] // mirrors the Fortran argument list
fn relax_class(
    bins: &mut BinsView<'_>,
    class: HydroClass,
    th: &mut PointThermo,
    grids: &Grids,
    qs: f32,
    over_ice: bool,
    dt: f32,
    w: &mut PointWork,
    floored: &mut Floored,
) -> f32 {
    let g = grids.of(class);
    // Integrated diffusional capacity Σ n_k r_k (per kg of air).
    let mut cap = 0.0f32;
    let mut n_tot = 0.0f32;
    for k in 0..NKR {
        let n = bins.class(class)[k];
        if n > 0.0 {
            cap += n * g.radius[k];
            n_tot += n;
        }
    }
    w.fm(3 * NKR as u64, NKR as u64);
    if cap <= 0.0 || n_tot <= N_EPS {
        return 0.0;
    }

    let gcoef = growth_coefficient(th.t, th.p, over_ice);
    w.f(30);
    // τ in seconds; 4π G Σ n r has units 1/s when G is in kg/(m·s)
    // divided by saturation vapor density — our G is normalized so that
    // dq/dt = 4π G cap (qv - qs)/qs ≈ linear relaxation.
    let rate = 4.0 * std::f32::consts::PI * gcoef * cap / (th.rho * qs.max(1e-6));
    let relax = 1.0 - (-(rate * dt).min(30.0)).exp();
    let mut dq = (th.qv - qs) * relax;
    w.f(10);

    if dq < 0.0 {
        // Evaporation/sublimation cannot remove more than the class holds.
        let have = bins.mass_of(class, grids, w);
        dq = dq.max(-have);
    }
    if dq.abs() < 1e-12 {
        return 0.0;
    }

    // Distribute Δq across bins ∝ n_k r_k and re-bin each bin's particles
    // at their new mean mass.
    let mut moved = [0.0f32; NKR];
    let mut newm = [0.0f32; NKR];
    for k in 0..NKR {
        let n = bins.class(class)[k];
        if n <= 0.0 {
            continue;
        }
        let share = (n * g.radius[k]) / cap;
        let dm_total = dq * share;
        let dm_per = dm_total / n;
        let m_new = g.mass[k] + dm_per;
        w.fm(6, 1);
        if m_new <= 0.0 {
            // Fully evaporated: number returns to vapor implicitly (its
            // mass is part of dq already via the `have` cap).
            moved[k] = n;
            newm[k] = 0.0;
        } else {
            moved[k] = n;
            newm[k] = m_new;
        }
    }
    // Apply: clear and re-deposit (two-bin conserving split).
    for k in 0..NKR {
        if moved[k] > 0.0 {
            bins.class_mut(class)[k] -= moved[k];
            if newm[k] > 0.0 {
                deposit_mass(bins.class_mut(class), g, newm[k], moved[k], w);
            }
        }
    }
    // The deposits above leave sub-floor values in bins the spectrum is
    // leaving; unfloored, the next substep's cap and share passes would
    // carry them down into subnormals.
    bins.scrub_tails(grids, floored);

    th.qv -= dq;
    th.t += latent_heating(dq, over_ice);
    w.f(6);
    dq
}

/// `onecond1`: warm-phase condensation/evaporation of droplets,
/// sub-stepped [`NCOND`] times. Returns vapor consumed, kg/kg.
pub fn onecond1(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    w: &mut PointWork,
    floored: &mut Floored,
) -> f32 {
    let dts = dt / NCOND as f32;
    let mut total = 0.0;
    for _ in 0..NCOND {
        let qs = qsat_liquid(th.t, th.p);
        w.f(20);
        total += relax_class(
            bins,
            HydroClass::Water,
            th,
            grids,
            qs,
            false,
            dts,
            w,
            floored,
        );
    }
    total
}

/// `onecond2`: mixed-phase condensation: droplets toward water
/// saturation, then each frozen class toward ice saturation. Returns
/// total vapor consumed.
pub fn onecond2(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    w: &mut PointWork,
    floored: &mut Floored,
) -> f32 {
    let dts = dt / NCOND as f32;
    let mut total = 0.0;
    for _ in 0..NCOND {
        let qs_w = qsat_liquid(th.t, th.p);
        w.f(20);
        total += relax_class(
            bins,
            HydroClass::Water,
            th,
            grids,
            qs_w,
            false,
            dts,
            w,
            floored,
        );
        for class in [
            HydroClass::IceColumns,
            HydroClass::IcePlates,
            HydroClass::IceDendrites,
            HydroClass::Snow,
            HydroClass::Graupel,
            HydroClass::Hail,
        ] {
            let qs_i = qsat_ice(th.t, th.p);
            w.f(20);
            total += relax_class(bins, class, th, grids, qs_i, true, dts, w, floored);
        }
    }
    total
}

/// `onecond3`: ice-only deposition/sublimation (FSBM's third branch for
/// glaciated points with no liquid), sub-stepped like the others.
pub fn onecond3(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    w: &mut PointWork,
    floored: &mut Floored,
) -> f32 {
    let dts = dt / NCOND as f32;
    let mut total = 0.0;
    for _ in 0..NCOND {
        for class in [
            HydroClass::IceColumns,
            HydroClass::IcePlates,
            HydroClass::IceDendrites,
            HydroClass::Snow,
            HydroClass::Graupel,
            HydroClass::Hail,
        ] {
            let qs_i = qsat_ice(th.t, th.p);
            w.f(20);
            total += relax_class(bins, class, th, grids, qs_i, true, dts, w, floored);
        }
    }
    total
}

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

/// Selects the condensation branch the way Listing 1 does ([`branch`]):
/// `onecond1` when the point is warm or ice-free, `onecond2` in mixed
/// phase, `onecond3` when fully glaciated. What the relaxes' scrubs
/// floor is tallied in `floored`.
pub fn condensation_branch(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    w: &mut PointWork,
    floored: &mut Floored,
) -> f32 {
    // Listing 1's conditionals: clear, subsaturated points skip the
    // expensive branch entirely (most of CONUS).
    let condensate = bins.total_condensate(grids, w);
    let s = supersat_liquid(th.t, th.p, th.qv);
    w.f(25);
    if condensate <= Q_EPS && s <= 0.0 {
        return 0.0;
    }
    let numbers = HydroClass::ALL.map(|c| bins.number_of(c));
    w.m(7 * NKR as u64);
    match branch(th.t, s, &numbers) {
        1 => onecond1(bins, th, grids, dt, w, floored),
        2 => onecond2(bins, th, grids, dt, w, floored),
        _ => onecond3(bins, th, grids, dt, w, floored),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::PointBins;
    use crate::thermo::supersat_liquid;

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
        let dq = onecond1(&mut v, &mut th, &g, 5.0, &mut w, &mut Floored::default());
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
        let dq = onecond1(&mut v, &mut th, &g, 5.0, &mut w, &mut Floored::default());
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
        let dq = onecond1(&mut v, &mut th, &g, 60.0, &mut w, &mut Floored::default());
        assert!(-dq <= q_before * 1.0001, "dq {} vs q {}", dq, q_before);
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
        let dq = onecond1(
            &mut b.view(),
            &mut th,
            &g,
            5.0,
            &mut w,
            &mut Floored::default(),
        );
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
        onecond2(&mut v, &mut th, &g, 5.0, &mut w, &mut Floored::default());
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
        let dq_warm = condensation_branch(
            &mut b.view(),
            &mut th,
            &g,
            5.0,
            &mut w,
            &mut Floored::default(),
        );
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
        condensation_branch(&mut v2, &mut th2, &g, 5.0, &mut w, &mut Floored::default());
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
            onecond1(&mut v, &mut th, &g, 5.0, &mut w, &mut Floored::default());
        }
        let s = supersat_liquid(th.t, th.p, th.qv);
        assert!(s.abs() < 0.01, "should be near saturation, s = {s}");
    }
}
