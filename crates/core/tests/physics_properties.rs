//! Property-based tests of the microphysics' thermodynamic and process
//! invariants.

use fsbm_core::bins::terminal_velocity;
use fsbm_core::kernels::{gravitational_kernel, KernelTables, COLLISION_PAIRS};
use fsbm_core::meter::PointWork;
use fsbm_core::point::{Floored, Grids, PointBins, PointThermo};
use fsbm_core::processes::condensation::{condensation_branch, onecond1};
use fsbm_core::processes::freezing::freezing_melting;
use fsbm_core::thermo::{
    air_density, esat_ice, esat_liquid, qsat_ice, qsat_liquid, supersat_liquid,
};
use fsbm_core::types::{HydroClass, NKR};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Saturation vapor pressure grows monotonically with temperature and
    /// the liquid curve dominates the ice curve below freezing.
    #[test]
    fn esat_monotone_and_ordered(t in 200.0f32..320.0) {
        prop_assert!(esat_liquid(t + 0.5) > esat_liquid(t));
        prop_assert!(esat_ice(t + 0.5) > esat_ice(t));
        if t < 273.0 {
            prop_assert!(esat_liquid(t) > esat_ice(t));
        }
    }

    /// Saturation mixing ratios are positive, finite, and increase with
    /// temperature at fixed pressure.
    #[test]
    fn qsat_sane(t in 210.0f32..310.0, p in 30_000.0f32..105_000.0) {
        let q = qsat_liquid(t, p);
        prop_assert!(q > 0.0 && q.is_finite());
        prop_assert!(qsat_liquid(t + 1.0, p) > q);
        prop_assert!(qsat_ice(t, p) > 0.0);
    }

    /// Ideal-gas density behaves: positive, decreasing in T, increasing
    /// in p.
    #[test]
    fn density_behaves(t in 200.0f32..320.0, p in 20_000.0f32..105_000.0) {
        let rho = air_density(t, p);
        prop_assert!(rho > 0.1 && rho < 2.5);
        prop_assert!(air_density(t + 5.0, p) < rho);
        prop_assert!(air_density(t, p + 5_000.0) > rho);
    }

    /// Terminal velocities are non-negative, finite, capped, and
    /// monotone in radius for fixed density.
    #[test]
    fn vt_bounds(r_exp in -6.0f32..-2.3, rho_p in 50.0f32..1000.0) {
        let r = 10.0f32.powf(r_exp);
        let v = terminal_velocity(r, rho_p);
        prop_assert!((0.0..=20.0).contains(&v));
        prop_assert!(terminal_velocity(r * 1.1, rho_p) >= v * 0.99);
    }

    /// Collection kernels are non-negative for every pair and bin combo,
    /// and interpolated table entries lie between the two level values.
    #[test]
    fn kernel_positivity_and_interp(pair in 0usize..20, i in 0usize..NKR,
                                    j in 0usize..NKR, p in 45_000.0f32..80_000.0) {
        let grids = Grids::new();
        let pr = &COLLISION_PAIRS[pair];
        let k = gravitational_kernel(
            grids.of(pr.a), grids.of(pr.b), i, j, 0.9,
        );
        prop_assert!(k >= 0.0 && k.is_finite());

        let tables = KernelTables::new();
        let mut w = PointWork::ZERO;
        let lo = tables.entry(pair, i, j, 75_000.0, &mut w);
        let hi = tables.entry(pair, i, j, 50_000.0, &mut w);
        let mid = tables.entry(pair, i, j, p, &mut w);
        let (a, b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        prop_assert!(mid >= a - 1e-12 && mid <= b + 1e-12);
    }

    /// Condensation never drives vapor negative nor past saturation from
    /// above, for arbitrary cloudy states.
    #[test]
    fn condensation_bounded(
        nbins in 1usize..8, n in 1.0e5f32..1.0e8,
        t in 250.0f32..305.0, rh in 0.3f32..1.3,
    ) {
        let grids = Grids::new();
        let p = 80_000.0;
        let mut b = PointBins::empty();
        for k in 0..nbins {
            b.n[0][5 + k] = n;
        }
        let mut th = PointThermo { t, qv: rh * qsat_liquid(t, p), p, rho: 1.0 };
        let mut w = PointWork::ZERO;
        onecond1(&mut b.view(), &mut th, &grids, 5.0, &mut w, &mut Floored::default());
        prop_assert!(th.qv >= 0.0, "vapor went negative: {}", th.qv);
        let s = supersat_liquid(th.t, th.p, th.qv);
        // Relaxation cannot overshoot to strong sub/supersaturation of the
        // opposite sign beyond what evaporation limits allow.
        prop_assert!(s.is_finite());
        prop_assert!(th.t > 200.0 && th.t < 340.0, "temperature blew up: {}", th.t);
    }

    /// A freeze/melt round trip conserves total condensate mass.
    #[test]
    fn freeze_melt_conserves(
        nbins in 1usize..6, n in 1.0e4f32..1.0e7, tc in 1.0f32..25.0,
    ) {
        let grids = Grids::new();
        let mut b = PointBins::empty();
        for k in 0..nbins {
            b.n[0][8 + 2 * k] = n;
        }
        let mut w = PointWork::ZERO;
        let before = b.view().total_condensate(&grids, &mut w) as f64;

        // Deep-freeze, then melt back.
        let mut th = PointThermo { t: 273.15 - tc - 20.0, qv: 1e-3, p: 60_000.0, rho: 0.8 };
        freezing_melting(&mut b.view(), &mut th, &grids, 60.0, &mut w);
        let mut th2 = PointThermo { t: 273.15 + tc, qv: 1e-3, p: 90_000.0, rho: 1.1 };
        for _ in 0..20 {
            freezing_melting(&mut b.view(), &mut th2, &grids, 60.0, &mut w);
        }
        let after = b.view().total_condensate(&grids, &mut w) as f64;
        prop_assert!((after - before).abs() / before < 2e-2,
            "condensate {} -> {}", before, after);
    }

    /// The Listing-1 branch logic: clear subsaturated points are free.
    #[test]
    fn clear_points_cost_nothing(t in 240.0f32..300.0, rh in 0.1f32..0.89) {
        let grids = Grids::new();
        let p = 80_000.0;
        let mut b = PointBins::empty();
        let mut th = PointThermo { t, qv: rh * qsat_liquid(t, p), p, rho: 1.0 };
        let mut w = PointWork::ZERO;
        let dq = condensation_branch(&mut b.view(), &mut th, &grids, 5.0, &mut w, &mut Floored::default());
        prop_assert_eq!(dq, 0.0);
        // Early-out: at most the guard scans.
        prop_assert!(w.flops < 1000, "clear point cost {} flops", w.flops);
    }

    /// Bins views: mass_of equals the manual dot product for any fill.
    #[test]
    fn mass_of_matches_manual(fills in proptest::collection::vec((0usize..NKR, 0.0f32..1e7), 0..20)) {
        let grids = Grids::new();
        let g = grids.of(HydroClass::Water);
        let mut b = PointBins::empty();
        for (k, n) in &fills {
            b.n[0][*k] += n;
        }
        let manual: f32 = (0..NKR).map(|k| b.n[0][k] * g.mass[k]).sum();
        let mut w = PointWork::ZERO;
        let got = b.view().mass_of(HydroClass::Water, &grids, &mut w);
        prop_assert!((got - manual).abs() <= manual.abs() * 1e-6 + 1e-20);
    }
}
