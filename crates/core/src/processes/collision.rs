//! `coal_bott_new`: collision–coalescence by the Bott flux method.
//!
//! For every interacting class pair the stochastic collection equation is
//! integrated explicitly over the occupied bins: collection events at
//! rate `K(i,j) · n_i · n_j · ρ` remove particles from both colliders and
//! deposit the merged mass into the outcome class with the
//! number-and-mass-conserving two-bin split of
//! [`crate::point::deposit_mass`]. Kernel values come from
//! [`crate::kernels::KernelMode`]: the dense per-point tables (baseline)
//! or the on-demand pure computation (lookup refactor) — numerically
//! identical. The body is [`crate::panels::panel_coal`], which runs it
//! over a lane batch of points; one point is a batch of its own
//! ([`crate::panels::one_lane`]).
//!
//! The two sparsities the paper's Section VI-A exploits appear here
//! naturally: class pairs whose colliders are absent are skipped ("not
//! all 20 collision arrays are used"), and only occupied bin ranges are
//! visited ("not every entry of an array is used").

/// Fraction of a bin that may be depleted per step (stability cap).
pub(crate) const MAX_DEPLETION: f32 = 0.5;

/// Internal collision substeps per model step: the stochastic collection
/// equation is stiff once drizzle forms, so FSBM integrates it with
/// several sub-iterations per Δt (Khain et al. 2004 use `ncoll`-fold
/// substepping). Identical in all four versions.
pub const NCOLL: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{kernals_ks, CollisionTables, KernelMode, KernelTables};
    use crate::meter::PointWork;
    use crate::panels::{one_lane, panel_coal, DepositSplits, LANES};
    use crate::point::{BinsView, Grids, PointBins, PointThermo};
    use crate::types::{HydroClass, NKR};

    /// One point's collision over `dt`, batched alone: the kernel entries
    /// it evaluated, its work metered into `w`.
    fn coal(
        bins: &mut BinsView<'_>,
        th: &mut PointThermo,
        grids: &Grids,
        kernels: KernelMode<'_>,
        dt: f32,
        w: &mut PointWork,
    ) -> u64 {
        let splits = DepositSplits::new(grids);
        let (mut works, mut entries) = ([PointWork::ZERO; LANES], [0u64; LANES]);
        one_lane(bins, th, |panel| {
            panel_coal(panel, grids, kernels, &splits, dt, &mut works, &mut entries)
        });
        *w += works[0];
        entries[0]
    }

    fn thermo(t: f32) -> PointThermo {
        PointThermo {
            t,
            qv: 0.005,
            p: 70_000.0,
            rho: 0.9,
        }
    }

    fn grids() -> Grids {
        Grids::new()
    }

    /// A cloud of small droplets plus drizzle collectors: collision must
    /// move mass upward in the spectrum while conserving total water mass.
    #[test]
    fn water_selfcollection_conserves_mass_and_grows_drops() {
        let g = grids();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        // Cloud droplets at bins 8–12, drizzle at bin 18.
        for k in 8..=12 {
            b.n[0][k] = 5.0e7;
        }
        b.n[0][18] = 1.0e4;
        let mut th = thermo(285.0);
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let q_before = v.mass_of(HydroClass::Water, &g, &mut w);
        let n_large_before: f32 = v.class(HydroClass::Water)[19..].iter().sum();
        let entries = coal(
            &mut v,
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 70_000.0,
            },
            10.0,
            &mut w,
        );
        let q_after = v.mass_of(HydroClass::Water, &g, &mut w);
        let n_large_after: f32 = v.class(HydroClass::Water)[19..].iter().sum();
        assert!(entries > 0);
        assert!(
            (q_after - q_before).abs() / q_before < 2e-3,
            "mass drift {} vs {}",
            q_after,
            q_before
        );
        assert!(n_large_after > n_large_before, "spectrum must grow");
    }

    #[test]
    fn dense_and_ondemand_agree_exactly() {
        let g = grids();
        let tables = KernelTables::new();
        let p = 65_000.0;
        let mut dense = CollisionTables::new();
        let mut w = PointWork::ZERO;
        kernals_ks(&tables, p, &mut dense, &mut w);

        let mut seed = PointBins::empty();
        for k in 6..=14 {
            seed.n[0][k] = 3.0e7 / (k as f32);
        }
        seed.n[4][10] = 1.0e5; // snow
        seed.n[5][15] = 2.0e4; // graupel

        let mut b1 = seed.clone();
        let mut b2 = seed.clone();
        let mut th1 = thermo(263.0);
        let mut th2 = thermo(263.0);
        coal(
            &mut b1.view(),
            &mut th1,
            &g,
            KernelMode::Dense(&dense),
            5.0,
            &mut w,
        );
        coal(
            &mut b2.view(),
            &mut th2,
            &g,
            KernelMode::OnDemand { tables: &tables, p },
            5.0,
            &mut w,
        );
        assert_eq!(b1, b2, "the lookup refactor must be numerically exact");
        assert_eq!(th1, th2);
    }

    #[test]
    fn empty_point_evaluates_nothing() {
        let g = grids();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        let mut th = thermo(280.0);
        let mut w = PointWork::ZERO;
        let entries = coal(
            &mut b.view(),
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 70_000.0,
            },
            5.0,
            &mut w,
        );
        assert_eq!(entries, 0);
    }

    #[test]
    fn sparse_spectra_evaluate_few_entries() {
        // The lookup optimization's premise: occupied ranges are narrow,
        // so on-demand evaluation touches a small fraction of the 20×33².
        let g = grids();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        for k in 8..=13 {
            b.n[0][k] = 1.0e7;
        }
        let mut th = thermo(285.0);
        let mut w = PointWork::ZERO;
        let entries = coal(
            &mut b.view(),
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 70_000.0,
            },
            5.0,
            &mut w,
        );
        // Only water–water over 6 bins: ~21 unordered pairs per substep.
        assert!(entries <= 25 * NCOLL as u64 + 10, "entries = {entries}");
        assert!(entries >= 15 * NCOLL as u64);
    }

    #[test]
    fn no_ice_interactions_above_freezing() {
        let g = grids();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        b.n[0][10] = 1.0e7; // water
        b.n[4][12] = 1.0e5; // snow
        let mut th = thermo(290.0); // warm
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let snow_before = v.number_of(HydroClass::Snow);
        coal(
            &mut v,
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 80_000.0,
            },
            5.0,
            &mut w,
        );
        // Snow untouched above freezing (no riming), water self-collects.
        assert_eq!(v.number_of(HydroClass::Snow), snow_before);
    }

    #[test]
    fn riming_warms_the_point_and_builds_graupel() {
        let g = grids();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        for k in 10..=14 {
            b.n[0][k] = 5.0e7; // supercooled droplets
        }
        b.n[5][18] = 1.0e4; // graupel collectors
        let mut th = thermo(263.0);
        let t_before = th.t;
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let qg_before = v.mass_of(HydroClass::Graupel, &g, &mut w);
        coal(
            &mut v,
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 60_000.0,
            },
            10.0,
            &mut w,
        );
        let qg_after = v.mass_of(HydroClass::Graupel, &g, &mut w);
        assert!(qg_after > qg_before, "graupel must grow by riming");
        assert!(th.t > t_before, "freezing releases latent heat");
    }

    #[test]
    fn depletion_cap_prevents_negative_bins() {
        let g = grids();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        // Extreme concentrations + long dt would overshoot without a cap.
        b.n[0][20] = 1.0e9;
        b.n[0][25] = 1.0e9;
        let mut th = thermo(285.0);
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        coal(
            &mut v,
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 70_000.0,
            },
            100.0,
            &mut w,
        );
        for k in 0..NKR {
            assert!(v.class(HydroClass::Water)[k] >= 0.0);
        }
    }

    #[test]
    fn work_metering_scales_with_entries() {
        let g = grids();
        let tables = KernelTables::new();
        let mk = |nbins: usize| {
            let mut b = PointBins::empty();
            for k in 8..8 + nbins {
                b.n[0][k] = 1.0e7;
            }
            b
        };
        let run = |mut b: PointBins| {
            let mut th = thermo(285.0);
            let mut w = PointWork::ZERO;
            let e = coal(
                &mut b.view(),
                &mut th,
                &g,
                KernelMode::OnDemand {
                    tables: &tables,
                    p: 70_000.0,
                },
                5.0,
                &mut w,
            );
            (e, w.flops)
        };
        let (e_small, f_small) = run(mk(4));
        let (e_big, f_big) = run(mk(12));
        assert!(e_big > e_small * 4);
        assert!(f_big > f_small * 2);
    }
}
