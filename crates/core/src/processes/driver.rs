//! The per-grid-point `fast_sbm` driver, split for loop fission.
//!
//! Listing 1 guards the whole physics on `T_OLD > 193.15` K and the
//! collision call additionally on `TT > 223.15` K. Listings 6–8
//! *fission* the grid loop: nucleation/condensation run in a first sweep
//! that also records the collision predicate (`call_coal_bott_new`), the
//! collision loop runs on its own (offloaded, or on CPU tiles), and
//! freezing/breakup finish in a third sweep. Every version of the scheme
//! runs those sweeps: the guard and nucleation head ([`fast_sbm_nucleate`])
//! and the post stage ([`fast_sbm_post`]) per point, condensation, the
//! predicate and collision as the lane-batch kernels of
//! [`crate::panels`]. So all versions execute the *same* physics in the
//! same order; [`fast_sbm_point`] is their unfissioned composition for
//! one point.

use crate::constants::T_MIN_PHYSICS;
use crate::kernels::KernelMode;
use crate::meter::{PointWork, WorkBreakdown};
use crate::panels::{
    one_lane, panel_coal, panel_coal_predicate, panel_condensation, DepositSplits, LANES,
};
use crate::point::{BinsView, Floored, Grids, PointBins, PointThermo};
use crate::processes::{breakup, freezing, nucleation};

/// Outcome of one point's microphysics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointOutcome {
    /// True when the point passed the `T > 193.15` guard.
    pub active: bool,
    /// True when the collision routine was (or must be) called.
    pub coal_called: bool,
    /// Kernel entries evaluated inside `coal_bott_new`.
    pub coal_entries: u64,
    /// Per-routine work.
    pub work: WorkBreakdown,
    /// What the condensation relaxes' scrubs floored.
    pub floored: Floored,
}

/// The guard + nucleation head of the first fissioned sweep, which the
/// scheme runs per point before batching condensation. Returns `None`
/// for points failing the `T_OLD > 193.15` guard.
pub fn fast_sbm_nucleate(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    t_old: f32,
) -> Option<PointOutcome> {
    if t_old <= T_MIN_PHYSICS {
        return None;
    }
    let mut out = PointOutcome {
        active: true,
        ..Default::default()
    };
    let mut w = PointWork::ZERO;
    nucleation::jernucl01_ks(bins, th, grids, dt, &mut w);
    out.work.nucl = w;
    Some(out)
}

/// Final fissioned sweep: freezing/melting + breakup.
pub fn fast_sbm_post(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    out: &mut PointOutcome,
) {
    if !out.active {
        return;
    }
    let mut w = PointWork::ZERO;
    freezing::freezing_melting(bins, th, grids, dt, &mut w);
    out.work.freeze = w;

    let mut w = PointWork::ZERO;
    breakup::breakup(bins, grids, dt, &mut w);
    out.work.breakup = w;
}

/// [`fast_sbm_post`] of a clear point ([`BinsView::is_clear`]) without
/// reading its bins. Freezing, melting and breakup write nothing to an
/// all-`±0` class, and `T` moves by `L_F·(+0.0)/CP`, which leaves it as
/// it is, so the point's bins and thermo need no store. The meter depends
/// on `T` alone: the stage replays on `th`'s copy over `empty`, all
/// `+0.0` and left so, and meters exactly what the bins would have.
pub(crate) fn fast_sbm_post_clear(
    mut th: PointThermo,
    grids: &Grids,
    dt: f32,
    empty: &mut PointBins,
    out: &mut PointOutcome,
) {
    fast_sbm_post(&mut empty.view(), &mut th, grids, dt, out);
    debug_assert!(
        empty.view().is_clear(),
        "the post stage filled an empty point"
    );
}

/// The unfissioned per-point `fast_sbm` (Listing 1 structure), for the
/// single-point drivers and the tests: the guard and nucleation, then the
/// point batched alone ([`one_lane`]) through condensation, the collision
/// predicate and, where it holds, collision with `kernels` and the
/// scheme's deposition stencils `splits`, then freezing and breakup. The
/// scheme runs the same stages as separate sweeps over lane batches,
/// which changes no bit of any point.
pub fn fast_sbm_point(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    kernels: KernelMode<'_>,
    splits: &DepositSplits,
    dt: f32,
    t_old: f32,
) -> PointOutcome {
    let Some(mut out) = fast_sbm_nucleate(bins, th, grids, dt, t_old) else {
        return PointOutcome::default();
    };
    let (mut cond, mut floored) = ([PointWork::ZERO; LANES], [Floored::default(); LANES]);
    let (mut coal, mut entries) = ([PointWork::ZERO; LANES], [0u64; LANES]);
    out.coal_called = one_lane(bins, th, |panel| {
        panel_condensation(panel, grids, dt, &mut cond, &mut floored);
        let called = panel_coal_predicate(panel, grids, &mut cond)[0];
        if called {
            panel_coal(panel, grids, kernels, splits, dt, &mut coal, &mut entries);
        }
        called
    });
    (out.work.cond, out.floored) = (cond[0], floored[0]);
    (out.work.coal, out.coal_entries) = (coal[0], entries[0]);
    fast_sbm_post(bins, th, grids, dt, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelTables;
    use crate::point::PointBins;
    use crate::thermo::qsat_liquid;

    fn grids() -> Grids {
        Grids::new()
    }

    fn cloudy_thermo() -> PointThermo {
        let (t, p) = (285.0, 85_000.0);
        PointThermo {
            t,
            qv: qsat_liquid(t, p) * 1.01,
            p,
            rho: 1.0,
        }
    }

    #[test]
    fn frigid_points_do_nothing() {
        let g = grids();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&g);
        let mut b = PointBins::empty();
        b.n[0][10] = 1.0e7;
        let before = b.clone();
        let mut th = PointThermo {
            t: 180.0,
            qv: 1e-5,
            p: 20_000.0,
            rho: 0.3,
        };
        let out = fast_sbm_point(
            &mut b.view(),
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 20_000.0,
            },
            &splits,
            5.0,
            180.0,
        );
        assert!(!out.active);
        assert!(!out.coal_called);
        assert_eq!(b, before);
        assert_eq!(out.work.total(), PointWork::ZERO);
    }

    #[test]
    fn cloudy_point_runs_the_full_chain() {
        let g = grids();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&g);
        let mut b = PointBins::empty();
        for k in 6..=13 {
            b.n[0][k] = 4.0e7;
        }
        let mut th = cloudy_thermo();
        let t_old = th.t;
        let out = fast_sbm_point(
            &mut b.view(),
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: 85_000.0,
            },
            &splits,
            5.0,
            t_old,
        );
        assert!(out.active);
        assert!(out.coal_called);
        assert!(out.coal_entries > 0);
        assert!(out.work.nucl.flops > 0);
        assert!(out.work.cond.flops > 0);
        assert!(out.work.coal.flops > 0);
    }

    #[test]
    fn cold_dry_point_skips_coal_by_predicate() {
        let g = grids();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&g);
        let mut b = PointBins::empty();
        // Active temperature range but no condensate and subsaturated.
        let mut th = PointThermo {
            t: 220.0,
            qv: 1.0e-6,
            p: 30_000.0,
            rho: 0.45,
        };
        let t_old = th.t;
        let pres = th.p;
        let out = fast_sbm_point(
            &mut b.view(),
            &mut th,
            &g,
            KernelMode::OnDemand {
                tables: &tables,
                p: pres,
            },
            &splits,
            5.0,
            t_old,
        );
        assert!(out.active);
        assert!(!out.coal_called, "TT = 220 < 223.15");
        assert_eq!(out.coal_entries, 0);
    }

    #[test]
    fn fissioned_equals_unfissioned() {
        let g = grids();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&g);
        let mk = || {
            let mut b = PointBins::empty();
            for k in 6..=13 {
                b.n[0][k] = 4.0e7;
            }
            b.n[4][10] = 1.0e4;
            b
        };
        let mut b1 = mk();
        let mut b2 = mk();
        let mut th1 = cloudy_thermo();
        let mut th2 = cloudy_thermo();
        let dt = 5.0;
        let km = KernelMode::OnDemand {
            tables: &tables,
            p: th1.p,
        };

        let t_old1 = th1.t;
        let o1 = fast_sbm_point(&mut b1.view(), &mut th1, &g, km, &splits, dt, t_old1);

        // Fissioned path, as the scheme's sweeps run it: each stage gathers
        // the point into a batch of its own and stores it back.
        let mut v2 = b2.view();
        let t_old2 = th2.t;
        let mut o2 = fast_sbm_nucleate(&mut v2, &mut th2, &g, dt, t_old2).expect("active");
        let (mut cond, mut floored) = ([PointWork::ZERO; LANES], [Floored::default(); LANES]);
        o2.coal_called = one_lane(&mut v2, &mut th2, |panel| {
            panel_condensation(panel, &g, dt, &mut cond, &mut floored);
            panel_coal_predicate(panel, &g, &mut cond)[0]
        });
        (o2.work.cond, o2.floored) = (cond[0], floored[0]);
        assert!(o2.coal_called, "the collision stage must run");
        let (mut coal, mut entries) = ([PointWork::ZERO; LANES], [0u64; LANES]);
        one_lane(&mut v2, &mut th2, |panel| {
            panel_coal(panel, &g, km, &splits, dt, &mut coal, &mut entries)
        });
        (o2.work.coal, o2.coal_entries) = (coal[0], entries[0]);
        fast_sbm_post(&mut v2, &mut th2, &g, dt, &mut o2);
        drop(v2);

        assert_eq!(b1, b2, "loop fission must not change the physics");
        assert_eq!(th1, th2);
        assert_eq!(o1.coal_entries, o2.coal_entries);
        assert_eq!(o1.work.total(), o2.work.total());
        assert_eq!(o1, o2);
    }
}
