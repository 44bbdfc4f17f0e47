//! The per-grid-point `fast_sbm` driver, split for loop fission.
//!
//! Listing 1 guards the whole physics on `T_OLD > 193.15` K and the
//! collision call additionally on `TT > 223.15` K. Listings 6–8
//! *fission* the grid loop: nucleation/condensation run in a first sweep
//! that also records the collision predicate (`call_coal_bott_new`), the
//! collision loop runs on its own (offloaded, or on CPU tiles), and
//! freezing/breakup finish in a third sweep. Every version of the scheme
//! runs those sweeps over the `pre`/`coal`/`post` parts exported here, so
//! all versions execute the *same* physics in the same order;
//! [`fast_sbm_point`] is their unfissioned composition for one point.

use crate::constants::{T_MIN_COAL, T_MIN_PHYSICS};
use crate::kernels::KernelMode;
use crate::meter::{PointWork, WorkBreakdown};
use crate::point::{BinsView, Floored, Grids, PointBins, PointThermo, Q_EPS};
use crate::processes::{breakup, collision, condensation, freezing, nucleation};

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
    /// What the condensation relaxes' scrubs floored
    /// ([`BinsView::scrub_tails`]).
    pub floored: Floored,
}

/// First fissioned sweep: nucleation + condensation. Returns the outcome
/// with `coal_called` set to the Listing 6 predicate
/// (`call_coal_bott_new(i,k,j)`).
pub fn fast_sbm_pre(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    dt: f32,
    t_old: f32,
) -> PointOutcome {
    let Some(mut out) = fast_sbm_nucleate(bins, th, grids, dt, t_old) else {
        return PointOutcome::default();
    };

    let mut w = PointWork::ZERO;
    condensation::condensation_branch(bins, th, grids, dt, &mut w, &mut out.floored);
    out.work.cond = w;

    // The collision predicate of Listing 6: warm enough and something to
    // collide.
    let mut w = PointWork::ZERO;
    let condensate = bins.total_condensate(grids, &mut w);
    out.coal_called = th.t > T_MIN_COAL && condensate > Q_EPS;
    out.work.cond += w;
    out
}

/// The guard + nucleation head of [`fast_sbm_pre`], split out so the
/// panel layout can run it per point before batching condensation.
/// Returns `None` for points failing the `T_OLD > 193.15` guard.
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

/// The collision stage (the offloaded kernel body). Adds its work and
/// entry count into `out`.
pub fn fast_sbm_coal(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    kernels: KernelMode<'_>,
    dt: f32,
    out: &mut PointOutcome,
) {
    debug_assert!(out.coal_called);
    let mut w = PointWork::ZERO;
    out.coal_entries = collision::coal_bott_new(bins, th, grids, kernels, dt, &mut w);
    out.work.coal += w;
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

/// The unfissioned per-point `fast_sbm` (Listing 1 structure): the
/// single-point drivers and the tests run it; the scheme runs its three
/// parts as separate sweeps, which changes no bit.
pub fn fast_sbm_point(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    grids: &Grids,
    kernels: KernelMode<'_>,
    dt: f32,
    t_old: f32,
) -> PointOutcome {
    let mut out = fast_sbm_pre(bins, th, grids, dt, t_old);
    if out.coal_called {
        fast_sbm_coal(bins, th, grids, kernels, dt, &mut out);
    }
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
        let o1 = fast_sbm_point(&mut b1.view(), &mut th1, &g, km, dt, t_old1);

        // Fissioned path, as the offload drivers run it.
        let mut v2 = b2.view();
        let t_old2 = th2.t;
        let mut o2 = fast_sbm_pre(&mut v2, &mut th2, &g, dt, t_old2);
        if o2.coal_called {
            fast_sbm_coal(&mut v2, &mut th2, &g, km, dt, &mut o2);
        }
        fast_sbm_post(&mut v2, &mut th2, &g, dt, &mut o2);
        drop(v2);

        assert_eq!(b1, b2, "loop fission must not change the physics");
        assert_eq!(th1, th2);
        assert_eq!(o1.coal_entries, o2.coal_entries);
        assert_eq!(o1.work.total(), o2.work.total());
    }
}
