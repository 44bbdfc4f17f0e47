//! Property tests: the `PanelSoa` layout is bitwise-identical to
//! `PointAos` for every scheme version and scheduling mode, over random
//! patch shapes (including ragged last lanes), activity fractions
//! (including the all-clear 0.0 and all-cloudy 1.0 extremes), and random
//! cloud seeds.

use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{FastSbm, Layout, SbmConfig, SbmStepStats, SbmVersion};
use fsbm_core::thermo::qsat_liquid;
use fsbm_core::{PointBins, SbmPatchState};
use proptest::prelude::*;
use wrf_grid::{two_d_decomposition, Domain};

/// Deterministic pseudo-random f32 in [0, 1).
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f32) / (u32::MAX >> 1) as f32
    }
}

/// Builds a random patch: a stratified background with cloudy points
/// drawn at probability `activity`.
fn build_state(ni: i32, nk: i32, nj: i32, activity: f32, seed: u64) -> SbmPatchState {
    let d = Domain::new(ni, nk, nj);
    let patch = two_d_decomposition(d, 1, 0).patches[0];
    let mut st = SbmPatchState::new(patch);
    let mut rng = Lcg(seed);
    for j in patch.jm.iter() {
        for k in patch.km.iter() {
            for i in patch.im.iter() {
                let p = 92_000.0 - 5_000.0 * (k - 1) as f32;
                let t = 291.0 - 4.5 * (k - 1) as f32;
                st.p.set(i, k, j, p);
                st.tt.set(i, k, j, t);
                st.rho.set(i, k, j, fsbm_core::thermo::air_density(t, p));
                let cloudy = rng.next() < activity;
                let qv = if cloudy {
                    qsat_liquid(t, p) * (1.0 + 0.02 * rng.next())
                } else {
                    qsat_liquid(t, p) * 0.5
                };
                st.qv.set(i, k, j, qv);
                if cloudy {
                    let mut bins = PointBins::empty();
                    for b in 6..=13 {
                        if rng.next() > 0.3 {
                            bins.n[0][b] = rng.next() * 4.0e7;
                        }
                    }
                    if rng.next() > 0.7 {
                        bins.n[4][10] = rng.next() * 1.0e5; // some snow
                    }
                    st.store_bins(i, k, j, &bins);
                }
            }
        }
    }
    st
}

fn run(
    version: SbmVersion,
    sched: ExecMode,
    tiles: usize,
    layout: Layout,
    mut st: SbmPatchState,
    steps: usize,
) -> (SbmPatchState, Vec<SbmStepStats>) {
    let mut cfg = SbmConfig::new(version);
    cfg.workers = Some(2);
    cfg.sched = sched;
    cfg.tiles = tiles;
    cfg.layout = layout;
    let mut scheme = FastSbm::new(cfg);
    let mut stats = Vec::new();
    for _ in 0..steps {
        stats.push(scheme.step(&mut st));
    }
    (st, stats)
}

/// Bitwise comparison of every prognostic array plus the layout-invariant
/// step statistics. Panics (inside the property) on any mismatch.
fn assert_identical(
    a: &SbmPatchState,
    b: &SbmPatchState,
    sa: &[SbmStepStats],
    sb: &[SbmStepStats],
    what: &str,
) {
    for (x, y) in a.tt.as_slice().iter().zip(b.tt.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: tt differs");
    }
    for (x, y) in a.qv.as_slice().iter().zip(b.qv.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: qv differs");
    }
    for (c, (fa, fb)) in a.ff.iter().zip(&b.ff).enumerate() {
        for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: ff[{c}] differs");
        }
    }
    for (x, y) in a.rainnc.iter().zip(&b.rainnc) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: rainnc differs");
    }
    assert_eq!(a.precip_acc, b.precip_acc, "{what}: precip_acc");
    for (step, (x, y)) in sa.iter().zip(sb).enumerate() {
        assert_eq!(
            x.active_points, y.active_points,
            "{what} step {step}: active_points"
        );
        assert_eq!(
            x.coal_points, y.coal_points,
            "{what} step {step}: coal_points"
        );
        assert_eq!(
            x.coal_entries, y.coal_entries,
            "{what} step {step}: coal_entries"
        );
        assert_eq!(
            x.work.total(),
            y.work.total(),
            "{what} step {step}: metered work"
        );
        assert_eq!(
            x.coal_iters, y.coal_iters,
            "{what} step {step}: launch iters"
        );
        assert_eq!(
            x.warp_efficiency, y.warp_efficiency,
            "{what} step {step}: warp efficiency"
        );
    }
}

const ALL_VERSIONS: [SbmVersion; 4] = [
    SbmVersion::Baseline,
    SbmVersion::Lookup,
    SbmVersion::OffloadCollapse2,
    SbmVersion::OffloadCollapse3,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes (ragged lanes: `ni` is rarely a multiple of the lane
    /// width) and activity fractions, all four versions, static tiling.
    #[test]
    fn panels_match_aos_static(
        ni in 3i32..14, nk in 2i32..6, nj in 2i32..6,
        act10 in 0usize..11, seed in 1u64..1_000_000,
    ) {
        let activity = act10 as f32 / 10.0;
        for version in ALL_VERSIONS {
            let st = build_state(ni, nk, nj, activity, seed);
            let (a, sa) = run(
                version, ExecMode::StaticTiles, 1, Layout::PointAos, st.clone(), 2,
            );
            let (b, sb) = run(
                version, ExecMode::StaticTiles, 1, Layout::PanelSoa, st, 2,
            );
            assert_identical(&a, &b, &sa, &sb, &format!("{version:?}/static"));
        }
    }

    /// Same, over the work-stealing executor with activity compaction
    /// (CPU versions run it through the tiled path).
    #[test]
    fn panels_match_aos_worksteal(
        ni in 3i32..14, nk in 2i32..6, nj in 2i32..6,
        act10 in 0usize..11, seed in 1u64..1_000_000,
    ) {
        let activity = act10 as f32 / 10.0;
        let sched = ExecMode::work_steal();
        for version in ALL_VERSIONS {
            let st = build_state(ni, nk, nj, activity, seed);
            let (a, sa) = run(version, sched, 4, Layout::PointAos, st.clone(), 2);
            let (b, sb) = run(version, sched, 4, Layout::PanelSoa, st, 2);
            assert_identical(&a, &b, &sa, &sb, &format!("{version:?}/steal"));
        }
    }

    /// The all-clear and all-cloudy extremes stay bitwise across layouts
    /// on patches small enough that the automatic chunk is one column.
    #[test]
    fn panels_match_aos_extremes_chunked(
        ni in 3i32..14, seed in 1u64..1_000_000,
    ) {
        let sched = ExecMode::work_steal();
        for activity in [0.0f32, 1.0] {
            for version in [SbmVersion::OffloadCollapse2, SbmVersion::OffloadCollapse3] {
                let st = build_state(ni, 3, 3, activity, seed);
                let (a, sa) = run(version, sched, 1, Layout::PointAos, st.clone(), 2);
                let (b, sb) = run(version, sched, 1, Layout::PanelSoa, st, 2);
                assert_identical(&a, &b, &sa, &sb, &format!("{version:?}/act{activity}"));
            }
        }
    }
}
