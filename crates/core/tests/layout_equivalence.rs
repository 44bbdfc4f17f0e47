//! Property tests: the panel kernels at width `LANES` (`PanelSoa`) are
//! bitwise-identical to the same kernels at width 1 (`PointAos`, every
//! point a batch of its own) for every scheme version and scheduling
//! mode, over random patch shapes (including ragged last lanes), activity
//! fractions (including the all-clear 0.0 and all-cloudy 1.0 extremes),
//! and random cloud seeds — with, planted in every patch, one point of
//! each kind the pre-sweep tells apart ([`plant_cases`]).

use fsbm_core::exec::ExecMode;
use fsbm_core::point::Grids;
use fsbm_core::scheme::{FastSbm, Layout, SbmConfig, SbmStepStats, SbmVersion};
use fsbm_core::thermo::{air_density, qsat_ice, qsat_liquid};
use fsbm_core::types::{HydroClass, NKR};
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

/// Builds a random patch: [`build_background`] with [`plant_cases`] on
/// top.
fn build_state(ni: i32, nk: i32, nj: i32, activity: f32, seed: u64) -> SbmPatchState {
    let mut st = build_background(ni, nk, nj, activity, seed);
    plant_cases(&mut st, seed);
    st
}

/// Number of points [`plant_cases`] overwrites.
const CASES: usize = 9;

/// Overwrites [`CASES`] consecutive compute points (from a seed-drawn
/// start, wrapping; the smallest patch here holds twelve) with one point
/// of each kind the panel pre-sweep tells apart, so that every patch runs
/// every branch whatever its activity. Returns their `(i, k, j)`, in the
/// order of the `match` below.
fn plant_cases(st: &mut SbmPatchState, seed: u64) -> [(i32, i32, i32); CASES] {
    let patch = st.patch;
    let points: Vec<(i32, i32, i32)> = (patch.jp.iter())
        .flat_map(|j| patch.kp.iter().map(move |k| (k, j)))
        .flat_map(|(k, j)| patch.ip.iter().map(move |i| (i, k, j)))
        .collect();
    assert!(
        points.len() >= CASES,
        "patch too small for the planted cases"
    );
    let start = (seed as usize).wrapping_mul(0x9e37_79b9) % points.len();
    let droplets = |bins: &mut PointBins| (7..=12).for_each(|b| bins.n[0][b] = 2.0e7);
    let crystals = |bins: &mut PointBins| {
        bins.n[2][6] = 4.0e4; // plates
        bins.n[4][10] = 8.0e4; // snow
    };
    std::array::from_fn(|case| {
        let (i, k, j) = points[(start + case) % points.len()];
        let p = st.p.get(i, k, j);
        let mut bins = PointBins::empty();
        let (t, qv) = match case {
            // Clear and subsaturated: metered in place, never gathered.
            0 => (285.0, qsat_liquid(285.0, p) * 0.5),
            // Clear but supersaturated: it nucleates, so it must still
            // enter a panel.
            1 => (285.0, qsat_liquid(285.0, p) * 1.02),
            // Warm cloud, evaporating.
            2 => {
                droplets(&mut bins);
                (288.0, qsat_liquid(288.0, p) * 0.97)
            }
            // Mixed phase: `t < T_0`, ice and liquid.
            3 => {
                droplets(&mut bins);
                crystals(&mut bins);
                (263.0, qsat_liquid(263.0, p))
            }
            // Glaciated: ice only, below water saturation.
            4 => {
                crystals(&mut bins);
                (250.0, qsat_ice(250.0, p) * 1.05)
            }
            // `T_OLD <= 193.15`: outside the physics guard, cloud or not.
            5 => {
                droplets(&mut bins);
                (190.0, 1.0e-6)
            }
            // Tiny negatives in classes other than the one the lane's
            // first relax moves (water): warm, where no later relax
            // visits them, ...
            6 => {
                droplets(&mut bins);
                bins.n[4][3] = -1.0e-7;
                bins.n[6][30] = -3.0e-6;
                (286.0, qsat_liquid(286.0, p) * 1.01)
            }
            // ... mixed-phase, where the ice relaxes come after, ...
            7 => {
                droplets(&mut bins);
                crystals(&mut bins);
                bins.n[5][20] = -2.0e-7;
                bins.n[6][0] = -1.0e-6;
                (262.0, qsat_liquid(262.0, p) * 1.01)
            }
            // ... and glaciated below the collision floor (first relax:
            // plates), where no later stage scrubs: only the relax's own
            // whole-point scrub can clear this one.
            _ => {
                crystals(&mut bins);
                bins.n[6][12] = -1.0e-6;
                (215.0, qsat_ice(215.0, p) * 1.05)
            }
        };
        st.tt.set(i, k, j, t);
        st.rho.set(i, k, j, air_density(t, p));
        st.qv.set(i, k, j, qv);
        st.store_bins(i, k, j, &bins);
        (i, k, j)
    })
}

/// A stratified background with cloudy points drawn at probability
/// `activity`.
fn build_background(ni: i32, nk: i32, nj: i32, activity: f32, seed: u64) -> SbmPatchState {
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
                st.rho.set(i, k, j, air_density(t, p));
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
        // Bucket by bucket: a meter that moves between routines keeps
        // the total and must still fail.
        let buckets = [
            ("nucl", x.work.nucl, y.work.nucl),
            ("cond", x.work.cond, y.work.cond),
            ("coal", x.work.coal, y.work.coal),
            ("kernals", x.work.kernals, y.work.kernals),
            ("freeze", x.work.freeze, y.work.freeze),
            ("breakup", x.work.breakup, y.work.breakup),
            ("sed", x.work.sed, y.work.sed),
        ];
        for (bucket, wx, wy) in buckets {
            assert_eq!(wx, wy, "{what} step {step}: metered work, {bucket}");
        }
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

/// The planted cases reach the branches they were planted for at both
/// widths: the guard, the predicate and the first relax's scrub, read
/// off one step's statistics and state (`pre_row_forms_agree_case_by_case`
/// in `scheme.rs` looks at each point right after the pre-sweep).
#[test]
fn planted_cases_take_their_branches() {
    for layout in Layout::ALL {
        let mut st = build_background(7, 4, 3, 0.0, 42);
        plant_cases(&mut st, 42);
        let version = SbmVersion::OffloadCollapse3;
        let (after, stats) = run(version, ExecMode::work_steal(), 1, layout, st, 1);
        // All but the frigid point pass the guard.
        assert_eq!(stats[0].active_points, stats[0].points - 1, "{layout:?}");
        // The background is clear and dry, so the predicate holds at the
        // planted cloudy points above 223.15 K alone: cases 1-4, 6 and 7.
        assert_eq!(stats[0].coal_points, 6, "{layout:?}");
        // The planted negatives met a whole-point scrub.
        for (c, slab) in after.ff.iter().enumerate() {
            assert!(
                slab.as_slice().iter().all(|&x| x >= 0.0),
                "{layout:?}: class {c} keeps a negative"
            );
        }
    }
}

/// At WRF's usual CONUS-12 km step (dt = 60 s over 400 m layers) the
/// fastest rain bin needs CFL sub-steps, so each bin's surface flux is a
/// sum over sub-steps: both widths must add it in the same order.
#[test]
fn panels_match_aos_at_a_sixty_second_step() {
    let dt = 60.0;
    let dz = SbmConfig::new(SbmVersion::Lookup).dz;
    let st = build_state(9, 5, 4, 1.0, 7);
    let rho_min = (st.rho.as_slice().iter().copied()).fold(f32::INFINITY, f32::min);
    let vmax = Grids::new().of(HydroClass::Water).vt_at(NKR - 1, rho_min);
    assert!(vmax * dt / dz > 1.0, "one sub-step only: {vmax} m/s");
    for version in ALL_VERSIONS {
        let [a, b] = [Layout::PointAos, Layout::PanelSoa].map(|layout| {
            let mut cfg = SbmConfig::new(version);
            cfg.workers = Some(1);
            cfg.sched = ExecMode::StaticTiles;
            cfg.layout = layout;
            cfg.dt = dt;
            let mut scheme = FastSbm::new(cfg);
            let mut st = st.clone();
            let stats: Vec<SbmStepStats> = (0..4).map(|_| scheme.step(&mut st)).collect();
            (st, stats)
        });
        assert!(a.0.rainnc.iter().any(|&r| r > 0.0), "{version:?}: no rain");
        assert_identical(&a.0, &b.0, &a.1, &b.1, &format!("{version:?}/dt60"));
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

    /// The all-clear and all-cloudy extremes (the bare background: no
    /// planted case) stay bitwise across layouts on patches small enough
    /// that the automatic chunk is one column.
    #[test]
    fn panels_match_aos_extremes_chunked(
        ni in 3i32..14, seed in 1u64..1_000_000,
    ) {
        let sched = ExecMode::work_steal();
        for activity in [0.0f32, 1.0] {
            for version in [SbmVersion::OffloadCollapse2, SbmVersion::OffloadCollapse3] {
                let st = build_background(ni, 3, 3, activity, seed);
                let (a, sa) = run(version, sched, 1, Layout::PointAos, st.clone(), 2);
                let (b, sb) = run(version, sched, 1, Layout::PanelSoa, st, 2);
                assert_identical(&a, &b, &sa, &sb, &format!("{version:?}/act{activity}"));
            }
        }
    }
}
