//! Counting-allocator test: after a warm-up step grows every scratch
//! buffer, a steady-state `PanelSoa` microphysics step performs **zero**
//! heap allocations — the panel layout replaced all the per-point
//! `vec![0.0; NKR]` temporaries with stack panels and reused scratch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{FastSbm, SbmConfig, SbmStepStats, SbmVersion};
use fsbm_core::thermo::qsat_liquid;
use fsbm_core::{PointBins, SbmPatchState};
use wrf_grid::{two_d_decomposition, Domain};

/// Passes through to the system allocator, counting the allocations of
/// a thread while that thread is armed. Per-thread, so the test harness
/// (which allocates on its own threads whenever a test starts or
/// finishes) and concurrently running tests never leak into a count;
/// every configuration measured here runs the step on the calling thread.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and `Drop`-free: touching these from inside the
    // allocator neither allocates nor registers a destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `GlobalAlloc`'s contract (layout fidelity, no unwinding) is the system
// allocator's; `count_one` only touches `const`, destructor-free
// thread-locals and so neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter armed; returns its result and the
/// number of heap allocations the thread made meanwhile.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

fn cloudy_state() -> SbmPatchState {
    cloudy_state_on(12, 8)
}

/// A stratified `ni × 6 × nj` patch with a saturated, droplet-seeded
/// block in its south-west corner.
fn cloudy_state_on(ni: i32, nj: i32) -> SbmPatchState {
    let d = Domain::new(ni, 6, nj);
    let patch = two_d_decomposition(d, 1, 0).patches[0];
    let mut st = SbmPatchState::new(patch);
    for j in patch.jm.iter() {
        for k in patch.km.iter() {
            for i in patch.im.iter() {
                let p = 90_000.0 - 6_000.0 * (k - 1) as f32;
                let t = 292.0 - 5.0 * (k - 1) as f32;
                st.p.set(i, k, j, p);
                st.tt.set(i, k, j, t);
                st.rho.set(i, k, j, fsbm_core::thermo::air_density(t, p));
                let cloudy = (3..=9).contains(&i) && (2..=6).contains(&j) && k <= 4;
                let qv = if cloudy {
                    qsat_liquid(t, p) * 1.02
                } else {
                    qsat_liquid(t, p) * 0.5
                };
                st.qv.set(i, k, j, qv);
            }
        }
    }
    let mut bins = PointBins::empty();
    for b in 7..=12 {
        bins.n[0][b] = 2.0e7;
    }
    for j in 2..=6 {
        for k in 1..=4 {
            for i in 3..=9 {
                st.store_bins(i, k, j, &bins);
            }
        }
    }
    st
}

/// The zero-allocation configuration: lookup kernels (no dense-table
/// rebuild), the SoA panel layout, and the inline single-tile path (no
/// worker threads to spawn).
#[test]
fn steady_state_panel_step_allocates_nothing() {
    let mut st = cloudy_state();
    let mut cfg = SbmConfig::new(SbmVersion::Lookup);
    cfg.layout = fsbm_core::Layout::PanelSoa;
    cfg.tiles = 1;
    cfg.workers = Some(1);
    cfg.sched = ExecMode::StaticTiles;
    let mut scheme = FastSbm::new(cfg);

    // Warm-up: grows the step scratch, the thread-local row lists, and
    // the sedimentation transpose buffer to their steady-state sizes.
    let warm = scheme.step(&mut st);
    assert!(warm.active_points > 0, "warm-up must exercise the physics");
    assert!(
        warm.coal_points > 0,
        "warm-up must reach the collision path"
    );

    let (stats, n) = counting(|| scheme.step(&mut st));

    assert!(stats.active_points > 0, "steady step must do real work");
    assert_eq!(
        n, 0,
        "steady-state PanelSoa step performed {n} heap allocations"
    );
}

/// A warmed-up fissioned `PanelSoa` step of `version` under `sched`, one
/// worker (so every launch runs on this, the counted, thread), on an
/// `ni × 6 × nj` patch: its statistics and allocation count.
fn steady_fissioned_step(
    version: SbmVersion,
    sched: ExecMode,
    cached_kernels: bool,
    (ni, nj): (i32, i32),
) -> (SbmStepStats, u64) {
    let mut st = cloudy_state_on(ni, nj);
    let mut cfg = SbmConfig::new(version);
    cfg.layout = fsbm_core::Layout::PanelSoa;
    cfg.workers = Some(1);
    cfg.sched = sched;
    cfg.cached_kernels = cached_kernels;
    let mut scheme = FastSbm::new(cfg);
    let warm = scheme.step(&mut st);
    assert!(
        warm.coal_points > 0,
        "warm-up must reach the collision path"
    );
    counting(|| scheme.step(&mut st))
}

/// The fissioned panel path reuses its sweep arrays, batch list and
/// per-column activity flags the same way: a steady `collapse(2)` step
/// allocates nothing on either patch, so nothing grows with the patch.
#[test]
fn steady_state_collapse2_step_allocations_do_not_scale_with_the_patch() {
    let counts = [(12, 8), (36, 24)].map(|(ni, nj)| {
        let (version, sched) = (SbmVersion::OffloadCollapse2, ExecMode::StaticTiles);
        let (stats, n) = steady_fissioned_step(version, sched, false, (ni, nj));
        assert_eq!(stats.coal_iters as usize, 6 * nj as usize);
        n
    });
    assert_eq!(counts, [0, 0], "steady collapse(2) step allocations");
}

/// The production path — `collapse(3)`, work stealing, cached kernels —
/// with its three sweeps and the collision launch going through the pool
/// entry points: the per-column sedimentation results and the per-thread
/// column scratch are reused, not rebuilt per step, and the returned
/// statistics own no heap memory (the launch geometry is the version's,
/// `SbmVersion::kernel_spec`), so the step allocates nothing on either
/// patch.
#[test]
fn steady_state_production_step_allocates_only_its_statistics() {
    let counts = [(12, 8), (36, 24)].map(|size| {
        let (version, sched) = (SbmVersion::OffloadCollapse3, ExecMode::WorkSteal);
        let (stats, n) = steady_fissioned_step(version, sched, true, size);
        assert!(stats.coal_points > 0 && stats.work.sed.flops > 0);
        n
    });
    assert_eq!(counts, [0, 0], "steady production step allocations");
}

/// A steady production step on a mostly clear patch: the post-sweep's
/// empty stand-in bins and the clear columns' early return reuse nothing
/// that grows, so the clear-air skips allocate nothing either.
#[test]
fn steady_clear_air_step_allocates_nothing() {
    let (version, sched) = (SbmVersion::OffloadCollapse3, ExecMode::WorkSteal);
    let (stats, n) = steady_fissioned_step(version, sched, true, (36, 24));
    let columns = 36 * 24;
    assert!(
        stats.clear_points * 2 > stats.points && stats.clear_columns * 2 > columns,
        "mostly clear: {} of {} points, {} of {columns} columns",
        stats.clear_points,
        stats.points,
        stats.clear_columns
    );
    assert_eq!(n, 0, "steady clear-air step allocations");
}

/// The AoS baseline layout is *expected* to allocate (per-point bin
/// copies); this guards the comparison so the zero assert above stays
/// meaningful.
#[test]
fn aos_layout_still_allocates() {
    let mut st = cloudy_state();
    let mut cfg = SbmConfig::new(SbmVersion::Lookup);
    cfg.layout = fsbm_core::Layout::PointAos;
    cfg.tiles = 1;
    cfg.workers = Some(1);
    cfg.sched = ExecMode::StaticTiles;
    let mut scheme = FastSbm::new(cfg);
    scheme.step(&mut st);

    let (_, n) = counting(|| scheme.step(&mut st));
    assert!(
        n > 0,
        "AoS steady step should still allocate per-point temporaries"
    );
}
