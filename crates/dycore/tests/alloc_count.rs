//! Counting-allocator tests: after one warm-up call, advancing a full
//! panel and a one-lane panel through the blocking RK3 driver performs
//! **zero** heap allocations — φⁿ is read in place instead of cloned
//! per scalar, and the row kernel's buffers live on the stack — and so
//! does a panel refreshed through an engine that batches every lane
//! into one reused buffer per side. (The per-thread counter pattern of
//! `crates/core/tests/alloc_count.rs`.)

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsbm_core::meter::PointWork;
use fsbm_core::panels::LANES;
use wrf_dycore::{
    refresh_now, rk3_advect_panel, rk3_advect_scalar, FieldTag, HaloEngine, Rk3Work, Wind,
};
use wrf_grid::{two_d_decomposition, Domain, Field3, PatchSpec};

/// Passes through to the system allocator, counting the allocations of
/// a thread while that thread is armed. Per-thread, so the test harness
/// and concurrently running tests never leak into a count; the blocking
/// driver runs entirely on the calling thread.
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

/// The doubly-periodic wrap of one patch onto itself, in place.
struct Periodic(PatchSpec);

impl HaloEngine for Periodic {
    fn rounds(&self) -> usize {
        2
    }
    fn post(&mut self, _round: usize, _field: &Field3<f32>) {}
    fn finish(&mut self, round: usize, f: &mut Field3<f32>) {
        let p = &self.0;
        for k in p.kp.iter() {
            for h in 1..=p.halo {
                if round == 0 {
                    for j in p.jp.iter() {
                        f.set(p.ip.lo - h, k, j, f.get(p.ip.hi - h + 1, k, j));
                        f.set(p.ip.hi + h, k, j, f.get(p.ip.lo + h - 1, k, j));
                    }
                } else {
                    for i in p.im.iter() {
                        f.set(i, k, p.jp.lo - h, f.get(i, k, p.jp.hi - h + 1));
                        f.set(i, k, p.jp.hi + h, f.get(i, k, p.jp.lo + h - 1));
                    }
                }
            }
        }
    }
    fn absorb(&mut self, _work: PointWork) {}
}

/// The patch, a sheared wind and a full panel of distinct scalars.
fn scenario() -> (PatchSpec, Wind, Vec<Field3<f32>>) {
    let patch = two_d_decomposition(Domain::new(21, 8, 15), 1, 2).patches[0];
    let mut wind = Wind::calm(&patch);
    for (n, v) in wind.u.as_mut_slice().iter_mut().enumerate() {
        *v = 9.0 - (n % 7) as f32 * 3.0;
    }
    for (n, v) in wind.w.as_mut_slice().iter_mut().enumerate() {
        *v = (n % 3) as f32 - 1.0;
    }
    let lanes = (0..LANES)
        .map(|l| {
            let mut f = Field3::for_patch(&patch);
            for (n, v) in f.as_mut_slice().iter_mut().enumerate() {
                *v = ((n * 31 + l * 7) % 17) as f32 * 0.1;
            }
            f
        })
        .collect();
    (patch, wind, lanes)
}

#[test]
fn steady_state_transport_allocates_nothing() {
    let (patch, wind, mut lanes) = scenario();
    let mut scratch = vec![Field3::for_patch(&patch); LANES];
    let mut tend = vec![Field3::for_patch(&patch); LANES];
    let tags: Vec<FieldTag> = (0..LANES).map(|b| FieldTag::Bin(0, b)).collect();
    let mut engine = Periodic(patch);
    let (dx, dz, dt) = (500.0, 400.0, 5.0);

    // A full panel, then a one-lane panel through the single-scalar
    // wrapper and its whole-refresh callback.
    let mut advance = |lanes: &mut [Field3<f32>], engine: &mut Periodic| -> Rk3Work {
        let mut work = rk3_advect_panel(
            lanes,
            &tags,
            &wind,
            &patch,
            dx,
            dx,
            dz,
            dt,
            true,
            &mut scratch,
            &mut tend,
            engine,
            None,
        );
        work += rk3_advect_scalar(
            &mut lanes[0],
            &wind,
            &patch,
            dx,
            dx,
            dz,
            dt,
            true,
            &mut scratch[0],
            &mut tend[0],
            &mut |f| refresh_now(engine, f),
        );
        work
    };

    let warm = advance(&mut lanes, &mut engine);
    let (steady, allocations) = counting(|| advance(&mut lanes, &mut engine));

    assert_eq!(steady, warm, "both passes meter the same work");
    assert!(steady.tend.flops > 0, "the steady pass must do real work");
    assert_eq!(
        allocations, 0,
        "steady-state scalar transport must not touch the heap"
    );
}

/// A panel refreshed through a batching engine — every lane's strip in
/// one reused buffer per side — allocates nothing on the dycore side
/// once the engine's buffers have grown to a full panel, blocking or
/// overlapped on a one-worker pool (the two-rank production shape: the
/// interior slab runs on the calling thread).
#[test]
fn steady_state_batched_refresh_allocates_nothing() {
    let (patch, wind, mut lanes) = scenario();
    let mut scratch = vec![Field3::for_patch(&patch); LANES];
    let mut tend = vec![Field3::for_patch(&patch); LANES];
    let tags: Vec<FieldTag> = (0..LANES).map(|b| FieldTag::Bin(0, b)).collect();
    let mut engine = common::Batching::new(patch);
    let pool = wrf_exec::Executor::new(1);
    let (dx, dz, dt) = (500.0, 400.0, 5.0);

    for overlap in [None, Some(&pool)] {
        let mut advance = |lanes: &mut [Field3<f32>], engine: &mut common::Batching| {
            rk3_advect_panel(
                lanes,
                &tags,
                &wind,
                &patch,
                dx,
                dx,
                dz,
                dt,
                true,
                &mut scratch,
                &mut tend,
                engine,
                overlap,
            )
        };
        let warm = advance(&mut lanes, &mut engine);
        let sent = engine.messages;
        let (steady, allocations) = counting(|| advance(&mut lanes, &mut engine));

        assert_eq!(steady, warm, "both passes meter the same work");
        assert_eq!(
            engine.messages - sent,
            4 * 2 * 2,
            "four refreshes, two rounds, two sides — whatever the panel width"
        );
        assert_eq!(
            allocations,
            0,
            "a steady batched panel refresh must not touch the heap (overlapped: {})",
            overlap.is_some()
        );
    }
    assert!(
        engine.absorbed.flops > 0,
        "the overlapped call had a slab to hide behind"
    );
}
