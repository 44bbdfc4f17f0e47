//! Counting-allocator test: a steady-state `Model::step` allocates what
//! its parts allocate — the scheme step's statistics and the vapor
//! diffusion's temporary — and nothing for the transport around them:
//! the job list, the slab locks and the worker workspaces are grown once,
//! and the pool dispatch reuses the executor's queues. (The counter
//! pattern of `crates/core/tests/alloc_count.rs`, armed for every thread:
//! the pooled dynamics runs jobs, the diffusion among them, on whichever
//! pool thread claims them. This file holds one test so that nothing
//! else runs while the counter is armed.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fsbm_core::exec::ExecMode;
use fsbm_core::meter::PointWork;
use fsbm_core::scheme::{FastSbm, SbmVersion};
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use wrf_cases::CaseKind;
use wrf_dycore::diffusion::horizontal_diffusion;

/// Passes through to the system allocator, counting every allocation
/// made on any thread while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `GlobalAlloc`'s contract (layout fidelity, no unwinding) is the system
// allocator's; `count_one` only touches two atomics and so neither
// allocates nor panics.
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

/// Runs `f` with the counter armed; returns the number of heap
/// allocations made meanwhile, on any thread.
fn counting(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// The fewest allocations over three calls of `run`, each of which
/// restores its input and then counts one step from it. The step has
/// already run once from that input, so every buffer it sizes has grown;
/// the fewest also forgives a pool thread that grows its own per-thread
/// scratch the first time it happens to run some kind of work.
fn steady(mut run: impl FnMut() -> u64) -> u64 {
    (0..3).map(|_| run()).min().expect("three runs")
}

/// The production model of the ledger's `solo_supercell` workload,
/// `sched` on `workers` workers.
fn production(sched: ExecMode, workers: usize) -> ModelConfig {
    let version = SbmVersion::OffloadCollapse3;
    let mut cfg = ModelConfig::case_gate(CaseKind::Supercell, version, sched, workers);
    cfg.cached_kernels = true;
    cfg.layout = fsbm_core::Layout::PanelSoa;
    cfg
}

#[test]
fn steady_state_model_step_allocates_only_what_its_parts_do() {
    for (sched, workers) in [
        (ExecMode::StaticTiles, 1),
        (ExecMode::work_steal(), 1),
        (ExecMode::work_steal(), 2),
        (ExecMode::work_steal(), 3),
    ] {
        let what = format!("{} at {workers} workers", sched.label());
        let cfg = production(sched, workers);
        let mut model = Model::single_rank(cfg);
        // A developed storm, then one step from the measured input.
        model.run(4);
        let (input, time) = (model.state.clone(), model.time);
        model.step();
        let step = steady(|| {
            (model.state, model.time) = (input.clone(), time);
            counting(|| {
                model.step();
            })
        });

        // The parts on their own, from the same input: the scheme step
        // and the vapor diffusion.
        let mut scheme = FastSbm::new(cfg.scheme_config());
        scheme.step(&mut input.clone());
        let sbm = steady(|| {
            let mut st = input.clone();
            counting(|| {
                scheme.step(&mut st);
            })
        });
        let (dx, dt) = (cfg.case.dx, cfg.case.dt);
        let diffusion = steady(|| {
            let mut qv = input.qv.clone();
            let mut work = PointWork::ZERO;
            counting(|| horizontal_diffusion(&mut qv, &input.patch, 1.0e4, dx, dt, &mut work))
        });

        assert_eq!(diffusion, 1, "{what}: the diffusion's one temporary");
        assert!(sbm <= 2, "{what}: the scheme step allocated {sbm}");
        assert_eq!(
            step,
            sbm + diffusion,
            "{what}: a model step allocated {step}, its parts {sbm} + {diffusion}"
        );
    }
}
