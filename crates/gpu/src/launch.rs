//! Kernel launch: functional parallel execution + modeled timing.
//!
//! An OpenMP `target teams distribute parallel do collapse(n)` construct
//! becomes a [`KernelSpec`] (geometry + per-thread resource demands) plus a
//! closure over the collapsed iteration space. [`launch_functional_static`]
//! runs the closure on a static partition of per-launch threads (the
//! work-stealing alternative is [`wrf_exec::Executor`], called directly);
//! [`launch_modeled`] prices the launch on the modeled A100:
//! instruction-issue throughput scaled by a latency-hiding factor of the
//! achieved occupancy, bounded below by DRAM bandwidth — the roofline
//! logic behind Tables IV–VI.

use crate::error::GpuError;
use crate::machine::{Calibration, GpuParams, CALIBRATION};
use crate::occupancy::{occupancy_for, OccupancyResult};

/// Static description of an offloaded kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel name for reports (e.g. `coal_bott_new_loop`).
    pub name: String,
    /// Threads per block (`parallel do` team size; NVHPC default 128).
    pub block_threads: u32,
    /// Registers per thread the compiler assigned.
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes.
    pub smem_per_block: u32,
    /// Per-thread stack demand, bytes (automatic arrays live here; the
    /// §VI-B stack overflow is this exceeding `NV_ACC_CUDA_STACKSIZE`).
    pub stack_bytes_per_thread: u64,
    /// Collapse depth, for reporting.
    pub collapse: u32,
}

impl KernelSpec {
    /// A 128-thread kernel with the given name and default resources.
    pub fn new(name: &str) -> Self {
        KernelSpec {
            name: name.to_string(),
            block_threads: 128,
            regs_per_thread: 64,
            smem_per_block: 0,
            stack_bytes_per_thread: 0,
            collapse: 1,
        }
    }

    /// The §VI-B wall: the kernel's per-thread stack demand against a
    /// context's `NV_ACC_CUDA_STACKSIZE` (`limit`, bytes).
    pub fn check_stack(&self, limit: u64) -> Result<(), GpuError> {
        if self.stack_bytes_per_thread > limit {
            Err(GpuError::StackOverflow {
                required: self.stack_bytes_per_thread,
                limit,
            })
        } else {
            Ok(())
        }
    }
}

/// Total dynamic work of one kernel invocation, measured by the physics
/// code's work meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelWork {
    /// Collapsed iteration count (threads launched).
    pub iters: u64,
    /// Total single-precision FLOPs.
    pub flops_f32: f64,
    /// Total double-precision FLOPs.
    pub flops_f64: f64,
    /// Total 4-byte memory operands touched (loads + stores, any level).
    pub mem_ops: f64,
    /// Bytes read from DRAM (cache-simulated or estimated).
    pub dram_read_bytes: f64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: f64,
    /// Average fraction of warp lanes doing useful work (1 = no
    /// divergence). FSBM's cloud-sparsity conditionals push this down.
    pub warp_efficiency: f64,
}

/// What bounded the modeled kernel time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Instruction issue (compute) limited.
    Compute,
    /// DRAM bandwidth limited.
    Memory,
    /// Per-thread dependent-latency limited (fat serial threads at low
    /// occupancy — the collapse(2) regime).
    Latency,
}

/// Modeled outcome of a launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchStats {
    /// End-to-end kernel seconds (max of compute/memory + launch overhead).
    pub time_secs: f64,
    /// Compute-plane seconds.
    pub compute_secs: f64,
    /// Memory-plane seconds.
    pub mem_secs: f64,
    /// Occupancy analysis of the launch.
    pub occupancy: OccupancyResult,
    /// Binding resource.
    pub bound: Bound,
    /// Total FLOPs (for roofline points).
    pub flops: f64,
    /// Total DRAM bytes (for roofline points).
    pub dram_bytes: f64,
}

impl LaunchStats {
    /// Achieved GFLOP/s of the kernel.
    pub fn gflops(&self) -> f64 {
        if self.time_secs > 0.0 {
            self.flops / self.time_secs / 1e9
        } else {
            0.0
        }
    }

    /// Arithmetic intensity in FLOP/byte of DRAM traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.dram_bytes > 0.0 {
            self.flops / self.dram_bytes
        } else {
            f64::INFINITY
        }
    }
}

/// Prices a kernel launch on the modeled GPU. The stack limit is the
/// caller's to check ([`KernelSpec::check_stack`]): it belongs to the
/// context, not to the device.
pub fn launch_modeled(
    gpu: &GpuParams,
    spec: &KernelSpec,
    work: &KernelWork,
) -> Result<LaunchStats, GpuError> {
    launch_modeled_with(gpu, spec, work, &CALIBRATION)
}

/// [`launch_modeled`] with explicit calibration constants (ablations).
pub fn launch_modeled_with(
    gpu: &GpuParams,
    spec: &KernelSpec,
    work: &KernelWork,
    calib: &Calibration,
) -> Result<LaunchStats, GpuError> {
    if work.iters == 0 {
        return Err(GpuError::InvalidLaunch("zero iterations".into()));
    }
    if spec.block_threads == 0 || spec.block_threads > 1024 {
        return Err(GpuError::InvalidLaunch(format!(
            "block size {} out of range",
            spec.block_threads
        )));
    }
    if spec.regs_per_thread > gpu.max_regs_per_thread {
        return Err(GpuError::InvalidLaunch(format!(
            "{} registers/thread exceeds the {} addressable",
            spec.regs_per_thread, gpu.max_regs_per_thread
        )));
    }
    if !(0.0..=1.0).contains(&work.warp_efficiency) || work.warp_efficiency == 0.0 {
        return Err(GpuError::InvalidLaunch(format!(
            "warp efficiency {} outside (0, 1]",
            work.warp_efficiency
        )));
    }

    let blocks = (work.iters).div_ceil(spec.block_threads as u64);
    let occ = occupancy_for(
        gpu,
        blocks,
        spec.block_threads,
        spec.regs_per_thread,
        spec.smem_per_block,
    );

    // --- Compute plane -------------------------------------------------
    // Thread-level instruction slots: FP32 FMAs retire 2 FLOPs per slot,
    // FP64 runs at half rate on A100 (2 slots per FMA → 1 slot per FLOP),
    // and each memory operand costs address-generation/LSU slots.
    let thread_slots = work.flops_f32 / 2.0
        + work.flops_f64 * (gpu.fp32_flops / gpu.fp64_flops) / 2.0
        + work.mem_ops * calib.cycles_per_mem_op;
    // Divergence: inactive lanes still occupy warp slots.
    let warp_instructions = thread_slots / (gpu.warp as f64 * work.warp_efficiency);

    // Issue capacity of the hardware the grid actually covers.
    let active_sms = (occ.grid_blocks.min(gpu.sms as u64)) as f64;
    let capacity = active_sms * gpu.schedulers_per_sm as f64 * gpu.clock_hz();
    // Latency hiding: with few resident warps per SM, stalls expose
    // memory/pipeline latency; issue throughput degrades linearly down to
    // a floor.
    let eff = (occ.resident_warps_per_active_sm / calib.latency_hiding_warps)
        .clamp(calib.min_issue_fraction, 1.0);
    let issue_secs = warp_instructions / (capacity * eff * calib.gpu_sustained_fraction);
    // FMA-dense streams are also capped by the FP pipes (only half the
    // scheduler slots feed FP32 units on Ampere): never exceed the
    // sustained fraction of the datasheet FLOP rates.
    let active_fraction = active_sms / gpu.sms as f64;
    let flop_secs = (work.flops_f32 / (gpu.fp32_flops * calib.gpu_sustained_fraction)
        + work.flops_f64 / (gpu.fp64_flops * calib.gpu_sustained_fraction))
        / active_fraction.max(1e-9);
    let compute_secs = issue_secs.max(flop_secs);

    // --- Memory plane ---------------------------------------------------
    let dram_bytes = work.dram_read_bytes + work.dram_write_bytes;
    let mem_secs = dram_bytes / gpu.hbm_bw;

    // --- Per-thread latency plane ----------------------------------------
    // Each wave's wall time is at least one thread's dependent chain:
    // memory slots pay the exposed memory latency, arithmetic slots the
    // ALU latency, divided by the chain overlap a thread can sustain.
    let per_thread_mem = work.mem_ops / work.iters as f64;
    let per_thread_alu =
        (thread_slots - work.mem_ops * calib.cycles_per_mem_op).max(0.0) / work.iters as f64;
    let latency_secs = occ.waves as f64
        * (per_thread_mem * calib.mem_latency_cycles + per_thread_alu * calib.alu_latency_cycles)
        / (gpu.clock_hz() * calib.thread_ilp);

    let (body, bound) = if latency_secs >= compute_secs && latency_secs >= mem_secs {
        (latency_secs, Bound::Latency)
    } else if compute_secs >= mem_secs {
        (compute_secs, Bound::Compute)
    } else {
        (mem_secs, Bound::Memory)
    };

    Ok(LaunchStats {
        time_secs: body + gpu.launch_overhead,
        compute_secs,
        mem_secs,
        occupancy: occ,
        bound,
        flops: work.flops_f32 + work.flops_f64,
        dram_bytes,
    })
}

/// Static contiguous partition with per-launch scoped threads: worker
/// `w` owns iterations `[w·per, (w+1)·per)` and nothing rebalances. This
/// is the classic `schedule(static)` baseline [`wrf_exec::Executor`]'s
/// work-stealing is benchmarked against. Launches of fewer than
/// `inline_below` iterations run inline on the caller: thread spawns only
/// pay off above a few hundred fine-grained iterations (grid points,
/// columns), or from two coarse ones (whole tiles). Returns wall-clock
/// seconds.
pub fn launch_functional_static<F>(
    iters: u64,
    workers: Option<usize>,
    inline_below: u64,
    body: F,
) -> f64
where
    F: Fn(u64) + Sync,
{
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1);
    let start = std::time::Instant::now();
    // A single iteration never needs a thread.
    if workers == 1 || iters < inline_below.max(2) {
        for i in 0..iters {
            body(i);
        }
        return start.elapsed().as_secs_f64();
    }
    let threads = (workers as u64).min(iters);
    let per = iters.div_ceil(threads);
    crossbeam::thread::scope(|s| {
        for w in 0..threads {
            let body = &body;
            s.spawn(move |_| {
                let lo = w * per;
                let hi = ((w + 1) * per).min(iters);
                for i in lo..hi {
                    body(i);
                }
            });
        }
    })
    .expect("worker panicked");
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::A100;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn work(iters: u64) -> KernelWork {
        KernelWork {
            iters,
            flops_f32: iters as f64 * 1000.0,
            flops_f64: 0.0,
            mem_ops: iters as f64 * 100.0,
            dram_read_bytes: iters as f64 * 64.0,
            dram_write_bytes: iters as f64 * 32.0,
            warp_efficiency: 1.0,
        }
    }

    #[test]
    fn grid_limited_launch_is_much_slower_per_iter() {
        // Same total work split as 3 750 fat threads vs 401 250 thin ones
        // (the collapse(2) vs collapse(3) structure).
        let total_flops = 4.0e9;
        let fat = KernelWork {
            iters: 3_750,
            flops_f32: total_flops,
            mem_ops: total_flops / 10.0,
            dram_read_bytes: 1e8,
            dram_write_bytes: 5e7,
            warp_efficiency: 1.0,
            ..Default::default()
        };
        let thin = KernelWork {
            iters: 401_250,
            ..fat
        };
        let mut spec = KernelSpec::new("coal");
        spec.regs_per_thread = 80;
        let t_fat = launch_modeled(&A100, &spec, &fat).unwrap();
        let t_thin = launch_modeled(&A100, &spec, &thin).unwrap();
        let speedup = t_fat.time_secs / t_thin.time_secs;
        assert!(
            speedup > 5.0,
            "expected large collapse(3) speedup, got {speedup:.2} \
             (fat {:.4}s thin {:.4}s)",
            t_fat.time_secs,
            t_thin.time_secs
        );
    }

    #[test]
    fn memory_bound_detection() {
        let w = KernelWork {
            iters: 1_000_000,
            flops_f32: 1e6,
            mem_ops: 1e6,
            dram_read_bytes: 100e9,
            dram_write_bytes: 50e9,
            warp_efficiency: 1.0,
            ..Default::default()
        };
        let s = launch_modeled(&A100, &KernelSpec::new("streamy"), &w).unwrap();
        assert_eq!(s.bound, Bound::Memory);
        assert!((s.mem_secs - 150e9 / A100.hbm_bw).abs() < 1e-9);
        assert!(s.arithmetic_intensity() < 0.01);
    }

    #[test]
    fn divergence_slows_compute() {
        // Memory-op-dominated work (no FP-pipe ceiling): inactive lanes
        // waste issue slots exactly proportionally.
        let mut w_full = work(100_000);
        w_full.flops_f32 = 0.0;
        let mut w_div = w_full;
        w_div.warp_efficiency = 0.25;
        let spec = KernelSpec::new("k");
        let a = launch_modeled(&A100, &spec, &w_full).unwrap();
        let b = launch_modeled(&A100, &spec, &w_div).unwrap();
        assert!((b.compute_secs / a.compute_secs - 4.0).abs() < 1e-6);
    }

    #[test]
    fn fp64_costs_more_than_fp32() {
        let mut w32 = work(100_000);
        w32.dram_read_bytes = 0.0;
        w32.dram_write_bytes = 0.0;
        let mut w64 = w32;
        w64.flops_f64 = w64.flops_f32;
        w64.flops_f32 = 0.0;
        let spec = KernelSpec::new("k");
        let a = launch_modeled(&A100, &spec, &w32).unwrap();
        let b = launch_modeled(&A100, &spec, &w64).unwrap();
        assert!(b.compute_secs > a.compute_secs * 1.5);
    }

    #[test]
    fn invalid_launches_rejected() {
        let spec = KernelSpec::new("k");
        assert!(matches!(
            launch_modeled(&A100, &spec, &KernelWork::default()),
            Err(GpuError::InvalidLaunch(_))
        ));
        let mut w = work(10);
        w.warp_efficiency = 0.0;
        assert!(launch_modeled(&A100, &spec, &w).is_err());
        let mut s2 = KernelSpec::new("k");
        s2.regs_per_thread = 300;
        assert!(launch_modeled(&A100, &s2, &work(10)).is_err());
        let mut s3 = KernelSpec::new("k");
        s3.block_threads = 2000;
        assert!(launch_modeled(&A100, &s3, &work(10)).is_err());
    }

    /// Automatic arrays (~20 KiB a thread) overflow CUDA's 1 KiB default
    /// and fit once `NV_ACC_CUDA_STACKSIZE` is 64 KiB; the slab kernel's
    /// 640 B fits either.
    #[test]
    fn check_stack_is_the_section_vi_b_wall() {
        let mut automatic = KernelSpec::new("coal_bott_new_loop_collapse2");
        automatic.stack_bytes_per_thread = 20 * 1024;
        assert_eq!(
            automatic.check_stack(A100.default_stack_bytes),
            Err(GpuError::StackOverflow {
                required: 20 * 1024,
                limit: 1024
            })
        );
        assert_eq!(automatic.check_stack(64 * 1024), Ok(()));
        let mut slabs = KernelSpec::new("coal_bott_new_loop_collapse3");
        slabs.stack_bytes_per_thread = 640;
        assert_eq!(slabs.check_stack(A100.default_stack_bytes), Ok(()));
        assert_eq!(slabs.check_stack(64 * 1024), Ok(()));
    }

    #[test]
    fn gflops_and_ai_consistent() {
        let w = work(100_000);
        let s = launch_modeled(&A100, &KernelSpec::new("k"), &w).unwrap();
        let ai = s.arithmetic_intensity();
        assert!((ai - w.flops_f32 / (w.dram_read_bytes + w.dram_write_bytes)).abs() < 1e-9);
        assert!(s.gflops() > 0.0);
    }

    #[test]
    fn zoo_backends_price_one_launch_differently() {
        // One kernel, one work vector — priced per backend with that
        // backend's device view and calibration. Every backend must
        // produce a finite positive time, and the zoo must not collapse
        // onto a single number (the two A100 variants may legitimately
        // tie on compute-bound work; everything else differs).
        let spec = KernelSpec::new("coal");
        let w = work(100_000);
        let times: Vec<f64> = crate::machine::ZOO
            .iter()
            .map(|b| {
                let stats = launch_modeled_with(&b.device_params(), &spec, &w, &b.calib).unwrap();
                assert!(
                    stats.time_secs.is_finite() && stats.time_secs > 0.0,
                    "{}: {:?}",
                    b.name,
                    stats
                );
                stats.time_secs
            })
            .collect();
        let mut distinct = times.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert!(
            distinct.len() >= 4,
            "expected >= 4 distinct modeled times across the zoo, got {times:?}"
        );
        // The default backend is priced exactly like the bare A100 path.
        let a100 = launch_modeled(&A100, &spec, &w).unwrap();
        assert_eq!(times[0], a100.time_secs);
    }

    #[test]
    fn static_partition_covers_all_iterations() {
        let hits = (0..10_000).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        launch_functional_static(10_000, Some(8), 256, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Serial path too.
        let sum = AtomicU64::new(0);
        launch_functional_static(100, Some(1), 256, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
        // Zero iterations never call the body, inline or threaded.
        launch_functional_static(0, Some(4), 256, |_| panic!("must not run"));
        launch_functional_static(0, Some(4), 0, |_| panic!("must not run"));
    }

    /// A handful of coarse iterations (tiles) must leave the caller
    /// thread when the inline threshold says so, and stay on it below
    /// the threshold — each iteration still runs exactly once, with more
    /// workers than iterations too.
    #[test]
    fn static_partition_inline_threshold_is_the_callers() {
        let caller = std::thread::current().id();
        let off_caller = AtomicU64::new(0);
        let hits = (0..4).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let body = |i: u64| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
            if std::thread::current().id() != caller {
                off_caller.fetch_add(1, Ordering::Relaxed);
            }
        };
        launch_functional_static(4, Some(8), 256, body);
        assert_eq!(off_caller.load(Ordering::Relaxed), 0, "fine grain: inline");
        launch_functional_static(4, Some(8), 2, body);
        assert_eq!(
            off_caller.load(Ordering::Relaxed),
            4,
            "coarse grain: threads"
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
    }
}
