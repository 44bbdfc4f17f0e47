//! Workload characterization: divergence, memory traces, and the bridge
//! from metered physics work to the GPU performance model.
//!
//! Three quantities connect the functional scheme to the modeled
//! hardware:
//!
//! 1. [`warp_efficiency`] — the fraction of useful lanes given the
//!    collision predicate layout (cloud sparsity → divergence);
//! 2. [`coal_memory_trace`] — representative per-warp address streams of
//!    the collision kernel in the two layouts (Listing 7 automatic
//!    arrays in CUDA *local memory* vs Listing 8 slab slices in global
//!    memory), which drive the cache simulator for Table VI;
//! 3. [`kernel_work`] — packaging metered FLOP/mem counts plus simulated
//!    DRAM traffic into a [`gpu_sim::KernelWork`].

use crate::meter::PointWork;
use crate::types::NKR;
use gpu_sim::cachesim::MemAccess;
use gpu_sim::launch::KernelWork;
use gpu_sim::schedule::Collapse;

/// Average fraction of active lanes over warps that have at least one
/// active lane. Warps with no active lane retire immediately and are
/// excluded (they cost nearly nothing), matching how divergence hurts an
/// FSBM launch: cloudy points cluster, but warp edges straddle cloud
/// boundaries.
pub fn warp_efficiency(lane_active: &[bool], warp: usize) -> f64 {
    assert!(warp > 0);
    let mut busy_warps = 0u64;
    let mut busy_lanes = 0u64;
    for chunk in lane_active.chunks(warp) {
        let n = chunk.iter().filter(|&&a| a).count() as u64;
        if n > 0 {
            busy_warps += 1;
            busy_lanes += n;
        }
    }
    if busy_warps == 0 {
        1.0
    } else {
        busy_lanes as f64 / (busy_warps * warp as u64) as f64
    }
}

/// Parameters of a representative trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Threads per block.
    pub block_threads: usize,
    /// Serial `i`-loop length per thread (collapse(2) only).
    pub ilen: usize,
    /// Occupied bin range (lo, hi) of the spectra.
    pub bins: (usize, usize),
    /// Number of collision pairs active at typical points.
    pub pairs_used: usize,
    /// Distinct per-point bin arrays the routine sweeps (the ~40
    /// `fl*/g*` automatic arrays of Listing 7 / slabs of Listing 8).
    pub local_arrays: usize,
    /// Fraction of threads whose predicate is true.
    pub active_fraction: f64,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            block_threads: 128,
            ilen: 106,
            bins: (6, 16),
            pairs_used: 3,
            local_arrays: 40,
            active_fraction: 0.35,
        }
    }
}

/// Address-space bases (arbitrary but disjoint regions).
const LOCAL_BASE: u64 = 0x1000_0000;
const SLAB_BASE: u64 = 0x4000_0000;
const TABLE_BASE: u64 = 0x7000_0000;

fn deterministic_active(t: usize, frac: f64) -> bool {
    // A fixed pseudo-pattern: clustered activity (runs of active threads)
    // like a cloud edge, at roughly `frac` density.
    let period = 64usize;
    let on = ((period as f64) * frac).round() as usize;
    (t % period) < on
}

/// Generates one thread block's memory access stream `(sm, access)` for
/// the collision kernel at `collapse` depth, in the storage the scheme's
/// plan pairs with it: `collapse(2)` threads own a `(j,k)` column, loop
/// `i` serially and keep their automatic arrays in per-thread local
/// memory (word-interleaved across the block, as CUDA local memory is);
/// `collapse(3)` threads own a point and read its bins from global slab
/// arrays strided by `NKR` between neighbouring threads. The stream is
/// warp-interleaved: for each logical instruction, all active lanes of a
/// warp issue their addresses consecutively — how the hardware sees it.
pub fn coal_memory_trace(collapse: Collapse, tp: &TraceParams) -> Vec<MemAccess> {
    let mut out = Vec::new();
    let warp = 32;
    let (blo, bhi) = tp.bins;
    match collapse {
        Collapse::Two => {
            // Per-thread automatic arrays in local memory: CUDA
            // interleaves 4-byte words across the block's threads, so
            // lane t word w lives at base + (w*block + t)*4. Every i
            // iteration sweeps all ~40 bin arrays (copy-in, process
            // passes, copy-out); the block's combined footprint
            // (threads × arrays × NKR × 4 B) far exceeds L1, so there is
            // no reuse across i iterations — but the word-interleaved
            // layout keeps accesses coalesced, which is why Table VI
            // shows a HIGH L1 hit rate yet a modest DRAM volume.
            let block = tp.block_threads as u64;
            for _i_iter in 0..tp.ilen {
                for w0 in (0..tp.block_threads).step_by(warp) {
                    let lanes: Vec<usize> = (w0..(w0 + warp).min(tp.block_threads))
                        .filter(|&t| deterministic_active(t, tp.active_fraction))
                        .collect();
                    if lanes.is_empty() {
                        continue;
                    }
                    for arr in 0..tp.local_arrays as u64 {
                        for b in blo..=bhi {
                            let word = arr * NKR as u64 + b as u64;
                            for &t in &lanes {
                                out.push(MemAccess {
                                    addr: LOCAL_BASE + (word * block + t as u64) * 4,
                                    bytes: 4,
                                    write: arr % 3 == 2,
                                });
                            }
                        }
                    }
                    // Kernel-table lookups: lanes read nearby entries of
                    // the pair tables (broadcast-friendly).
                    for pair in 0..tp.pairs_used {
                        for b in blo..=bhi {
                            for &t in &lanes {
                                let _ = t;
                                out.push(MemAccess {
                                    addr: TABLE_BASE
                                        + (pair as u64 * (NKR * NKR) as u64 + (b * NKR + b) as u64)
                                            * 4,
                                    bytes: 4,
                                    write: false,
                                });
                            }
                        }
                    }
                }
            }
        }
        Collapse::Three => {
            // Slab arrays: thread t (grid point t) owns slice
            // [t*NKR, (t+1)*NKR) of each of the ~40 slabs — neighbouring
            // lanes are strided by NKR*4 = 132 B (the paper's "strided by
            // b elements" non-coalescing): each lane's 4 B access opens
            // its own 32 B sector, so L1 hit rates drop and DRAM traffic
            // rises several-fold (Table VI).
            let slab_stride = (NKR * 4) as u64;
            let class_stride = 1u64 << 24; // distinct slabs far apart
            for w0 in (0..tp.block_threads).step_by(warp) {
                let lanes: Vec<usize> = (w0..(w0 + warp).min(tp.block_threads))
                    .filter(|&t| deterministic_active(t, tp.active_fraction))
                    .collect();
                if lanes.is_empty() {
                    continue;
                }
                for arr in 0..tp.local_arrays as u64 {
                    for b in blo..=bhi {
                        for &t in &lanes {
                            out.push(MemAccess {
                                addr: SLAB_BASE
                                    + arr * class_stride
                                    + t as u64 * slab_stride
                                    + (b * 4) as u64,
                                bytes: 4,
                                write: arr % 3 == 2,
                            });
                        }
                    }
                }
                for pair in 0..tp.pairs_used {
                    for b in blo..=bhi {
                        for &t in &lanes {
                            let _ = t;
                            out.push(MemAccess {
                                addr: TABLE_BASE
                                    + (pair as u64 * (NKR * NKR) as u64 + (b * NKR + b) as u64) * 4,
                                bytes: 4,
                                write: false,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Builds the [`KernelWork`] for a modeled launch from metered physics
/// work, iteration geometry, and DRAM traffic (from the cache simulator
/// or an analytic estimate).
pub fn kernel_work(
    iters: u64,
    coal_work: PointWork,
    dram_read_bytes: f64,
    dram_write_bytes: f64,
    warp_eff: f64,
) -> KernelWork {
    KernelWork {
        iters,
        flops_f32: coal_work.flops as f64,
        flops_f64: 0.0,
        mem_ops: coal_work.mem_ops as f64,
        dram_read_bytes,
        dram_write_bytes,
        warp_efficiency: warp_eff.clamp(1e-3, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::cachesim::{scaled_l2, CacheSim, A100_L1};

    #[test]
    fn warp_efficiency_full_and_empty() {
        assert_eq!(warp_efficiency(&[true; 64], 32), 1.0);
        assert_eq!(warp_efficiency(&[false; 64], 32), 1.0); // no busy warps
        let mut half = vec![false; 64];
        for v in half.iter_mut().take(16) {
            *v = true;
        }
        // One busy warp with 16/32 lanes, one idle warp.
        assert!((warp_efficiency(&half, 32) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clustered_beats_scattered() {
        // 8 active lanes in one warp vs spread across 8 warps.
        let mut clustered = vec![false; 256];
        for v in clustered.iter_mut().take(8) {
            *v = true;
        }
        let mut scattered = vec![false; 256];
        for w in 0..8 {
            scattered[w * 32] = true;
        }
        assert!(warp_efficiency(&clustered, 32) > warp_efficiency(&scattered, 32));
    }

    #[test]
    fn traces_are_nonempty_and_mixed() {
        for collapse in [Collapse::Two, Collapse::Three] {
            let t = coal_memory_trace(collapse, &TraceParams::default());
            assert!(t.len() > 1000, "{collapse:?}: {}", t.len());
            assert!(t.iter().any(|a| a.write));
            assert!(t.iter().any(|a| !a.write));
        }
    }

    /// The Table VI mechanism: the collapse(2) layout (local-memory
    /// interleaved automatic arrays + serial i reuse) must show a higher
    /// L1 hit rate than the collapse(3) slab layout whose warps stride by
    /// 132 B.
    #[test]
    fn collapse2_caches_better_than_collapse3() {
        let tp = TraceParams {
            ilen: 32,
            ..TraceParams::default()
        };
        let run = |collapse| {
            let trace = coal_memory_trace(collapse, &tp);
            let mut sim = CacheSim::new(1, A100_L1, scaled_l2(0.01));
            for a in &trace {
                sim.access(0, *a);
            }
            sim.finish()
        };
        let c2 = run(Collapse::Two);
        let c3 = run(Collapse::Three);
        assert!(
            c2.l1_hit_pct() > c3.l1_hit_pct() + 5.0,
            "L1: collapse2 {:.1}% vs collapse3 {:.1}%",
            c2.l1_hit_pct(),
            c3.l1_hit_pct()
        );
    }

    #[test]
    fn kernel_work_packaging() {
        let w = kernel_work(
            1000,
            PointWork {
                flops: 5000,
                mem_ops: 700,
            },
            1e6,
            2e5,
            0.4,
        );
        assert_eq!(w.iters, 1000);
        assert_eq!(w.flops_f32, 5000.0);
        assert_eq!(w.mem_ops, 700.0);
        assert_eq!(w.warp_efficiency, 0.4);
        // Clamping.
        let w2 = kernel_work(1, PointWork::ZERO, 0.0, 0.0, 0.0);
        assert!(w2.warp_efficiency > 0.0);
    }
}
