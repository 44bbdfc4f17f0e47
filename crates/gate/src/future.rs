//! The paper's stated next step, §VIII: "The loops calling condensation
//! routines are currently being offloaded."
//!
//! This module projects that port with the same machinery used for the
//! collision loop: the cloudy-point condensation work (`onecond1/2`)
//! moves from the host pre-sweep into a `collapse(3)`-style kernel
//! (condensation has no cross-point dependences either — the same
//! dead-on-entry/privatization argument applies), and the whole-program
//! model is re-evaluated.

use crate::ablations::critical_work;
use crate::context::ReproContext;
use crate::tables::headline;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::launch::{launch_modeled, KernelSpec};
use gpu_sim::schedule::{Storage, BLOCK_THREADS};
use gpu_sim::DeviceError;

/// Projection of the condensation offload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondOffloadProjection {
    /// Host seconds per step of the critical rank's cloudy-point
    /// condensation.
    pub host_cond_secs: f64,
    /// Whole-program seconds with only the collision loop offloaded
    /// (today's collapse(3) version).
    pub coal_only_secs: f64,
    /// Whole-program seconds with condensation offloaded as well.
    pub with_cond_secs: f64,
    /// Projected additional overall speedup.
    pub additional_speedup: f64,
    /// The condensation kernel's modeled milliseconds per step.
    pub cond_kernel_ms: f64,
    /// The condensation kernel's achieved occupancy, percent.
    pub cond_occupancy_pct: f64,
}

/// Projects the condensation offload on the 16-rank / 16-GPU setup.
pub fn project_cond_offload(ctx: &ReproContext) -> Result<CondOffloadProjection, DeviceError> {
    let today = headline(ctx, SbmVersion::OffloadCollapse3)?;
    let crit = today.critical();

    // The critical rank's cloudy condensation work as a kernel.
    let work = critical_work(ctx, SbmVersion::OffloadCollapse3);

    // Cloudy condensation share of the host pre-sweep.
    let cloudy_cond = fsbm_core::meter::PointWork {
        flops: ctx.coeffs.pre_per_cloudy_point.flops * work.coal_points,
        mem_ops: ctx.coeffs.pre_per_cloudy_point.mem_ops * work.coal_points,
    };
    let host_cond_secs = cloudy_cond.flops as f64 / ctx.pp.sbm_flops_per_core;

    // onecond as a collapse(3)-style kernel: simpler per-point state than
    // the collision routine (one class's bins at a time), so fewer
    // registers; slab-resident like Listing 8, so its lanes pay that
    // placement's DRAM rate.
    let spec = KernelSpec {
        name: "onecond_loop_collapse3".into(),
        block_threads: BLOCK_THREADS,
        regs_per_thread: 96,
        smem_per_block: 0,
        stack_bytes_per_thread: 512,
        collapse: 3,
    };
    let (read, write) = ctx.traffic.for_storage(Storage::SlabPointMajor);
    let mem_ops = cloudy_cond.mem_ops as f64;
    let kw = fsbm_core::workload::kernel_work(
        work.coal_iters.max(1),
        cloudy_cond,
        mem_ops * read,
        mem_ops * write,
        work.warp_eff,
    );
    let launch = launch_modeled(&ctx.pp.gpu, &spec, &kw).expect("valid launch");

    let saved = host_cond_secs - launch.time_secs;
    let new_step = (crit.total - saved).max(crit.total * 0.05);
    let with_cond_secs = today.steps as f64 * new_step + today.io_secs;

    Ok(CondOffloadProjection {
        host_cond_secs,
        coal_only_secs: today.total_secs,
        with_cond_secs,
        additional_speedup: today.total_secs / with_cond_secs,
        cond_kernel_ms: launch.time_secs * 1e3,
        cond_occupancy_pct: launch.occupancy.achieved * 100.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_offload_projects_a_further_win() {
        let ctx = ReproContext::quick_shared();
        let p = project_cond_offload(ctx).unwrap();
        assert!(
            p.additional_speedup > 1.02,
            "offloading condensation should help: {p:?}"
        );
        assert!(
            p.additional_speedup < 3.0,
            "but it is Amdahl-bounded: {p:?}"
        );
        assert!(p.cond_kernel_ms < 1000.0);
    }
}
