//! Ablation studies for the design choices the paper (and our model)
//! call out.
//!
//! * **Register limiting** (§VIII): "Manually limiting the register count
//!   resulted in significant speedup in the collapse(3) case, although
//!   further reduction beyond 64 appears to have no effect." We sweep
//!   `-maxregcount` and watch occupancy/time saturate.
//! * **Latency-hiding knee**: the GPU model's issue-rate calibration;
//!   the sweep shows whether the collapse(2)/collapse(3) ratio depends
//!   on it (on today's plane neither kernel is issue-bound, and it does
//!   not).
//! * **Block size**: the OpenMP `teams` default of 128 vs alternatives.

use crate::context::ReproContext;
use crate::tables::RANKS;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::launch::{launch_modeled_with, KernelSpec, KernelWork};
use gpu_sim::machine::Calibration;
use miniwrf::perfmodel::RankWork;
use wrf_cases::ConusCase;
use wrf_grid::two_d_decomposition;

/// One row of a sweep: parameter value, kernel milliseconds, achieved
/// occupancy percent, waves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Swept parameter value.
    pub value: f64,
    /// Modeled kernel time, ms.
    pub time_ms: f64,
    /// Achieved occupancy, percent.
    pub occupancy_pct: f64,
    /// Waves of blocks the launch runs in.
    pub waves: u64,
}

/// The headline setup's critical patch (most collision points) as
/// `version` would run it.
pub(crate) fn critical_work(ctx: &ReproContext, version: SbmVersion) -> RankWork {
    let case = ConusCase::new(ctx.case);
    let dd = two_d_decomposition(ctx.case.domain(), RANKS, 3);
    (dd.patches.iter())
        .map(|p| RankWork::extrapolate(&case, p, &ctx.coeffs, version, &ctx.pp))
        .max_by_key(|w| w.coal_points)
        .expect("patches")
}

/// That patch's collision launch for an offloaded `version`.
fn critical_kernel(ctx: &ReproContext, version: SbmVersion) -> (KernelSpec, KernelWork) {
    critical_work(ctx, version).coal_kernel(&ctx.traffic)
}

/// The collapse(3) launch at each of `values`, set into its spec by
/// `spec`.
fn c3_sweep(
    ctx: &ReproContext,
    values: &[u32],
    spec: impl Fn(KernelSpec, u32) -> KernelSpec,
) -> Vec<SweepRow> {
    let (base_spec, kw) = critical_kernel(ctx, SbmVersion::OffloadCollapse3);
    (values.iter())
        .map(|&value| {
            let spec = spec(base_spec.clone(), value);
            let l = launch_modeled_with(&ctx.pp.gpu, &spec, &kw, &ctx.pp.calib).expect("valid");
            SweepRow {
                value: value as f64,
                time_ms: l.time_secs * 1e3,
                occupancy_pct: l.occupancy.achieved * 100.0,
                waves: l.occupancy.waves,
            }
        })
        .collect()
}

/// §VIII register sweep: occupancy and time vs `-maxregcount`.
pub fn ablation_registers(ctx: &ReproContext) -> Vec<SweepRow> {
    let regs = [255, 200, 168, 128, 96, 80, 64, 48, 32];
    c3_sweep(ctx, &regs, |spec, regs_per_thread| KernelSpec {
        regs_per_thread,
        ..spec
    })
}

/// Sensitivity of the collapse(2)/collapse(3) ratio to the
/// latency-hiding knee: `(knee, collapse(2) ms, collapse(3) ms)` per
/// knee (warps per SM needed to reach peak issue).
pub fn ablation_latency_knee(ctx: &ReproContext) -> Vec<(f64, f64, f64)> {
    let (spec3, kw3) = critical_kernel(ctx, SbmVersion::OffloadCollapse3);
    let (spec2, kw2) = critical_kernel(ctx, SbmVersion::OffloadCollapse2);
    [8.0f64, 16.0, 32.0, 48.0, 64.0]
        .map(|knee| {
            let calib = Calibration {
                latency_hiding_warps: knee,
                ..ctx.pp.calib
            };
            let ms = |spec, kw| {
                let l = launch_modeled_with(&ctx.pp.gpu, spec, kw, &calib).expect("valid");
                l.time_secs * 1e3
            };
            (knee, ms(&spec2, &kw2), ms(&spec3, &kw3))
        })
        .into()
}

/// Block-size sweep for the collapse(3) launch (NVHPC defaults to 128).
pub fn ablation_block_size(ctx: &ReproContext) -> Vec<SweepRow> {
    c3_sweep(ctx, &[32, 64, 128, 256, 512], |spec, block_threads| {
        KernelSpec {
            block_threads,
            ..spec
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_sweep_matches_the_paper_narrative() {
        let ctx = ReproContext::quick_shared();
        let rows = ablation_registers(ctx);
        // High register counts choke occupancy and run slower.
        let at = |v: f64| rows.iter().find(|r| r.value == v).unwrap();
        assert!(
            at(255.0).time_ms > at(80.0).time_ms,
            "limiting registers speeds the kernel: {rows:?}"
        );
        assert!(at(255.0).occupancy_pct < at(80.0).occupancy_pct);
        // Below ~64 registers nothing further happens (paper's "no
        // effect beyond 64"): time changes < 15 % from 64 to 32.
        let t64 = at(64.0).time_ms;
        let t32 = at(32.0).time_ms;
        assert!(
            (t64 - t32).abs() / t64 < 0.15,
            "saturation below 64 regs: {t64} vs {t32}"
        );
    }

    #[test]
    fn knee_moves_the_c2_c3_ratio_monotonically() {
        let ctx = ReproContext::quick_shared();
        let rows = ablation_latency_knee(ctx);
        let ratios: Vec<(f64, f64)> = rows.iter().map(|&(k, c2, c3)| (k, c2 / c3)).collect();
        for pair in ratios.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.9,
                "ratio should grow with the knee: {rows:?}"
            );
        }
        // The default knee sits in the paper's ratio neighbourhood.
        let at48 = ratios.iter().find(|(k, _)| *k == 48.0).unwrap().1;
        assert!((4.0..40.0).contains(&at48), "c2/c3 at knee 48 = {at48}");
    }

    #[test]
    fn block_size_sweep_is_sane() {
        let ctx = ReproContext::quick_shared();
        let rows = ablation_block_size(ctx);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.time_ms > 0.0);
            assert!(r.occupancy_pct > 0.0 && r.occupancy_pct <= 100.0);
        }
    }
}
