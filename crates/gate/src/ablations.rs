//! Ablation studies for the design choices the paper (and our model)
//! call out.
//!
//! * **Register limiting** (§VIII): "Manually limiting the register count
//!   resulted in significant speedup in the collapse(3) case, although
//!   further reduction beyond 64 appears to have no effect." We sweep
//!   `-maxregcount` and watch occupancy/time saturate.
//! * **Latency-hiding knee**: the one sensitive calibration constant of
//!   the GPU model; the sweep shows which conclusions depend on it (the
//!   collapse(2)/collapse(3) ratio) and which do not (the Amdahl-bounded
//!   whole-program rows).
//! * **Block size**: the OpenMP `teams` default of 128 vs alternatives.

use crate::context::ReproContext;
use crate::tables::RANKS;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::launch::{launch_modeled_with, KernelSpec, KernelWork};
use gpu_sim::machine::Calibration;
use miniwrf::perfmodel::RankWork;
use std::fmt::Write as _;
use wrf_cases::ConusCase;
use wrf_grid::two_d_decomposition;

/// One row of a sweep: parameter value, kernel milliseconds, achieved
/// occupancy percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Swept parameter value.
    pub value: f64,
    /// Modeled kernel time, ms.
    pub time_ms: f64,
    /// Achieved occupancy, percent.
    pub occupancy_pct: f64,
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

/// §VIII register sweep: occupancy and time vs `-maxregcount`.
pub fn ablation_registers(ctx: &ReproContext) -> (Vec<SweepRow>, String) {
    let (base_spec, kw) = critical_kernel(ctx, SbmVersion::OffloadCollapse3);
    let mut rows = Vec::new();
    let mut s =
        String::from("Ablation: register limiting of the collapse(3) kernel (-maxregcount)\n");
    let _ = writeln!(
        s,
        "{:>8} {:>10} {:>12} {:>8}",
        "regs", "time ms", "occupancy %", "waves"
    );
    for regs in [255u32, 200, 168, 128, 96, 80, 64, 48, 32] {
        let spec = KernelSpec {
            regs_per_thread: regs,
            ..base_spec.clone()
        };
        let l = launch_modeled_with(&ctx.pp.gpu, &spec, &kw, &ctx.pp.calib).expect("valid");
        rows.push(SweepRow {
            value: regs as f64,
            time_ms: l.time_secs * 1e3,
            occupancy_pct: l.occupancy.achieved * 100.0,
        });
        let _ = writeln!(
            s,
            "{regs:>8} {:>10.3} {:>12.2} {:>8}",
            l.time_secs * 1e3,
            l.occupancy.achieved * 100.0,
            l.occupancy.waves
        );
    }
    s.push_str(
        "paper: limiting registers sped up collapse(3) significantly; below 64 no \
         further effect (the kernel leaves the occupancy-limited regime)\n",
    );
    (rows, s)
}

/// Sensitivity of the collapse(2)/collapse(3) ratio to the
/// latency-hiding knee (the model's one sensitive constant).
pub fn ablation_latency_knee(ctx: &ReproContext) -> (Vec<(f64, f64)>, String) {
    let (spec3, kw3) = critical_kernel(ctx, SbmVersion::OffloadCollapse3);
    // A collapse(2)-shaped launch with identical total work.
    let (spec2, kw2) = critical_kernel(ctx, SbmVersion::OffloadCollapse2);

    let mut out = Vec::new();
    let mut s =
        String::from("Ablation: latency-hiding knee (warps/SM needed to reach peak issue)\n");
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>10}",
        "knee", "c2 ms", "c3 ms", "c2/c3"
    );
    for knee in [8.0f64, 16.0, 32.0, 48.0, 64.0] {
        let calib = Calibration {
            latency_hiding_warps: knee,
            ..ctx.pp.calib
        };
        let l2 = launch_modeled_with(&ctx.pp.gpu, &spec2, &kw2, &calib).expect("valid");
        let l3 = launch_modeled_with(&ctx.pp.gpu, &spec3, &kw3, &calib).expect("valid");
        let ratio = l2.time_secs / l3.time_secs;
        out.push((knee, ratio));
        let _ = writeln!(
            s,
            "{knee:>8.0} {:>12.3} {:>12.3} {:>9.1}x",
            l2.time_secs * 1e3,
            l3.time_secs * 1e3,
            ratio
        );
    }
    s.push_str("paper's Table V/VI ratio: 10.3-11.5x (the default knee of 48 lands there)\n");
    (out, s)
}

/// Block-size sweep for the collapse(3) launch (NVHPC defaults to 128).
pub fn ablation_block_size(ctx: &ReproContext) -> (Vec<SweepRow>, String) {
    let (base_spec, kw) = critical_kernel(ctx, SbmVersion::OffloadCollapse3);
    let mut rows = Vec::new();
    let mut s = String::from("Ablation: threads per block for the collapse(3) kernel\n");
    let _ = writeln!(s, "{:>8} {:>10} {:>12}", "block", "time ms", "occupancy %");
    for block in [32u32, 64, 128, 256, 512] {
        let spec = KernelSpec {
            block_threads: block,
            ..base_spec.clone()
        };
        let l = launch_modeled_with(&ctx.pp.gpu, &spec, &kw, &ctx.pp.calib).expect("valid");
        rows.push(SweepRow {
            value: block as f64,
            time_ms: l.time_secs * 1e3,
            occupancy_pct: l.occupancy.achieved * 100.0,
        });
        let _ = writeln!(
            s,
            "{block:>8} {:>10.3} {:>12.2}",
            l.time_secs * 1e3,
            l.occupancy.achieved * 100.0
        );
    }
    (rows, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_sweep_matches_the_paper_narrative() {
        let ctx = ReproContext::quick_shared();
        let (rows, s) = ablation_registers(ctx);
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
        assert!(s.contains("maxregcount"));
    }

    #[test]
    fn knee_moves_the_c2_c3_ratio_monotonically() {
        let ctx = ReproContext::quick_shared();
        let (rows, s) = ablation_latency_knee(ctx);
        for pair in rows.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.9,
                "ratio should grow with the knee: {rows:?}"
            );
        }
        // The default knee sits in the paper's ratio neighbourhood.
        let at48 = rows.iter().find(|(k, _)| *k == 48.0).unwrap().1;
        assert!((4.0..40.0).contains(&at48), "c2/c3 at knee 48 = {at48}");
        assert!(s.contains("knee"));
    }

    #[test]
    fn block_size_sweep_is_sane() {
        let ctx = ReproContext::quick_shared();
        let (rows, _) = ablation_block_size(ctx);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.time_ms > 0.0);
            assert!(r.occupancy_pct > 0.0 && r.occupancy_pct <= 100.0);
        }
    }
}
