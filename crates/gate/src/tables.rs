//! Tables I and III–VII of the paper, each computed once: the `paper`
//! gate's tables, Fig. 4 and the zoo gate's per-backend ranking and
//! decay checks all read the rows produced here from a [`ReproContext`],
//! next to the paper's own. Table VII's shape claims are checked here
//! too ([`sweep_shape_violations`], [`decay_violations`]).

use crate::context::ReproContext;
use fsbm_core::scheme::SbmVersion;
use fsbm_core::workload::{coal_memory_trace, TraceParams};
use gpu_sim::cachesim::{scaled_l2, CacheSim, MemStats, A100_L1};
use gpu_sim::devicepool::DeviceShare;
use gpu_sim::ncu::KernelProfile;
use gpu_sim::DeviceError;
use miniwrf::hotspots;
use miniwrf::perfmodel::ExperimentResult;

/// Ranks of the paper's headline setup (Tables I and III–VI, Fig. 3).
pub const RANKS: usize = 16;
/// Devices of that setup's offloaded versions, one per rank — and the
/// pool Table VII's sweep shares.
pub const GPUS: usize = 16;

/// One speedup row of Tables III–V, with the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Row label (`coal_bott_new loop`, `fast_sbm`, `Overall`).
    pub name: &'static str,
    /// Speedup vs the previous version.
    pub current: f64,
    /// Speedup vs the version where the row was first measured.
    pub cumulative: f64,
    /// The paper's `(current, cumulative)`.
    pub paper: (f64, f64),
}

/// Per-version timing triple used by the speedup tables.
#[derive(Debug, Clone, Copy)]
pub struct VersionTimes {
    /// Isolated collision loop seconds per step (critical rank).
    pub coal_loop: f64,
    /// `fast_sbm` seconds per step (critical rank).
    pub fast_sbm: f64,
    /// Whole-program seconds for the 10-minute run.
    pub overall: f64,
}

/// One version in the paper's headline setup: [`RANKS`] ranks, the
/// offloaded versions on [`GPUS`] devices.
pub fn headline(ctx: &ReproContext, version: SbmVersion) -> Result<ExperimentResult, DeviceError> {
    ctx.run(version, RANKS, if version.offloaded() { GPUS } else { 0 })
}

/// Table V's arm list: all four versions ([`SbmVersion::ALL`] order) in
/// the headline setup.
pub fn version_times(ctx: &ReproContext) -> Result<[VersionTimes; 4], DeviceError> {
    let [v1, v2, v3, v4] = SbmVersion::ALL.map(|version| {
        headline(ctx, version).map(|e| VersionTimes {
            coal_loop: e.critical().coal_loop,
            fast_sbm: e.critical().fast_sbm,
            overall: e.total_secs,
        })
    });
    Ok([v1?, v2?, v3?, v4?])
}

/// The paper's Table I: `(routine, gprof %, nsys %)`.
pub const TABLE1_PAPER: [(&str, f64, f64); 3] = [
    ("fast_sbm", 51.39, 77.07),
    ("rk_scalar_tend", 28.07, 10.15),
    ("rk_update_scalar", 6.361, 1.504),
];

/// Table I: `(routine, gprof %, nsys %)` — each routine's share of the
/// time over all ranks and on the heavy rank alone, in
/// [`TABLE1_PAPER`]'s order.
pub fn table1(ctx: &ReproContext) -> Result<Vec<(String, f64, f64)>, DeviceError> {
    Ok(hotspots::table1(&headline(ctx, SbmVersion::Baseline)?))
}

/// Table III: speedups from the `kernals_ks` removal (lookup refactor).
pub fn table3(ctx: &ReproContext) -> Result<Vec<SpeedupRow>, DeviceError> {
    let v = version_times(ctx)?;
    let (sbm, overall) = (v[0].fast_sbm / v[1].fast_sbm, v[0].overall / v[1].overall);
    let row = |name, x, paper| SpeedupRow {
        name,
        current: x,
        cumulative: x,
        paper: (paper, paper),
    };
    Ok(vec![
        row("fast_sbm", sbm, 1.83),
        row("Overall", overall, 1.42),
    ])
}

/// The three rows of Tables IV and V: version `to` against its
/// predecessor (current) and against the first version that measured
/// the row (cumulative: the collision loop exists from v2 on).
fn offload_table(v: &[VersionTimes; 4], to: usize, paper: [(f64, f64); 3]) -> Vec<SpeedupRow> {
    let (prev, new) = (&v[to - 1], &v[to]);
    let row = |name, secs: fn(&VersionTimes) -> f64, first: &VersionTimes, paper| SpeedupRow {
        name,
        current: secs(prev) / secs(new),
        cumulative: secs(first) / secs(new),
        paper,
    };
    vec![
        row("coal_bott_new loop", |t| t.coal_loop, &v[1], paper[0]),
        row("fast_sbm", |t| t.fast_sbm, &v[0], paper[1]),
        row("Overall", |t| t.overall, &v[0], paper[2]),
    ]
}

/// Table IV: offloading the fissioned collision loop with `collapse(2)`.
pub fn table4(ctx: &ReproContext) -> Result<Vec<SpeedupRow>, DeviceError> {
    let paper = [(6.47, 6.47), (1.54, 2.67), (1.33, 2.09)];
    Ok(offload_table(&version_times(ctx)?, 2, paper))
}

/// Table V: slab arrays + full `collapse(3)`.
pub fn table5(ctx: &ReproContext) -> Result<Vec<SpeedupRow>, DeviceError> {
    let paper = [(10.3, 66.6), (1.12, 2.99), (1.05, 2.20)];
    Ok(offload_table(&version_times(ctx)?, 3, paper))
}

/// Full-kernel cache statistics of `version`'s collision launch,
/// extrapolated from a representative block trace at the plan's collapse
/// depth to the experiment's total memory operands.
pub fn kernel_mem_stats(version: SbmVersion, total_mem_ops: f64) -> MemStats {
    let tp = TraceParams {
        ilen: 32,
        ..TraceParams::default()
    };
    let offload = version.plan().offload.expect("offloaded");
    let trace = coal_memory_trace(offload.collapse, &tp);
    let mut sim = CacheSim::new(1, A100_L1, scaled_l2(1.0 / 108.0));
    for a in &trace {
        sim.access(0, *a);
    }
    sim.finish().scaled(total_mem_ops / trace.len() as f64)
}

/// Table VI: Nsight-Compute metrics of the two offloaded kernels,
/// `[collapse(2), collapse(3) w/ pointers]`.
pub fn table6(ctx: &ReproContext) -> Result<[KernelProfile; 2], DeviceError> {
    let profile = |version, label| -> Result<KernelProfile, DeviceError> {
        let exp = headline(ctx, version)?;
        let launch = exp.critical().launch.clone().expect("offloaded");
        let mem = kernel_mem_stats(version, launch.dram_bytes / 4.0);
        Ok(KernelProfile::from_model(label, &launch, &mem))
    };
    Ok([
        profile(SbmVersion::OffloadCollapse2, "collapse(2)")?,
        profile(SbmVersion::OffloadCollapse3, "collapse(3) w/ pointers")?,
    ])
}

/// One arm of Table VII / Figure 4: a CPU side and a GPU side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table7Arm {
    /// Configuration label (`16 ranks`, …, `2 nodes`).
    pub label: &'static str,
    /// Ranks of the CPU side (baseline and lookup).
    pub cpu_ranks: usize,
    /// Ranks of the GPU side (collapse(3)).
    pub gpu_ranks: usize,
    /// Devices the GPU side's ranks share.
    pub gpus: usize,
}

impl Table7Arm {
    /// True for the arms of the sharing sweep proper (both sides at the
    /// same decomposition, on the [`GPUS`]-device pool); false for the
    /// equal-resource 2-node comparison.
    pub fn in_sweep(&self) -> bool {
        self.cpu_ranks == self.gpu_ranks
    }
}

/// What one admitted arm of Table VII measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7Times {
    /// Baseline CPU total seconds.
    pub baseline: f64,
    /// Lookup CPU total seconds.
    pub lookup: f64,
    /// GPU (collapse(3)) total seconds.
    pub gpu: f64,
    /// The GPU side's critical rank's exposed device queue per step.
    pub queue_secs: f64,
    /// The GPU side's per-device sharing ledger, per step.
    pub devices: Vec<DeviceShare>,
}

impl Table7Times {
    /// Total speedup baseline → GPU.
    pub fn speedup(&self) -> f64 {
        self.baseline / self.gpu
    }
}

/// One row of Table VII that ran.
pub type Table7Row = (Table7Arm, Table7Times);

/// One arm of Table VII as priced: its times, or the typed admission
/// error when its contexts do not fit the context's device.
pub type Table7Outcome = (Table7Arm, Result<Table7Times, DeviceError>);

/// Table VII's arm list: 16/32/64 ranks sharing 16 GPUs, then the
/// equal-resource 2-node comparison (256 CPU ranks vs 40 ranks + 8 GPUs,
/// the 5-ranks-per-GPU memory limit).
pub fn table7_arms(ctx: &ReproContext) -> Vec<Table7Outcome> {
    let arm = |label, cpu_ranks, gpu_ranks, gpus| Table7Arm {
        label,
        cpu_ranks,
        gpu_ranks,
        gpus,
    };
    [
        arm("16 ranks", 16, 16, GPUS),
        arm("32 ranks", 32, 32, GPUS),
        arm("64 ranks", 64, 64, GPUS),
        arm("2 nodes", 256, 40, 8),
    ]
    .into_iter()
    .map(|arm| {
        let times = || -> Result<Table7Times, DeviceError> {
            let gpu = ctx.run(SbmVersion::OffloadCollapse3, arm.gpu_ranks, arm.gpus)?;
            Ok(Table7Times {
                baseline: ctx.run(SbmVersion::Baseline, arm.cpu_ranks, 0)?.total_secs,
                lookup: ctx.run(SbmVersion::Lookup, arm.cpu_ranks, 0)?.total_secs,
                gpu: gpu.total_secs,
                queue_secs: gpu.critical().queue,
                devices: gpu.share.map(|s| s.devices).unwrap_or_default(),
            })
        };
        (arm, times())
    })
    .collect()
}

/// The paper's Table VII per arm: baseline seconds, GPU seconds,
/// speedup.
pub const TABLE7_PAPER: [(f64, f64, f64); 4] = [
    (1211.45, 581.2, 2.08),
    (655.1, 360.1, 1.82),
    (471.7, 303.03, 1.56),
    (379.8, 397.1, 0.956),
];

/// Table VII / Figure 4 on a machine that admits every arm.
pub fn table7(ctx: &ReproContext) -> Result<Vec<Table7Row>, DeviceError> {
    (table7_arms(ctx).into_iter())
        .map(|(arm, times)| Ok((arm, times?)))
        .collect()
}

/// Ceiling on the equal-resource 2-node GPU/CPU speedup (the paper
/// measures 0.956× — the GPUs lose once the CPU side has 256 cores
/// against 8 heavily-shared devices).
pub const MAX_TWO_NODE_SPEEDUP: f64 = 1.05;

/// The decay half of Table VII's shape over consecutive arms of the
/// sharing sweep: absolute GPU time keeps improving with rank count
/// while the speedup over the matched CPU base decays. At least two arms
/// must have cleared the memory wall for the shape to be observable.
pub fn decay_violations(rows: &[Table7Row]) -> Vec<String> {
    let mut v = Vec::new();
    if rows.len() < 2 {
        v.push(format!(
            "only {} feasible sweep rows, the decay shape needs at least 2",
            rows.len()
        ));
    }
    for w in rows.windows(2) {
        let ((a, ta), (b, tb)) = (&w[0], &w[1]);
        if tb.gpu >= ta.gpu {
            v.push(format!(
                "GPU absolute time must keep improving {} → {} ranks, got {:.1} → {:.1} s",
                a.gpu_ranks, b.gpu_ranks, ta.gpu, tb.gpu
            ));
        }
        if tb.speedup() >= ta.speedup() {
            v.push(format!(
                "shared-GPU speedup must decay {} → {} ranks, got {:.2} → {:.2}",
                a.gpu_ranks,
                b.gpu_ranks,
                ta.speedup(),
                tb.speedup()
            ));
        }
    }
    v
}

/// Checks the paper's Table VII shape over the sweep rows (the first
/// three are the 16-GPU sweep in rank order, the last the 2-node
/// comparison): absolute GPU time improves (paper: 581 → 360 → 303 s)
/// while speedup decays (2.08 → 1.82 → 1.56) with a degrading scaling
/// increment, queueing grows with sharing depth, and the equal-resource
/// comparison crosses over.
pub fn sweep_shape_violations(rows: &[Table7Row], max_two_node_speedup: f64) -> Vec<String> {
    let [(_, r16), (_, r32), (_, r64), (_, nodes)] = rows else {
        return vec![format!("sweep produced {} rows, expected 4", rows.len())];
    };
    let mut v = decay_violations(&rows[..3]);
    if r16.gpu / r32.gpu <= r32.gpu / r64.gpu {
        v.push(format!(
            "scaling increment must degrade: 16→32 gain {:.3} should exceed 32→64 gain {:.3}",
            r16.gpu / r32.gpu,
            r32.gpu / r64.gpu
        ));
    }
    if r16.queue_secs != 0.0 {
        v.push(format!(
            "exclusive 16-rank/16-GPU arm must not queue, got {:.3} s/step",
            r16.queue_secs
        ));
    }
    if !(r32.queue_secs > 0.0 && r64.queue_secs > r32.queue_secs) {
        v.push(format!(
            "queueing must grow with sharing depth: q32 {:.3} s, q64 {:.3} s",
            r32.queue_secs, r64.queue_secs
        ));
    }
    if nodes.speedup() >= max_two_node_speedup {
        v.push(format!(
            "equal-resource 2-node speedup {:.3} must stay below {:.3} (paper: 0.956)",
            nodes.speedup(),
            max_two_node_speedup
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> &'static ReproContext {
        ReproContext::quick_shared()
    }

    /// Table VII rows with the paper's CPU seconds and the given GPU
    /// side.
    fn rows(q: [f64; 3], gpu: [f64; 3], two_node_speedup: f64) -> Vec<Table7Row> {
        let row = |label, cpu_ranks, gpu_ranks, gpus, baseline: f64, gpu, queue_secs| {
            let arm = Table7Arm {
                label,
                cpu_ranks,
                gpu_ranks,
                gpus,
            };
            let times = Table7Times {
                baseline,
                lookup: baseline / 1.4,
                gpu,
                queue_secs,
                devices: Vec::new(),
            };
            (arm, times)
        };
        vec![
            row("16 ranks", 16, 16, 16, 1211.45, gpu[0], q[0]),
            row("32 ranks", 32, 32, 16, 655.1, gpu[1], q[1]),
            row("64 ranks", 64, 64, 16, 471.7, gpu[2], q[2]),
            row("2 nodes", 256, 40, 8, 379.8, 379.8 / two_node_speedup, 1.5),
        ]
    }

    #[test]
    fn paper_shape_passes() {
        // Table VII's own numbers satisfy every ordering.
        let v = sweep_shape_violations(&rows([0.0, 0.6, 1.8], [581.2, 360.1, 303.03], 0.956), 1.05);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn inverted_decay_is_caught() {
        // Speedup *growing* with rank count (the pre-scheduler known
        // deviation) must be flagged.
        let v = sweep_shape_violations(&rows([0.0, 0.6, 1.8], [610.0, 295.0, 145.0], 0.956), 1.05);
        assert!(v.iter().any(|x| x.contains("decay")), "{v:?}");
    }

    #[test]
    fn queue_and_two_node_orderings_gate() {
        // Exclusive arm queueing, shrinking queues, and a 2-node win
        // are each violations.
        let v = sweep_shape_violations(&rows([0.1, 0.6, 1.8], [581.2, 360.1, 303.03], 0.956), 1.05);
        assert!(v.iter().any(|x| x.contains("exclusive")), "{v:?}");
        let v = sweep_shape_violations(&rows([0.0, 1.8, 0.6], [581.2, 360.1, 303.03], 0.956), 1.05);
        assert!(v.iter().any(|x| x.contains("sharing depth")), "{v:?}");
        let v = sweep_shape_violations(&rows([0.0, 0.6, 1.8], [581.2, 360.1, 303.03], 1.2), 1.05);
        assert!(v.iter().any(|x| x.contains("2-node")), "{v:?}");
    }

    #[test]
    fn table3_shape() {
        let t = table3(ctx()).unwrap();
        assert!((1.2..2.8).contains(&t[0].current), "{t:?}");
        assert!((1.05..2.2).contains(&t[1].current));
    }

    #[test]
    fn table4_and_5_shapes() {
        let c = ctx();
        let t4 = table4(c).unwrap();
        assert!(t4[0].current > 3.0, "coal offload wins: {t4:?}");
        assert!(t4[2].cumulative > 1.3, "overall cum {:?}", t4[2]);
        let t5 = table5(c).unwrap();
        assert!(
            (3.0..40.0).contains(&t5[0].current),
            "collapse(3) gain {:?}",
            t5[0]
        );
        // Amdahl: overall gains shrink down the chain.
        assert!(t5[2].current < t4[2].current + 0.3);
        assert!(t5[2].cumulative >= t4[2].cumulative * 0.95);
        // The cumulative collision-loop column starts where the loop was
        // first measured (v2): at v3 it is the current gain; at v4 the
        // product of the two.
        assert_eq!(t4[0].current, t4[0].cumulative);
        let chained = t4[0].current * t5[0].current;
        assert!((t5[0].cumulative / chained - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table6_shape() {
        let [p2, p3] = table6(ctx()).unwrap();
        assert!(
            p3.time_ms < p2.time_ms / 3.0,
            "{} vs {}",
            p2.time_ms,
            p3.time_ms
        );
        assert!(p3.achieved_occupancy_pct > p2.achieved_occupancy_pct * 4.0);
        assert!(p2.l1_hit_pct > p3.l1_hit_pct);
        assert!(p2.l2_hit_pct > p3.l2_hit_pct);
        assert!(p3.dram_read_gb > p2.dram_read_gb);
    }

    #[test]
    fn table7_shape() {
        let rows = table7(ctx()).unwrap();
        assert_eq!(rows.len(), 4);
        let (speedup, gpu) = (|i: usize| rows[i].1.speedup(), |i: usize| rows[i].1.gpu);
        // GPU wins whenever it has a GPU per few ranks (paper:
        // 2.08 / 1.82 / 1.56)...
        for (arm, t) in &rows[..3] {
            assert!(arm.in_sweep() && arm.gpus == GPUS, "{arm:?}");
            assert!(
                (1.05..3.4).contains(&t.speedup()),
                "GPU should win: {arm:?} {t:?}"
            );
        }
        // ...absolute GPU time still improves with more ranks...
        assert!(gpu(1) < gpu(0), "t32 < t16: {rows:?}");
        assert!(gpu(2) < gpu(1), "t64 < t32: {rows:?}");
        // ...but the speedup over the CPU decays as ranks pile onto the
        // 16 shared devices and queue behind each other (Fig. 4 shape).
        assert!(speedup(1) < speedup(0), "s32 < s16: {rows:?}");
        assert!(speedup(2) < speedup(1), "s64 < s32: {rows:?}");
        // ...and the GPUs lose (or roughly tie) at equal 2-node
        // resources (paper: 0.956).
        assert!(!rows[3].0.in_sweep());
        assert!(speedup(3) < 1.1, "2-node crossover: {:?}", rows[3]);
        assert_eq!(rows[3].0.label, "2 nodes");
    }

    /// A device too small for the deep arms yields typed errors for
    /// exactly those arms — the fallible plane the zoo gate prices on.
    #[test]
    fn small_devices_reject_the_deep_arms_with_a_typed_error() {
        let v100 = gpu_sim::machine::backend_by_name("v100-32gb").expect("zoo entry");
        let arms = table7_arms(&ctx().on_backend(v100));
        assert_eq!(arms.len(), 4);
        assert!(arms[0].1.is_ok() && arms[1].1.is_ok());
        let wall = arms[2].1.as_ref().expect_err("4 contexts do not fit 32 GB");
        assert!(wall.requested_bytes > 0 && wall.residents > 0, "{wall}");
        assert!(table7(&ctx().on_backend(v100)).is_err());
    }

    /// Table I and the three-step timeline, digit for digit, on the
    /// quick context: two views of the same per-routine seconds (Σ over
    /// ranks, the critical rank alone).
    #[test]
    fn table1_shape() {
        let rows: Vec<_> = (table1(ctx()).unwrap().into_iter())
            .map(|(routine, gprof, nsys)| format!("{routine} {gprof:.2} {nsys:.2}"))
            .collect();
        assert_eq!(
            rows,
            [
                "fast_sbm 42.89 59.48",
                "rk_scalar_tend 31.24 22.16",
                "rk_update_scalar 4.26 3.02"
            ]
        );
        let exp = headline(ctx(), SbmVersion::Baseline).unwrap();
        let lanes: Vec<_> = (hotspots::timeline(&exp, 100).into_iter())
            .map(|(lane, secs, bar)| format!("{lane} {secs:.4} {bar}"))
            .collect();
        assert_eq!(
            lanes,
            [
                "solve_em 23.0705 ####################################################################################################",
                "rk_scalar_tend 5.1127 ########.........................########.........................#########.........................",
                "rk_update_scalar 0.6972 .......##...............................##................................##........................",
                "solve_em_other 3.4859 ........######...........................######............................######...................",
                "fast_sbm 13.7232 .............#####################............#####################.............####################",
                "mpi_halo 0.0515 .................................#................................#................................#",
            ]
        );
    }
}
