//! Tables I and III–VII of the paper, each computed once: the rendered
//! `repro table*` targets, Fig. 4, the share gate's shape checks and the
//! zoo gate's per-backend ranking and decay checks all read the rows
//! produced here from a [`ReproContext`].

use crate::context::ReproContext;
use fsbm_core::scheme::SbmVersion;
use fsbm_core::workload::{coal_memory_trace, TraceParams};
use gpu_sim::cachesim::{scaled_l2, CacheSim, MemStats, A100_L1};
use gpu_sim::devicepool::DeviceShare;
use gpu_sim::ncu::{comparison_table, KernelProfile};
use gpu_sim::DeviceError;
use miniwrf::hotspots;
use miniwrf::perfmodel::ExperimentResult;
use std::fmt::Write as _;

/// Ranks of the paper's headline setup (Tables I and III–VI, Fig. 3).
pub const RANKS: usize = 16;
/// Devices of that setup's offloaded versions, one per rank — and the
/// pool Table VII's sweep shares.
pub const GPUS: usize = 16;

/// One speedup row of Tables III–V.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Row label (`coal_bott_new loop`, `fast_sbm`, `Overall`).
    pub name: &'static str,
    /// Speedup vs the previous version.
    pub current: f64,
    /// Speedup vs the version where the row was first measured.
    pub cumulative: f64,
}

/// One of the speedup tables (III–V): its rows and its rendering.
#[derive(Debug, Clone)]
pub struct TableData {
    /// The speedup rows.
    pub rows: Vec<SpeedupRow>,
    /// Rendered text.
    pub rendered: String,
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

/// Renders one of Tables III–V: each row is `(name, current, cumulative,
/// paper current, paper cumulative)`.
fn speedup_table(
    id: &str,
    heading: &str,
    rows: &[(&'static str, f64, f64, f64, f64)],
) -> TableData {
    let mut s = String::new();
    let _ = writeln!(s, "{id}: {heading}");
    let _ = writeln!(
        s,
        "{:<22} {:>9} {:>11} {:>9} {:>11}",
        "", "current", "cumulative", "paper", "paper-cum"
    );
    for (name, current, cumulative, pcur, pcum) in rows {
        let _ = writeln!(
            s,
            "{name:<22} {current:>8.2}x {cumulative:>10.2}x {pcur:>8.2}x {pcum:>10.2}x"
        );
    }
    TableData {
        rows: (rows.iter())
            .map(|&(name, current, cumulative, ..)| SpeedupRow {
                name,
                current,
                cumulative,
            })
            .collect(),
        rendered: s,
    }
}

/// Table I, rendered: hotspot percentages, gprof (all ranks) vs Nsight
/// (heavy rank).
pub fn table1(ctx: &ReproContext) -> Result<String, DeviceError> {
    let rows = hotspots::table1(&headline(ctx, SbmVersion::Baseline)?);
    let paper = [
        ("fast_sbm", 51.39, 77.07),
        ("rk_scalar_tend", 28.07, 10.15),
        ("rk_update_scalar", 6.361, 1.504),
    ];
    let mut s = String::new();
    let _ = writeln!(s, "Table I: time contribution (%) of the top hotspots");
    let _ = writeln!(
        s,
        "{:<18} {:>8} {:>8} {:>12} {:>12}",
        "Routine", "gprof", "nsys", "paper-gprof", "paper-nsys"
    );
    for ((name, g, n), (_, pg, pn)) in rows.iter().zip(paper) {
        let _ = writeln!(s, "{name:<18} {g:>8.2} {n:>8.2} {pg:>12.2} {pn:>12.2}");
    }
    Ok(s)
}

/// Table III: speedups from the `kernals_ks` removal (lookup refactor).
pub fn table3(ctx: &ReproContext) -> Result<TableData, DeviceError> {
    let v = version_times(ctx)?;
    let (sbm, overall) = (v[0].fast_sbm / v[1].fast_sbm, v[0].overall / v[1].overall);
    Ok(speedup_table(
        "Table III",
        "removal of kernals_ks (baseline -> lookup)",
        &[
            ("fast_sbm", sbm, sbm, 1.83, 1.83),
            ("Overall", overall, overall, 1.42, 1.42),
        ],
    ))
}

/// The three rows of Tables IV and V: version `to` against its
/// predecessor (current) and against the first version that measured
/// the row (cumulative: the collision loop exists from v2 on).
fn offload_table(
    id: &str,
    heading: &str,
    v: &[VersionTimes; 4],
    to: usize,
    paper: [(f64, f64); 3],
) -> TableData {
    let (prev, new) = (&v[to - 1], &v[to]);
    speedup_table(
        id,
        heading,
        &[
            (
                "coal_bott_new loop",
                prev.coal_loop / new.coal_loop,
                v[1].coal_loop / new.coal_loop,
                paper[0].0,
                paper[0].1,
            ),
            (
                "fast_sbm",
                prev.fast_sbm / new.fast_sbm,
                v[0].fast_sbm / new.fast_sbm,
                paper[1].0,
                paper[1].1,
            ),
            (
                "Overall",
                prev.overall / new.overall,
                v[0].overall / new.overall,
                paper[2].0,
                paper[2].1,
            ),
        ],
    )
}

/// Table IV: offloading the fissioned collision loop with `collapse(2)`.
pub fn table4(ctx: &ReproContext) -> Result<TableData, DeviceError> {
    Ok(offload_table(
        "Table IV",
        "offload of the collision loop, collapse(2)",
        &version_times(ctx)?,
        2,
        [(6.47, 6.47), (1.54, 2.67), (1.33, 2.09)],
    ))
}

/// Table V: slab arrays + full `collapse(3)`.
pub fn table5(ctx: &ReproContext) -> Result<TableData, DeviceError> {
    Ok(offload_table(
        "Table V",
        "full collapse(3) via temp_arrays slabs",
        &version_times(ctx)?,
        3,
        [(10.3, 66.6), (1.12, 2.99), (1.05, 2.20)],
    ))
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

/// Table VI: Nsight-Compute metrics of the two offloaded kernels, and
/// the rendered comparison.
pub fn table6(ctx: &ReproContext) -> Result<(KernelProfile, KernelProfile, String), DeviceError> {
    let profile = |version, label| -> Result<KernelProfile, DeviceError> {
        let exp = headline(ctx, version)?;
        let launch = exp.critical().launch.clone().expect("offloaded");
        let mem = kernel_mem_stats(version, launch.dram_bytes / 4.0);
        Ok(KernelProfile::from_model(label, &launch, &mem))
    };
    let p2 = profile(SbmVersion::OffloadCollapse2, "collapse(2)")?;
    let p3 = profile(SbmVersion::OffloadCollapse3, "collapse(3) w/ pointers")?;
    let mut s = String::from("Table VI: Nsight Compute metrics of the collision kernel\n");
    s.push_str(&comparison_table(&p2, &p3));
    s.push_str(
        "paper: time 335.85 -> 29.11 ms | occupancy 4.63 -> 35.67 % | \
         L1 84.82 -> 61.43 % | L2 95.84 -> 69.28 % | \
         DRAM W 0.785 -> 4.290 GB | DRAM R 0.654 -> 10.24 GB\n",
    );
    Ok((p2, p3, s))
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

/// Table VII / Figure 4 on a machine that admits every arm: the rows
/// and the rendered table.
pub fn table7(ctx: &ReproContext) -> Result<(Vec<Table7Row>, String), DeviceError> {
    let rows = (table7_arms(ctx).into_iter())
        .map(|(arm, times)| Ok((arm, times?)))
        .collect::<Result<Vec<Table7Row>, DeviceError>>()?;
    let paper = [
        (1211.45, 581.2, 2.08),
        (655.1, 360.1, 1.82),
        (471.7, 303.03, 1.56),
        (379.8, 397.1, 0.956),
    ];
    let mut s = String::from(
        "Table VII: total times, baseline vs final GPU version (10 simulated minutes)\n",
    );
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9}",
        "Config", "base (s)", "GPU (s)", "speedup", "paper-base", "paper-GPU", "paper-x"
    );
    for ((arm, t), (pb, pg, px)) in rows.iter().zip(paper) {
        let _ = writeln!(
            s,
            "{:<10} {:>10.1} {:>10.1} {:>8.2}x | {:>10.1} {:>10.1} {:>8.2}x",
            arm.label,
            t.baseline,
            t.gpu,
            t.speedup(),
            pb,
            pg,
            px
        );
    }
    Ok((rows, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> &'static ReproContext {
        ReproContext::quick_shared()
    }

    #[test]
    fn table3_shape() {
        let t = table3(ctx()).unwrap();
        assert!((1.2..2.8).contains(&t.rows[0].current), "{:?}", t.rows);
        assert!((1.05..2.2).contains(&t.rows[1].current));
        assert!(t.rendered.contains("paper"));
    }

    #[test]
    fn table4_and_5_shapes() {
        let c = ctx();
        let t4 = table4(c).unwrap();
        assert!(t4.rows[0].current > 3.0, "coal offload wins: {:?}", t4.rows);
        assert!(t4.rows[2].cumulative > 1.3, "overall cum {:?}", t4.rows[2]);
        let t5 = table5(c).unwrap();
        assert!(
            (3.0..40.0).contains(&t5.rows[0].current),
            "collapse(3) gain {:?}",
            t5.rows[0]
        );
        // Amdahl: overall gains shrink down the chain.
        assert!(t5.rows[2].current < t4.rows[2].current + 0.3);
        assert!(t5.rows[2].cumulative >= t4.rows[2].cumulative * 0.95);
        // The cumulative collision-loop column starts where the loop was
        // first measured (v2): at v3 it is the current gain; at v4 the
        // product of the two.
        assert_eq!(t4.rows[0].current, t4.rows[0].cumulative);
        let chained = t4.rows[0].current * t5.rows[0].current;
        assert!((t5.rows[0].cumulative / chained - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table6_shape() {
        let (p2, p3, t) = table6(ctx()).unwrap();
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
        assert!(t.contains("Achieved occupancy"));
    }

    #[test]
    fn table7_shape() {
        let (rows, t) = table7(ctx()).unwrap();
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
        assert!(t.contains("2 nodes"));
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

    /// Table I and the three-step timeline, byte for byte, on the quick
    /// context: two views of the same per-routine seconds (Σ over ranks,
    /// the critical rank alone).
    #[test]
    fn table1_shape() {
        assert_eq!(
            table1(ctx()).unwrap(),
            "\
Table I: time contribution (%) of the top hotspots
Routine               gprof     nsys  paper-gprof   paper-nsys
fast_sbm              42.93    59.52        51.39        77.07
rk_scalar_tend        31.22    22.14        28.07        10.15
rk_update_scalar       4.26     3.02         6.36         1.50
"
        );
        let exp = headline(ctx(), SbmVersion::Baseline).unwrap();
        assert_eq!(
            hotspots::nsys_timeline(&exp, 100),
            "\
timeline: 23.0901 s capture, 18 events
solve_em           |####################################################################################################|
  rk_scalar_tend     |########.........................########.........................#########.........................|
  rk_update_scalar   |.......##...............................##................................##........................|
  solve_em_other     |........######...........................######............................######...................|
  fast_sbm           |.............#####################............#####################.............####################|
  mpi_halo           |.................................#................................#................................#|
"
        );
    }
}
