//! Figures 3 and 4 of the paper.

use crate::context::ReproContext;
use crate::tables::{headline, table7, Table7Row};
use fsbm_core::bulk::{kessler_step, BulkState, KesslerParams};
use fsbm_core::kernels::{KernelMode, KernelTables};
use fsbm_core::meter::PointWork;
use fsbm_core::point::{Grids, PointBins, PointThermo};
use fsbm_core::processes::driver::fast_sbm_point;
use fsbm_core::scheme::SbmVersion;
use fsbm_core::thermo::qsat_liquid;
use fsbm_core::types::HydroClass;
use gpu_sim::launch::{launch_modeled, KernelWork};
use gpu_sim::roofline::{Roofline, RooflinePoint};
use gpu_sim::DeviceError;
use std::fmt::Write as _;

/// Figure 2 (executable form): bulk vs bin microphysics on the same
/// rising moist parcel. The paper's figure is an illustration; here the
/// two families actually run side by side, showing comparable water
/// budgets, the bin scheme's resolved spectrum, and the cost gap that
/// motivates the whole optimization effort.
pub fn fig2() -> String {
    let (t, p) = (288.0f32, 85_000.0f32);
    let qv0 = qsat_liquid(t, p) * 1.06;
    let steps = 60;

    // Bulk (Kessler).
    let mut bulk = BulkState {
        qv: qv0,
        qc: 0.0,
        qr: 0.0,
        t,
    };
    let params = KesslerParams::default();
    let mut w_bulk = PointWork::ZERO;
    for _ in 0..steps {
        kessler_step(&mut bulk, p, 5.0, &params, &mut w_bulk);
    }

    // Bin (FSBM point).
    let grids = Grids::new();
    let tables = KernelTables::new();
    let mut bins = PointBins::empty();
    let mut th = PointThermo {
        t,
        qv: qv0,
        p,
        rho: 1.0,
    };
    let mut w_bin = PointWork::ZERO;
    for _ in 0..steps {
        let mut view = bins.view();
        let told = th.t;
        let out = fast_sbm_point(
            &mut view,
            &mut th,
            &grids,
            KernelMode::OnDemand { tables: &tables, p },
            5.0,
            told,
        );
        w_bin += out.work.total();
    }
    let view = bins.view();
    let bin_cond = view.total_condensate(&grids, &mut w_bin);

    let mut s = String::from(
        "Figure 2 (executable): bulk vs bin microphysics on one moist parcel
",
    );
    let _ = writeln!(
        s,
        "  bulk (Kessler): qc = {:.3e}, qr = {:.3e} kg/kg  | cost {:>12} flops",
        bulk.qc, bulk.qr, w_bulk.flops
    );
    let _ = writeln!(
        s,
        "  bin  (FSBM)   : condensate = {:.3e} kg/kg       | cost {:>12} flops ({}x bulk)",
        bin_cond,
        w_bin.flops,
        w_bin.flops / w_bulk.flops.max(1)
    );
    let _ = writeln!(
        s,
        "  bin-resolved droplet spectrum (what bulk cannot represent):"
    );
    let gw = grids.of(HydroClass::Water);
    for (b, &n) in view.class(HydroClass::Water).iter().enumerate() {
        if n > 1.0 {
            let bar = "#".repeat((n.log10().max(0.0) * 3.0) as usize);
            let _ = writeln!(
                s,
                "    r={:>7.1} um  n={:>10.3e}/kg {bar}",
                gw.radius[b] * 1e6,
                n
            );
        }
    }
    s
}

/// Figure 3: roofline points of the collision kernel — collapse(2) and
/// collapse(3), each in single and double precision, against the A100
/// ceilings.
pub fn fig3(ctx: &ReproContext) -> Result<(Vec<RooflinePoint>, String), DeviceError> {
    let mut points = Vec::new();
    for (version, label) in [
        (SbmVersion::OffloadCollapse2, "collapse(2)"),
        (SbmVersion::OffloadCollapse3, "collapse(3)"),
    ] {
        let exp = headline(ctx, version)?;
        let launch = exp.critical().launch.clone().expect("offloaded");
        points.push(RooflinePoint::from_launch(&format!("{label} f32"), &launch));
        // Double-precision variant: same kernel with its FLOPs priced at
        // the FP64 rate and doubled memory traffic (the paper builds WRF
        // both ways; Fig. 3 shows both point pairs).
        let work64 = KernelWork {
            iters: launch.occupancy.grid_blocks * 128,
            flops_f32: 0.0,
            flops_f64: launch.flops,
            mem_ops: launch.flops, // same instruction mix scale
            dram_read_bytes: launch.dram_bytes * 2.0 / 3.0 * 2.0,
            dram_write_bytes: launch.dram_bytes / 3.0 * 2.0,
            warp_efficiency: 0.5,
        };
        let kspec = gpu_sim::launch::KernelSpec {
            name: format!("{label} f64"),
            stack_bytes_per_thread: 0,
            ..version.kernel_spec().expect("offloaded")
        };
        if let Ok(l64) = launch_modeled(&ctx.pp.gpu, &kspec, &work64) {
            points.push(RooflinePoint::from_launch(&format!("{label} f64"), &l64));
        }
    }
    let roof = Roofline::of(&ctx.pp.gpu);
    let mut s = String::from("Figure 3: GPU roofline of the collision kernel\n");
    s.push_str(&roof.render(&points));
    s.push_str(
        "paper: both versions sit deep in the memory-bound region; the full \
         collapse raises GFLOP/s sharply while *lowering* arithmetic \
         intensity (uncoalesced slab traffic)\n",
    );
    Ok((points, s))
}

/// Figure 4: elapsed-time bar groups (same data as Table VII plus the
/// lookup CPU bars).
pub fn fig4(ctx: &ReproContext) -> Result<(Vec<Table7Row>, String), DeviceError> {
    let (rows, _) = table7(ctx)?;
    let mut s =
        String::from("Figure 4: total elapsed time by configuration (baseline / lookup / GPU)\n");
    let max = rows
        .iter()
        .map(|(_, t)| t.baseline.max(t.lookup).max(t.gpu))
        .fold(0.0f64, f64::max);
    for (arm, t) in &rows {
        let _ = writeln!(s, "{}:", arm.label);
        for (name, v) in [
            ("baseline", t.baseline),
            ("lookup", t.lookup),
            ("gpu", t.gpu),
        ] {
            let bar = "#".repeat(((v / max) * 50.0).round() as usize);
            let _ = writeln!(s, "  {name:<9} {v:>8.1}s {bar}");
        }
    }
    s.push_str(
        "paper bars (baseline/GPU): 16r 1211/581 | 32r 655/360 | 64r 472/303 | \
         2 nodes 380/397\n",
    );
    Ok((rows, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_points_are_memory_bound_with_c3_faster() {
        let ctx = ReproContext::quick_shared();
        let (points, s) = fig3(ctx).unwrap();
        assert_eq!(points.len(), 4);
        let roof = Roofline::of(&ctx.pp.gpu);
        let c2 = points
            .iter()
            .find(|p| p.label == "collapse(2) f32")
            .unwrap();
        let c3 = points
            .iter()
            .find(|p| p.label == "collapse(3) f32")
            .unwrap();
        // Figure 3's two signatures: the full collapse lifts achieved
        // GFLOP/s sharply while *lowering* arithmetic intensity, and the
        // collapse(3) point sits in the memory-bound region. (Our cache
        // model gives the collapse(2) local-memory layout better locality
        // than NVHPC's spill-heavy reality, so its AI plots right of the
        // paper's — see EXPERIMENTS.md.)
        assert!(
            roof.memory_bound(c3.ai, false),
            "collapse(3) AI {} should be left of the ridge",
            c3.ai
        );
        assert!(
            c3.ai < c2.ai,
            "full collapse lowers AI: {} vs {}",
            c2.ai,
            c3.ai
        );
        assert!(
            c3.gflops > c2.gflops * 3.0,
            "full collapse lifts GFLOP/s: {} vs {}",
            c2.gflops,
            c3.gflops
        );
        assert!(s.contains("ridge"));
    }

    #[test]
    fn fig4_renders_bars() {
        let ctx = ReproContext::quick_shared();
        let (rows, s) = fig4(ctx).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(s.contains("2 nodes"));
        assert!(s.contains('#'));
    }
}
