//! Figures 2–4 of the paper, as data: where a figure is a picture its
//! bars come with the numbers they draw.

use crate::context::ReproContext;
use crate::tables::{headline, Table7Row, Table7Times};
use fsbm_core::bulk::{kessler_step, BulkState, KesslerParams};
use fsbm_core::kernels::{KernelMode, KernelTables};
use fsbm_core::meter::PointWork;
use fsbm_core::panels::DepositSplits;
use fsbm_core::point::{Grids, PointBins, PointThermo};
use fsbm_core::processes::driver::fast_sbm_point;
use fsbm_core::scheme::SbmVersion;
use fsbm_core::thermo::qsat_liquid;
use fsbm_core::types::HydroClass;
use gpu_sim::launch::{launch_modeled, KernelWork};
use gpu_sim::roofline::RooflinePoint;
use gpu_sim::DeviceError;

/// Figure 2 as run: each scheme's water after the same parcel steps,
/// and the bin scheme's droplet spectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// `(what, kg/kg, cost flops)`: bulk cloud and rain water, then the
    /// bin condensate; each scheme's cost on its first row.
    pub water: [(&'static str, f32, Option<u64>); 3],
    /// Every liquid bin above 1 /kg: `(radius µm, number /kg, bar)`, the
    /// bar three `#` a decade.
    pub spectrum: Vec<(f32, f32, String)>,
}

/// Figure 2 (executable form): bulk vs bin microphysics on the same
/// rising moist parcel. The paper's figure is an illustration; here the
/// two families actually run side by side, showing comparable water
/// budgets, the bin scheme's resolved spectrum, and the cost gap that
/// motivates the whole optimization effort.
pub fn fig2() -> Fig2 {
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
    let splits = DepositSplits::new(&grids);
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
            &splits,
            5.0,
            told,
        );
        w_bin += out.work.total();
    }
    let view = bins.view();
    let bin_cond = view.total_condensate(&grids, &mut w_bin);

    let gw = grids.of(HydroClass::Water);
    let spectrum = (view.class(HydroClass::Water).iter().enumerate())
        .filter(|(_, &n)| n > 1.0)
        .map(|(b, &n)| {
            let bar = "#".repeat((n.log10().max(0.0) * 3.0) as usize);
            (gw.radius[b] * 1e6, n, bar)
        })
        .collect();
    Fig2 {
        water: [
            ("bulk qc", bulk.qc, Some(w_bulk.flops)),
            ("bulk qr", bulk.qr, None),
            ("bin condensate", bin_cond, Some(w_bin.flops)),
        ],
        spectrum,
    }
}

/// Figure 3: roofline points of the collision kernel — collapse(2) and
/// collapse(3), each in single and double precision, against the A100
/// ceilings.
pub fn fig3(ctx: &ReproContext) -> Result<Vec<RooflinePoint>, DeviceError> {
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
    Ok(points)
}

/// Figure 4: elapsed-time bar groups of Table VII's arms, one
/// `(config, side, secs, bar)` per arm and side (`baseline`, `lookup`,
/// `gpu`), the longest bar of the figure 50 `#` wide.
pub fn fig4(rows: &[Table7Row]) -> Vec<(&'static str, &'static str, f64, String)> {
    let sides = |t: &Table7Times| {
        [
            ("baseline", t.baseline),
            ("lookup", t.lookup),
            ("gpu", t.gpu),
        ]
    };
    let max = (rows.iter().flat_map(|(_, t)| sides(t))).fold(0.0f64, |m, (_, v)| m.max(v));
    (rows.iter())
        .flat_map(|(arm, t)| sides(t).map(|(side, secs)| (arm.label, side, secs)))
        .map(|(config, side, secs)| {
            let bar = "#".repeat(((secs / max) * 50.0).round() as usize);
            (config, side, secs, bar)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_points_are_memory_bound_with_c3_faster() {
        let ctx = ReproContext::quick_shared();
        let points = fig3(ctx).unwrap();
        assert_eq!(points.len(), 4);
        let roof = gpu_sim::roofline::Roofline::of(&ctx.pp.gpu);
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
    }

    #[test]
    fn fig4_renders_bars() {
        let ctx = ReproContext::quick_shared();
        let bars = fig4(&crate::tables::table7(ctx).unwrap());
        assert_eq!(bars.len(), 12);
        assert_eq!((bars[11].0, bars[11].1), ("2 nodes", "gpu"));
        // The longest bar is 50 wide; every bar is as long as its share.
        let max = bars.iter().map(|b| b.2).fold(0.0, f64::max);
        for b in &bars {
            assert_eq!(b.3.len(), (b.2 / max * 50.0).round() as usize, "{b:?}");
        }
        assert!(bars.iter().any(|b| b.3.len() == 50));
    }
}
