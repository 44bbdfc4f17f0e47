//! Property-based tests of the core invariants (proptest).

use fsbm_core::bins::density_factor;
use fsbm_core::kernels::{kernals_ks, CollisionTables, KernelMode, KernelTables};
use fsbm_core::meter::PointWork;
use fsbm_core::panels::{
    one_lane, panel_coal, sedimentation_column_soa, DepositSplits, SedScratch, LANES,
};
use fsbm_core::point::{deposit_mass, Grids, PointBins, PointThermo};
use fsbm_core::types::{HydroClass, NKR};
use fsbm_core::workload::warp_efficiency;
use gpu_sim::cachesim::{CacheConfig, CacheSim, MemAccess};
use gpu_sim::machine::A100;
use gpu_sim::occupancy::occupancy_for;
use proptest::prelude::*;
use wrf_grid::Span;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Span::split always partitions: chunks are contiguous, ordered, and
    /// cover exactly the original span.
    #[test]
    fn span_split_partitions(lo in -50i32..50, len in 0i32..200, parts in 1usize..17) {
        let s = Span::new(lo, lo + len - 1);
        let chunks = s.split(parts);
        prop_assert_eq!(chunks.len(), parts);
        let total: usize = chunks.iter().map(Span::len).sum();
        prop_assert_eq!(total, s.len());
        let mut expect_lo = s.lo;
        for c in &chunks {
            prop_assert_eq!(c.lo, expect_lo);
            expect_lo = c.hi + 1;
        }
        prop_assert_eq!(expect_lo, s.hi + 1);
    }

    /// deposit_mass conserves mass for any target mass and count, and
    /// conserves number whenever the mass lands inside the grid.
    #[test]
    fn deposit_conserves(mass_exp in -2.0f32..40.0, number in 1.0f32..1.0e8) {
        let grids = Grids::new();
        let g = grids.of(HydroClass::Water);
        let m = g.mass[0] * (2.0f32).powf(mass_exp);
        let mut target = vec![0.0f32; NKR];
        let mut w = PointWork::ZERO;
        deposit_mass(&mut target, g, m, number, &mut w);
        let mass_out: f64 = target.iter().zip(&g.mass).map(|(n, mm)| (*n as f64) * (*mm as f64)).sum();
        let expect = number as f64 * m as f64;
        prop_assert!((mass_out - expect).abs() / expect < 1e-4,
            "mass {} vs {}", mass_out, expect);
        if m >= g.mass[0] && m <= g.mass[NKR - 1] {
            let n_out: f64 = target.iter().map(|&n| n as f64).sum();
            prop_assert!((n_out - number as f64).abs() / (number as f64) < 1e-4);
        }
        prop_assert!(target.iter().all(|&v| v >= 0.0));
    }

    /// Collision never produces negative bins and conserves total
    /// condensate mass, for arbitrary occupied spectra.
    #[test]
    fn collision_mass_conserving(
        seed_bins in proptest::collection::vec((0usize..NKR, 1.0f32..1.0e8), 1..12),
        t in 235.0f32..300.0,
        dt in 0.5f32..20.0,
    ) {
        let grids = Grids::new();
        let tables = KernelTables::new();
        let mut b = PointBins::empty();
        for (bin, n) in seed_bins {
            b.n[0][bin] += n;
        }
        let mut th = PointThermo { t, qv: 0.003, p: 70_000.0, rho: 0.9 };
        let mut w = PointWork::ZERO;
        let mut v = b.view();
        let before = v.total_condensate(&grids, &mut w) as f64;
        let kernels = KernelMode::OnDemand { tables: &tables, p: 70_000.0 };
        let splits = DepositSplits::new(&grids);
        let (mut works, mut entries) = ([PointWork::ZERO; LANES], [0u64; LANES]);
        one_lane(&mut v, &mut th, |panel| {
            panel_coal(panel, &grids, kernels, &splits, dt, &mut works, &mut entries)
        });
        let after = v.total_condensate(&grids, &mut w) as f64;
        prop_assert!((after - before).abs() / before.max(1e-30) < 5e-3,
            "condensate {} -> {}", before, after);
        for c in 0..7 {
            for k in 0..NKR {
                prop_assert!(v.n[c][k] >= 0.0);
            }
        }
    }

    /// Dense tables and on-demand lookups agree for every entry at any
    /// pressure (the §VI-A exactness guarantee).
    #[test]
    fn dense_equals_ondemand(p in 40_000.0f32..101_000.0, pair in 0usize..20,
                             i in 0usize..NKR, j in 0usize..NKR) {
        let tables = KernelTables::new();
        let mut dense = CollisionTables::new();
        let mut w = PointWork::ZERO;
        kernals_ks(&tables, p, &mut dense, &mut w);
        prop_assert_eq!(dense.get(pair, i, j, &mut w), tables.entry(pair, i, j, p, &mut w));
    }

    /// Sedimentation: column mass + surface precipitation is conserved
    /// and nothing goes negative.
    #[test]
    fn sedimentation_budget(
        fills in proptest::collection::vec((0usize..8, 0usize..NKR, 1.0f32..1.0e6), 1..10),
        dt in 1.0f32..30.0,
    ) {
        let grids = Grids::new();
        let g = grids.of(HydroClass::Water);
        let nz = 8;
        let dz = 400.0f32;
        let rho = vec![1.0f32; nz];
        // The column bin-major: bin `k` at level `l` is `bins[k * nz + l]`.
        let mut col = SedScratch::new();
        col.ensure(nz);
        for (l, k, n) in fills {
            col.bins[k * nz + l] += n;
        }
        let mass = |c: &SedScratch| -> f64 {
            c.bins.chunks_exact(nz).zip(&g.mass)
                .flat_map(|(levels, m)| levels.iter().map(move |n| (*n as f64) * (*m as f64)))
                .sum::<f64>() * dz as f64
        };
        let before = mass(&col);
        let mut w = PointWork::ZERO;
        let factor: Vec<f32> = rho.iter().map(|&r| density_factor(r)).collect();
        let precip = sedimentation_column_soa(&mut col, g, &rho, &factor, dz, dt, &mut w) as f64;
        let after = mass(&col);
        prop_assert!((after + precip - before).abs() / before.max(1e-30) < 1e-3,
            "{} + {} vs {}", after, precip, before);
        prop_assert!(col.bins.iter().all(|&v| v >= 0.0));
    }

    /// Occupancy is always within [0, 1], achieved ≤ theoretical, and at
    /// least one block is resident for any legal launch.
    #[test]
    fn occupancy_bounds(blocks in 1u64..2_000_000, threads in 1u32..9,
                        regs in 16u32..256, smem in 0u32..65_536) {
        let occ = occupancy_for(&A100, blocks, threads * 128, regs.min(255), smem);
        prop_assert!(occ.resident_blocks_per_sm >= 1 || smem > A100.smem_per_sm
            || occ.resident_blocks_per_sm == 0);
        prop_assert!(occ.theoretical >= 0.0 && occ.theoretical <= 1.0);
        prop_assert!(occ.achieved >= 0.0 && occ.achieved <= occ.theoretical + 1e-12);
        prop_assert!(occ.waves >= 1);
    }

    /// Cache hit + miss counts always equal the probe count, and DRAM
    /// traffic never exceeds line-granular demand.
    #[test]
    fn cache_accounting(addrs in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 1..500)) {
        let cfg1 = CacheConfig { bytes: 4096, ways: 4, line: 32 };
        let cfg2 = CacheConfig { bytes: 65_536, ways: 8, line: 32 };
        let mut sim = CacheSim::new(2, cfg1, cfg2);
        for (i, (addr, write)) in addrs.iter().enumerate() {
            sim.access(i % 2, MemAccess { addr: *addr, bytes: 4, write: *write });
        }
        let s = sim.finish();
        // A 4-byte access may straddle two 32-byte lines: between one and
        // two probes per access.
        let probes = s.l1_hits + s.l1_misses;
        prop_assert!(probes >= addrs.len() as u64);
        prop_assert!(probes <= 2 * addrs.len() as u64);
        prop_assert!(s.dram_read_bytes <= probes * 32);
        prop_assert!(s.l2_hits + s.l2_misses <= probes);
    }

    /// Warp efficiency is in (0, 1] for any activity mask.
    #[test]
    fn warp_eff_bounds(mask in proptest::collection::vec(any::<bool>(), 1..512)) {
        let e = warp_efficiency(&mask, 32);
        prop_assert!(e > 0.0 && e <= 1.0);
    }
}
