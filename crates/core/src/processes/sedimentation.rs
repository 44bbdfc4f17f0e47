//! Bin-resolved sedimentation (column sweep).
//!
//! Each bin falls at its terminal velocity; the column update is a
//! density-weighted upwind flux scheme with CFL sub-stepping. It returns
//! the precipitation mass delivered to the surface — the model's rain/snow
//! accumulation diagnostic. The body is
//! [`crate::panels::sedimentation_column_soa`], which holds one class's
//! column bin-major.

#[cfg(test)]
mod tests {
    use crate::bins::{density_factor, BinGrid};
    use crate::meter::PointWork;
    use crate::panels::{sedimentation_column_soa, SedScratch};
    use crate::point::Grids;
    use crate::types::{HydroClass, NKR};

    /// One class's `[level][bin]` column falling over `dt`: held bin-major
    /// while it falls, then stored back. Returns the surface
    /// precipitation, kg/m².
    fn fall(
        col: &mut [[f32; NKR]],
        grid: &BinGrid,
        rho: &[f32],
        factor: &[f32],
        dz: f32,
        dt: f32,
        w: &mut PointWork,
    ) -> f32 {
        let nz = col.len();
        let mut scratch = SedScratch::new();
        scratch.ensure(nz);
        for (l, lvl) in col.iter().enumerate() {
            for (k, &v) in lvl.iter().enumerate() {
                scratch.bins[k * nz + l] = v;
            }
        }
        let precip = sedimentation_column_soa(&mut scratch, grid, rho, factor, dz, dt, w);
        for (l, lvl) in col.iter_mut().enumerate() {
            for (k, v) in lvl.iter_mut().enumerate() {
                *v = scratch.bins[k * nz + l];
            }
        }
        precip
    }

    fn grids() -> Grids {
        Grids::new()
    }

    fn factors(rho: &[f32]) -> Vec<f32> {
        rho.iter().map(|&r| density_factor(r)).collect()
    }

    #[test]
    fn mass_plus_precip_is_conserved() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let nz = 10;
        let dz = 400.0;
        let rho = vec![1.0f32; nz];
        let mut col = vec![[0.0f32; NKR]; nz];
        // Rain shaft aloft.
        for lvl in col.iter_mut().take(9).skip(5) {
            lvl[25] = 1.0e4;
            lvl[20] = 5.0e4;
        }
        let column_mass = |c: &[[f32; NKR]]| -> f64 {
            let mut s = 0.0f64;
            for (lvl, rho_l) in c.iter().zip(&rho) {
                for (n, m) in lvl.iter().zip(&gw.mass) {
                    s += (n * m) as f64 * *rho_l as f64 * dz as f64;
                }
            }
            s
        };
        let before = column_mass(&col);
        let mut w = PointWork::ZERO;
        let mut precip_total = 0.0f64;
        for _ in 0..200 {
            precip_total += fall(&mut col, gw, &rho, &factors(&rho), dz, 5.0, &mut w) as f64;
        }
        let after = column_mass(&col);
        let balance = (after + precip_total - before).abs() / before;
        assert!(
            balance < 1e-3,
            "imbalance {balance}: {before} -> {after} + {precip_total}"
        );
        assert!(precip_total > 0.0, "rain must reach the surface");
    }

    #[test]
    fn big_bins_fall_faster() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let nz = 20;
        let rho = vec![1.0f32; nz];
        let mut col = vec![[0.0f32; NKR]; nz];
        col[15][28] = 1.0e3; // large rain
        col[15][8] = 1.0e3; // cloud droplets
        let mut w = PointWork::ZERO;
        for _ in 0..60 {
            fall(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
        }
        // Large drops have (numerically-diffusively) left level 15; cloud
        // droplets essentially haven't moved (vt ~ cm/s).
        assert!(col[15][28] < 100.0, "rain remaining {}", col[15][28]);
        assert!(col[15][8] > 0.95e3, "droplets remaining {}", col[15][8]);
    }

    #[test]
    fn cloud_droplets_dont_precipitate() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let rho = vec![1.0f32; 5];
        let mut col = vec![[0.0f32; NKR]; 5];
        col[4][5] = 1.0e7;
        let mut w = PointWork::ZERO;
        let p = fall(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
        assert!(p < 1e-8, "p = {p}");
    }

    #[test]
    fn empty_column_is_noop() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let rho = vec![1.0f32; 4];
        let mut col = vec![[0.0f32; NKR]; 4];
        let mut w = PointWork::ZERO;
        let p = fall(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
        assert_eq!(p, 0.0);
        assert!(col.iter().all(|l| l.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn cfl_substepping_keeps_positivity() {
        let g = grids();
        let gh = g.of(HydroClass::Hail);
        // Thin layers + long dt force many substeps for fast hail.
        let rho = vec![0.7f32; 8];
        let mut col = vec![[0.0f32; NKR]; 8];
        col[6][NKR - 1] = 100.0;
        let mut w = PointWork::ZERO;
        fall(&mut col, gh, &rho, &factors(&rho), 50.0, 20.0, &mut w);
        for lvl in &col {
            for v in lvl {
                assert!(*v >= 0.0);
            }
        }
    }

    /// The body sizes the column from the densities, so the lengths that
    /// can disagree are the densities' and the fall-speed factors'.
    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut col = vec![[0.0f32; NKR]; 4];
        let rho = vec![1.0f32; 4];
        let mut w = PointWork::ZERO;
        fall(&mut col, gw, &rho, &factors(&rho[..3]), 400.0, 5.0, &mut w);
    }
}
