//! Bin-resolved sedimentation (column sweep).
//!
//! Each bin falls at its terminal velocity; the column update is a
//! density-weighted upwind flux scheme with CFL sub-stepping. Returns the
//! precipitation mass delivered to the surface — the model's rain/snow
//! accumulation diagnostic.

use crate::bins::BinGrid;
use crate::meter::PointWork;
use crate::types::NKR;

/// Advances one class's column by `dt`. `col[l]` are the bin numbers at
/// level `l` (0 = surface, top = last), `rho[l]` the air densities,
/// `factor[l]` their fall-speed factors (`density_factor(rho[l])`, taken
/// once per column by the caller), `dz` the layer thickness in meters.
/// Returns surface precipitation, kg/m².
pub fn sedimentation_column(
    col: &mut [[f32; NKR]],
    grid: &BinGrid,
    rho: &[f32],
    factor: &[f32],
    dz: f32,
    dt: f32,
    w: &mut PointWork,
) -> f32 {
    assert_eq!(col.len(), rho.len(), "column and density length mismatch");
    assert_eq!(
        rho.len(),
        factor.len(),
        "density and factor length mismatch"
    );
    assert!(dz > 0.0 && dt > 0.0);
    let nz = col.len();
    if nz == 0 {
        return 0.0;
    }

    // CFL: sub-step so the fastest bin crosses at most one layer.
    let vmax = grid.vt_at(NKR - 1, rho.iter().cloned().fold(f32::INFINITY, f32::min));
    let nsub = ((vmax * dt / dz).ceil() as usize).max(1);
    let dts = dt / nsub as f32;
    w.f(6);

    let mut precip = 0.0f32;
    let mut flux = vec![0.0f32; nz + 1];
    for _ in 0..nsub {
        for (k, (mass_k, vt_k)) in grid.mass.iter().zip(&grid.vt).enumerate() {
            // Number flux through each interface: F_l = ρ_l n_l v (falling
            // from level l down through its lower face), v = `vt_at(k, ρ_l)`.
            for (l, (lvl, (rho_l, f_l))) in col.iter().zip(rho.iter().zip(factor)).enumerate() {
                flux[l] = rho_l * lvl[k] * (vt_k * f_l);
                w.fm(3, 2);
            }
            flux[nz] = 0.0;
            for (l, (lvl, rho_l)) in col.iter_mut().zip(rho).enumerate() {
                let dn = (flux[l + 1] - flux[l]) * dts / (rho_l * dz);
                lvl[k] = (lvl[k] + dn).max(0.0);
                w.fm(5, 2);
            }
            precip += flux[0] * dts * mass_k;
            w.f(3);
        }
    }
    precip
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::density_factor;
    use crate::point::Grids;
    use crate::types::HydroClass;

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
            precip_total +=
                sedimentation_column(&mut col, gw, &rho, &factors(&rho), dz, 5.0, &mut w) as f64;
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
            sedimentation_column(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
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
        let p = sedimentation_column(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
        assert!(p < 1e-8, "p = {p}");
    }

    #[test]
    fn empty_column_is_noop() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let rho = vec![1.0f32; 4];
        let mut col = vec![[0.0f32; NKR]; 4];
        let mut w = PointWork::ZERO;
        let p = sedimentation_column(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
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
        sedimentation_column(&mut col, gh, &rho, &factors(&rho), 50.0, 20.0, &mut w);
        for lvl in &col {
            for v in lvl {
                assert!(*v >= 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut col = vec![[0.0f32; NKR]; 3];
        let rho = vec![1.0f32; 4];
        let mut w = PointWork::ZERO;
        sedimentation_column(&mut col, gw, &rho, &factors(&rho), 400.0, 5.0, &mut w);
    }
}
