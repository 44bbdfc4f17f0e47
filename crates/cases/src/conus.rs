//! Synthetic CONUS-12km thunderstorm case.
//!
//! The real benchmark drives WRF with reanalysis over the continental
//! United States; the FSBM-relevant characteristics are (a) grid shape
//! 425 × 300 × 50 at 12 km spacing, (b) a *sparse* population of
//! convective storms clustered along frontal systems (most columns are
//! cloud-free), and (c) enough CAPE/moisture that storms precipitate
//! within minutes. This generator reproduces those characteristics from
//! a seeded RNG; everything else about the real dataset is irrelevant to
//! the paper's claims (see DESIGN.md substitutions).

use crate::library::{CaseWind, Moisture, Placement, Sounding};
use fsbm_core::point::PointBins;
use fsbm_core::state::SbmPatchState;
use fsbm_core::thermo::{air_density, qsat_liquid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wrf_grid::{Domain, PatchSpec};

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConusParams {
    /// West–east points.
    pub nx: i32,
    /// South–north points.
    pub ny: i32,
    /// Vertical levels.
    pub nz: i32,
    /// Horizontal spacing, m.
    pub dx: f32,
    /// Vertical spacing, m.
    pub dz: f32,
    /// Model time step, s.
    pub dt: f32,
    /// Number of convective cells.
    pub n_storms: usize,
    /// RNG seed (deterministic scenarios).
    pub seed: u64,
    /// Base-state column (shared builder; see `library::Sounding`).
    pub sounding: Sounding,
    /// Moisture and CCN loading.
    pub moisture: Moisture,
    /// Storm placement pattern.
    pub placement: Placement,
    /// Kinematic wind parameters.
    pub wind: CaseWind,
}

impl ConusParams {
    /// The full-scale CONUS-12km configuration of the paper.
    pub fn full() -> Self {
        ConusParams {
            nx: 425,
            ny: 300,
            nz: 50,
            dx: 12_000.0,
            dz: 400.0,
            dt: 5.0,
            n_storms: 150,
            seed: 20240917,
            sounding: Sounding::CONUS,
            moisture: Moisture::CONUS,
            placement: Placement::Clustered,
            wind: CaseWind::CONUS,
        }
    }

    /// A proportionally scaled-down configuration for functional runs:
    /// `scale = 1.0` is full size; `scale = 0.1` gives 42 × 30 columns.
    /// Vertical levels and physics are unchanged.
    pub fn at_scale(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        let full = Self::full();
        ConusParams {
            nx: ((full.nx as f64 * scale).round() as i32).max(8),
            ny: ((full.ny as f64 * scale).round() as i32).max(8),
            n_storms: ((full.n_storms as f64 * scale * scale).round() as usize).max(3),
            ..full
        }
    }

    /// The model domain.
    pub fn domain(&self) -> Domain {
        Domain::new(self.nx, self.nz, self.ny)
    }
}

/// One convective cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormCell {
    /// Center, grid coordinates.
    pub x: f32,
    /// Center, grid coordinates.
    pub y: f32,
    /// Gaussian radius, grid cells.
    pub radius: f32,
    /// Peak intensity 0–1.
    pub intensity: f32,
}

/// A generated scenario.
#[derive(Debug, Clone)]
pub struct ConusCase {
    /// Parameters the case was built from.
    pub params: ConusParams,
    /// The storm population.
    pub storms: Vec<StormCell>,
}

/// Cloud-factor threshold above which a column carries cloud water.
pub const CLOUD_THRESHOLD: f32 = 0.25;

impl ConusCase {
    /// Generates the storm population per the case's
    /// [`Placement`]. Every arm draws from the seeded RNG in a fixed
    /// call order, so scenarios stay deterministic per seed; the
    /// `Clustered` arm reproduces the original CONUS stream verbatim
    /// (the committed gate goldens depend on it).
    pub fn new(params: ConusParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let nx = params.nx as f32;
        let ny = params.ny as f32;
        let min_span = params.nx.min(params.ny) as f32;
        let storms = match params.placement {
            // Widespread convection: many frontal clusters across the
            // whole domain (every 16-rank patch sees storms, as in the
            // real case), with enough clustering that some patches carry
            // ~2x the mean — the Table I gprof-vs-nsys gap.
            Placement::Clustered => {
                let n_clusters = (params.n_storms / 6).max(1);
                let clusters: Vec<(f32, f32)> = (0..n_clusters)
                    .map(|_| {
                        (
                            rng.gen_range(0.05..0.95) * params.nx as f32,
                            rng.gen_range(0.05..0.95) * params.ny as f32,
                        )
                    })
                    .collect();
                let spread = 0.30 * params.nx.min(params.ny) as f32;
                (0..params.n_storms)
                    .map(|s| {
                        let (cx, cy) = clusters[s % n_clusters];
                        StormCell {
                            x: cx + rng.gen_range(-1.0f32..1.0) * spread,
                            y: cy + rng.gen_range(-1.0f32..1.0) * spread,
                            radius: rng.gen_range(2.0f32..6.0),
                            intensity: rng.gen_range(0.5f32..1.0),
                        }
                    })
                    .collect()
            }
            // Strong cells strung along a SW–NE line with small jitter.
            Placement::Line => (0..params.n_storms)
                .map(|s| {
                    let frac = (s as f32 + 0.5) / params.n_storms as f32;
                    StormCell {
                        x: (0.12 + 0.76 * frac) * nx + rng.gen_range(-0.8f32..0.8),
                        y: (0.12 + 0.76 * frac) * ny + rng.gen_range(-0.8f32..0.8),
                        radius: (0.095 * min_span).max(1.2) * rng.gen_range(0.9f32..1.1),
                        intensity: rng.gen_range(0.75f32..1.0),
                    }
                })
                .collect(),
            // One dominant deep cell near the domain center; remaining
            // storm slots become small flankers.
            Placement::Single => {
                let mut v = vec![StormCell {
                    x: 0.52 * nx,
                    y: 0.48 * ny,
                    radius: (0.30 * min_span).max(2.5),
                    intensity: 1.0,
                }];
                for _ in 1..params.n_storms.max(1) {
                    v.push(StormCell {
                        x: (0.2 + 0.6 * rng.gen_range(0.0f32..1.0)) * nx,
                        y: (0.2 + 0.6 * rng.gen_range(0.0f32..1.0)) * ny,
                        radius: (0.07 * min_span).max(1.0),
                        intensity: rng.gen_range(0.5f32..0.7),
                    });
                }
                v
            }
            // Moderate cells pinned to a fixed zonal band (the ridge).
            Placement::Ridge => (0..params.n_storms)
                .map(|s| {
                    let frac = (s as f32 + 0.5) / params.n_storms as f32;
                    StormCell {
                        x: frac * nx,
                        y: 0.38 * ny + rng.gen_range(-0.6f32..0.6),
                        radius: (0.085 * min_span).max(1.0),
                        intensity: rng.gen_range(0.55f32..0.8),
                    }
                })
                .collect(),
            // Many small weak cells spread uniformly over open water.
            Placement::Scattered => (0..params.n_storms)
                .map(|_| StormCell {
                    x: rng.gen_range(0.08f32..0.92) * nx,
                    y: rng.gen_range(0.08f32..0.92) * ny,
                    radius: (0.055 * min_span).max(0.7),
                    intensity: rng.gen_range(0.28f32..0.42),
                })
                .collect(),
        };
        ConusCase { params, storms }
    }

    /// The same scenario viewed from a refined child grid: the region of
    /// `ratio × ratio` child cells per parent cell starting at parent
    /// cell `(i0, j0)` and spanning `w × h` parent cells. Storm centers
    /// and radii are mapped into child index coordinates (child cell
    /// `ic` sits at parent coordinate `i0 - 0.5 + (ic - 0.5)/ratio`), so
    /// the child's analytic cloud field is the parent's, sampled finer.
    /// `dx` and `dt` shrink by `ratio`; the sounding column is
    /// unchanged. Used by one-way nesting and its solo-fine reference.
    pub fn refined(&self, ratio: i32, i0: i32, j0: i32, w: i32, h: i32) -> ConusCase {
        assert!(ratio >= 1 && w >= 1 && h >= 1);
        let r = ratio as f32;
        let params = ConusParams {
            nx: w * ratio,
            ny: h * ratio,
            dx: self.params.dx / r,
            dt: self.params.dt / r,
            wind: CaseWind {
                // Same physical wavelength on the finer spacing.
                cell_wavelength: self.params.wind.cell_wavelength * r,
                // Phase offsets place child cell `ic` at parent index
                // coordinate `i0 - 0.5 + (ic - 0.5)/ratio`, so the
                // child's kinematic wind IS the parent's, sampled finer.
                x_offset: (i0 as f32 - 0.5) * r - 0.5 + self.params.wind.x_offset * r,
                j_offset: (j0 as f32 - 0.5) * r - 0.5 + self.params.wind.j_offset * r,
                j_period: self.params.wind.j_period * r,
                ..self.params.wind
            },
            ..self.params
        };
        let storms = self
            .storms
            .iter()
            .map(|s| StormCell {
                x: (s.x - i0 as f32 + 0.5) * r + 0.5,
                y: (s.y - j0 as f32 + 0.5) * r + 0.5,
                radius: s.radius * r,
                intensity: s.intensity,
            })
            .collect();
        ConusCase { params, storms }
    }

    /// Convective "cloudiness" of column `(i, j)`, 0–1 (analytic, cheap
    /// enough to evaluate for every full-scale column).
    pub fn cloud_factor(&self, i: i32, j: i32) -> f32 {
        let mut f: f32 = 0.0;
        for s in &self.storms {
            let dx = i as f32 - s.x;
            let dy = j as f32 - s.y;
            let d2 = (dx * dx + dy * dy) / (2.0 * s.radius * s.radius);
            if d2 < 9.0 {
                f = f.max(s.intensity * (-d2).exp());
            }
        }
        f.min(1.0)
    }

    /// True when the column hosts convection.
    pub fn column_active(&self, i: i32, j: i32) -> bool {
        self.cloud_factor(i, j) > CLOUD_THRESHOLD
    }

    /// Base-state temperature at level `k` (1-based), K — through the
    /// case's shared [`Sounding`] column builder.
    pub fn temperature(&self, k: i32) -> f32 {
        let z = (k - 1) as f32 * self.params.dz;
        self.params.sounding.temperature(z)
    }

    /// Hydrostatic pressure at level `k`, Pa — through the case's shared
    /// [`Sounding`] column builder.
    pub fn pressure(&self, k: i32) -> f32 {
        let z = (k - 1) as f32 * self.params.dz;
        self.params.sounding.pressure(z)
    }

    /// Initializes one rank's patch state from the analytic case.
    pub fn init_state(&self, patch: &PatchSpec) -> SbmPatchState {
        let m = self.params.moisture;
        let mut st = SbmPatchState::new(*patch);
        // Base state over the full memory span (halo included, so the
        // first exchange is consistent).
        for j in patch.jm.iter() {
            for k in patch.km.iter() {
                for i in patch.im.iter() {
                    let t = self.temperature(k);
                    let p = self.pressure(k);
                    st.tt.set(i, k, j, t);
                    st.p.set(i, k, j, p);
                    st.rho.set(i, k, j, air_density(t, p));
                    let cf = self.cloud_factor(i, j);
                    let z = (k - 1) as f32 * self.params.dz;
                    // Moist boundary layer, drier aloft; storms nearly
                    // saturated through their depth.
                    let rh_bg = if z < m.bl_depth { m.rh_bl } else { m.rh_aloft };
                    let rh = if cf > CLOUD_THRESHOLD && z < m.storm_depth {
                        (m.rh_storm_base + m.rh_storm_gain * cf).min(1.01)
                    } else {
                        rh_bg
                    };
                    st.qv.set(i, k, j, rh * qsat_liquid(t, p));
                }
            }
        }
        // Seed droplet spectra in convective columns below the case's
        // seeding top (the storms are already raining in the benchmark).
        for j in patch.jm.iter() {
            for i in patch.im.iter() {
                let cf = self.cloud_factor(i, j);
                if cf <= CLOUD_THRESHOLD {
                    continue;
                }
                for k in patch.km.iter() {
                    let z = (k - 1) as f32 * self.params.dz;
                    if z > m.seed_top {
                        continue;
                    }
                    let mut bins = PointBins::empty();
                    for b in 6..=14 {
                        bins.n[0][b] = m.ccn_per_bin * cf * (1.0 - z / m.storm_depth);
                    }
                    // Some drizzle so collisions start immediately.
                    bins.n[0][18] = m.drizzle * cf;
                    st.store_bins(i, k, j, &bins);
                }
            }
        }
        st
    }

    /// Analytic per-patch activity statistics (no state allocation), used
    /// by the performance model at full scale.
    pub fn activity(&self, patch: &PatchSpec) -> ActivityStats {
        let mut active_columns = 0usize;
        for j in patch.jp.iter() {
            for i in patch.ip.iter() {
                if self.cloud_factor(i, j) > CLOUD_THRESHOLD {
                    active_columns += 1;
                }
            }
        }
        ActivityStats {
            columns: patch.compute_columns(),
            active_columns,
        }
    }

    /// Number of model steps for a simulation of `minutes`.
    pub fn steps_for_minutes(&self, minutes: f64) -> usize {
        ((minutes * 60.0) / self.params.dt as f64).round() as usize
    }
}

/// Column-activity summary of a patch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityStats {
    /// Total compute columns.
    pub columns: usize,
    /// Columns hosting convection.
    pub active_columns: usize,
}

impl ActivityStats {
    /// Active fraction of the patch.
    pub fn active_fraction(&self) -> f64 {
        if self.columns == 0 {
            0.0
        } else {
            self.active_columns as f64 / self.columns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrf_grid::two_d_decomposition;

    #[test]
    fn full_case_matches_paper_grid() {
        let p = ConusParams::full();
        assert_eq!((p.nx, p.ny, p.nz), (425, 300, 50));
        assert_eq!(p.dt, 5.0);
        let d = p.domain();
        assert_eq!(d.points(), 425 * 300 * 50);
        let case = ConusCase::new(p);
        assert_eq!(case.steps_for_minutes(10.0), 120);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = ConusCase::new(ConusParams::full());
        let b = ConusCase::new(ConusParams::full());
        assert_eq!(a.storms, b.storms);
        let mut c = ConusParams::full();
        c.seed += 1;
        let c = ConusCase::new(c);
        assert_ne!(a.storms, c.storms);
    }

    #[test]
    fn activity_is_sparse_most_columns_clear() {
        let case = ConusCase::new(ConusParams::full());
        let d = case.params.domain();
        let dd = two_d_decomposition(d, 1, 2);
        let act = case.activity(&dd.patches[0]);
        let f = act.active_fraction();
        assert!(
            (0.01..0.35).contains(&f),
            "active fraction {f} should be sparse"
        );
    }

    #[test]
    fn activity_is_imbalanced_across_16_patches() {
        // The §VIII load-imbalance premise: some ranks own storm alleys.
        let case = ConusCase::new(ConusParams::full());
        let dd = two_d_decomposition(case.params.domain(), 16, 3);
        let fracs: Vec<f64> = dd
            .patches
            .iter()
            .map(|p| case.activity(p).active_fraction())
            .collect();
        let max = fracs.iter().cloned().fold(0.0, f64::max);
        let mean: f64 = fracs.iter().sum::<f64>() / fracs.len() as f64;
        assert!(
            max > 1.3 * mean,
            "imbalance expected: mean {mean:.3} max {max:.3}"
        );
        assert!(
            fracs.iter().all(|&f| f > 0.0),
            "convection is widespread: every patch sees storms"
        );
    }

    #[test]
    fn hydrostatic_profile_sane() {
        let case = ConusCase::new(ConusParams::full());
        assert!((case.pressure(1) - 101_325.0).abs() < 1.0);
        assert!(case.pressure(50) < case.pressure(1) / 2.0);
        assert!(case.temperature(1) == 300.0);
        assert!(case.temperature(50) < 240.0);
        // Pressure decreases monotonically.
        for k in 2..=50 {
            assert!(case.pressure(k) < case.pressure(k - 1));
        }
    }

    #[test]
    fn init_state_cloudy_where_storms_are() {
        let params = ConusParams::at_scale(0.08);
        let case = ConusCase::new(params);
        let dd = two_d_decomposition(params.domain(), 1, 2);
        let st = case.init_state(&dd.patches[0]);
        assert!(st.total_condensate_sum() > 0.0, "storms must carry water");
        // Find an active and an inactive column and compare.
        let p = dd.patches[0];
        let mut active_found = false;
        let mut clear_found = false;
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                let q: f32 = st.ff[0].bin_slice(i, 2, j).iter().sum();
                if case.column_active(i, j) {
                    active_found |= q > 0.0;
                } else {
                    assert_eq!(q, 0.0, "clear column ({i},{j}) has droplets");
                    clear_found = true;
                }
            }
        }
        assert!(active_found && clear_found);
    }

    #[test]
    fn refined_with_ratio_one_is_identity() {
        let case = ConusCase::new(ConusParams::at_scale(0.05));
        let child = case.refined(1, 1, 1, case.params.nx, case.params.ny);
        assert_eq!(child.params, case.params);
        assert_eq!(child.storms, case.storms);
    }

    #[test]
    fn refined_child_samples_the_parent_cloud_field() {
        let case = ConusCase::new(ConusParams::at_scale(0.05));
        let (ratio, i0, j0, w, h) = (2, 7, 5, 8, 6);
        let child = case.refined(ratio, i0, j0, w, h);
        assert_eq!((child.params.nx, child.params.ny), (w * ratio, h * ratio));
        assert_eq!(child.params.dx, case.params.dx / ratio as f32);
        assert_eq!(child.params.dt, case.params.dt / ratio as f32);
        assert_eq!(
            child.params.wind.cell_wavelength,
            case.params.wind.cell_wavelength * ratio as f32
        );
        // The child's mean cloud factor over the patch approximates the
        // parent's over the covered region (same analytic field, sampled
        // finer).
        let mut parent_sum = 0.0f64;
        for jp in j0..j0 + h {
            for ip in i0..i0 + w {
                parent_sum += case.cloud_factor(ip, jp) as f64;
            }
        }
        let mut child_sum = 0.0f64;
        for jc in 1..=child.params.ny {
            for ic in 1..=child.params.nx {
                child_sum += child.cloud_factor(ic, jc) as f64;
            }
        }
        let parent_mean = parent_sum / (w * h) as f64;
        let child_mean = child_sum / (child.params.nx * child.params.ny) as f64;
        assert!(
            (parent_mean - child_mean).abs() < 0.1 * parent_mean.max(0.05),
            "parent mean {parent_mean:.4} vs child mean {child_mean:.4}"
        );
    }

    #[test]
    fn scaled_case_shrinks() {
        let s = ConusParams::at_scale(0.1);
        assert_eq!(s.nz, 50);
        assert!(s.nx < 50 && s.ny < 40);
        assert!(s.n_storms >= 3);
        let case = ConusCase::new(s);
        let dd = two_d_decomposition(s.domain(), 1, 2);
        let f = case.activity(&dd.patches[0]).active_fraction();
        assert!((0.005..0.5).contains(&f), "scaled activity {f}");
    }
}
