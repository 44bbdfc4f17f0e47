//! One-way grid nesting: index math and boundary injection.
//!
//! A refined child patch rides inside a coarse parent: `ratio × ratio`
//! child cells per parent cell, starting at parent cell `(i0, j0)` and
//! spanning `w × h` parent cells. The parent feeds the child's halo
//! through the ordinary [`crate::rk3::HaloEngine`] machinery — the child
//! advects exactly as a periodic single patch would, except its halo
//! cells are filled with *parent* values, time-interpolated between the
//! two bracketing parent steps and injected piecewise-constant in space
//! (each child halo cell takes its containing parent cell's value).
//! Piecewise-constant injection is exactly conservative under block
//! averaging — the mean of the `ratio × ratio` child samples of one
//! parent cell *is* the parent value — and fully deterministic, which is
//! what keeps nested runs bitwise-reproducible across scheme versions,
//! layouts, and comm modes.
//!
//! This module owns the pure index/interpolation math (proptested
//! below); the model driver in `miniwrf::nest` owns the state plumbing.

use wrf_grid::{Field3, PatchSpec};

/// Placement of a refined child grid inside its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestSpec {
    /// Refinement ratio (child cells per parent cell per direction).
    pub ratio: i32,
    /// First parent cell (1-based, west–east) covered by the child.
    pub i0: i32,
    /// First parent cell (1-based, south–north) covered by the child.
    pub j0: i32,
    /// Parent cells covered west–east.
    pub w: i32,
    /// Parent cells covered south–north.
    pub h: i32,
}

impl NestSpec {
    /// Checks the child (including its `halo`-wide boundary strip) stays
    /// inside the parent's compute domain of `nx × ny` cells, and the
    /// child grid is big enough to advect.
    pub fn validate(&self, nx: i32, ny: i32, halo: i32) -> Result<(), String> {
        if self.ratio < 1 {
            return Err(format!("nest ratio {} must be >= 1", self.ratio));
        }
        if self.w < 2 || self.h < 2 {
            return Err(format!(
                "nest extent {}x{} parent cells is too small (need >= 2x2)",
                self.w, self.h
            ));
        }
        // Unchecked input (a namelist) reaches here: size the child in
        // `i64`, and admit only grids whose indices, halo included, fit
        // the `i32` index space everything downstream computes in.
        let (cw, ch) = (
            i64::from(self.w) * i64::from(self.ratio),
            i64::from(self.h) * i64::from(self.ratio),
        );
        if cw < 8 || ch < 8 {
            return Err(format!(
                "child grid {cw}x{ch} is too small (need >= 8x8 points)"
            ));
        }
        let halo = i64::from(halo);
        if cw.max(ch) + halo > i64::from(i32::MAX) {
            return Err(format!("child grid {cw}x{ch} is too large"));
        }
        let lo_i = parent_index(self.i0, self.ratio, 1 - halo);
        let hi_i = parent_index(self.i0, self.ratio, cw + halo);
        let lo_j = parent_index(self.j0, self.ratio, 1 - halo);
        let hi_j = parent_index(self.j0, self.ratio, ch + halo);
        if lo_i < 1 || lo_j < 1 || hi_i > i64::from(nx) || hi_j > i64::from(ny) {
            return Err(format!(
                "nest (i0={}, j0={}, {}x{} cells, ratio {}) needs parent cells \
                 i in [{lo_i}, {hi_i}], j in [{lo_j}, {hi_j}] for its halo, \
                 outside the {nx}x{ny} parent",
                self.i0, self.j0, self.w, self.h, self.ratio
            ));
        }
        Ok(())
    }

    /// The child↔parent index map of this spec.
    pub fn map(&self) -> NestMap {
        NestMap {
            ratio: self.ratio,
            i0: self.i0,
            j0: self.j0,
        }
    }
}

/// Pure child→parent index mapping. Child cell `ic` (1-based) sits at
/// parent coordinate `i0 - 0.5 + (ic - 0.5)/ratio` (parent cell `p`
/// spans `(p - 0.5, p + 0.5]` in cell-center coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestMap {
    /// Refinement ratio.
    pub ratio: i32,
    /// First covered parent cell, west–east.
    pub i0: i32,
    /// First covered parent cell, south–north.
    pub j0: i32,
}

impl NestMap {
    /// The parent cell containing child cell `ic` (works for halo
    /// indices `<= 0` too — integer arithmetic only, no float rounding).
    pub fn parent_i(&self, ic: i32) -> i32 {
        parent_index(self.i0, self.ratio, ic.into()) as i32
    }

    /// The parent cell containing child cell `jc`.
    pub fn parent_j(&self, jc: i32) -> i32 {
        parent_index(self.j0, self.ratio, jc.into()) as i32
    }
}

/// The parent index along one axis of child index `c`, for a nest
/// starting at parent cell `origin`. In `i64` so [`NestSpec::validate`]
/// can run it on unvalidated geometry without overflow; results of a
/// validated spec fit `i32`.
fn parent_index(origin: i32, ratio: i32, c: i64) -> i64 {
    i64::from(origin) + (2 * c - 1).div_euclid(2 * i64::from(ratio))
}

/// Linear interpolation between two parent time levels, exact at both
/// endpoints (`tau = 0` returns `a` bitwise, `tau = 1` returns `b`
/// bitwise — the form `(1-τ)a + τb` guarantees it, `a + τ(b-a)` does
/// not).
pub fn time_interp(a: f32, b: f32, tau: f32) -> f32 {
    (1.0 - tau) * a + tau * b
}

/// Fills one exchange round's halo strips of `field` from `sample(i, k,
/// j)` (child indices). Round 0 writes the west/east strips over the
/// compute `j` range; round 1 writes south/north over the full memory
/// `i` range so corners ride along — exactly the strip geometry of the
/// periodic and MPI engines' `HALO_EM_*` rounds, so the overlapped
/// comm mode's bitwise-equality argument carries over unchanged (only
/// halo cells are written).
pub fn fill_halo_round(
    field: &mut Field3<f32>,
    patch: &PatchSpec,
    round: usize,
    sample: &mut dyn FnMut(i32, i32, i32) -> f32,
) {
    if round == 0 {
        for j in patch.jp.iter() {
            for k in patch.kp.iter() {
                for h in 1..=patch.halo {
                    field.set(patch.ip.lo - h, k, j, sample(patch.ip.lo - h, k, j));
                    field.set(patch.ip.hi + h, k, j, sample(patch.ip.hi + h, k, j));
                }
            }
        }
    } else {
        for k in patch.kp.iter() {
            for h in 1..=patch.halo {
                for i in patch.im.iter() {
                    field.set(i, k, patch.jp.lo - h, sample(i, k, patch.jp.lo - h));
                    field.set(i, k, patch.jp.hi + h, sample(i, k, patch.jp.hi + h));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wrf_grid::{two_d_decomposition, Domain};

    #[test]
    fn parent_index_handles_halo_and_interior() {
        let m = NestMap {
            ratio: 2,
            i0: 5,
            j0: 4,
        };
        // Child cells 1..=2 live in parent cell 5, 3..=4 in 6, ...
        assert_eq!(m.parent_i(1), 5);
        assert_eq!(m.parent_i(2), 5);
        assert_eq!(m.parent_i(3), 6);
        assert_eq!(m.parent_i(4), 6);
        // Halo cells below 1 map west of i0.
        assert_eq!(m.parent_i(0), 4);
        assert_eq!(m.parent_i(-1), 4);
        assert_eq!(m.parent_i(-2), 3);
        assert_eq!(m.parent_j(1), 4);
    }

    #[test]
    fn validate_catches_out_of_range_nests() {
        let ok = NestSpec {
            ratio: 2,
            i0: 7,
            j0: 5,
            w: 8,
            h: 6,
        };
        assert!(ok.validate(21, 15, 3).is_ok());
        // Child halo would need parent cell 0.
        let west = NestSpec { i0: 2, ..ok };
        assert!(west.validate(21, 15, 3).is_err());
        // Off the east edge.
        let east = NestSpec { i0: 14, ..ok };
        assert!(east.validate(21, 15, 3).is_err());
        // Degenerate extents.
        let tiny = NestSpec { w: 1, ..ok };
        assert!(tiny.validate(21, 15, 3).is_err());
        let coarse = NestSpec { ratio: 0, ..ok };
        assert!(coarse.validate(21, 15, 3).is_err());
    }

    #[test]
    fn time_interp_is_exact_at_endpoints() {
        let (a, b) = (0.1f32, 7.3e-4f32);
        assert_eq!(time_interp(a, b, 0.0).to_bits(), a.to_bits());
        assert_eq!(time_interp(a, b, 1.0).to_bits(), b.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each parent cell's `ratio × ratio` child block maps back to
        /// that parent cell, for any refinement ratio and offset.
        #[test]
        fn child_blocks_map_to_their_parent(
            ratio in 1i32..5,
            i0 in 1i32..9,
            cell in 0i32..6,
        ) {
            let m = NestMap { ratio, i0, j0: 1 };
            let parent = i0 + cell;
            for sub in 1..=ratio {
                let ic = cell * ratio + sub;
                prop_assert_eq!(m.parent_i(ic), parent);
            }
        }

        /// Piecewise-constant injection is exactly conservative: the
        /// mean of the child samples covering one parent cell equals the
        /// parent value bitwise (all samples are identical), over random
        /// ratios and patch offsets.
        #[test]
        fn injection_is_conservative_over_blocks(
            ratio in 1i32..5,
            i0 in 2i32..7,
            j0 in 2i32..7,
        ) {
            let parent_val = |ip: i32, jp: i32| (ip * 31 + jp * 7) as f32 * 0.125;
            let m = NestMap { ratio, i0, j0 };
            for cell_j in 0..3 {
                for cell_i in 0..3 {
                    let want = parent_val(i0 + cell_i, j0 + cell_j);
                    let mut sum = 0.0f64;
                    for sj in 1..=ratio {
                        for si in 1..=ratio {
                            let ic = cell_i * ratio + si;
                            let jc = cell_j * ratio + sj;
                            let got = parent_val(m.parent_i(ic), m.parent_j(jc));
                            prop_assert_eq!(got.to_bits(), want.to_bits());
                            sum += got as f64;
                        }
                    }
                    let mean = sum / (ratio * ratio) as f64;
                    prop_assert_eq!(mean, want as f64);
                }
            }
        }

        /// Halo filling is deterministic: two independent fills write
        /// bitwise-identical strips, and only halo cells change.
        #[test]
        fn halo_fill_is_deterministic_and_halo_only(
            ratio in 1i32..4,
            tau_m in 0i32..1001,
        ) {
            let tau = tau_m as f32 / 1000.0;
            let p = two_d_decomposition(Domain::new(12, 4, 10), 1, 3).patches[0];
            let m = NestMap { ratio, i0: 4, j0: 4 };
            let mut sample = |i: i32, k: i32, j: i32| {
                let a = (m.parent_i(i) * 13 + m.parent_j(j) * 5 + k) as f32 * 0.25;
                let b = a + 1.5;
                time_interp(a, b, tau)
            };
            let mut f1: Field3<f32> = Field3::for_patch(&p);
            for v in f1.as_mut_slice() { *v = -9.0; }
            let interior_before: Vec<u32> = p.jp.iter().flat_map(|j| {
                p.kp.iter().flat_map(move |k| {
                    p.ip.iter().map(move |i| (i, k, j))
                })
            }).map(|(i, k, j)| f1.get(i, k, j).to_bits()).collect();
            let mut f2 = f1.clone();
            for round in 0..2 {
                fill_halo_round(&mut f1, &p, round, &mut sample);
                fill_halo_round(&mut f2, &p, round, &mut sample);
            }
            for (a, b) in f1.as_slice().iter().zip(f2.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let interior_after: Vec<u32> = p.jp.iter().flat_map(|j| {
                p.kp.iter().flat_map(move |k| {
                    p.ip.iter().map(move |i| (i, k, j))
                })
            }).map(|(i, k, j)| f1.get(i, k, j).to_bits()).collect();
            prop_assert_eq!(interior_before, interior_after);
            // The strips themselves were actually written.
            prop_assert!(f1.get(p.ip.lo - 1, p.kp.lo, p.jp.lo) != -9.0);
            prop_assert!(f1.get(p.ip.lo, p.kp.lo, p.jp.hi + 3) != -9.0);
        }

        /// Interpolated boundary values stay within the bracketing
        /// parent time levels and hit both endpoints exactly.
        #[test]
        fn time_interp_bounded_and_exact(
            a_m in -4000i32..4000,
            b_m in -4000i32..4000,
            tau_m in 0i32..1001,
        ) {
            let a = a_m as f32 * 2.5e-4;
            let b = b_m as f32 * 2.5e-4;
            let tau = tau_m as f32 / 1000.0;
            let v = time_interp(a, b, tau);
            prop_assert!(v >= a.min(b) - f32::EPSILON.max(a.abs().max(b.abs()) * 1e-6));
            prop_assert!(v <= a.max(b) + f32::EPSILON.max(a.abs().max(b.abs()) * 1e-6));
            prop_assert_eq!(time_interp(a, b, 0.0).to_bits(), a.to_bits());
            prop_assert_eq!(time_interp(a, b, 1.0).to_bits(), b.to_bits());
        }
    }
}
