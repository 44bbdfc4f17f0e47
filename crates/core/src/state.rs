//! Patch-level prognostic state of the microphysics.
//!
//! One MPI rank's FSBM state: the thermodynamic scalars (`tt`, `qv`,
//! pressure, density) as WRF-ordered [`Field3`]s and the seven binned
//! distribution functions as [`Field4`] slabs with the bin dimension
//! fastest — the exact memory layout of the paper's `temp_arrays` module
//! (Listing 8), so the `collapse(3)` version can alias per-point slices
//! without copying.

use crate::point::{floor_tail, BinsView, PointThermo};
use crate::types::{NKR, NTYPES};
use wrf_grid::{Field3, Field4, PatchSpec};

/// FSBM prognostic state over one patch.
#[derive(Debug, Clone)]
pub struct SbmPatchState {
    /// The owning patch (memory spans size the fields).
    pub patch: PatchSpec,
    /// Temperature, K.
    pub tt: Field3<f32>,
    /// Temperature at the start of the step (the `T_OLD` guard array).
    pub t_old: Field3<f32>,
    /// Water-vapor mixing ratio, kg/kg.
    pub qv: Field3<f32>,
    /// Pressure, Pa (hydrostatic background; not prognostic here).
    pub p: Field3<f32>,
    /// Air density, kg/m³.
    pub rho: Field3<f32>,
    /// Binned number mixing ratios per class, #/kg — `ff[class]` is the
    /// `fl*_temp`-style slab `(1:nkr, ims:ime, kms:kme, jms:jme)`.
    pub ff: Vec<Field4<f32>>,
    /// Accumulated surface precipitation, kg/m² (diagnostic).
    pub precip_acc: f64,
    /// Per-column accumulated precipitation (WRF's `RAINNC`), kg/m²,
    /// `j`-major over the compute columns.
    pub rainnc: Vec<f32>,
}

impl SbmPatchState {
    /// Allocates an empty state over `patch`'s memory spans.
    pub fn new(patch: PatchSpec) -> Self {
        SbmPatchState {
            patch,
            tt: Field3::for_patch(&patch),
            t_old: Field3::for_patch(&patch),
            qv: Field3::for_patch(&patch),
            p: Field3::for_patch(&patch),
            rho: Field3::for_patch(&patch),
            ff: (0..NTYPES)
                .map(|_| Field4::for_patch(NKR, &patch))
                .collect(),
            precip_acc: 0.0,
            rainnc: vec![0.0; patch.compute_columns()],
        }
    }

    /// Index of column `(i, j)` into [`Self::rainnc`].
    pub fn column_index(&self, i: i32, j: i32) -> usize {
        let ii = (i - self.patch.ip.lo) as usize;
        let jj = (j - self.patch.jp.lo) as usize;
        jj * self.patch.ip.len() + ii
    }

    /// Thermo scalars of one point.
    #[inline]
    pub fn thermo_at(&self, i: i32, k: i32, j: i32) -> PointThermo {
        PointThermo {
            t: self.tt.get(i, k, j),
            qv: self.qv.get(i, k, j),
            p: self.p.get(i, k, j),
            rho: self.rho.get(i, k, j),
        }
    }

    /// Writes the prognostic thermo scalars back (pressure/density are
    /// background fields and are not updated by microphysics).
    #[inline]
    pub fn store_thermo(&mut self, i: i32, k: i32, j: i32, th: &PointThermo) {
        self.tt.set(i, k, j, th.t);
        self.qv.set(i, k, j, th.qv);
    }

    /// Copies a point's bins into an owned buffer (the automatic-array
    /// path of Listings 1/7).
    pub fn load_bins(&self, i: i32, k: i32, j: i32, out: &mut crate::point::PointBins) {
        for (c, f) in self.ff.iter().enumerate() {
            out.n[c].copy_from_slice(f.bin_slice(i, k, j));
        }
    }

    /// Writes an owned bin buffer back to the fields.
    pub fn store_bins(&mut self, i: i32, k: i32, j: i32, bins: &crate::point::PointBins) {
        for (c, f) in self.ff.iter_mut().enumerate() {
            f.bin_slice_mut(i, k, j).copy_from_slice(&bins.n[c]);
        }
    }

    /// In-place per-point view into the slabs (the pointer path of
    /// Listing 8). Borrows all seven slabs mutably.
    pub fn bins_view_at(&mut self, i: i32, k: i32, j: i32) -> BinsView<'_> {
        let mut it = self.ff.iter_mut();
        BinsView::from_slices(std::array::from_fn(|_| {
            it.next().expect("NTYPES slabs").bin_slice_mut(i, k, j)
        }))
    }

    /// Snapshots `tt` into `t_old` (start of a microphysics step).
    pub fn snapshot_t_old(&mut self) {
        self.t_old
            .as_mut_slice()
            .copy_from_slice(self.tt.as_slice());
    }

    /// Total condensate mass mixing ratio summed over the compute region
    /// (diagnostic; kg/kg × points).
    pub fn total_condensate_sum(&self) -> f64 {
        let grids = crate::point::Grids::new();
        let mut s = 0.0f64;
        for j in self.patch.jp.iter() {
            for k in self.patch.kp.iter() {
                for i in self.patch.ip.iter() {
                    for (c, f) in self.ff.iter().enumerate() {
                        let g = grids.by_index(c);
                        for (b, &n) in f.bin_slice(i, k, j).iter().enumerate() {
                            s += (n * g.mass[b]) as f64;
                        }
                    }
                }
            }
        }
        s
    }

    /// The bin values of the compute region that lie in a tail the
    /// storage floor ([`crate::point::N_FLOOR`]) removes wherever the step
    /// writes bins: a state the model stepped holds none.
    pub fn tail_census(&self) -> TailCensus {
        let mut census = TailCensus::default();
        for f in &self.ff {
            for j in self.patch.jp.iter() {
                for k in self.patch.kp.iter() {
                    for i in self.patch.ip.iter() {
                        for &n in f.bin_slice(i, k, j) {
                            census.subnormal += u64::from(n.is_subnormal());
                            census.below_floor += u64::from(floor_tail(n).to_bits() != n.to_bits());
                        }
                    }
                }
            }
        }
        census
    }

    /// Bytes of the seven slab arrays (device data-environment size of
    /// the `temp_arrays` module).
    pub fn slab_bytes(&self) -> u64 {
        self.ff.iter().map(|f| f.len() as u64 * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::PointBins;
    use wrf_grid::{two_d_decomposition, Domain};

    fn patch() -> PatchSpec {
        let d = Domain::new(8, 4, 6);
        two_d_decomposition(d, 1, 1).patches[0]
    }

    #[test]
    fn load_store_roundtrip() {
        let mut st = SbmPatchState::new(patch());
        let mut b = PointBins::empty();
        b.n[0][5] = 42.0;
        b.n[6][32] = 7.0;
        st.store_bins(3, 2, 4, &b);
        let mut back = PointBins::empty();
        st.load_bins(3, 2, 4, &mut back);
        assert_eq!(b, back);
        // Neighbours untouched.
        let mut other = PointBins::empty();
        st.load_bins(4, 2, 4, &mut other);
        assert_eq!(other, PointBins::empty());
    }

    #[test]
    fn view_aliases_storage() {
        let mut st = SbmPatchState::new(patch());
        {
            let mut v = st.bins_view_at(2, 1, 3);
            v.class_mut(crate::types::HydroClass::Snow)[10] = 9.0;
        }
        assert_eq!(st.ff[4].bin_slice(2, 1, 3)[10], 9.0);
    }

    #[test]
    fn thermo_roundtrip() {
        let mut st = SbmPatchState::new(patch());
        st.p.fill(80_000.0);
        st.rho.fill(1.0);
        st.tt.set(1, 1, 1, 285.0);
        st.qv.set(1, 1, 1, 0.008);
        let mut th = st.thermo_at(1, 1, 1);
        th.t = 286.0;
        th.qv = 0.007;
        st.store_thermo(1, 1, 1, &th);
        assert_eq!(st.tt.get(1, 1, 1), 286.0);
        assert_eq!(st.qv.get(1, 1, 1), 0.007);
        assert_eq!(st.p.get(1, 1, 1), 80_000.0);
    }

    #[test]
    fn snapshot_t_old() {
        let mut st = SbmPatchState::new(patch());
        st.tt.fill(280.0);
        st.snapshot_t_old();
        st.tt.fill(285.0);
        assert_eq!(st.t_old.get(1, 1, 1), 280.0);
        assert_eq!(st.tt.get(1, 1, 1), 285.0);
    }

    #[test]
    fn condensate_sum_sees_mass() {
        let mut st = SbmPatchState::new(patch());
        assert_eq!(st.total_condensate_sum(), 0.0);
        let mut b = PointBins::empty();
        b.n[0][10] = 1.0e6;
        st.store_bins(2, 2, 2, &b);
        assert!(st.total_condensate_sum() > 0.0);
    }

    #[test]
    fn slab_bytes_match_layout() {
        let st = SbmPatchState::new(patch());
        let expect = 7 * st.patch.memory_points() as u64 * NKR as u64 * 4;
        assert_eq!(st.slab_bytes(), expect);
    }
}

/// [`SbmPatchState::tail_census`]: compute-region bin values by tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailCensus {
    /// Subnormal values, either sign.
    pub subnormal: u64,
    /// Positive values below [`crate::point::N_FLOOR`] (the positive
    /// subnormals among them).
    pub below_floor: u64,
}
