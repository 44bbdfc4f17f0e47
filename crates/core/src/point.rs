//! Per-grid-point state views and the bin-remapping machinery shared by
//! all microphysical processes.
//!
//! The Fortran scheme passes ~40 automatic bin arrays between
//! subroutines; here a grid point's distributions are a [`PointBins`]
//! (owned, stack-allocated — the "automatic arrays" of Listing 7) or a
//! [`BinsView`] borrowing per-point slices of the `temp_arrays` slabs
//! (the pointer refactor of Listing 8). All processes operate on
//! [`BinsView`], so the four scheme versions share the physics.

use crate::bins::BinGrid;
use crate::meter::PointWork;
use crate::types::{HydroClass, NKR, NTYPES};

/// Emptiness threshold of a bin's number mixing ratio, #/kg: a bin at or
/// below it counts as empty to every active-range scan, branch rule and
/// batch key. It is a threshold, not a storage floor: values below it
/// stay in the state (the storage floor is [`N_FLOOR`]).
pub const N_EPS: f32 = 1.0e-3;
/// Mass floor for "class is present" tests, kg/kg.
pub const Q_EPS: f32 = 1.0e-12;

/// Storage floor of a bin's number mixing ratio, #/kg: a positive value
/// below it is stored as `+0.0` ([`floor_tail`]). It sits 22 decades
/// below [`N_EPS`], so no decision that reads `N_EPS` can see it, and
/// about 13 decades above f32's smallest normal (1.2e-38), so a product
/// of a stored value with a bin radius or a share stays normal. That is
/// true of what is stored, not of what a sweep forms between stores: the
/// condensation relax deposits sub-floor values and feeds them to its
/// next substep, so it floors where it scrubs, after every relax that
/// moves mass. No bin tail then decays into subnormals, whose arithmetic
/// runs in microcode assists.
pub const N_FLOOR: f32 = 1.0e-25;

/// A positive value below [`N_FLOOR`] as `+0.0`; every other value (`0`,
/// `-0.0`, negatives, NaN, ∞, anything ≥ `N_FLOOR`) unchanged. Applied at
/// three writes the step already makes: transport's final RK3 stage of a
/// positive-definite scalar, the condensation relax's scrub
/// ([`BinsView::scrub_tails`]) and the sedimentation write-back.
#[inline]
pub fn floor_tail(v: f32) -> f32 {
    if v > 0.0 && v < N_FLOOR {
        0.0
    } else {
        v
    }
}

/// What [`floor_tail`] removed, summed in the order the values were
/// written (so no schedule moves a bit of it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Floored {
    /// Values mapped to `+0.0`.
    pub values: u64,
    /// The number they held, #/kg.
    pub number: f64,
    /// Their mass, kg/kg: number times the bin's particle mass. Only the
    /// scheme knows a value's bin; transport leaves it 0.
    pub mass: f64,
}

impl Floored {
    /// [`floor_tail`] of `v`, tallying a floored value with the particle
    /// mass `m`, kg (0 where unknown).
    #[inline]
    pub fn floor(&mut self, v: f32, m: f32) -> f32 {
        let floored = floor_tail(v);
        // Bits, not values: a NaN passes through and is not counted.
        if floored.to_bits() != v.to_bits() {
            self.values += 1;
            self.number += f64::from(v);
            self.mass += f64::from(v) * f64::from(m);
        }
        floored
    }
}

impl std::ops::AddAssign for Floored {
    fn add_assign(&mut self, rhs: Floored) {
        self.values += rhs.values;
        self.number += rhs.number;
        self.mass += rhs.mass;
    }
}

/// All seven bin grids, built once per scheme instance.
#[derive(Debug, Clone)]
pub struct Grids {
    grids: Vec<BinGrid>,
}

impl Grids {
    /// Builds the seven grids.
    pub fn new() -> Self {
        Grids {
            grids: crate::bins::all_grids(),
        }
    }

    /// Grid of a class.
    #[inline]
    pub fn of(&self, c: HydroClass) -> &BinGrid {
        &self.grids[c.index()]
    }

    /// Grid by storage index.
    #[inline]
    pub fn by_index(&self, i: usize) -> &BinGrid {
        &self.grids[i]
    }
}

impl Default for Grids {
    fn default() -> Self {
        Self::new()
    }
}

/// Thermodynamic scalars of one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointThermo {
    /// Temperature, K.
    pub t: f32,
    /// Water-vapor mixing ratio, kg/kg.
    pub qv: f32,
    /// Pressure, Pa.
    pub p: f32,
    /// Air density, kg/m³.
    pub rho: f32,
}

/// Owned per-point distributions — the stack ("automatic array") layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBins {
    /// `n[class][bin]`: number mixing ratio per bin, #/kg of air.
    pub n: [[f32; NKR]; NTYPES],
}

impl PointBins {
    /// All-empty distributions.
    pub fn empty() -> Self {
        PointBins {
            n: [[0.0; NKR]; NTYPES],
        }
    }

    /// Mutable view for the process routines.
    pub fn view(&mut self) -> BinsView<'_> {
        let mut it = self.n.iter_mut();
        BinsView {
            n: std::array::from_fn(|_| it.next().expect("NTYPES slices").as_mut_slice()),
        }
    }
}

/// Borrowed per-point distributions: one `&mut [f32; NKR]`-shaped slice
/// per class (slab layout borrows these from `Field4` storage).
pub struct BinsView<'a> {
    /// Per-class bin slices, each of length `NKR`.
    pub n: [&'a mut [f32]; NTYPES],
}

impl<'a> BinsView<'a> {
    /// Builds a view from per-class slices; each must have length `NKR`.
    pub fn from_slices(slices: [&'a mut [f32]; NTYPES]) -> Self {
        for s in &slices {
            assert_eq!(s.len(), NKR, "bin slice must have NKR elements");
        }
        BinsView { n: slices }
    }

    /// Bin slice of `class`.
    #[inline]
    pub fn class(&self, c: HydroClass) -> &[f32] {
        self.n[c.index()]
    }

    /// Mutable bin slice of `class`.
    #[inline]
    pub fn class_mut(&mut self, c: HydroClass) -> &mut [f32] {
        self.n[c.index()]
    }

    /// Mass mixing ratio of a class, kg/kg. An empty class (every bin
    /// `±0.0`) returns the sum's `+0.0` without the serial sum, metered
    /// as the sum.
    pub fn mass_of(&self, c: HydroClass, grids: &Grids, w: &mut PointWork) -> f32 {
        self.class_mass(c, grids, w).0
    }

    /// [`BinsView::mass_of`], and whether the class is empty.
    #[inline]
    fn class_mass(&self, c: HydroClass, grids: &Grids, w: &mut PointWork) -> (f32, bool) {
        w.fm(2 * NKR as u64, NKR as u64);
        let s = self.class(c);
        if all_zero(s.iter().copied()) {
            return (0.0, true);
        }
        let mut q = 0.0f32;
        for (n, m) in s.iter().zip(&grids.of(c).mass) {
            q += n * m;
        }
        (q, false)
    }

    /// Total number mixing ratio of a class, #/kg.
    pub fn number_of(&self, c: HydroClass) -> f32 {
        self.class(c).iter().sum()
    }

    /// The `(lo, hi)` inclusive range of occupied bins of a class, or
    /// `None` when empty — the sparsity the lookup optimization exploits
    /// ("not every entry of an array is used").
    pub fn active_range(&self, c: HydroClass, w: &mut PointWork) -> Option<(usize, usize)> {
        let s = self.class(c);
        w.m(NKR as u64);
        let lo = s.iter().position(|&v| v > N_EPS)?;
        let hi = s.iter().rposition(|&v| v > N_EPS)?;
        Some((lo, hi))
    }

    /// True when every class is empty ([`all_zero`]): the point holds
    /// nothing that freezing, melting, breakup or sedimentation would
    /// read as present.
    pub(crate) fn is_clear(&self) -> bool {
        self.n.iter().all(|s| all_zero(s.iter().copied()))
    }

    /// Total condensate mass across all classes, kg/kg.
    pub fn total_condensate(&self, grids: &Grids, w: &mut PointWork) -> f32 {
        self.condensate_and_clear(grids, w).0
    }

    /// [`BinsView::total_condensate`] and [`BinsView::is_clear`] from one
    /// read of the bins: the sum's empty tests are the clear test.
    pub(crate) fn condensate_and_clear(&self, grids: &Grids, w: &mut PointWork) -> (f32, bool) {
        let mut clear = true;
        let q = HydroClass::ALL
            .iter()
            .map(|&c| {
                let (q, empty) = self.class_mass(c, grids, w);
                clear &= empty;
                q
            })
            .sum();
        (q, clear)
    }

    /// Clamps tiny negatives (numerical dust) to zero.
    pub fn scrub_negatives(&mut self) {
        for s in &mut self.n {
            for v in s.iter_mut() {
                if *v < 0.0 {
                    debug_assert!(*v > -1.0e-2, "large negative bin {v}");
                    *v = 0.0;
                }
            }
        }
    }

    /// The condensation relax's scrub: [`BinsView::scrub_negatives`] and
    /// the storage floor in one pass. A negative becomes `0.0`, a positive
    /// value below [`N_FLOOR`] `+0.0` (tallied in `floored` with its bin's
    /// particle mass, classes in storage order, bins ascending), and every
    /// other value, `-0.0` and NaN included, keeps its bits.
    pub fn scrub_tails(&mut self, grids: &Grids, floored: &mut Floored) {
        for (c, s) in self.n.iter_mut().enumerate() {
            for (v, &m) in s.iter_mut().zip(&grids.by_index(c).mass) {
                if *v < 0.0 {
                    debug_assert!(*v > -1.0e-2, "large negative bin {v}");
                    *v = 0.0;
                } else {
                    *v = floored.floor(*v, m);
                }
            }
        }
    }
}

/// True when every value is `+0.0` or `-0.0`: one OR of the bit patterns,
/// sign bit masked. This is the test of an empty class. A class that
/// passes it makes each `q += n * m` over positive bin masses add a zero
/// to the `+0.0` the sum starts from, which leaves `+0.0` (`+0.0 + -0.0`
/// is `+0.0`), and takes no `n > 0.0` branch. A subnormal, a negative or
/// a NaN bin fails it and takes the loop.
#[inline]
pub(crate) fn all_zero(values: impl IntoIterator<Item = f32>) -> bool {
    values.into_iter().fold(0u32, |bits, v| bits | v.to_bits()) & !(1 << 31) == 0
}

/// Deposits `number` particles of per-particle mass `m` into class slice
/// `target` on `grid`, splitting between the two bracketing bins so that
/// **both number and mass are conserved** (Kovetz–Olund linear
/// remapping). Masses beyond the top bin put all mass in the top bin
/// (conserving mass, not number, as FSBM does at the grid edge).
pub fn deposit_mass(target: &mut [f32], grid: &BinGrid, m: f32, number: f32, w: &mut PointWork) {
    if number <= 0.0 || m <= 0.0 {
        return;
    }
    w.fm(8, 2);
    let m0 = grid.mass[0];
    if m <= m0 {
        // Below the grid: conserve mass into bin 0.
        target[0] += number * m / m0;
        return;
    }
    let top = NKR - 1;
    if m >= grid.mass[top] {
        target[top] += number * m / grid.mass[top];
        return;
    }
    // Doubling grid: bracketing bin from the log2 of the mass ratio.
    // log2 can land an ulp on the wrong side of a bin edge, so nudge the
    // bracket until m ∈ [m_k, m_{k+1}] and clamp the split fraction —
    // otherwise a mass just past the edge would make one side negative.
    let pos = (m / m0).log2();
    let mut k = (pos.floor() as usize).min(top - 1);
    if k > 0 && m < grid.mass[k] {
        k -= 1;
    }
    if k + 1 < top && m > grid.mass[k + 1] {
        k += 1;
    }
    let (m_lo, m_hi) = (grid.mass[k], grid.mass[k + 1]);
    let frac = ((m - m_lo) / (m_hi - m_lo)).clamp(0.0, 1.0);
    let n_hi = number * frac;
    let n_lo = number - n_hi;
    target[k] += n_lo;
    target[k + 1] += n_hi;
}

/// The state-variable tuple `fast_sbm` owns per grid point: views +
/// thermo. Re-exported convenience used by the scheme drivers.
pub use crate::processes::driver::fast_sbm_point;

#[cfg(test)]
mod tests {
    use super::*;

    fn grids() -> Grids {
        Grids::new()
    }

    #[test]
    fn view_roundtrip() {
        let mut b = PointBins::empty();
        b.n[0][5] = 3.0;
        let v = b.view();
        assert_eq!(v.class(HydroClass::Water)[5], 3.0);
        assert_eq!(v.number_of(HydroClass::Water), 3.0);
    }

    #[test]
    fn mass_of_uses_bin_masses() {
        let g = grids();
        let mut b = PointBins::empty();
        b.n[0][10] = 2.0e6;
        let mut w = PointWork::ZERO;
        let mut bv = b.view();
        let q = bv.mass_of(HydroClass::Water, &g, &mut w);
        let expect = 2.0e6 * g.of(HydroClass::Water).mass[10];
        assert!((q - expect).abs() / expect < 1e-6);
        assert!(w.flops > 0);
        let _ = &mut bv;
    }

    #[test]
    fn active_range_finds_occupied_bins() {
        let mut b = PointBins::empty();
        let mut w = PointWork::ZERO;
        assert_eq!(b.view().active_range(HydroClass::Water, &mut w), None);
        b.n[0][4] = 1.0;
        b.n[0][9] = 1.0;
        assert_eq!(
            b.view().active_range(HydroClass::Water, &mut w),
            Some((4, 9))
        );
    }

    #[test]
    fn deposit_conserves_number_and_mass_mid_grid() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut target = vec![0.0f32; NKR];
        let mut w = PointWork::ZERO;
        // 1.37 × m_10: between bins 10 and 11.
        let m = gw.mass[10] * 1.37;
        deposit_mass(&mut target, gw, m, 1000.0, &mut w);
        let n: f32 = target.iter().sum();
        let q: f32 = target.iter().zip(&gw.mass).map(|(n, m)| n * m).sum();
        assert!((n - 1000.0).abs() < 1e-2);
        assert!((q - 1000.0 * m).abs() / (1000.0 * m) < 1e-5);
        // Only the bracketing bins are touched.
        assert!(target[10] > 0.0 && target[11] > 0.0);
        assert_eq!(target[9], 0.0);
        assert_eq!(target[12], 0.0);
    }

    #[test]
    fn deposit_exact_bin_mass_goes_to_one_bin() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut target = vec![0.0f32; NKR];
        let mut w = PointWork::ZERO;
        deposit_mass(&mut target, gw, gw.mass[7], 10.0, &mut w);
        assert!((target[7] - 10.0).abs() < 1e-4);
        assert!(target[8].abs() < 1e-4);
    }

    #[test]
    fn deposit_above_top_conserves_mass_only() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut target = vec![0.0f32; NKR];
        let mut w = PointWork::ZERO;
        let m = gw.mass[NKR - 1] * 3.0;
        deposit_mass(&mut target, gw, m, 5.0, &mut w);
        let q: f32 = target.iter().zip(&gw.mass).map(|(n, m)| n * m).sum();
        assert!((q - 5.0 * m).abs() / (5.0 * m) < 1e-5);
        assert!(target[NKR - 1] > 5.0); // number inflated, mass conserved
    }

    #[test]
    fn deposit_below_bottom_conserves_mass_only() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut target = vec![0.0f32; NKR];
        let mut w = PointWork::ZERO;
        deposit_mass(&mut target, gw, gw.mass[0] * 0.25, 8.0, &mut w);
        let q: f32 = target.iter().zip(&gw.mass).map(|(n, m)| n * m).sum();
        assert!((q - 8.0 * gw.mass[0] * 0.25).abs() / (q + 1e-30) < 1e-4);
    }

    #[test]
    fn deposit_mass_an_ulp_past_a_bin_edge_stays_nonnegative() {
        // Regression: log2 rounding could bracket m into [m_k, m_{k+1}]
        // with m marginally above m_{k+1}, producing a negative n_lo.
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut w = PointWork::ZERO;
        for k in 1..NKR - 1 {
            for nudge in [1.0f32 - 3.0e-7, 1.0, 1.0 + 3.0e-7] {
                let mut target = vec![0.0f32; NKR];
                let m = gw.mass[k] * nudge;
                deposit_mass(&mut target, gw, m, 8.1e7, &mut w);
                for (b, &v) in target.iter().enumerate() {
                    assert!(v >= 0.0, "bin {b} = {v} for k={k} nudge={nudge}");
                }
                let q: f64 = target
                    .iter()
                    .zip(&gw.mass)
                    .map(|(n, mm)| (*n as f64) * (*mm as f64))
                    .sum();
                let expect = 8.1e7 * m as f64;
                assert!((q - expect).abs() / expect < 1e-4);
            }
        }
    }

    #[test]
    fn deposit_ignores_nonpositive() {
        let g = grids();
        let gw = g.of(HydroClass::Water);
        let mut target = vec![0.0f32; NKR];
        let mut w = PointWork::ZERO;
        deposit_mass(&mut target, gw, -1.0, 5.0, &mut w);
        deposit_mass(&mut target, gw, 1.0e-12, 0.0, &mut w);
        assert!(target.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scrub_negatives() {
        let mut b = PointBins::empty();
        b.n[2][3] = -1.0e-6;
        b.n[2][4] = 5.0;
        let mut v = b.view();
        v.scrub_negatives();
        assert_eq!(v.n[2][3], 0.0);
        assert_eq!(v.n[2][4], 5.0);
    }

    /// The floor's edges: the two values either side of `N_FLOOR`, the
    /// smallest subnormal, both zeros, a negative subnormal, ±∞, NaN.
    #[test]
    fn floor_tail_edges() {
        let below = f32::from_bits(N_FLOOR.to_bits() - 1);
        for (v, want) in [
            (N_FLOOR, N_FLOOR),
            (below, 0.0),
            (f32::from_bits(1), 0.0),
            (0.0, 0.0),
            (-0.0, -0.0),
            (-f32::from_bits(1), -f32::from_bits(1)),
            (f32::INFINITY, f32::INFINITY),
            (f32::NEG_INFINITY, f32::NEG_INFINITY),
        ] {
            assert_eq!(floor_tail(v).to_bits(), want.to_bits(), "{v:e}");
        }
        assert!(floor_tail(f32::NAN).is_nan());
        // N_FLOOR is a normal number with room above f32's smallest one.
        assert!(N_FLOOR.is_normal() && N_FLOOR > 1.0e12 * f32::MIN_POSITIVE);
        const { assert!(N_FLOOR < 1.0e-20 * N_EPS) };
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Every f32 bit pattern: `+0.0` exactly on (0, `N_FLOOR`), the
        /// same bits everywhere else (NaN payloads included), and the
        /// tally counts what was floored and nothing else.
        #[test]
        fn floor_tail_is_identity_off_the_tail(
            bits in proptest::any::<u32>(),
            tail in 1u32..0x1700_0000,
            m in 0.0f32..1.0e-3,
        ) {
            // One draw over all patterns, one over the bits up to a little
            // above `N_FLOOR` (0x15f7_9688).
            for v in [f32::from_bits(bits), f32::from_bits(tail)] {
                let in_tail = v > 0.0 && v < N_FLOOR;
                let want = if in_tail { 0.0f32 } else { v };
                proptest::prop_assert_eq!(floor_tail(v).to_bits(), want.to_bits());
                let mut tally = Floored::default();
                proptest::prop_assert_eq!(tally.floor(v, m).to_bits(), want.to_bits());
                let held = if in_tail { f64::from(v) } else { 0.0 };
                proptest::prop_assert_eq!(tally.values, u64::from(in_tail));
                proptest::prop_assert_eq!(tally.number, held);
                proptest::prop_assert_eq!(tally.mass, held * f64::from(m));
            }
        }
    }

    #[test]
    #[should_panic(expected = "NKR elements")]
    fn bad_slice_length_panics() {
        let mut a = vec![0.0f32; NKR];
        let mut b = vec![0.0f32; NKR];
        let mut c = vec![0.0f32; NKR];
        let mut d = vec![0.0f32; NKR];
        let mut e = vec![0.0f32; NKR];
        let mut f = vec![0.0f32; NKR];
        let mut g = vec![0.0f32; 5];
        let _ = BinsView::from_slices([&mut a, &mut b, &mut c, &mut d, &mut e, &mut f, &mut g]);
    }
}
