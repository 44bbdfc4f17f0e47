//! Dense 3-D / 4-D field storage in WRF's Fortran memory order.
//!
//! WRF stores prognostic arrays as `A(ims:ime, kms:kme, jms:jme)` with `i`
//! fastest (column-major). [`Field3`] reproduces that layout over a patch's
//! memory spans. [`Field4`] adds a leading bin dimension, matching FSBM's
//! `fl1_temp(1:nkr, ims:ime, kms:kme, jms:jme)` slab arrays (Listing 8 of
//! the paper), so that `bin_slice(i,k,j)` is the contiguous per-grid-point
//! slice the pointer refactor aliases.

use crate::index::{PatchSpec, Span};

/// A 3-D field `A(i, k, j)` over inclusive spans, `i` fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3<T> {
    i: Span,
    k: Span,
    j: Span,
    data: Vec<T>,
}

impl<T: Copy + Default> Field3<T> {
    /// Allocates a zero/default-filled field over the given spans.
    pub fn new(i: Span, k: Span, j: Span) -> Self {
        let n = i.len() * k.len() * j.len();
        Field3 {
            i,
            k,
            j,
            data: vec![T::default(); n],
        }
    }

    /// Allocates a field over a patch's *memory* spans (halo included).
    pub fn for_patch(p: &PatchSpec) -> Self {
        Self::new(p.im, p.km, p.jm)
    }

    /// Allocates a field filled with `value`.
    pub fn filled(i: Span, k: Span, j: Span, value: T) -> Self {
        let n = i.len() * k.len() * j.len();
        Field3 {
            i,
            k,
            j,
            data: vec![value; n],
        }
    }
}

impl<T> Field3<T> {
    /// The `i` (west–east) span.
    pub fn ispan(&self) -> Span {
        self.i
    }

    /// The `k` (vertical) span.
    pub fn kspan(&self) -> Span {
        self.k
    }

    /// The `j` (south–north) span.
    pub fn jspan(&self) -> Span {
        self.j
    }

    /// Total number of stored elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn offset(&self, i: i32, k: i32, j: i32) -> usize {
        debug_assert!(self.i.contains(i), "i={i} outside {:?}", self.i);
        debug_assert!(self.k.contains(k), "k={k} outside {:?}", self.k);
        debug_assert!(self.j.contains(j), "j={j} outside {:?}", self.j);
        let ii = (i - self.i.lo) as usize;
        let kk = (k - self.k.lo) as usize;
        let jj = (j - self.j.lo) as usize;
        ii + self.i.len() * (kk + self.k.len() * jj)
    }

    /// Flat index of `(i, k, j)` into [`Self::as_slice`] — for kernel
    /// bodies writing through `SyncWriteSlice` views.
    #[inline]
    pub fn flat_index(&self, i: i32, k: i32, j: i32) -> usize {
        self.offset(i, k, j)
    }

    /// Element access by WRF indices.
    #[inline]
    pub fn at(&self, i: i32, k: i32, j: i32) -> &T {
        &self.data[self.offset(i, k, j)]
    }

    /// Mutable element access by WRF indices.
    #[inline]
    pub fn at_mut(&mut self, i: i32, k: i32, j: i32) -> &mut T {
        let o = self.offset(i, k, j);
        &mut self.data[o]
    }

    /// Raw data slice (i fastest, then k, then j).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable data slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Flat-index distance of one step in `k` and of one step in `j`
    /// (a step in `i` is 1): with [`Self::flat_index`], what a stencil
    /// needs to reach its neighbour rows from one index computation.
    #[inline]
    pub fn strides(&self) -> (usize, usize) {
        (self.i.len(), self.i.len() * self.k.len())
    }

    /// The contiguous `i`-row at fixed `(k, j)`.
    pub fn row(&self, k: i32, j: i32) -> &[T] {
        let start = self.offset(self.i.lo, k, j);
        &self.data[start..start + self.i.len()]
    }

    /// Mutable contiguous `i`-row at fixed `(k, j)`.
    pub fn row_mut(&mut self, k: i32, j: i32) -> &mut [T] {
        let start = self.offset(self.i.lo, k, j);
        let n = self.i.len();
        &mut self.data[start..start + n]
    }

    /// The contiguous run `i.lo..=i.hi` of the row at `(k, j)`.
    #[inline]
    pub fn run(&self, i: Span, k: i32, j: i32) -> &[T] {
        let start = (i.lo - self.i.lo) as usize;
        &self.row(k, j)[start..][..i.len()]
    }

    /// Mutable contiguous run `i.lo..=i.hi` of the row at `(k, j)`.
    #[inline]
    pub fn run_mut(&mut self, i: Span, k: i32, j: i32) -> &mut [T] {
        let start = (i.lo - self.i.lo) as usize;
        &mut self.row_mut(k, j)[start..][..i.len()]
    }
}

impl<T: Copy> Field3<T> {
    /// Gets a copy of the element.
    #[inline]
    pub fn get(&self, i: i32, k: i32, j: i32) -> T {
        *self.at(i, k, j)
    }

    /// Sets the element.
    #[inline]
    pub fn set(&mut self, i: i32, k: i32, j: i32, v: T) {
        *self.at_mut(i, k, j) = v;
    }

    /// Fills the entire field (halo included) with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }
}

impl Field3<f32> {
    /// Maximum absolute value over the whole allocation.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Sum over the compute region of a patch (halo excluded).
    pub fn compute_sum(&self, p: &PatchSpec) -> f64 {
        let mut s = 0.0f64;
        for j in p.jp.iter() {
            for k in p.kp.iter() {
                for &v in self.run(p.ip, k, j) {
                    s += v as f64;
                }
            }
        }
        s
    }
}

/// A 4-D field `A(n, i, k, j)` with a leading (fastest) bin dimension —
/// the layout of FSBM's `temp_arrays` slabs.
#[derive(Debug, Clone, PartialEq)]
pub struct Field4<T> {
    nbin: usize,
    i: Span,
    k: Span,
    j: Span,
    data: Vec<T>,
}

impl<T: Copy + Default> Field4<T> {
    /// Allocates a zero/default-filled binned field.
    pub fn new(nbin: usize, i: Span, k: Span, j: Span) -> Self {
        let n = nbin * i.len() * k.len() * j.len();
        Field4 {
            nbin,
            i,
            k,
            j,
            data: vec![T::default(); n],
        }
    }

    /// Allocates over a patch's memory spans.
    pub fn for_patch(nbin: usize, p: &PatchSpec) -> Self {
        Self::new(nbin, p.im, p.km, p.jm)
    }
}

impl<T> Field4<T> {
    /// Number of bins (leading dimension).
    pub fn nbin(&self) -> usize {
        self.nbin
    }

    /// Total number of stored elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn base(&self, i: i32, k: i32, j: i32) -> usize {
        debug_assert!(self.i.contains(i) && self.k.contains(k) && self.j.contains(j));
        let ii = (i - self.i.lo) as usize;
        let kk = (k - self.k.lo) as usize;
        let jj = (j - self.j.lo) as usize;
        self.nbin * (ii + self.i.len() * (kk + self.k.len() * jj))
    }

    /// The contiguous per-grid-point bin slice `A(:, i, k, j)` — what the
    /// paper's pointer refactor (`fl1 => fl1_temp(:,Iin,Kin,Jin)`) aliases.
    #[inline]
    pub fn bin_slice(&self, i: i32, k: i32, j: i32) -> &[T] {
        let b = self.base(i, k, j);
        &self.data[b..b + self.nbin]
    }

    /// Mutable per-grid-point bin slice.
    #[inline]
    pub fn bin_slice_mut(&mut self, i: i32, k: i32, j: i32) -> &mut [T] {
        let b = self.base(i, k, j);
        &mut self.data[b..b + self.nbin]
    }

    /// Element access `A(n, i, k, j)`; `n` is 0-based.
    #[inline]
    pub fn at(&self, n: usize, i: i32, k: i32, j: i32) -> &T {
        debug_assert!(n < self.nbin);
        &self.data[self.base(i, k, j) + n]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, n: usize, i: i32, k: i32, j: i32) -> &mut T {
        debug_assert!(n < self.nbin);
        let o = self.base(i, k, j) + n;
        &mut self.data[o]
    }

    /// Raw data slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable data slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy> Field4<T> {
    /// Fills the whole allocation with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::two_d_decomposition;
    use crate::index::Domain;

    fn spans() -> (Span, Span, Span) {
        (Span::new(-1, 6), Span::new(1, 4), Span::new(0, 5))
    }

    #[test]
    fn field3_roundtrip() {
        let (i, k, j) = spans();
        let mut f = Field3::<f32>::new(i, k, j);
        let mut v = 0.0f32;
        for jj in j.iter() {
            for kk in k.iter() {
                for ii in i.iter() {
                    f.set(ii, kk, jj, v);
                    v += 1.0;
                }
            }
        }
        let mut expect = 0.0f32;
        for jj in j.iter() {
            for kk in k.iter() {
                for ii in i.iter() {
                    assert_eq!(f.get(ii, kk, jj), expect);
                    expect += 1.0;
                }
            }
        }
    }

    #[test]
    fn field3_i_is_fastest() {
        let (i, k, j) = spans();
        let mut f = Field3::<f32>::new(i, k, j);
        f.set(i.lo, k.lo, j.lo, 1.0);
        f.set(i.lo + 1, k.lo, j.lo, 2.0);
        assert_eq!(f.as_slice()[0], 1.0);
        assert_eq!(f.as_slice()[1], 2.0);
    }

    #[test]
    fn field3_row_is_contiguous() {
        let (i, k, j) = spans();
        let mut f = Field3::<f32>::new(i, k, j);
        for (n, ii) in i.iter().enumerate() {
            f.set(ii, 2, 3, n as f32);
        }
        let row = f.row(2, 3);
        assert_eq!(row.len(), i.len());
        for (n, &v) in row.iter().enumerate() {
            assert_eq!(v, n as f32);
        }
    }

    #[test]
    fn field3_for_patch_has_halo() {
        let d = Domain::new(40, 10, 40);
        let dd = two_d_decomposition(d, 4, 3);
        let p = &dd.patches[0];
        let f = Field3::<f32>::for_patch(p);
        assert_eq!(f.len(), p.memory_points());
        // Halo cells are addressable.
        let _ = f.get(p.im.lo, p.km.lo, p.jm.lo);
    }

    #[test]
    fn field3_compute_sum_excludes_halo() {
        let d = Domain::new(8, 2, 8);
        let dd = two_d_decomposition(d, 1, 2);
        let p = &dd.patches[0];
        let mut f = Field3::<f32>::filled(p.im, p.km, p.jm, 1.0);
        // Poison the halo; sum must not see it.
        f.set(p.im.lo, p.km.lo, p.jm.lo, 1.0e9);
        let s = f.compute_sum(p);
        assert_eq!(s, p.compute_points() as f64);
    }

    #[test]
    fn field4_bin_slice_contiguous() {
        let (i, k, j) = spans();
        let mut f = Field4::<f32>::new(33, i, k, j);
        for n in 0..33 {
            *f.at_mut(n, 2, 2, 2) = n as f32;
        }
        let s = f.bin_slice(2, 2, 2);
        assert_eq!(s.len(), 33);
        for (n, &v) in s.iter().enumerate() {
            assert_eq!(v, n as f32);
        }
        // Neighbouring grid point's slice is untouched.
        assert!(f.bin_slice(3, 2, 2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn field4_distinct_points_disjoint() {
        let (i, k, j) = spans();
        let mut f = Field4::<f64>::new(4, i, k, j);
        f.bin_slice_mut(0, 1, 1).fill(7.0);
        f.bin_slice_mut(1, 1, 1).fill(9.0);
        assert!(f.bin_slice(0, 1, 1).iter().all(|&v| v == 7.0));
        assert!(f.bin_slice(1, 1, 1).iter().all(|&v| v == 9.0));
    }
}
