//! Disjoint-write shared slices for kernel bodies.
//!
//! OpenMP offload kernels freely write shared device arrays, relying on the
//! programmer's (or Codee's) dependence analysis to guarantee that distinct
//! iterations touch disjoint elements — exactly the property Section VI-A
//! of the paper establishes for the FSBM grid-point loops before
//! parallelizing them. [`SyncWriteSlice`] encodes that contract in Rust:
//! it is `Sync` and allows unsynchronized writes, with the disjointness
//! obligation carried by the unsafe constructor.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A shared, writable view of a slice for data-parallel kernels whose
/// iterations write disjoint index sets.
///
/// # Safety contract
///
/// Constructing one asserts that concurrent users never write the same
/// element and never read an element another thread writes during the
/// kernel. This is the OpenMP "no loop-carried dependence" obligation that
/// Codee's analysis discharges for the FSBM loops.
pub struct SyncWriteSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'a UnsafeCell<[T]>>,
}

// SAFETY: the wrapper is a `&'a mut [T]` split into pointer and length
// (`_life` is a zero-sized marker). Moving it to another thread moves
// that exclusive borrow, and the thread may then write or drop elements
// in place: sound for `T: Send`.
unsafe impl<T: Send + Sync> Send for SyncWriteSlice<'_, T> {}
// SAFETY: threads sharing `&SyncWriteSlice` write elements (`T: Send`)
// and read them (`T: Sync`) through the raw pointer without
// synchronization. `new`'s contract makes every such access race-free:
// each element has at most one writer and is never read while another
// thread writes it. `len` is never modified after construction.
unsafe impl<T: Send + Sync> Sync for SyncWriteSlice<'_, T> {}

impl<'a, T> SyncWriteSlice<'a, T> {
    /// Wraps a mutable slice.
    ///
    /// # Safety
    ///
    /// Callers must guarantee that, for the lifetime of the wrapper, every
    /// element index is written by at most one thread and no element is
    /// concurrently read and written by different threads.
    pub unsafe fn new(slice: &'a mut [T]) -> Self {
        SyncWriteSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _life: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `idx`. Bounds-checked.
    #[inline]
    pub fn set(&self, idx: usize, value: T) {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        // SAFETY: bounds checked above; disjointness guaranteed by the
        // constructor's contract.
        unsafe { *self.ptr.add(idx) = value }
    }

    /// Reads the element at `idx` (requires `T: Copy`). Bounds-checked.
    #[inline]
    pub fn get(&self, idx: usize) -> T
    where
        T: Copy,
    {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        // SAFETY: bounds checked; contract forbids concurrent writes to
        // elements being read.
        unsafe { *self.ptr.add(idx) }
    }

    /// A mutable subslice `[start, start+len)` usable by exactly one
    /// thread. Bounds-checked; disjointness across threads remains the
    /// caller's obligation.
    // The &self → &mut deliberately encodes the disjoint-write contract
    // established at construction (UnsafeCell-backed interior mutability).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub fn subslice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(
            start.checked_add(len).is_some_and(|e| e <= self.len),
            "subslice {start}+{len} out of bounds ({})",
            self.len
        );
        // SAFETY: range checked; exclusive use per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_disjoint_writes() {
        let mut data = vec![0u64; 4096];
        {
            // SAFETY: thread `t` writes only indices ≡ t (mod 8); nothing
            // is read until the scope has joined every thread.
            let view = unsafe { SyncWriteSlice::new(&mut data) };
            std::thread::scope(|s| {
                for t in 0..8usize {
                    let view = &view;
                    s.spawn(move || {
                        for i in (t..4096).step_by(8) {
                            view.set(i, i as u64);
                        }
                    });
                }
            });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn subslices_partition() {
        let mut data = vec![0u32; 100];
        {
            // SAFETY: thread `t` owns the disjoint block `[25t, 25t + 25)`.
            let view = unsafe { SyncWriteSlice::new(&mut data) };
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let view = &view;
                    s.spawn(move || {
                        let sub = view.subslice_mut(t * 25, 25);
                        sub.fill(t as u32 + 1);
                    });
                }
            });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v as usize, i / 25 + 1);
        }
    }

    /// Test-only ledger over a view: every `subslice_mut` names the launch
    /// unit it is for, and a range overlapping one handed to a *different*
    /// unit panics — the disjointness `SyncWriteSlice::new`'s callers
    /// promise, checked instead of assumed. (Not a debug check inside the
    /// type: a unit may take its own range again, and the next launch
    /// hands the same ranges out anew; only a launch knows its units.)
    struct Claims<'a, T> {
        view: SyncWriteSlice<'a, T>,
        handed: std::sync::Mutex<Vec<(usize, std::ops::Range<usize>)>>,
    }

    impl<'a, T> Claims<'a, T> {
        fn new(view: SyncWriteSlice<'a, T>) -> Self {
            Claims {
                view,
                handed: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn subslice_mut(&self, unit: usize, start: usize, len: usize) -> &mut [T] {
            let mut handed = self.handed.lock().unwrap();
            for (other, r) in handed.iter() {
                assert!(
                    *other == unit || start >= r.end || start + len <= r.start,
                    "unit {unit} is handed {start}+{len}, aliasing {r:?} of unit {other}"
                );
            }
            handed.push((unit, start..start + len));
            self.view.subslice_mut(start, len)
        }
    }

    /// Cuts `0..n` at `cuts` (taken mod `n`) and deals the pieces out to
    /// `units` owners by `deal`: a random partition into units, each of
    /// several ranges.
    fn partition(n: usize, cuts: &[u32], deal: &[u32], units: usize) -> Vec<Vec<(usize, usize)>> {
        let mut edges: Vec<usize> = cuts.iter().map(|&c| c as usize % n).collect();
        edges.extend([0, n]);
        edges.sort_unstable();
        edges.dedup();
        let mut owned = vec![Vec::new(); units];
        for (piece, w) in edges.windows(2).enumerate() {
            let unit = deal[piece % deal.len()] as usize % units;
            owned[unit].push((w[0], w[1] - w[0]));
        }
        owned
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The invariant `PatchViews::new` leans on for every launch of a
        /// scheme step: units that partition the index space, each
        /// writing its own subslices from its own thread, reproduce the
        /// serial fill — and the ledger sees no unit handed another's
        /// element.
        #[test]
        fn disjoint_units_reproduce_the_serial_fill(
            n in 1usize..3000, units in 1usize..5,
            cuts in proptest::collection::vec(proptest::any::<u32>(), 0usize..40),
            deal in proptest::collection::vec(proptest::any::<u32>(), 1usize..8),
        ) {
            let value = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let serial: Vec<u64> = (0..n).map(value).collect();
            let owned = partition(n, &cuts, &deal, units);
            proptest::prop_assert_eq!(
                owned.iter().flatten().map(|&(_, len)| len).sum::<usize>(), n
            );
            let mut data = vec![0u64; n];
            {
                // SAFETY: `partition` deals every index of `0..n` to
                // exactly one unit (checked again by `Claims`), unit `u`
                // runs on one thread, and nothing reads `data` before the
                // scope has joined them all.
                let claims = Claims::new(unsafe { SyncWriteSlice::new(&mut data) });
                std::thread::scope(|s| {
                    for (unit, ranges) in owned.iter().enumerate() {
                        let claims = &claims;
                        s.spawn(move || {
                            for &(start, len) in ranges {
                                let sub = claims.subslice_mut(unit, start, len);
                                for (off, slot) in sub.iter_mut().enumerate() {
                                    *slot = value(start + off);
                                }
                            }
                        });
                    }
                });
            }
            proptest::prop_assert_eq!(data, serial);
        }
    }

    #[test]
    #[should_panic(expected = "aliasing 0..10 of unit 0")]
    fn aliasing_units_are_caught() {
        let mut data = vec![0u8; 16];
        // SAFETY: used by this thread alone; the second subslice is never
        // created — the ledger panics first.
        let claims = Claims::new(unsafe { SyncWriteSlice::new(&mut data) });
        claims.subslice_mut(0, 0, 10).fill(1);
        // A unit may come back for its own range...
        claims.subslice_mut(0, 4, 6).fill(2);
        // ...but not for one element of another's.
        claims.subslice_mut(1, 9, 3).fill(3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_oob_panics() {
        let mut data = vec![0u8; 4];
        // SAFETY: used by this thread alone.
        let view = unsafe { SyncWriteSlice::new(&mut data) };
        view.set(4, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subslice_oob_panics() {
        let mut data = vec![0u8; 4];
        // SAFETY: used by this thread alone.
        let view = unsafe { SyncWriteSlice::new(&mut data) };
        let _ = view.subslice_mut(2, 3);
    }

    #[test]
    fn get_reads_back() {
        let mut data = vec![1.5f32; 8];
        // SAFETY: used by this thread alone.
        let view = unsafe { SyncWriteSlice::new(&mut data) };
        view.set(3, 7.5);
        assert_eq!(view.get(3), 7.5);
        assert_eq!(view.get(2), 1.5);
        assert_eq!(view.len(), 8);
        assert!(!view.is_empty());
    }
}
