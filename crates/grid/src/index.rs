//! Inclusive index ranges and the WRF domain/patch/tile index triplets.

/// An inclusive index range `lo..=hi` (Fortran convention, as in WRF's
/// `its:ite` etc.). Indices are `i32` because WRF ranges may legitimately
/// start below 1 for staggered/memory dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// First index (inclusive).
    pub lo: i32,
    /// Last index (inclusive).
    pub hi: i32,
}

impl Span {
    /// Creates a span `lo..=hi`. Panics if `hi < lo - 1` (a span may be
    /// empty, represented as `hi == lo - 1`, but never "more than empty").
    pub fn new(lo: i32, hi: i32) -> Self {
        assert!(hi >= lo - 1, "invalid span {lo}..={hi}");
        Span { lo, hi }
    }

    /// Number of indices covered.
    #[inline]
    pub fn len(&self) -> usize {
        (self.hi - self.lo + 1).max(0) as usize
    }

    /// True when the span covers no indices.
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// True when `idx` lies inside the span.
    pub fn contains(&self, idx: i32) -> bool {
        idx >= self.lo && idx <= self.hi
    }

    /// Iterator over the indices of the span.
    pub fn iter(&self) -> impl Iterator<Item = i32> + Clone {
        self.lo..=self.hi
    }

    /// Intersection of two spans (may be empty).
    pub fn intersect(&self, other: Span) -> Span {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if hi < lo {
            Span { lo, hi: lo - 1 }
        } else {
            Span { lo, hi }
        }
    }

    /// Expands the span by `n` on both ends (used to build memory spans
    /// from compute spans).
    pub fn grown(&self, n: i32) -> Span {
        Span::new(self.lo - n, self.hi + n)
    }

    /// Splits the span into `parts` near-equal contiguous chunks, WRF-tile
    /// style: the first `len % parts` chunks get one extra index. Chunks for
    /// an empty share are empty spans positioned after the previous chunk.
    pub fn split(&self, parts: usize) -> Vec<Span> {
        assert!(parts > 0, "cannot split into zero parts");
        let (base, extra) = (self.len() / parts, self.len() % parts);
        (0..parts)
            .map(|p| {
                let lo = self.lo + (p * base + p.min(extra)) as i32;
                let mine = base + usize::from(p < extra);
                Span {
                    lo,
                    hi: lo + mine as i32 - 1,
                }
            })
            .collect()
    }
}

/// The full model domain: `ids:ide` (west–east), `kds:kde` (vertical),
/// `jds:jde` (south–north), as in WRF's `grid%id` index trio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// West–east domain span (`ids:ide`).
    pub i: Span,
    /// Vertical domain span (`kds:kde`).
    pub k: Span,
    /// South–north domain span (`jds:jde`).
    pub j: Span,
}

impl Domain {
    /// Convenience constructor for a `1..=nx × 1..=nz × 1..=ny` domain,
    /// e.g. `Domain::new(425, 50, 300)` for CONUS-12km.
    pub fn new(nx: i32, nz: i32, ny: i32) -> Self {
        assert!(nx > 0 && nz > 0 && ny > 0, "domain dims must be positive");
        Domain {
            i: Span::new(1, nx),
            k: Span::new(1, nz),
            j: Span::new(1, ny),
        }
    }

    /// Total number of grid points.
    pub fn points(&self) -> usize {
        self.i.len() * self.k.len() * self.j.len()
    }

    /// Number of horizontal columns.
    pub fn columns(&self) -> usize {
        self.i.len() * self.j.len()
    }
}

/// One MPI task's patch: compute span (`ips:ipe` etc.), memory span
/// including halos (`ims:ime` etc.), and the owning domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchSpec {
    /// Rank that owns this patch (row-major in the process grid).
    pub rank: usize,
    /// Process-grid coordinates `(px, py)`.
    pub coords: (usize, usize),
    /// Compute span in `i` (`ips:ipe`).
    pub ip: Span,
    /// Compute span in `k` (`kps:kpe`; equals the domain `k` span).
    pub kp: Span,
    /// Compute span in `j` (`jps:jpe`).
    pub jp: Span,
    /// Memory span in `i` (`ims:ime`, compute span grown by the halo width,
    /// clamped at physical domain boundaries in WRF; we keep the halo
    /// allocated everywhere for simplicity, as WRF does with `spec_bdy_width`).
    pub im: Span,
    /// Memory span in `k` (`kms:kme`).
    pub km: Span,
    /// Memory span in `j` (`jms:jme`).
    pub jm: Span,
    /// Halo width in grid points.
    pub halo: i32,
}

impl PatchSpec {
    /// Number of compute grid points in the patch.
    pub fn compute_points(&self) -> usize {
        self.ip.len() * self.kp.len() * self.jp.len()
    }

    /// Number of allocated (memory) grid points in the patch.
    pub fn memory_points(&self) -> usize {
        self.im.len() * self.km.len() * self.jm.len()
    }

    /// Number of compute columns (horizontal positions).
    pub fn compute_columns(&self) -> usize {
        self.ip.len() * self.jp.len()
    }
}

/// One OpenMP thread's tile within a patch (`its:ite, kts:kte, jts:jte`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    /// Tile ordinal within the patch.
    pub id: usize,
    /// Tile compute span in `i` (`its:ite`).
    pub it: Span,
    /// Tile compute span in `k` (`kts:kte`).
    pub kt: Span,
    /// Tile compute span in `j` (`jts:jte`).
    pub jt: Span,
}

impl TileSpec {
    /// Number of grid points in the tile.
    pub fn points(&self) -> usize {
        self.it.len() * self.kt.len() * self.jt.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_len_and_contains() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 5);
        assert!(s.contains(3) && s.contains(7) && !s.contains(8));
        assert!(!s.is_empty());
    }

    #[test]
    fn span_empty() {
        let s = Span::new(5, 4);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert!(!s.contains(5));
    }

    #[test]
    #[should_panic]
    fn span_more_than_empty_panics() {
        let _ = Span::new(5, 3);
    }

    #[test]
    fn span_intersect() {
        let a = Span::new(1, 10);
        let b = Span::new(8, 15);
        assert_eq!(a.intersect(b), Span::new(8, 10));
        let c = Span::new(12, 15);
        assert!(a.intersect(c).is_empty());
    }

    #[test]
    fn span_grown() {
        assert_eq!(Span::new(1, 4).grown(2), Span::new(-1, 6));
    }

    #[test]
    fn span_split_even() {
        let parts = Span::new(1, 12).split(3);
        assert_eq!(
            parts,
            vec![Span::new(1, 4), Span::new(5, 8), Span::new(9, 12)]
        );
    }

    #[test]
    fn span_split_remainder_goes_first() {
        let parts = Span::new(1, 10).split(3);
        assert_eq!(parts[0].len(), 4);
        assert_eq!(parts[1].len(), 3);
        assert_eq!(parts[2].len(), 3);
        // Contiguous and covering.
        assert_eq!(parts[0].lo, 1);
        assert_eq!(parts[2].hi, 10);
        assert_eq!(parts[1].lo, parts[0].hi + 1);
    }

    #[test]
    fn span_split_more_parts_than_len() {
        let parts = Span::new(1, 2).split(4);
        let total: usize = parts.iter().map(Span::len).sum();
        assert_eq!(total, 2);
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn domain_points() {
        let d = Domain::new(425, 50, 300);
        assert_eq!(d.points(), 425 * 50 * 300);
        assert_eq!(d.columns(), 425 * 300);
    }
}
