//! Interior/boundary decomposition of a patch for comm–compute overlap.
//!
//! WRF hides `HALO_EM_*` latency by advancing interior columns while
//! halo messages are in flight and finishing the boundary frame after
//! the exchange completes. The split here is purely geometric: the
//! *core* is the compute rectangle shrunk by the stencil width on every
//! horizontal side, so a stencil evaluated inside it never reads a halo
//! cell; the *frame* is the remaining ring of boundary strips, disjoint
//! and covering, evaluated once every halo receive has completed.

use crate::index::{PatchSpec, Span};

/// A rectangular horizontal region of a patch (full vertical extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// West–east span of the region.
    pub i: Span,
    /// South–north span of the region.
    pub j: Span,
}

impl Region {
    /// Number of horizontal columns covered.
    pub fn columns(&self) -> usize {
        self.i.len() * self.j.len()
    }

    /// True when the region covers no columns.
    pub fn is_empty(&self) -> bool {
        self.i.is_empty() || self.j.is_empty()
    }
}

/// The boundary strips of an [`InteriorSplit`]: at most four regions held
/// inline, so a split costs no allocation. Reads as a slice of the
/// strips that exist ([`Frame::as_slice`], or through `Deref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    strips: [Region; 4],
    len: usize,
}

impl Frame {
    /// The non-empty regions of `strips`, in order.
    fn of(strips: &[Region]) -> Self {
        let empty = Region {
            i: Span::new(0, -1),
            j: Span::new(0, -1),
        };
        let mut frame = Frame {
            strips: [empty; 4],
            len: 0,
        };
        for r in strips.iter().filter(|r| !r.is_empty()) {
            frame.strips[frame.len] = *r;
            frame.len += 1;
        }
        frame
    }

    /// The strips, in order.
    pub fn as_slice(&self) -> &[Region] {
        &self.strips[..self.len]
    }
}

impl std::ops::Deref for Frame {
    type Target = [Region];
    fn deref(&self) -> &[Region] {
        self.as_slice()
    }
}

/// The interior core and boundary frame of a patch's compute rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InteriorSplit {
    /// Columns whose `width`-wide stencils stay inside owned data; may
    /// be empty for patches thinner than `2·width + 1`.
    pub core: Region,
    /// Boundary strips covering the rest of the compute rectangle,
    /// pairwise disjoint. Order: south, north, west, east (the strips
    /// that exist).
    pub frame: Frame,
}

impl InteriorSplit {
    /// Total columns across core and frame (equals the patch's).
    pub fn columns(&self) -> usize {
        self.core.columns() + self.frame.iter().map(Region::columns).sum::<usize>()
    }
}

/// Splits `patch`'s compute rectangle into an interior core (safe to
/// advance while halos of stencil width `width` are in flight) and the
/// boundary frame that must wait for the exchange.
pub fn interior_split(patch: &PatchSpec, width: i32) -> InteriorSplit {
    assert!(width >= 0, "stencil width must be non-negative");
    let whole = Region {
        i: patch.ip,
        j: patch.jp,
    };
    // A patch thinner than 2·width+1 in either direction has no safe
    // interior: everything is frame.
    if patch.ip.len() <= 2 * width as usize || patch.jp.len() <= 2 * width as usize {
        return InteriorSplit {
            core: Region {
                i: Span::new(patch.ip.lo, patch.ip.lo - 1),
                j: Span::new(patch.jp.lo, patch.jp.lo - 1),
            },
            frame: Frame::of(&[whole]),
        };
    }
    let core_i = Span::new(patch.ip.lo + width, patch.ip.hi - width);
    let core_j = Span::new(patch.jp.lo + width, patch.jp.hi - width);
    let core = Region {
        i: core_i,
        j: core_j,
    };
    // Disjoint cover of the ring: full-width south/north strips, then
    // west/east strips restricted to the core's j range (the WRF halo
    // convention, mirrored: S/N own the corners here).
    let south = Region {
        i: patch.ip,
        j: Span::new(patch.jp.lo, core_j.lo - 1),
    };
    let north = Region {
        i: patch.ip,
        j: Span::new(core_j.hi + 1, patch.jp.hi),
    };
    let west = Region {
        i: Span::new(patch.ip.lo, core_i.lo - 1),
        j: core_j,
    };
    let east = Region {
        i: Span::new(core_i.hi + 1, patch.ip.hi),
        j: core_j,
    };
    InteriorSplit {
        core,
        frame: Frame::of(&[south, north, west, east]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::two_d_decomposition;
    use crate::index::Domain;

    fn patch(nx: i32, ny: i32) -> PatchSpec {
        let d = Domain::new(nx, 4, ny);
        two_d_decomposition(d, 1, 2).patches[0]
    }

    fn covers_exactly(split: &InteriorSplit, p: &PatchSpec) {
        // Every compute column appears exactly once across core+frame.
        let mut seen = std::collections::HashMap::new();
        let regions: Vec<Region> = std::iter::once(split.core)
            .chain(split.frame.iter().copied())
            .collect();
        for r in &regions {
            for j in r.j.iter() {
                for i in r.i.iter() {
                    *seen.entry((i, j)).or_insert(0usize) += 1;
                }
            }
        }
        for j in p.jp.iter() {
            for i in p.ip.iter() {
                assert_eq!(seen.get(&(i, j)), Some(&1), "column ({i},{j})");
            }
        }
        assert_eq!(seen.len(), p.compute_columns(), "no stray columns");
    }

    #[test]
    fn split_covers_and_is_disjoint() {
        for (nx, ny) in [(10, 8), (5, 20), (7, 7), (32, 22)] {
            let p = patch(nx, ny);
            let s = interior_split(&p, 2);
            covers_exactly(&s, &p);
            assert_eq!(s.columns(), p.compute_columns());
        }
    }

    #[test]
    fn core_is_shrunk_by_width() {
        let p = patch(10, 8);
        let s = interior_split(&p, 2);
        assert_eq!(s.core.i, Span::new(p.ip.lo + 2, p.ip.hi - 2));
        assert_eq!(s.core.j, Span::new(p.jp.lo + 2, p.jp.hi - 2));
        assert_eq!(s.frame.len(), 4);
    }

    #[test]
    fn thin_patch_is_all_frame() {
        // 4 columns in i with width 2: no interior at all.
        for (nx, ny) in [(4, 10), (10, 4), (4, 4), (1, 1)] {
            let p = patch(nx, ny);
            let s = interior_split(&p, 2);
            assert!(s.core.is_empty());
            assert_eq!(s.frame.len(), 1);
            covers_exactly(&s, &p);
        }
    }

    #[test]
    fn width_zero_is_all_core() {
        let p = patch(6, 6);
        let s = interior_split(&p, 0);
        assert_eq!(s.core.i, p.ip);
        assert_eq!(s.core.j, p.jp);
        assert!(s.frame.is_empty());
    }

    #[test]
    fn frame_strips_do_not_touch_core_stencil() {
        // Every core column's width-wide stencil stays inside the
        // compute-plus-halo footprint without reading exchanged cells
        // beyond the compute rect — i.e. stays within the compute rect.
        let p = patch(12, 9);
        let w = 2;
        let s = interior_split(&p, w);
        for j in s.core.j.iter() {
            for i in s.core.i.iter() {
                assert!(p.ip.contains(i - w) && p.ip.contains(i + w));
                assert!(p.jp.contains(j - w) && p.jp.contains(j + w));
            }
        }
    }

    #[test]
    fn decomposed_patches_split_consistently() {
        let d = Domain::new(40, 8, 30);
        let dd = two_d_decomposition(d, 16, 2);
        for p in &dd.patches {
            let s = interior_split(p, 2);
            covers_exactly(&s, p);
        }
    }
}
