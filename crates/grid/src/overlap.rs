//! Interior/boundary decomposition of a patch for comm–compute overlap.
//!
//! WRF hides `HALO_EM_*` latency by advancing interior columns while
//! halo messages are in flight and finishing the boundary frame after
//! the exchange completes. The split here is purely geometric: the
//! *core* is the compute rectangle shrunk by the stencil width on every
//! horizontal side, so a stencil evaluated inside it never reads a halo
//! cell; the *frame* is the remaining ring of boundary strips, disjoint
//! and covering ([`interior_split`]).
//!
//! A refresh is two dependent rounds ([`HaloSide::ROUNDS`]): W/E, then
//! S/N over the full memory `i`-range. Once round 0 has finished, every
//! `i`-halo cell of the compute rows is final, so a row whose `j`-stencil
//! stays inside the compute rows can run at full patch width while round
//! 1 is in flight. [`overlap_plan`] cuts the patch along those rounds so
//! that almost every row runs whole: round 0 hides the core of the first
//! core row, round 1 every later core row at full width plus the first
//! row's two edge pieces, and only the south and north strips wait for
//! the last round.

use crate::halo::HaloSide;
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

/// A short list of regions — the boundary strips of an [`InteriorSplit`],
/// or one step of an [`OverlapPlan`]: at most four regions held inline,
/// so a split or a plan costs no allocation. Reads as a slice of the
/// regions that exist ([`Frame::as_slice`], or through `Deref`).
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

    /// The regions, in order.
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

/// When each region of a patch's tendency runs under an overlapped
/// two-round refresh: a disjoint cover of the compute rectangle, cut so
/// that almost every row runs at full patch width. Built by
/// [`overlap_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapPlan {
    /// What runs between round `r`'s post and finish, by round: round 0
    /// the core of the first core row, whose stencils read no halo cell;
    /// round 1 every later core row at full width and the first core
    /// row's west and east edge pieces, whose stencils read halo cells
    /// only in the W/E columns of compute rows. Empty when the core is.
    pub hidden: [Frame; HaloSide::ROUNDS.len()],
    /// What waits for the last round: the south and north strips, full
    /// width, or the whole patch when the core is empty.
    pub after: Frame,
}

/// Cuts `patch` for a tendency of stencil width `width` under the
/// rounds of [`HaloSide::ROUNDS`] (see [`OverlapPlan`]). A patch with an
/// empty [`interior_split`] core hides nothing.
pub fn overlap_plan(patch: &PatchSpec, width: i32) -> OverlapPlan {
    let split = interior_split(patch, width);
    let core = split.core;
    if core.is_empty() {
        return OverlapPlan {
            hidden: [Frame::of(&[]); HaloSide::ROUNDS.len()],
            after: split.frame,
        };
    }
    let first = Span::new(core.j.lo, core.j.lo);
    let rows = |j: Span| Region { i: patch.ip, j };
    OverlapPlan {
        hidden: [
            Frame::of(&[Region {
                i: core.i,
                j: first,
            }]),
            Frame::of(&[
                rows(Span::new(core.j.lo + 1, core.j.hi)),
                Region {
                    i: Span::new(patch.ip.lo, core.i.lo - 1),
                    j: first,
                },
                Region {
                    i: Span::new(core.i.hi + 1, patch.ip.hi),
                    j: first,
                },
            ]),
        ],
        after: Frame::of(&[
            rows(Span::new(patch.jp.lo, core.j.lo - 1)),
            rows(Span::new(core.j.hi + 1, patch.jp.hi)),
        ]),
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

    /// Every region of `plan`, in run order.
    fn regions(plan: &OverlapPlan) -> impl Iterator<Item = &Region> {
        plan.hidden
            .iter()
            .chain([&plan.after])
            .flat_map(|f| f.iter())
    }

    #[test]
    fn plan_runs_later_core_rows_at_full_width() {
        // An 11 × 15 patch: a 7 × 11 core.
        let p = patch(11, 15);
        let plan = overlap_plan(&p, 2);
        let (ip, jp) = (p.ip, p.jp);
        let region = |i: (i32, i32), j: (i32, i32)| Region {
            i: Span::new(i.0, i.1),
            j: Span::new(j.0, j.1),
        };
        let first = (jp.lo + 2, jp.lo + 2);
        assert_eq!(plan.hidden[0][..], [region((ip.lo + 2, ip.hi - 2), first)]);
        assert_eq!(
            plan.hidden[1][..],
            [
                region((ip.lo, ip.hi), (jp.lo + 3, jp.hi - 2)),
                region((ip.lo, ip.lo + 1), first),
                region((ip.hi - 1, ip.hi), first),
            ]
        );
        assert_eq!(
            plan.after[..],
            [
                region((ip.lo, ip.hi), (jp.lo, jp.lo + 1)),
                region((ip.lo, ip.hi), (jp.hi - 1, jp.hi)),
            ]
        );
        let columns: usize = regions(&plan).map(Region::columns).sum();
        assert_eq!(columns, p.compute_columns());
    }

    #[test]
    fn plan_of_a_patch_without_core_hides_nothing() {
        for (nx, ny) in [(4, 10), (10, 4), (1, 1)] {
            let p = patch(nx, ny);
            let plan = overlap_plan(&p, 2);
            assert!(plan.hidden.iter().all(|h| h.is_empty()));
            assert_eq!(plan.after[..], interior_split(&p, 2).frame[..]);
        }
    }

    /// Property depth: 256 patches on PRs, 4096 under `CI_NIGHTLY`.
    fn cover_cases() -> u32 {
        if std::env::var_os("CI_NIGHTLY").is_some_and(|v| !v.is_empty()) {
            4096
        } else {
            256
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(cover_cases()))]

        /// On any patch (empty, thin, one core row, wide, odd, offset)
        /// and any stencil width up to the halo, the plan is a disjoint
        /// cover of the compute rectangle whose hidden regions read only
        /// cells final by then: round 0's stencils stay inside compute
        /// cells, round 1's inside the compute rows (`i`-halo allowed).
        #[test]
        fn plan_is_a_disjoint_cover_read_in_time(
            shape in (0i32..=40, 0i32..=40),
            origin in (-3i32..=20, -3i32..=20),
            depth in (0i32..=3, 0i32..=3),
        ) {
            let ((nx, ny), (i0, j0)) = (shape, origin);
            let (halo, width) = (depth.0, depth.1.min(depth.0));
            let (ip, jp) = (Span::new(i0, i0 + nx - 1), Span::new(j0, j0 + ny - 1));
            let p = PatchSpec {
                rank: 0,
                coords: (0, 0),
                ip,
                kp: Span::new(1, 2),
                jp,
                im: ip.grown(halo),
                km: Span::new(1, 2),
                jm: jp.grown(halo),
                halo,
            };
            let plan = overlap_plan(&p, width);
            let mut seen = std::collections::HashMap::new();
            for r in regions(&plan) {
                proptest::prop_assert!(!r.is_empty(), "empty region kept: {r:?}");
                for j in r.j.iter() {
                    for i in r.i.iter() {
                        *seen.entry((i, j)).or_insert(0usize) += 1;
                    }
                }
            }
            proptest::prop_assert!(seen.values().all(|&n| n == 1), "overlap: {plan:?}");
            proptest::prop_assert_eq!(seen.len(), p.compute_columns());
            proptest::prop_assert!(seen.keys().all(|&(i, j)| ip.contains(i) && jp.contains(j)));
            let reach = |s: Span| Span::new(s.lo - width, s.hi + width);
            let inside = |outer: Span, s: Span| outer.contains(s.lo) && outer.contains(s.hi);
            for r in plan.hidden[0].iter() {
                proptest::prop_assert!(inside(ip, reach(r.i)) && inside(jp, reach(r.j)), "{r:?}");
            }
            for r in plan.hidden[1].iter() {
                proptest::prop_assert!(inside(p.im, reach(r.i)) && inside(jp, reach(r.j)), "{r:?}");
            }
            let core_empty = interior_split(&p, width).core.is_empty();
            proptest::prop_assert_eq!(core_empty, plan.hidden[0].is_empty());
            // Round 1 always gets the first core row's edge pieces, when
            // the stencil has width at all.
            if width > 0 {
                proptest::prop_assert_eq!(core_empty, plan.hidden[1].is_empty());
            }
            proptest::prop_assert_eq!(interior_split(&p, width).columns(), p.compute_columns());
        }
    }
}
