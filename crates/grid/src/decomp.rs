//! Domain → patch → tile decomposition, mirroring WRF's
//! `module_dm` / `set_tiles` logic.

use crate::index::{Domain, PatchSpec, TileSpec};

/// A full two-dimensional domain decomposition over `ntasks` MPI ranks.
#[derive(Debug, Clone)]
pub struct DomainDecomp {
    /// The decomposed domain.
    pub domain: Domain,
    /// Process grid shape `(nproc_x, nproc_y)`.
    pub shape: (usize, usize),
    /// Per-rank patches, indexed by rank.
    pub patches: Vec<PatchSpec>,
}

/// Chooses the process-grid factorization `nproc_x × nproc_y == ntasks`
/// closest to the domain's aspect ratio, like WRF's
/// `compute_mesh` / MPASPECT. Ties prefer the more square mesh.
pub fn choose_process_mesh(ntasks: usize, nx: usize, ny: usize) -> (usize, usize) {
    assert!(ntasks > 0);
    let mut best = (1, ntasks);
    let mut best_err = f64::INFINITY;
    for px in 1..=ntasks {
        if !ntasks.is_multiple_of(px) {
            continue;
        }
        let py = ntasks / px;
        // How far is the per-patch aspect ratio from square, given the
        // domain aspect ratio? WRF minimizes |nx/px - ny/py| in spirit.
        let err = ((nx as f64 / px as f64) - (ny as f64 / py as f64)).abs();
        if err < best_err {
            best_err = err;
            best = (px, py);
        }
    }
    best
}

/// Decomposes `domain` horizontally into `ntasks` patches on a process grid
/// chosen by [`choose_process_mesh`], with `halo` rows of memory padding on
/// every lateral side. The vertical dimension is never decomposed (WRF only
/// splits horizontally).
pub fn two_d_decomposition(domain: Domain, ntasks: usize, halo: i32) -> DomainDecomp {
    assert!(halo >= 0);
    let (px, py) = choose_process_mesh(ntasks, domain.i.len(), domain.j.len());
    let i_chunks = domain.i.split(px);
    let j_chunks = domain.j.split(py);
    let mut patches = Vec::with_capacity(ntasks);
    for (jy, jspan) in j_chunks.iter().enumerate() {
        for (ix, ispan) in i_chunks.iter().enumerate() {
            let rank = jy * px + ix;
            patches.push(PatchSpec {
                rank,
                coords: (ix, jy),
                ip: *ispan,
                kp: domain.k,
                jp: *jspan,
                im: ispan.grown(halo),
                km: domain.k,
                jm: jspan.grown(halo),
                halo,
            });
        }
    }
    DomainDecomp {
        domain,
        shape: (px, py),
        patches,
    }
}

impl DomainDecomp {
    /// Returns the rank of the neighbouring patch of `rank` in the process
    /// grid (`di`, `dj` in {-1, 0, 1}), or `None` at a domain boundary.
    pub fn neighbor(&self, rank: usize, di: i32, dj: i32) -> Option<usize> {
        let (px, py) = self.shape;
        let (cx, cy) = self.patches[rank].coords;
        let nx = cx as i32 + di;
        let ny = cy as i32 + dj;
        if nx < 0 || ny < 0 || nx >= px as i32 || ny >= py as i32 {
            None
        } else {
            Some(ny as usize * px + nx as usize)
        }
    }

    /// Like [`Self::neighbor`] but with periodic wraparound at domain
    /// boundaries (doubly-periodic lateral boundary conditions).
    pub fn neighbor_periodic(&self, rank: usize, di: i32, dj: i32) -> usize {
        let (px, py) = self.shape;
        let (cx, cy) = self.patches[rank].coords;
        let nx = (cx as i32 + di).rem_euclid(px as i32) as usize;
        let ny = (cy as i32 + dj).rem_euclid(py as i32) as usize;
        ny * px + nx
    }
}

impl DomainDecomp {
    /// Renders the decomposition as an ASCII diagram in the style of the
    /// paper's Figure 1: the domain partitioned into per-rank patches,
    /// with one patch exploded into its index triplets and tiles.
    pub fn render_figure1(&self, ntiles: usize) -> String {
        let (px, py) = self.shape;
        let mut s = String::new();
        s.push_str(&format!(
            "domain (ids:ide, jds:jde) = ({}:{}, {}:{}) on a {}x{} process mesh
",
            self.domain.i.lo, self.domain.i.hi, self.domain.j.lo, self.domain.j.hi, px, py
        ));
        // Patch grid, north at the top.
        for jy in (0..py).rev() {
            s.push('+');
            for _ in 0..px {
                s.push_str("--------+");
            }
            s.push('\n');
            s.push('|');
            for ix in 0..px {
                let rank = jy * px + ix;
                s.push_str(&format!(" rank{rank:>2} |"));
            }
            s.push('\n');
        }
        s.push('+');
        for _ in 0..px {
            s.push_str("--------+");
        }
        s.push('\n');

        // Explode patch 0.
        let p = &self.patches[0];
        s.push_str(&format!(
            "
patch of rank 0: compute (ips:ipe, jps:jpe) = ({}:{}, {}:{}),              memory (ims:ime, jms:jme) = ({}:{}, {}:{}) [halo {}]
",
            p.ip.lo, p.ip.hi, p.jp.lo, p.jp.hi, p.im.lo, p.im.hi, p.jm.lo, p.jm.hi, p.halo
        ));
        let tiles = split_patch_into_tiles(p, ntiles);
        for t in &tiles {
            s.push_str(&format!(
                "  tile {}: (its:ite, jts:jte) = ({}:{}, {}:{})
",
                t.id, t.it.lo, t.it.hi, t.jt.lo, t.jt.hi
            ));
        }
        s
    }
}

/// Splits a patch into `ntiles` tiles along `j` (WRF's default tiling
/// strategy: `set_tiles` splits the south–north dimension among OpenMP
/// threads), falling back to splitting `i` as well when `j` is too short.
pub fn split_patch_into_tiles(patch: &PatchSpec, ntiles: usize) -> Vec<TileSpec> {
    assert!(ntiles > 0);
    let jlen = patch.jp.len();
    if jlen >= ntiles {
        patch
            .jp
            .split(ntiles)
            .into_iter()
            .enumerate()
            .map(|(id, jt)| TileSpec {
                id,
                it: patch.ip,
                kt: patch.kp,
                jt,
            })
            .collect()
    } else {
        // 2-D tiling: as many j strips as possible, split i within each.
        let tj = jlen.max(1);
        let ti = ntiles.div_ceil(tj);
        let mut out = Vec::with_capacity(ntiles);
        let jspans = patch.jp.split(tj);
        let ispans = patch.ip.split(ti);
        let mut id = 0;
        for jt in &jspans {
            for it in &ispans {
                if id == ntiles {
                    break;
                }
                out.push(TileSpec {
                    id,
                    it: *it,
                    kt: patch.kp,
                    jt: *jt,
                });
                id += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_16_tasks_conus() {
        // 425 x 300 over 16 tasks: near-square patches expected.
        let (px, py) = choose_process_mesh(16, 425, 300);
        assert_eq!(px * py, 16);
        // 4x4 gives 106x75 patches; 8x2 gives 53x150. 4x4 is closer.
        assert_eq!((px, py), (4, 4));
    }

    #[test]
    fn mesh_1_task() {
        assert_eq!(choose_process_mesh(1, 100, 100), (1, 1));
    }

    #[test]
    fn mesh_prime_tasks() {
        let (px, py) = choose_process_mesh(7, 700, 100);
        assert_eq!(px * py, 7);
        assert_eq!((px, py), (7, 1));
    }

    #[test]
    fn decomposition_covers_domain_exactly() {
        let d = Domain::new(425, 50, 300);
        let dd = two_d_decomposition(d, 16, 3);
        assert_eq!(dd.patches.len(), 16);
        let total: usize = dd.patches.iter().map(PatchSpec::compute_points).sum();
        assert_eq!(total, d.points());
        // Patches must not overlap: check pairwise disjoint compute spans.
        for a in &dd.patches {
            for b in &dd.patches {
                if a.rank == b.rank {
                    continue;
                }
                let ii = a.ip.intersect(b.ip);
                let jj = a.jp.intersect(b.jp);
                assert!(
                    ii.is_empty() || jj.is_empty(),
                    "patches {} and {} overlap",
                    a.rank,
                    b.rank
                );
            }
        }
    }

    #[test]
    fn memory_spans_include_halo() {
        let d = Domain::new(100, 10, 80);
        let dd = two_d_decomposition(d, 4, 2);
        for p in &dd.patches {
            assert_eq!(p.im.lo, p.ip.lo - 2);
            assert_eq!(p.im.hi, p.ip.hi + 2);
            assert_eq!(p.jm.lo, p.jp.lo - 2);
            assert_eq!(p.jm.hi, p.jp.hi + 2);
            assert_eq!(p.km, p.kp);
        }
    }

    #[test]
    fn neighbors() {
        let d = Domain::new(100, 10, 100);
        let dd = two_d_decomposition(d, 4, 1); // 2x2 grid
        assert_eq!(dd.shape, (2, 2));
        assert_eq!(dd.neighbor(0, 1, 0), Some(1));
        assert_eq!(dd.neighbor(0, 0, 1), Some(2));
        assert_eq!(dd.neighbor(0, -1, 0), None);
        assert_eq!(dd.neighbor(3, -1, 0), Some(2));
        assert_eq!(dd.neighbor(3, 0, 1), None);
    }

    #[test]
    fn tiles_cover_patch() {
        let d = Domain::new(100, 10, 80);
        let dd = two_d_decomposition(d, 4, 1);
        let p = &dd.patches[0];
        for ntiles in [1usize, 2, 3, 8] {
            let tiles = split_patch_into_tiles(p, ntiles);
            let total: usize = tiles.iter().map(TileSpec::points).sum();
            assert_eq!(total, p.compute_points(), "ntiles={ntiles}");
        }
    }

    #[test]
    fn tiles_fall_back_to_2d_when_j_short() {
        let d = Domain::new(64, 10, 2);
        let dd = two_d_decomposition(d, 1, 1);
        let tiles = split_patch_into_tiles(&dd.patches[0], 8);
        let total: usize = tiles.iter().map(TileSpec::points).sum();
        assert_eq!(total, dd.patches[0].compute_points());
        assert_eq!(tiles.len(), 8);
    }
}

#[cfg(test)]
mod figure1_tests {
    use super::*;

    #[test]
    fn figure1_renders_mesh_and_tiles() {
        let d = Domain::new(425, 50, 300);
        let dd = two_d_decomposition(d, 16, 3);
        let s = dd.render_figure1(4);
        assert!(s.contains("(1:425, 1:300)"));
        assert!(s.contains("4x4 process mesh"));
        assert!(s.contains("rank15"));
        assert!(s.contains("tile 3:"));
        assert!(s.contains("[halo 3]"));
        // 4 rows of patches + separators.
        assert!(s.lines().filter(|l| l.starts_with('+')).count() == 5);
    }
}
