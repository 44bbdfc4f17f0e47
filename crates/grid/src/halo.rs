//! Halo pack/unpack for patch boundary exchange.
//!
//! WRF's `HALO_EM_*` communications copy `halo`-wide strips of each field
//! into messages sent to the four lateral neighbours. Here we pack strips
//! into plain `Vec<f32>` buffers that `mpi-sim` transports; corners are
//! handled WRF-style by exchanging west/east first, then south/north with
//! buffers that include the already-updated halo columns.

use crate::field::Field3;
use crate::index::{PatchSpec, Span};

/// The four lateral directions of a halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaloSide {
    /// Towards smaller `i` (west neighbour).
    West,
    /// Towards larger `i` (east neighbour).
    East,
    /// Towards smaller `j` (south neighbour).
    South,
    /// Towards larger `j` (north neighbour).
    North,
}

impl HaloSide {
    /// All four sides in the exchange order WRF uses (i-direction first).
    pub const ALL: [HaloSide; 4] = [
        HaloSide::West,
        HaloSide::East,
        HaloSide::South,
        HaloSide::North,
    ];

    /// The two dependent rounds of an exchange and the sides each moves:
    /// W/E first, then S/N over the full memory `i`-range, so corners
    /// ride the second round.
    pub const ROUNDS: [[HaloSide; 2]; 2] = [
        [HaloSide::West, HaloSide::East],
        [HaloSide::South, HaloSide::North],
    ];

    /// The offset `(di, dj)` of the neighbour this side faces.
    pub fn offset(self) -> (i32, i32) {
        match self {
            HaloSide::West => (-1, 0),
            HaloSide::East => (1, 0),
            HaloSide::South => (0, -1),
            HaloSide::North => (0, 1),
        }
    }

    /// The side the *neighbour* unpacks into when we pack this side.
    pub fn opposite(self) -> HaloSide {
        match self {
            HaloSide::West => HaloSide::East,
            HaloSide::East => HaloSide::West,
            HaloSide::South => HaloSide::North,
            HaloSide::North => HaloSide::South,
        }
    }
}

/// The strip of *owned compute cells* that must be sent to the `side`
/// neighbour. For W/E this is `halo` columns just inside the compute edge
/// over the compute `j` range; for S/N it is `halo` rows over the *memory*
/// `i` range (so corners propagate after the W/E phase).
fn send_strip(p: &PatchSpec, side: HaloSide) -> (Span, Span) {
    let h = p.halo;
    match side {
        HaloSide::West => (Span::new(p.ip.lo, p.ip.lo + h - 1), p.jp),
        HaloSide::East => (Span::new(p.ip.hi - h + 1, p.ip.hi), p.jp),
        HaloSide::South => (p.im, Span::new(p.jp.lo, p.jp.lo + h - 1)),
        HaloSide::North => (p.im, Span::new(p.jp.hi - h + 1, p.jp.hi)),
    }
}

/// The halo strip we *receive into* from the `side` neighbour.
fn recv_strip(p: &PatchSpec, side: HaloSide) -> (Span, Span) {
    let h = p.halo;
    match side {
        HaloSide::West => (Span::new(p.ip.lo - h, p.ip.lo - 1), p.jp),
        HaloSide::East => (Span::new(p.ip.hi + 1, p.ip.hi + h), p.jp),
        HaloSide::South => (p.im, Span::new(p.jp.lo - h, p.jp.lo - 1)),
        HaloSide::North => (p.im, Span::new(p.jp.hi + 1, p.jp.hi + h)),
    }
}

/// Packs the strip of `field` facing `side` into a buffer (`j`-major, then
/// `k`, then `i` fastest), one contiguous `i`-run at a time. Returns the
/// number of `f32` elements packed.
pub fn pack_halo(field: &Field3<f32>, p: &PatchSpec, side: HaloSide, buf: &mut Vec<f32>) -> usize {
    let (is, js) = send_strip(p, side);
    let start = buf.len();
    buf.reserve(is.len() * p.kp.len() * js.len());
    for j in js.iter() {
        for k in p.kp.iter() {
            buf.extend_from_slice(field.run(is, k, j));
        }
    }
    buf.len() - start
}

/// Unpacks a buffer produced by the neighbour's [`pack_halo`] into the halo
/// strip of `field` facing `side`. Panics if the buffer length mismatches.
pub fn unpack_halo(field: &mut Field3<f32>, p: &PatchSpec, side: HaloSide, buf: &[f32]) {
    let (is, js) = recv_strip(p, side);
    assert_eq!(
        buf.len(),
        is.len() * p.kp.len() * js.len(),
        "halo buffer size mismatch on {side:?}"
    );
    let mut at = 0;
    for j in js.iter() {
        for k in p.kp.iter() {
            field
                .run_mut(is, k, j)
                .copy_from_slice(&buf[at..at + is.len()]);
            at += is.len();
        }
    }
}

/// Number of f32 elements a halo message on `side` carries for one field.
pub fn halo_message_len(p: &PatchSpec, side: HaloSide) -> usize {
    let (is, js) = send_strip(p, side);
    is.len() * p.kp.len() * js.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::two_d_decomposition;
    use crate::index::Domain;

    /// Exchange halos between two horizontally adjacent patches via
    /// pack/unpack and verify the halo cells now mirror the neighbour's
    /// owned cells.
    #[test]
    fn west_east_exchange_roundtrip() {
        let d = Domain::new(16, 3, 8);
        let dd = two_d_decomposition(d, 2, 2);
        assert_eq!(dd.shape, (2, 1));
        let (p0, p1) = (&dd.patches[0], &dd.patches[1]);

        // Fill each patch's field with a globally-defined function so we can
        // check the received halo against ground truth.
        let f = |i: i32, k: i32, j: i32| (100 * i + 10 * k + j) as f32;
        let mut f0 = Field3::<f32>::for_patch(p0);
        let mut f1 = Field3::<f32>::for_patch(p1);
        for p in [p0, p1] {
            let tgt = if p.rank == 0 { &mut f0 } else { &mut f1 };
            for j in p.jp.iter() {
                for k in p.kp.iter() {
                    for i in p.ip.iter() {
                        tgt.set(i, k, j, f(i, k, j));
                    }
                }
            }
        }

        // p0 packs East, p1 unpacks West (and vice versa).
        let mut buf = Vec::new();
        pack_halo(&f0, p0, HaloSide::East, &mut buf);
        unpack_halo(&mut f1, p1, HaloSide::West, &buf);
        buf.clear();
        pack_halo(&f1, p1, HaloSide::West, &mut buf);
        unpack_halo(&mut f0, p0, HaloSide::East, &buf);

        // p1's west halo must equal ground truth of p0's cells.
        for j in p1.jp.iter() {
            for k in p1.kp.iter() {
                for i in (p1.ip.lo - p1.halo)..p1.ip.lo {
                    assert_eq!(f1.get(i, k, j), f(i, k, j));
                }
            }
        }
        // p0's east halo likewise.
        for j in p0.jp.iter() {
            for k in p0.kp.iter() {
                for i in (p0.ip.hi + 1)..=(p0.ip.hi + p0.halo) {
                    assert_eq!(f0.get(i, k, j), f(i, k, j));
                }
            }
        }
    }

    /// Row-wise copies must keep the `(j, k, i-fastest)` wire order of a
    /// per-element loop on every side, and unpack must touch halo cells
    /// only — on a non-square patch so a transposed strip cannot pass.
    #[test]
    fn row_copies_match_per_element_loops() {
        let d = Domain::new(11, 3, 7);
        let p = &two_d_decomposition(d, 1, 2).patches[0];
        let mut f = Field3::<f32>::for_patch(p);
        for (n, v) in f.as_mut_slice().iter_mut().enumerate() {
            *v = n as f32;
        }
        for side in HaloSide::ALL {
            let (is, js) = send_strip(p, side);
            let mut want = Vec::new();
            for j in js.iter() {
                for k in p.kp.iter() {
                    for i in is.iter() {
                        want.push(f.get(i, k, j));
                    }
                }
            }
            let mut got = vec![-1.0];
            assert_eq!(pack_halo(&f, p, side, &mut got), want.len(), "{side:?}");
            assert_eq!(got[0], -1.0, "pack appends");
            assert_eq!(&got[1..], &want[..], "{side:?}");

            // Unpack a recognisable buffer: exactly the receive strip
            // changes, in the same element order.
            let marks: Vec<f32> = (0..want.len()).map(|n| -(n as f32) - 1.0).collect();
            let mut g = f.clone();
            unpack_halo(&mut g, p, side, &marks);
            let (ir, jr) = recv_strip(p, side);
            let mut next = marks.iter();
            for j in p.jm.iter() {
                for k in p.km.iter() {
                    for i in p.im.iter() {
                        if ir.contains(i) && jr.contains(j) && p.kp.contains(k) {
                            assert!(!(p.ip.contains(i) && p.jp.contains(j)), "{side:?}");
                        } else {
                            assert_eq!(g.get(i, k, j), f.get(i, k, j), "{side:?} ({i},{k},{j})");
                        }
                    }
                }
            }
            for j in jr.iter() {
                for k in p.kp.iter() {
                    for i in ir.iter() {
                        assert_eq!(g.get(i, k, j), *next.next().unwrap(), "{side:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn message_len_matches_pack() {
        let d = Domain::new(20, 5, 20);
        let dd = two_d_decomposition(d, 4, 2);
        let p = &dd.patches[0];
        for side in HaloSide::ALL {
            let mut buf = Vec::new();
            let n = pack_halo(&Field3::<f32>::for_patch(p), p, side, &mut buf);
            assert_eq!(n, halo_message_len(p, side), "{side:?}");
            assert_eq!(buf.len(), n);
        }
    }

    #[test]
    fn north_south_strips_span_memory_i() {
        // Corner propagation: S/N messages must cover the full memory i
        // range (including W/E halo columns).
        let d = Domain::new(20, 5, 20);
        let dd = two_d_decomposition(d, 4, 2);
        let p = &dd.patches[0];
        let n_sn = halo_message_len(p, HaloSide::North);
        assert_eq!(n_sn, p.im.len() * p.kp.len() * p.halo as usize);
    }

    #[test]
    fn opposite_sides() {
        for s in HaloSide::ALL {
            assert_eq!(s.opposite().opposite(), s);
            let (di, dj) = s.offset();
            let (odi, odj) = s.opposite().offset();
            assert_eq!((di + odi, dj + odj), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "halo buffer size mismatch")]
    fn unpack_wrong_size_panics() {
        let d = Domain::new(8, 2, 8);
        let dd = two_d_decomposition(d, 1, 1);
        let p = &dd.patches[0];
        let mut f = Field3::<f32>::for_patch(p);
        unpack_halo(&mut f, p, HaloSide::West, &[0.0; 3]);
    }
}
