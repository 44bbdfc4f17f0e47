//! The overlapped sweep reads each halo cell only after the round that
//! fills it has finished. The engine here leaves NaN in every halo cell
//! the open round or a later one fills, from `post_panel` until its
//! `finish_panel` writes the true (doubly periodic) values. A tendency
//! that reads a halo cell too early then carries a NaN into its lane,
//! and the overlapped panel no longer equals the blocking one bit for
//! bit.

use fsbm_core::meter::PointWork;
use fsbm_core::panels::LANES;
use proptest::prelude::*;
use wrf_dycore::{rk3_advect_panel, FieldTag, HaloEngine, Rk3Work, Wind};
use wrf_exec::Executor;
use wrf_grid::{interior_split, two_d_decomposition, Domain, Field3, HaloSide, PatchSpec};

/// A doubly-periodic engine over one patch whose halo cells hold NaN
/// while their round is open, and which books absorbed work by round.
struct Poisoned {
    patch: PatchSpec,
    /// The round between `post_panel` and `finish_panel`, if any.
    open: Option<usize>,
    absorbed: [PointWork; HaloSide::ROUNDS.len()],
}

/// An `(i, k, j)` cell.
type Cell = (i32, i32, i32);

impl Poisoned {
    fn new(patch: PatchSpec) -> Self {
        Poisoned {
            patch,
            open: None,
            absorbed: [PointWork::ZERO; HaloSide::ROUNDS.len()],
        }
    }

    /// The halo cells round `round` fills, each with the compute cell it
    /// wraps from: round 0 the W/E columns of the compute rows, round 1
    /// the S/N rows over the full memory `i`-range.
    fn cells(&self, round: usize) -> Vec<(Cell, Cell)> {
        let p = &self.patch;
        let mut cells = Vec::new();
        for k in p.kp.iter() {
            for h in 1..=p.halo {
                if round == 0 {
                    for j in p.jp.iter() {
                        cells.push(((p.ip.lo - h, k, j), (p.ip.hi - h + 1, k, j)));
                        cells.push(((p.ip.hi + h, k, j), (p.ip.lo + h - 1, k, j)));
                    }
                } else {
                    for i in p.im.iter() {
                        cells.push(((i, k, p.jp.lo - h), (i, k, p.jp.hi - h + 1)));
                        cells.push(((i, k, p.jp.hi + h), (i, k, p.jp.lo + h - 1)));
                    }
                }
            }
        }
        cells
    }

    fn fill(&self, round: usize, f: &mut Field3<f32>) {
        for ((i, k, j), (fi, fk, fj)) in self.cells(round) {
            f.set(i, k, j, f.get(fi, fk, fj));
        }
    }
}

impl HaloEngine for Poisoned {
    fn rounds(&self) -> usize {
        HaloSide::ROUNDS.len()
    }
    fn post(&mut self, _round: usize, _field: &Field3<f32>) {}
    fn finish(&mut self, round: usize, field: &mut Field3<f32>) {
        self.fill(round, field);
    }
    fn absorb(&mut self, work: PointWork) {
        let round = self.open.expect("work absorbed outside an open round");
        self.absorbed[round] += work;
    }
    fn post_panel(&mut self, round: usize, fields: &mut [Field3<f32>], _tags: Option<&[FieldTag]>) {
        assert_eq!(self.open, None, "round {round} posted over an open one");
        for later in round..self.rounds() {
            for ((i, k, j), _) in self.cells(later) {
                for f in fields.iter_mut() {
                    f.set(i, k, j, f32::NAN);
                }
            }
        }
        self.open = Some(round);
    }
    fn finish_panel(
        &mut self,
        round: usize,
        fields: &mut [Field3<f32>],
        _tags: Option<&[FieldTag]>,
    ) {
        assert_eq!(self.open, Some(round), "round {round} finished unposted");
        for f in fields.iter_mut() {
            self.fill(round, f);
        }
        self.open = None;
    }
}

/// SplitMix64: the strategies draw the seed, this fills the fields.
fn draw(state: &mut u64, scale: f32) -> f32 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
}

fn advance(
    lanes: &mut [Field3<f32>],
    wind: &Wind,
    patch: &PatchSpec,
    engine: &mut Poisoned,
    pool: Option<&Executor>,
) -> Rk3Work {
    let tags: Vec<FieldTag> = (0..lanes.len()).map(|b| FieldTag::Bin(2, b)).collect();
    let dirty = Field3::filled(patch.im, patch.km, patch.jm, f32::NAN);
    let (mut scratch, mut tend) = (vec![dirty.clone(); lanes.len()], vec![dirty; lanes.len()]);
    let mut work = Rk3Work::default();
    for _ in 0..2 {
        work += rk3_advect_panel(
            lanes,
            &tags,
            wind,
            patch,
            500.0,
            450.0,
            400.0,
            5.0,
            true,
            &mut scratch,
            &mut tend,
            engine,
            pool,
        );
    }
    work
}

/// Blocking against overlapped at 1, 2 and 3 workers on an `nx × ny`
/// patch with `nz` levels and `lanes` scalars: every lane and every cell
/// equal bitwise, the same metered work, and work absorbed in both
/// rounds exactly when the patch has a core.
fn check(nx: i32, nz: i32, ny: i32, lanes: usize, seed: u64) {
    let patch = two_d_decomposition(Domain::new(nx, nz, ny), 1, 2).patches[0];
    let mut state = seed;
    let mut wind = Wind::calm(&patch);
    for f in [&mut wind.u, &mut wind.v, &mut wind.w] {
        for v in f.as_mut_slice() {
            *v = draw(&mut state, 10.0);
        }
    }
    let init: Vec<Field3<f32>> = (0..lanes)
        .map(|_| {
            let mut f = Field3::for_patch(&patch);
            for v in f.as_mut_slice() {
                *v = 1.0 + draw(&mut state, 0.9);
            }
            f
        })
        .collect();

    let mut blocking = Poisoned::new(patch);
    let mut want = init.clone();
    let want_work = advance(&mut want, &wind, &patch, &mut blocking, None);
    assert!(
        want.iter()
            .all(|f| f.as_slice().iter().all(|v| v.is_finite())),
        "the blocking sweep read a poisoned cell"
    );
    assert_eq!(blocking.absorbed, [PointWork::ZERO; 2]);

    let has_core = !interior_split(&patch, 2).core.is_empty();
    for workers in [1usize, 2, 3] {
        let pool = Executor::new(workers);
        let mut engine = Poisoned::new(patch);
        let mut got = init.clone();
        let got_work = advance(&mut got, &wind, &patch, &mut engine, Some(&pool));
        let shape = format!("{nx}x{ny}x{nz}, {lanes} lanes, {workers} workers");
        for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
            for (n, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{shape}: lane {lane}, cell {n}");
            }
        }
        assert_eq!(got_work, want_work, "{shape}");
        for (round, absorbed) in engine.absorbed.iter().enumerate() {
            assert_eq!(absorbed.flops > 0, has_core, "{shape}: round {round}");
        }
    }
}

#[test]
fn named_shapes_read_halos_in_time() {
    // Empty cores (thin in i, in j, in both), one-row cores, the smallest
    // full core, rows longer than the kernel's 64-cell block, odd widths.
    for (nx, ny) in [
        (4, 9),
        (9, 3),
        (2, 2),
        (5, 5),
        (11, 5),
        (5, 12),
        (11, 15),
        (70, 6),
        (131, 7),
    ] {
        check(nx, 2, ny, 2, (nx * 31 + ny) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_shapes_read_halos_in_time(
        shape in (2i32..=140, 1i32..=3, 2i32..=12),
        lanes in 1usize..=LANES,
        seed in any::<u64>(),
    ) {
        check(shape.0, shape.1, shape.2, lanes, seed);
    }
}
