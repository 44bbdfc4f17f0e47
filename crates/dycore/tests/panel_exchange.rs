//! The panel exchange is the per-lane exchange, bit for bit: an engine
//! on `HaloEngine`'s default panel hooks (lane after lane, posted late)
//! and one that really batches (every lane in one buffer per side) must
//! leave every lane with the same bits over the whole memory extent and
//! meter the same work, blocking and overlapped.

mod common;

use common::Batching;
use fsbm_core::meter::PointWork;
use fsbm_core::panels::LANES;
use proptest::prelude::*;
use wrf_dycore::{rk3_advect_panel, FieldTag, HaloEngine, Rk3Work, Wind};
use wrf_exec::Executor;
use wrf_grid::{two_d_decomposition, Domain, Field3, PatchSpec};

/// The same exchange behind the trait's default panel hooks: only the
/// four required methods, so the driver services it lane by lane.
struct PerLane(Batching);

impl HaloEngine for PerLane {
    fn rounds(&self) -> usize {
        self.0.rounds()
    }
    fn post(&mut self, round: usize, field: &Field3<f32>) {
        self.0.post(round, field);
    }
    fn finish(&mut self, round: usize, field: &mut Field3<f32>) {
        self.0.finish(round, field);
    }
    fn absorb(&mut self, work: PointWork) {
        self.0.absorb(work);
    }
}

/// A small deterministic generator: the strategies draw the seed, this
/// fills the fields (exact `0.0` and `-0.0` about once in eight draws
/// each).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn signed(&mut self, scale: f32) -> f32 {
        match self.next() % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (self.next() % 2001) as f32 / 1000.0 * scale - scale,
        }
    }
}

fn bits(f: &Field3<f32>) -> Vec<u32> {
    f.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn advance(
    engine: &mut dyn HaloEngine,
    lanes: &mut [Field3<f32>],
    wind: &Wind,
    patch: &PatchSpec,
    positive: bool,
    pool: Option<&Executor>,
) -> Rk3Work {
    let tags: Vec<FieldTag> = (0..lanes.len()).map(|b| FieldTag::Bin(1, b)).collect();
    // Workspaces start dirty: nothing may leak out of them.
    let dirty = Field3::filled(patch.im, patch.km, patch.jm, f32::NAN);
    let (mut scratch, mut tend) = (vec![dirty.clone(); LANES], vec![dirty; LANES]);
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
            6.0,
            positive,
            &mut scratch,
            &mut tend,
            engine,
            pool,
        );
    }
    work
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_panel_exchange_is_the_per_lane_exchange_bitwise(
        shape in (2i32..15, 1i32..5, 2i32..13, 2i32..4),
        lanes in 1usize..=LANES,
        positive in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (nx, nz, ny, halo) = shape;
        let patch = two_d_decomposition(Domain::new(nx, nz, ny), 1, halo).patches[0];
        let mut rng = Lcg(seed);
        let mut wind = Wind::calm(&patch);
        for f in [&mut wind.u, &mut wind.v, &mut wind.w] {
            for v in f.as_mut_slice() {
                *v = rng.signed(12.0);
            }
        }
        let scalars: Vec<Field3<f32>> = (0..lanes)
            .map(|_| {
                let mut f = Field3::for_patch(&patch);
                for v in f.as_mut_slice() {
                    *v = rng.signed(2.0);
                }
                f
            })
            .collect();

        let pools = [None, Some(Executor::new(1)), Some(Executor::new(3))];
        for pool in &pools {
            let workers = pool.as_ref().map(Executor::workers);
            let mut per_lane = PerLane(Batching::new(patch));
            let mut want = scalars.clone();
            let want_work = advance(&mut per_lane, &mut want, &wind, &patch, positive, pool.as_ref());

            let mut batching = Batching::new(patch);
            let mut got = scalars.clone();
            let got_work = advance(&mut batching, &mut got, &wind, &patch, positive, pool.as_ref());

            for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(bits(g), bits(w), "lane {} workers {:?}", lane, workers);
            }
            prop_assert_eq!(got_work, want_work, "workers {:?}", workers);
            prop_assert_eq!(batching.absorbed, per_lane.0.absorbed, "workers {:?}", workers);
            // Two calls × four refreshes × two rounds × two sides: the
            // batching engine's count follows the panels, the default
            // hooks' the scalars.
            prop_assert_eq!(batching.messages, 2 * 4 * 2 * 2);
            prop_assert_eq!(per_lane.0.messages, batching.messages * lanes as u64);
        }
    }
}
