//! Multi-rank functional runs: the WRF `wrf.exe` execution shape.
//!
//! Each MPI rank (an `mpi-sim` thread) owns one patch, advances the same
//! time loop, and exchanges halos with its doubly-periodic neighbours
//! before every advection stage — WRF's `HALO_EM_SCALAR` pattern, one
//! message per neighbour carrying every scalar of the panel. The
//! occupied-bin masks are OR-reduced across ranks before each step (one
//! packed collective) so all ranks advect an identical panel sequence
//! (the exchanges must pair up deterministically).
//!
//! One exchange engine ([`MpiHaloEngine`]) moves every halo; `cfg.comm`
//! decides only when the interior tendency runs relative to it:
//! * [`CommMode::Blocking`] — every refresh completes (pack, send, wait,
//!   unpack on all four sides) before any tendency work, as stock WRF
//!   does. This is the behaviour behind the paper's Table VII
//!   observation that at 256 cores the run is "dominated by the cost of
//!   MPI communication".
//! * [`CommMode::Overlapped`] — the interior core's tendencies, all
//!   lanes of the panel in one sweep, advance on the work-stealing pool
//!   between each round's post and its wait, then the boundary frame
//!   finishes after the unpack. Results are
//!   bitwise-identical; only the modeled α–β cost moves off the critical
//!   path (tracked per rank in [`CommStats`]).

use crate::config::ModelConfig;
use crate::model::{Model, RunReport, StepReport};
use crate::perfmodel::{rank_footprint, staged_bytes, PerfParams};
use fsbm_core::meter::PointWork;
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use gpu_sim::devicepool::{DevicePool, RankSubmission, ShareReport};
use gpu_sim::error::DeviceError;
use gpu_sim::machine::{Calibration, GpuParams, SLINGSHOT};
use mpi_sim::comm::{run_ranks_with_faults, CommError, CommMode, Rank, RecvRequest};
use mpi_sim::cost::{CommCost, OverlapStats, Topology};
use mpi_sim::{FaultPlan, DEFAULT_TIMEOUT, OR_WORDS};
use std::sync::Arc;
use std::time::Duration;
use wrf_dycore::{FieldTag, HaloEngine};
use wrf_grid::halo::halo_message_len;
use wrf_grid::{
    pack_halo, two_d_decomposition, unpack_halo, DomainDecomp, Field3, HaloSide, PatchSpec,
};

/// Output of a parallel run, rank-ordered.
#[derive(Debug)]
pub struct ParallelRun {
    /// Final state of every rank's patch.
    pub states: Vec<SbmPatchState>,
    /// Per-rank run reports.
    pub reports: Vec<RunReport>,
}

/// A rank that could not finish its attempt: either it was killed by a
/// fault plan, or it detected a peer's death through a timed-out
/// receive/collective. Carries the full (rank, step, error) context the
/// supervisor logs before relaunching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// The reporting rank.
    pub rank: usize,
    /// The 0-based step it was executing.
    pub step: u64,
    /// What it observed.
    pub error: CommError,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed at step {}: {}",
            self.rank, self.step, self.error
        )
    }
}

impl std::error::Error for RankFailure {}

/// Per-rank resume point: (completed steps, model clock bits, state).
pub(crate) type StartPoint = (u64, f32, SbmPatchState);

/// Per-rank modeled halo-communication summary (α–β cost model over the
/// run's topology; the functional payload moves through shared memory
/// regardless).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommStats {
    /// Exchange engine the run used.
    pub mode: CommMode,
    /// Halo messages this rank sent: one per neighbour per round per
    /// panel refresh, however many scalars ride the panel.
    pub msgs: u64,
    /// Halo bytes this rank sent.
    pub bytes: u64,
    /// Modeled seconds on the critical path (blocking sends, plus the
    /// exposed remainder of nonblocking ones).
    pub secs: f64,
    /// Nonblocking post/complete/hidden accounting (zero when blocking).
    pub overlap: OverlapStats,
}

/// Per-rank device-sharing summary from the post-run pool replay
/// (offloaded runs with `ModelConfig::gpus > 0` only). Queue seconds
/// are exposed *device* waiting — kept separate from [`CommStats`]'s
/// exposed halo seconds, as the two contend for different resources.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShareStats {
    /// Device this rank round-robins onto.
    pub device: usize,
    /// Devices in the pool.
    pub devices: usize,
    /// Peak co-resident submissions on the rank's device in any step.
    pub sharers: usize,
    /// Summed modeled device service seconds over the run.
    pub service_secs: f64,
    /// Summed exposed queue seconds over the run (peer services +
    /// context slices; zero on exclusive devices).
    pub queue_secs: f64,
}

/// Modeled device occupancy of one functional step: the offloaded
/// collision work priced at the sustained device rate plus launch
/// overhead and the staged slab transfers — all from metered counters,
/// never wall clocks, so the post-run device replay is deterministic.
/// `dev`/`calib` come from the run's backend bundle; the default backend
/// reproduces the historical A100 arithmetic bitwise.
fn device_service_secs(
    patch: &PatchSpec,
    s: &StepReport,
    dev: &GpuParams,
    calib: &Calibration,
) -> f64 {
    let kernel = s.sbm.work.coal.flops as f64 / (dev.fp32_flops * calib.gpu_sustained_fraction)
        + dev.launch_overhead;
    kernel
        + 2.0
            * (dev.pcie_latency + staged_bytes(patch.compute_points() as u64) as f64 / dev.pcie_bw)
}

/// Tag slots reserved per refresh: 2 phases × 2 sides, with headroom.
const TAGS_PER_REFRESH: u64 = 16;

/// Direction-coded tag so a two-patch dimension (both neighbours are
/// the same rank) stays unambiguous. `tag_base` advances once per panel
/// refresh, identically on every rank; 64-bit so long runs never wrap
/// (the old `u32` space aliased after ~2²⁸ refreshes).
pub(crate) fn side_tag(tag_base: u64, phase: usize, s_idx: usize) -> u64 {
    tag_base * TAGS_PER_REFRESH + phase as u64 * 4 + s_idx as u64
}

/// The halo exchange with the four periodic neighbours: each refresh is
/// two dependent rounds (W/E then S/N, as `HALO_EM_*` orders them so
/// corners ride the second round), and a refresh serves a whole panel —
/// like the `HALO_EM_*` macros, one message per neighbour carries every
/// lane's strip (lane-major; inside a lane the `pack_halo` order).
/// `post_panel` packs, prices and sends both sides of a round and leaves
/// the receives pending; `finish_panel` waits and unpacks into halo
/// cells only; `post`/`finish` are their one-lane case. `mode` touches
/// nothing but the α–β ledger: a blocking run prices each message eagerly
/// on the critical path ([`CommCost::p2p`]); an overlapped run holds it
/// in flight ([`CommCost::post_p2p`]) so tendency work reported through
/// `absorb` can hide it before [`CommCost::complete_all`] settles the
/// round.
struct MpiHaloEngine<'a> {
    rank: &'a mut Rank,
    dd: &'a DomainDecomp,
    patch: PatchSpec,
    mode: CommMode,
    /// This rank's modeled communication ledger.
    cost: CommCost,
    /// Modeled seconds per absorbed tendency flop (the perf model's
    /// sustained advection rate), keeping the hidden/exposed ledger
    /// deterministic — no wall clocks.
    secs_per_flop: f64,
    /// Panel refreshes completed so far: the tag base of the current
    /// one, advancing identically on every rank.
    tag_base: u64,
    /// The open round's receives; the list and the pack buffer are
    /// reused across refreshes.
    pending: Vec<(HaloSide, RecvRequest)>,
    buf: Vec<f32>,
    /// First communication error of the step. The `HaloEngine` trait's
    /// hooks return `()`, so the error is latched here and every later
    /// hook short-circuits — without the latch, a dead peer would cost
    /// one full timeout per remaining panel rather than one total.
    error: Option<CommError>,
}

impl<'a> MpiHaloEngine<'a> {
    fn new(rank: &'a mut Rank, dd: &'a DomainDecomp, mode: CommMode) -> Self {
        let (me, ranks) = (rank.rank(), dd.patches.len());
        // Block placement, 128-core Perlmutter CPU nodes (§IV).
        let topo = Topology::new(ranks, ranks.min(128));
        MpiHaloEngine {
            rank,
            dd,
            patch: dd.patches[me],
            mode,
            cost: CommCost::new(SLINGSHOT, topo, me),
            secs_per_flop: 1.0 / PerfParams::default().adv_flops_per_core,
            tag_base: 0,
            pending: Vec::new(),
            buf: Vec::new(),
            error: None,
        }
    }

    /// Packs, prices and sends both sides of round `round` for every
    /// lane of `fields`, and leaves the receives pending.
    fn send_round(&mut self, round: usize, fields: &[Field3<f32>]) {
        if self.error.is_some() {
            return;
        }
        assert!(self.pending.is_empty(), "round {round} posted over pending");
        let sides = HaloSide::ROUNDS[round];
        for (s_idx, &side) in sides.iter().enumerate() {
            let (di, dj) = side.offset();
            let peer = self.dd.neighbor_periodic(self.rank.rank(), di, dj);
            self.buf.clear();
            for field in fields {
                pack_halo(field, &self.patch, side, &mut self.buf);
            }
            let bytes = (self.buf.len() * 4) as u64;
            match self.mode {
                CommMode::Blocking => self.cost.p2p(peer, bytes),
                CommMode::Overlapped => self.cost.post_p2p(peer, bytes),
            };
            if let Err(e) =
                self.rank
                    .send_f32_checked(peer, side_tag(self.tag_base, round, s_idx), &self.buf)
            {
                self.error = Some(e);
                return;
            }
        }
        for (s_idx, &side) in sides.iter().enumerate() {
            let (di, dj) = side.offset();
            let peer = self.dd.neighbor_periodic(self.rank.rank(), di, dj);
            // The peer sent toward us with the *opposite* side's index.
            let tag = side_tag(self.tag_base, round, 1 - s_idx);
            let req = self.rank.irecv_f32(peer, tag);
            self.pending.push((side, req));
        }
    }
}

impl HaloEngine for MpiHaloEngine<'_> {
    fn rounds(&self) -> usize {
        2
    }

    fn post(&mut self, round: usize, field: &Field3<f32>) {
        self.send_round(round, std::slice::from_ref(field));
    }

    fn finish(&mut self, round: usize, field: &mut Field3<f32>) {
        self.finish_panel(round, std::slice::from_mut(field), None);
    }

    fn absorb(&mut self, work: PointWork) {
        self.cost
            .absorb_compute(work.flops as f64 * self.secs_per_flop);
    }

    fn post_panel(&mut self, round: usize, fields: &mut [Field3<f32>], _tags: Option<&[FieldTag]>) {
        self.send_round(round, fields);
    }

    fn finish_panel(
        &mut self,
        round: usize,
        fields: &mut [Field3<f32>],
        _tags: Option<&[FieldTag]>,
    ) {
        if round + 1 == self.rounds() {
            self.tag_base += 1;
        }
        let mut pending = std::mem::take(&mut self.pending);
        for (side, req) in pending.drain(..) {
            if self.error.is_some() {
                break;
            }
            let (peer, tag) = (req.from(), req.tag());
            match self.rank.wait_checked(req) {
                Ok(data) => {
                    // A peer that packed another number of lanes must not
                    // be unpacked into the wrong ones.
                    let lane = halo_message_len(&self.patch, side);
                    if data.len() != fields.len() * lane {
                        self.error = Some(CommError::MalformedPayload {
                            rank: self.rank.rank(),
                            peer,
                            tag,
                            step: self.rank.step(),
                            expected: fields.len() * lane,
                            received: data.len(),
                        });
                        break;
                    }
                    for (field, strip) in fields.iter_mut().zip(data.chunks_exact(lane)) {
                        unpack_halo(field, &self.patch, side, strip);
                    }
                }
                Err(e) => self.error = Some(e),
            }
        }
        // Drained whole, early exit or not; the capacity goes back.
        self.pending = pending;
        self.cost.complete_all();
    }
}

/// Words of the packed occupied-bin masks: bit `class · NKR + bin`.
fn pack_masks(masks: &[[bool; NKR]; NTYPES]) -> [u64; OR_WORDS] {
    let mut words = [0u64; OR_WORDS];
    for (c, row) in masks.iter().enumerate() {
        for (b, _) in row.iter().enumerate().filter(|(_, &set)| set) {
            let bit = c * NKR + b;
            words[bit / 64] |= 1 << (bit % 64);
        }
    }
    words
}

/// OR-reduces the occupied-bin masks across all ranks: the 231 flags
/// packed into one bitwise-OR all-reduce, the single packed reduction
/// `perfmodel` prices for the real run. Because this runs at the top of
/// every step on every rank, it doubles as the failure detector: a dead
/// rank stalls the reduction and every survivor sees `CollectiveTimeout`
/// within one timeout period.
fn allreduce_masks(
    rank: &Rank,
    local: [[bool; NKR]; NTYPES],
) -> Result<[[bool; NKR]; NTYPES], CommError> {
    const { assert!(NTYPES * NKR <= 64 * OR_WORDS) };
    let words = rank.allreduce_or_checked(pack_masks(&local))?;
    Ok(std::array::from_fn(|c| {
        std::array::from_fn(|b| {
            let bit = c * NKR + b;
            words[bit / 64] >> (bit % 64) & 1 == 1
        })
    }))
}

/// The reduction [`allreduce_masks`] replaced, kept as its reference:
/// one 0/1 max all-reduce per (class, bin).
#[cfg(test)]
fn allreduce_masks_per_flag(
    rank: &Rank,
    local: [[bool; NKR]; NTYPES],
) -> Result<[[bool; NKR]; NTYPES], CommError> {
    let mut out = local;
    for (c, row) in out.iter_mut().enumerate() {
        for (b, slot) in row.iter_mut().enumerate() {
            let v = if local[c][b] { 1.0 } else { 0.0 };
            *slot = rank.allreduce_max_checked(v)? > 0.5;
        }
    }
    Ok(out)
}

/// What a rank should write while it runs: restart files under `dir`
/// every `interval` completed steps.
pub(crate) struct CheckpointSpec<'a> {
    /// Directory the per-rank restart files live in.
    pub dir: &'a std::path::Path,
    /// Steps between checkpoints (> 0).
    pub interval: usize,
    /// Shared counter of restart files written (supervisor ledger).
    pub writes: &'a std::sync::atomic::AtomicU64,
}

/// One supervised attempt at integrating `steps` total steps on
/// `cfg.ranks` ranks. Every communication is checked: a rank that is
/// killed by `plan`, or that detects a dead peer through a timed-out
/// receive or collective, returns a [`RankFailure`] instead of
/// panicking or hanging — the supervisor in [`crate::restart`] decides
/// what happens next. `start` resumes each rank from a checkpoint
/// (completed steps, clock, state); `checkpoint` enables periodic
/// restart writes. The normal path ([`run_parallel`]) is this function
/// with everything off, so faulted and fault-free runs share every
/// arithmetic instruction.
pub(crate) fn run_attempt(
    cfg: ModelConfig,
    steps: usize,
    start: Option<&[StartPoint]>,
    checkpoint: Option<CheckpointSpec<'_>>,
    plan: Option<Arc<FaultPlan>>,
    timeout: Duration,
) -> Vec<Result<(SbmPatchState, RunReport), RankFailure>> {
    let dd = two_d_decomposition(cfg.case.domain(), cfg.ranks, cfg.halo);
    let dd_ref = &dd;
    let checkpoint = checkpoint.as_ref();
    run_ranks_with_faults(cfg.ranks, plan, timeout, move |mut rank| {
        let me = rank.rank();
        let patch = dd_ref.patches[me];
        let mut model = Model::for_patch(cfg, patch);
        let mut start_step = 0u64;
        if let Some(points) = start {
            let (done, time, state) = &points[me];
            start_step = *done;
            model.time = *time;
            model.state = state.clone();
        }
        let mut report = RunReport::default();
        let track_device = cfg.gpus > 0 && cfg.version.offloaded();
        let (device, calib) = (cfg.backend.device_params(), cfg.backend.calib);
        let fail = |step: u64, error: CommError| RankFailure {
            rank: me,
            step,
            error,
        };
        let mut engine = MpiHaloEngine::new(&mut rank, dd_ref, cfg.comm);
        for step in start_step..steps as u64 {
            // The kill hook, and the failure detector: see
            // `allreduce_masks`.
            engine.rank.begin_step(step).map_err(|e| fail(step, e))?;
            let masks =
                allreduce_masks(engine.rank, model.occupied_masks()).map_err(|e| fail(step, e))?;
            let s = model.step_with(&mut engine, &masks);
            if let Some(e) = engine.error.take() {
                return Err(fail(step, e));
            }
            if track_device {
                report
                    .device_secs_per_step
                    .push(device_service_secs(&patch, &s, &device, &calib));
            }
            report.absorb(s);
            let done = step + 1;
            if let Some(spec) = checkpoint {
                if spec.interval > 0 && done % spec.interval as u64 == 0 && (done as usize) < steps
                {
                    crate::restart::write_rank_checkpoint(
                        spec.dir,
                        me,
                        done,
                        model.time,
                        &model.state,
                    )
                    .unwrap_or_else(|e| {
                        panic!("rank {me}: writing checkpoint at step {done} failed: {e}")
                    });
                    spec.writes
                        .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            }
        }
        if let Some(last) = &report.last_sbm {
            report.exec = Some(model.exec_summary(last));
        }
        let cost = &engine.cost;
        report.comm = Some(CommStats {
            mode: cfg.comm,
            msgs: cost.messages(),
            bytes: cost.bytes(),
            secs: cost.secs(),
            overlap: *cost.overlap(),
        });
        Ok((model.state, report))
    })
}

/// Runs `cfg` on `cfg.ranks` ranks for `steps` steps and returns the
/// final states and reports. `cfg.comm` selects the exchange engine;
/// both produce bitwise-identical states. This is the fault-free face
/// of [`run_attempt`]: no kills are scripted and every rank gets the
/// default generous timeout, so an `Err` here means the runtime itself
/// broke — reported with its context rather than a blind `expect`.
pub fn run_parallel(cfg: ModelConfig, steps: usize) -> ParallelRun {
    run_parallel_checked(cfg, steps).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_parallel`] with device admission surfaced: when `cfg.gpus > 0`
/// and the version is offloaded, every rank's context is admitted onto
/// its round-robin device *before* any thread spawns (mirroring context
/// creation at `MPI_Init`) — a configuration past the memory cap fails
/// fast with a typed [`DeviceError`] naming rank, device, and bytes.
/// After the run, each step's modeled device occupancies are replayed
/// through the pool and the per-rank [`ShareStats`] attached to the
/// reports. Sharing never touches the functional arithmetic: states are
/// bitwise-identical to an exclusive-device run.
pub fn run_parallel_checked(cfg: ModelConfig, steps: usize) -> Result<ParallelRun, DeviceError> {
    let pool = (cfg.gpus > 0 && cfg.version.offloaded())
        .then(|| -> Result<DevicePool, DeviceError> {
            let dd = two_d_decomposition(cfg.case.domain(), cfg.ranks, cfg.halo);
            let pp = PerfParams::for_backend(cfg.backend);
            let mut pool = DevicePool::for_backend(cfg.backend, cfg.gpus);
            for patch in &dd.patches {
                let bytes = staged_bytes(patch.compute_points() as u64);
                pool.admit(patch.rank, &rank_footprint(&pp, bytes))?;
            }
            Ok(pool)
        })
        .transpose()?;

    let results = run_attempt(cfg, steps, None, None, None, DEFAULT_TIMEOUT);
    let mut states = Vec::with_capacity(results.len());
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok((state, report)) => {
                states.push(state);
                reports.push(report);
            }
            Err(f) => panic!("run_parallel without faults cannot fail, yet: {f}"),
        }
    }
    if let Some(pool) = &pool {
        attach_share(&mut reports, pool);
    }
    Ok(ParallelRun { states, reports })
}

/// Replays each step's device submissions bulk-synchronously through
/// the pool (submissions ordered deterministically by rank within the
/// step) and attaches the accumulated per-rank summary.
fn attach_share(reports: &mut [RunReport], pool: &DevicePool) {
    let steps = reports
        .iter()
        .map(|r| r.device_secs_per_step.len())
        .max()
        .unwrap_or(0);
    let mut total = ShareReport::default();
    for step in 0..steps {
        let subs: Vec<RankSubmission> = reports
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| {
                r.device_secs_per_step
                    .get(step)
                    .map(|&service_secs| RankSubmission {
                        rank,
                        submit_secs: 0.0,
                        service_secs,
                    })
            })
            .collect();
        total.absorb(&pool.replay(&subs));
    }
    for rs in &total.ranks {
        reports[rs.rank].share = Some(ShareStats {
            device: rs.device,
            devices: pool.n_devices(),
            sharers: rs.sharers,
            service_secs: rs.service_secs,
            queue_secs: rs.queue_secs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::scheme::SbmVersion;
    use mpi_sim::comm::run_ranks;
    use proptest::prelude::*;
    use wrf_dycore::refresh_now;
    use wrf_grid::Domain;

    #[test]
    fn four_ranks_run_and_rain() {
        let mut cfg = ModelConfig::functional(SbmVersion::Lookup, 0.06, 8);
        cfg.ranks = 4;
        let out = run_parallel(cfg, 3);
        assert_eq!(out.states.len(), 4);
        let total_entries: u64 = out.reports.iter().map(|r| r.coal_entries).sum();
        assert!(total_entries > 0);
        // Work is imbalanced across ranks (storm clustering).
        let works: Vec<u64> = out
            .reports
            .iter()
            .map(|r| r.sbm_work.total().flops)
            .collect();
        let max = *works.iter().max().unwrap();
        let min = *works.iter().min().unwrap();
        assert!(max > min, "imbalance expected: {works:?}");
        // Blocking runs price every message on the critical path.
        let comm = out.reports[0].comm.expect("multi-rank run prices comm");
        assert_eq!(comm.mode, CommMode::Blocking);
        assert!(comm.msgs > 0 && comm.secs > 0.0);
        assert_eq!(comm.overlap, OverlapStats::default());
    }

    /// Regression for the halo tag overflow: `tag_base * 16` used to be
    /// `u32` arithmetic, which overflows (and aliases exchanges) once
    /// the refresh counter passes 2²⁸. The exchange must pair correctly
    /// with bases far beyond that point.
    #[test]
    fn halo_tags_survive_refresh_counts_past_u32() {
        let dd = two_d_decomposition(Domain::new(16, 4, 16), 4, 2);
        let dd_ref = &dd;
        let old_overflow_base = u64::from(u32::MAX) / TAGS_PER_REFRESH + 1;
        run_ranks(4, move |mut rank| {
            let me = rank.rank();
            let p = dd_ref.patches[me];
            let mut f = Field3::for_patch(&p);
            for j in p.jp.iter() {
                for k in p.kp.iter() {
                    for i in p.ip.iter() {
                        f.set(i, k, j, me as f32);
                    }
                }
            }
            let mut engine = MpiHaloEngine::new(&mut rank, dd_ref, CommMode::Blocking);
            engine.tag_base = old_overflow_base;
            for _ in 0..3 {
                refresh_now(&mut engine, &mut f);
            }
            assert_eq!(engine.error, None);
            assert_eq!(engine.tag_base, old_overflow_base + 3);
            // Every halo strip carries the right neighbour's rank id.
            for (side, h) in [
                (HaloSide::West, (-1, 0)),
                (HaloSide::East, (1, 0)),
                (HaloSide::South, (0, -1)),
                (HaloSide::North, (0, 1)),
            ] {
                let peer = dd_ref.neighbor_periodic(me, h.0, h.1);
                let (i, j) = match side {
                    HaloSide::West => (p.ip.lo - 1, p.jp.lo),
                    HaloSide::East => (p.ip.hi + 1, p.jp.lo),
                    HaloSide::South => (p.ip.lo, p.jp.lo - 1),
                    HaloSide::North => (p.ip.lo, p.jp.hi + 1),
                };
                assert_eq!(
                    f.get(i, p.kp.lo, j),
                    peer as f32,
                    "{side:?} halo of rank {me}"
                );
            }
        });
    }

    /// Bitwise comparison of two same-patch states over T, QV, and bins.
    fn assert_states_bitwise(got: &SbmPatchState, want: &SbmPatchState, what: &str) {
        let p = got.patch;
        for j in p.jp.iter() {
            for k in p.kp.iter() {
                for i in p.ip.iter() {
                    assert_eq!(
                        got.tt.get(i, k, j).to_bits(),
                        want.tt.get(i, k, j).to_bits(),
                        "T mismatch at ({i},{k},{j}): {what}"
                    );
                    assert_eq!(
                        got.qv.get(i, k, j).to_bits(),
                        want.qv.get(i, k, j).to_bits(),
                        "QV mismatch at ({i},{k},{j}): {what}"
                    );
                    for c in 0..NTYPES {
                        assert_eq!(
                            got.ff[c].bin_slice(i, k, j),
                            want.ff[c].bin_slice(i, k, j),
                            "bins mismatch class {c} at ({i},{k},{j}): {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shared_devices_change_timing_never_arithmetic() {
        let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse3, 0.06, 8);
        cfg.ranks = 4;
        let exclusive = run_parallel(cfg, 2);
        cfg.gpus = 2; // two ranks per device
        let shared = run_parallel_checked(cfg, 2).unwrap();
        for (r, (got, want)) in shared
            .states
            .iter()
            .zip(exclusive.states.iter())
            .enumerate()
        {
            assert_states_bitwise(got, want, &format!("rank {r} shared vs exclusive"));
        }
        // Exclusive runs carry no sharing ledger; shared runs do, with
        // per-step device occupancy and exposed queueing.
        assert!(exclusive.reports.iter().all(|r| r.share.is_none()));
        for (rank, rep) in shared.reports.iter().enumerate() {
            assert_eq!(rep.device_secs_per_step.len(), 2);
            let s = rep.share.expect("shared run attaches ShareStats");
            assert_eq!(s.device, rank % 2);
            assert_eq!((s.devices, s.sharers), (2, 2));
            assert!(s.service_secs > 0.0);
            assert!(s.queue_secs > 0.0, "two sharers must queue: {s:?}");
        }
    }

    #[test]
    fn oversubscribed_functional_run_fails_admission() {
        // One device, 64 KiB stacks: the sixth rank's context cannot
        // fit (§VII-A). The error carries the failing rank and device.
        let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse3, 0.06, 8);
        cfg.ranks = 6;
        cfg.gpus = 1;
        let err = run_parallel_checked(cfg, 1).unwrap_err();
        assert_eq!((err.rank, err.device, err.residents), (5, 0, 5));
    }

    #[test]
    fn overlapped_matches_blocking_bitwise() {
        let mut cfg = ModelConfig::functional(SbmVersion::Lookup, 0.06, 8);
        cfg.ranks = 4;
        let blocking = run_parallel(cfg, 3);
        cfg.comm = CommMode::Overlapped;
        let overlapped = run_parallel(cfg, 3);
        for (r, (got, want)) in overlapped
            .states
            .iter()
            .zip(blocking.states.iter())
            .enumerate()
        {
            assert_states_bitwise(got, want, &format!("rank {r}"));
        }
        // Same metered work, and every posted message completed with a
        // real slice of its cost hidden behind interior tendencies.
        for (o, b) in overlapped.reports.iter().zip(blocking.reports.iter()) {
            assert_eq!(o.rk3, b.rk3);
            let oc = o.comm.expect("comm stats");
            let bc = b.comm.expect("comm stats");
            assert_eq!(oc.msgs, bc.msgs);
            assert_eq!(oc.bytes, bc.bytes);
            assert_eq!(oc.overlap.posted, oc.msgs);
            assert_eq!(oc.overlap.completed, oc.msgs);
            assert!(oc.overlap.hidden_secs > 0.0, "nothing hidden: {oc:?}");
            assert!(oc.secs < bc.secs, "overlap must shorten comm: {oc:?}");
        }
    }

    /// A peer whose panel has another number of lanes: the payload is
    /// refused whole, with context, on both ranks — never unpacked into
    /// the wrong lanes, never a panic.
    #[test]
    fn panel_of_another_width_is_an_error_on_both_ranks() {
        let dd = two_d_decomposition(Domain::new(16, 4, 12), 2, 2);
        let dd_ref = &dd;
        let errors = run_ranks(2, move |mut rank| {
            let me = rank.rank();
            let p = dd_ref.patches[me];
            rank.begin_step(5).unwrap();
            // Rank 1 packs 7 lanes where rank 0 packs (and expects) 8.
            let mut panel = vec![Field3::filled(p.im, p.km, p.jm, me as f32); 8 - me];
            let mut engine = MpiHaloEngine::new(&mut rank, dd_ref, CommMode::Overlapped);
            for round in 0..engine.rounds() {
                engine.post_panel(round, &mut panel, None);
                engine.finish_panel(round, &mut panel, None);
            }
            // Nothing was unpacked: every halo cell keeps its fill.
            assert!(panel
                .iter()
                .all(|f| f.as_slice().iter().all(|&v| v == me as f32)));
            assert_eq!(engine.tag_base, 1, "the refresh still counts once");
            engine.error
        });
        let west = halo_message_len(&dd.patches[0], HaloSide::West);
        for (me, error) in errors.into_iter().enumerate() {
            let (mine, theirs) = (8 - me, 7 + me);
            assert_eq!(
                error,
                Some(CommError::MalformedPayload {
                    rank: me,
                    peer: 1 - me,
                    // Round 0: my West receive matches the peer's East
                    // send (side index 1).
                    tag: side_tag(0, 0, 1),
                    step: 5,
                    expected: mine * west,
                    received: theirs * west,
                })
            );
        }
    }

    #[test]
    fn packed_mask_reduce_equals_the_per_flag_reference() {
        let out = run_ranks(3, |rank| {
            let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ rank.rank() as u64;
            for round in 0..6 {
                let local: [[bool; NKR]; NTYPES] = std::array::from_fn(|_| {
                    std::array::from_fn(|_| {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Sparse, dense and in-between rounds.
                        (rng >> 33) % 6 < round
                    })
                });
                let packed = allreduce_masks(&rank, local).unwrap();
                let reference = allreduce_masks_per_flag(&rank, local).unwrap();
                assert_eq!(packed, reference, "round {round}");
                // The reduction never drops a flag this rank raised.
                for (c, row) in local.iter().enumerate() {
                    for (b, &set) in row.iter().enumerate() {
                        assert!(!set || packed[c][b]);
                    }
                }
            }
            true
        });
        assert_eq!(out, vec![true; 3]);
    }

    /// A global function of (i, k, j, bin): what one rank plants in a
    /// cell is what any other rank, or the single-rank run, plants there.
    fn planted(i: i32, k: i32, j: i32, b: usize) -> f32 {
        let h = (i as u32).wrapping_mul(73_856_093)
            ^ (k as u32).wrapping_mul(19_349_663)
            ^ (j as u32).wrapping_mul(83_492_791)
            ^ (b as u32).wrapping_mul(2_654_435_761);
        (h.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) >> 22) as f32 * 10.0
    }

    /// The mask-with-holes fixture of `model.rs`, over the whole memory
    /// extent: class 2 holds bins 3, 4, 9 and 31 only (bin 10 a `-0.0`
    /// that no mask selects), class 5 bins 0 and 7 only.
    fn plant_holes(state: &mut SbmPatchState) {
        let p = state.patch;
        for (c, bins) in [(2usize, &[3usize, 4, 9, 31][..]), (5, &[0, 7][..])] {
            for j in p.jm.iter() {
                for k in p.km.iter() {
                    for i in p.im.iter() {
                        let all = state.ff[c].bin_slice_mut(i, k, j);
                        all.fill(0.0);
                        for &b in bins {
                            all[b] = planted(i, k, j, b);
                        }
                        all[10] = -0.0;
                    }
                }
            }
        }
    }

    /// Panels of a class with holes in its mask (a full panel is never
    /// contiguous bins) over 2 ranks and over 2×2 — where S/N neighbours
    /// are other ranks than W/E ones and a corner cell crosses two
    /// messages — reproduce the single-rank run bit for bit in both comm
    /// modes: every rank's compute cells laid over the single-rank state
    /// give the single-rank digest.
    #[test]
    fn panel_exchange_matches_single_rank_with_holes_in_the_mask() {
        let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.06, 8);
        let steps = 2;
        let mut single = Model::single_rank(cfg);
        plant_holes(&mut single.state);
        let masks = single.occupied_masks();
        assert!(masks[2][4] && !masks[2][5] && masks[2][9] && !masks[2][10] && masks[2][31]);
        single.run(steps);
        let want = single.state.digest();

        for (ranks, shape) in [(2usize, (2, 1)), (4, (2, 2))] {
            let dd = two_d_decomposition(cfg.case.domain(), ranks, cfg.halo);
            assert_eq!(dd.shape, shape);
            for comm in [CommMode::Blocking, CommMode::Overlapped] {
                let cfg = ModelConfig { ranks, comm, ..cfg };
                let start: Vec<StartPoint> = (dd.patches.iter())
                    .map(|&patch| {
                        let mut state = Model::for_patch(cfg, patch).state;
                        plant_holes(&mut state);
                        (0, 0.0, state)
                    })
                    .collect();
                let run = run_attempt(cfg, steps, Some(&start), None, None, DEFAULT_TIMEOUT);
                let mut gathered = single.state.clone();
                for result in run {
                    let (state, report) = result.expect("fault-free run");
                    // One message per neighbour per round per panel
                    // refresh, far fewer than one per scalar.
                    let comm_stats = report.comm.expect("comm stats");
                    assert_eq!(comm_stats.msgs % 4, 0);
                    let p = state.patch;
                    for j in p.jp.iter() {
                        for k in p.kp.iter() {
                            for i in p.ip.iter() {
                                gathered.tt.set(i, k, j, state.tt.get(i, k, j));
                                gathered.qv.set(i, k, j, state.qv.get(i, k, j));
                                for c in 0..NTYPES {
                                    gathered.ff[c]
                                        .bin_slice_mut(i, k, j)
                                        .copy_from_slice(state.ff[c].bin_slice(i, k, j));
                                }
                            }
                        }
                    }
                }
                assert_eq!(gathered.digest(), want, "{ranks} ranks, {comm}");
            }
        }
    }

    /// A fault on a *batched* message costs one timeout, not one per
    /// panel still to refresh: the latch makes every later hook of the
    /// step return at once. Dropped: rank 0's very first panel message
    /// (θ, round 0, towards the west) never arrives, rank 1 times out on
    /// it, rank 0 on the next refresh's message that rank 1 then never
    /// sends — with some fifty panel refreshes still ahead of both.
    #[test]
    fn a_faulted_panel_message_costs_one_timeout() {
        let mut cfg = ModelConfig::functional(SbmVersion::Lookup, 0.05, 6);
        cfg.ranks = 2;
        for comm in [CommMode::Blocking, CommMode::Overlapped] {
            cfg.comm = comm;
            let timeout = Duration::from_millis(1500);
            let plan = FaultPlan::new().on_message(
                Some(0),
                Some(1),
                Some(side_tag(0, 0, 0)),
                mpi_sim::FaultAction::Drop,
                1,
            );
            let began = std::time::Instant::now();
            let out = run_attempt(cfg, 1, None, None, Some(Arc::new(plan)), timeout);
            let wall = began.elapsed();
            for (rank, result) in out.into_iter().enumerate() {
                let failure = result.expect_err("both ranks must fail the step");
                assert_eq!((failure.rank, failure.step), (rank, 0));
                assert!(
                    matches!(failure.error, CommError::RecvTimeout { peer, .. } if peer == 1 - rank),
                    "{failure}"
                );
            }
            assert!(wall >= timeout, "{comm}: the receive waited {wall:?}");
            assert!(
                wall < 2 * timeout,
                "{comm}: later panels must not wait again, yet the step took {wall:?}"
            );
        }
    }

    /// The killed-peer case at the engine: the peer exits after the
    /// first panel refresh. The survivor's next refresh fails — at once
    /// if the peer's channel is already closed when it sends, after one
    /// timeout if its sends still landed — and the ten refreshes after
    /// it return at once.
    #[test]
    fn a_dead_peer_costs_the_survivor_at_most_one_timeout() {
        let dd = two_d_decomposition(Domain::new(16, 4, 12), 2, 2);
        let dd_ref = &dd;
        let timeout = Duration::from_millis(200);
        let out = mpi_sim::run_ranks_with_faults(2, None, timeout, move |mut rank| {
            let me = rank.rank();
            let p = dd_ref.patches[me];
            let mut panel = vec![Field3::filled(p.im, p.km, p.jm, me as f32); 8];
            let mut engine = MpiHaloEngine::new(&mut rank, dd_ref, CommMode::Overlapped);
            let began = std::time::Instant::now();
            for refresh in 0..12 {
                if me == 1 && refresh == 1 {
                    return None; // dies between two panels
                }
                for round in 0..engine.rounds() {
                    engine.post_panel(round, &mut panel, None);
                    engine.finish_panel(round, &mut panel, None);
                }
            }
            Some((engine.error, engine.tag_base, began.elapsed()))
        });
        assert_eq!(out[1], None);
        let (error, tag_base, wall) = out[0].clone().expect("rank 0 survives");
        // Refresh 1, round 0: the send towards the peer, or the receive
        // of what the peer never sent.
        match error {
            Some(CommError::PeerHungUp {
                rank: 0,
                peer: 1,
                tag,
                ..
            }) => {
                assert_eq!(tag, Some(side_tag(1, 0, 0)))
            }
            Some(CommError::RecvTimeout {
                rank: 0,
                peer: 1,
                tag,
                ..
            }) => {
                assert_eq!(tag, side_tag(1, 0, 1));
                assert!(wall >= timeout, "{wall:?}");
            }
            other => panic!("survivor saw {other:?}"),
        }
        assert_eq!(tag_base, 12, "tags advance on the failed path too");
        assert!(wall < 2 * timeout, "{wall:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Over random decomposition shapes — including thin patches
        /// whose interior core is empty and two/one-patch dimensions
        /// where a rank is its own neighbour — the overlapped engine
        /// reproduces the blocking run bit for bit.
        #[test]
        fn comm_modes_agree_over_decompositions(
            ranks_ix in 0usize..4,
            scale_step in 0u32..4,
            nz in 6i32..9,
        ) {
            let ranks = [1usize, 2, 3, 6][ranks_ix];
            let scale = 0.05 + scale_step as f64 * 0.01;
            let mut cfg = ModelConfig::functional(SbmVersion::Lookup, scale, nz);
            cfg.ranks = ranks;
            let blocking = run_parallel(cfg, 2);
            cfg.comm = CommMode::Overlapped;
            let overlapped = run_parallel(cfg, 2);
            for (r, (got, want)) in overlapped
                .states
                .iter()
                .zip(blocking.states.iter())
                .enumerate()
            {
                assert_states_bitwise(
                    got,
                    want,
                    &format!("ranks={ranks} scale={scale} nz={nz} rank {r}"),
                );
            }
        }

        /// No two in-flight messages may share a (src, dst, tag)
        /// triple. Worst-case skew is forced by posting *every* send of
        /// many refreshes eagerly before draining the receives in
        /// scrambled order: payloads encode (src, refresh, phase, side),
        /// so any tag collision matches the wrong envelope and fails the
        /// payload check. Tag bases start beyond the old `u32` overflow
        /// point.
        #[test]
        fn inflight_tags_never_collide(
            ranks_ix in 0usize..3,
            nx in 12i32..24,
            ny in 12i32..24,
            refreshes in 1u64..5,
        ) {
            let ranks = [2usize, 4, 6][ranks_ix];
            let dd = two_d_decomposition(Domain::new(nx, 4, ny), ranks, 2);
            let dd_ref = &dd;
            let base0 = u64::from(u32::MAX) / TAGS_PER_REFRESH + 7;
            let sides = HaloSide::ROUNDS;
            run_ranks(ranks, move |mut rank| {
                let me = rank.rank();
                for t in 0..refreshes {
                    for (phase, pair) in sides.iter().enumerate() {
                        for (s_idx, &side) in pair.iter().enumerate() {
                            let (di, dj) = side.offset();
                            let peer = dd_ref.neighbor_periodic(me, di, dj);
                            let payload =
                                [me as f32, t as f32, phase as f32, s_idx as f32];
                            rank.isend_f32(
                                peer,
                                side_tag(base0 + t, phase, s_idx),
                                &payload,
                            );
                        }
                    }
                }
                for t in (0..refreshes).rev() {
                    for (phase, pair) in sides.iter().enumerate().rev() {
                        for (s_idx, &side) in pair.iter().enumerate() {
                            let (di, dj) = side.offset();
                            let peer = dd_ref.neighbor_periodic(me, di, dj);
                            // The peer sent toward us with the opposite
                            // side's index.
                            let opp = 1 - s_idx;
                            let req = rank
                                .irecv_f32(peer, side_tag(base0 + t, phase, opp));
                            let data = rank.wait(req);
                            assert_eq!(
                                data,
                                vec![peer as f32, t as f32, phase as f32, opp as f32],
                                "rank {me} refresh {t} phase {phase} side {side:?}"
                            );
                        }
                    }
                }
            });
        }
    }
}
