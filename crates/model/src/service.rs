//! Ensemble-as-a-service: a deterministic job-queue front end over the
//! shared [`DevicePool`].
//!
//! The paper's operational endgame is throughput — many WRF members on
//! fixed hardware — and ROADMAP item 1 asks for the multi-tenant layer
//! on top of PR 6's memory-capped pool. [`run_ensemble_with`] admits N
//! perturbed members (seed-strided initial conditions generated from
//! one base [`ModelConfig`]) against the pool and runs them on two
//! decoupled planes, exactly like the single-run driver:
//!
//! * **Functional plane** — every member is a real 1-rank integration
//!   ([`crate::run_parallel_checked`], or the PR 4 restart supervisor
//!   when the job's retry policy is enabled), so each member's final
//!   state is bitwise-identical to its solo run: scheduling shares
//!   time and memory, never arithmetic.
//! * **Modeled plane** — the members' per-step device occupancies are
//!   replayed through [`DevicePool::replay_batched`]: members are
//!   *packed* onto the least-loaded device that fits
//!   ([`DevicePool::admit_packed`]), co-resident members with identical
//!   pressure levels share one resident copy of the
//!   `KernelMode::Cached` lookup tables (the tables are a pure function
//!   of the column — see [`pressure_key`]), and submissions landing in
//!   the same service window pay the
//!   `Calibration::service_slice_secs` context slice once per batch.
//!
//! Members that do not fit the current wave queue for the next one
//! (waves admit in member order, so admission is deterministic under
//! any submit interleaving — pinned by a proptest); a member that can
//! never fit any device is a typed [`ServiceError::Admission`]. Failed
//! members retry through [`crate::restart::run_parallel_restartable`]
//! with bounded attempts, resuming from the newest complete checkpoint
//! set.
//!
//! The scheduling core ([`schedule_ensemble`]) is a pure function of
//! the members' per-step service times, so the `repro ensemble` gate
//! can also drive it with full-scale occupancies extrapolated by the
//! perf plane — that is where the committed members/hour numbers in
//! `BENCH_ensemble.json` come from.

use crate::config::ModelConfig;
use crate::parallel::run_parallel_checked;
use crate::perfmodel::{rank_footprint, staged_bytes, PerfParams};
use crate::restart::{run_parallel_restartable, RestartConfig};
use fsbm_core::digest::{fnv1a, FNV1A_OFFSET};
use fsbm_core::state::SbmPatchState;
use gpu_sim::devicepool::{CacheShareStats, DevicePool, RankFootprint, RankSubmission};
use gpu_sim::error::DeviceError;
use gpu_sim::machine::{default_backend, Backend, CALIBRATION};
use mpi_sim::{FaultPlan, DEFAULT_TIMEOUT};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use wrf_cases::{ConusCase, ConusParams};
use wrf_grid::two_d_decomposition;

/// Ensemble request parsed from the namelist `&ensemble` block: how
/// many members to generate from the base configuration and how the
/// service is allowed to schedule them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleSpec {
    /// Ensemble size (perturbed members generated from the base).
    pub members: usize,
    /// Devices the service may pack members onto.
    pub devices: usize,
    /// Seed offset between consecutive members (member `i` runs the
    /// base scenario with `seed + i * seed_stride`; member 0 is the
    /// unperturbed control).
    pub seed_stride: u64,
    /// Launch-batching window: co-resident submissions arriving within
    /// this many modeled seconds of a batch's opening submission share
    /// one context-service slice. Negative disables batching.
    pub window_secs: f64,
    /// Modeled arrival spacing between consecutive members' submissions
    /// (the job-queue ingest rate).
    pub spacing_secs: f64,
    /// Per-member launch attempts through the restart supervisor (1 =
    /// no retry).
    pub max_attempts: usize,
    /// Steps between member checkpoints when the retry policy is on.
    pub checkpoint_interval: usize,
    /// Hardware backend the service packs members onto: its device
    /// capacity bounds members-per-device, its calibration prices the
    /// replay slices. Defaults to the A100-80GB bundle (bitwise the
    /// pre-zoo behaviour).
    pub backend: &'static Backend,
}

impl Default for EnsembleSpec {
    fn default() -> Self {
        EnsembleSpec {
            members: 4,
            devices: 2,
            seed_stride: 1,
            window_secs: CALIBRATION.service_slice_secs,
            spacing_secs: 0.05,
            max_attempts: 1,
            checkpoint_interval: 2,
            backend: default_backend(),
        }
    }
}

/// Service-level knobs that are not part of the namelist surface:
/// where member checkpoints live, scripted faults for testing the
/// retry path, and the stack-size override for admission ablations.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Root directory for per-member checkpoint directories
    /// (`member000/`, `member001/`, ...). `None` disables the restart
    /// supervisor: members run unsupervised and a failure is terminal.
    pub restart_root: Option<PathBuf>,
    /// Scripted fault plans, by member id (tests only).
    pub faults: BTreeMap<usize, Arc<FaultPlan>>,
    /// Failure-detection timeout for supervised members.
    pub timeout: Duration,
    /// Overrides the modeled `NV_ACC_CUDA_STACKSIZE` of every member
    /// context (admission ablations: an oversized stack makes a member
    /// that fits nowhere).
    pub stack_bytes: Option<u64>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            restart_root: None,
            faults: BTreeMap::new(),
            timeout: DEFAULT_TIMEOUT,
            stack_bytes: None,
        }
    }
}

/// Why the service could not complete an ensemble.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request itself is malformed.
    Config(String),
    /// A member's context fits no device even when the pool is empty.
    Admission(DeviceError),
    /// A member failed terminally (retries exhausted, or no retry
    /// policy configured).
    Member {
        /// Failing member id.
        member: usize,
        /// Supervisor / runner error text.
        detail: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(msg) => write!(f, "ensemble config: {msg}"),
            ServiceError::Admission(e) => write!(f, "ensemble admission: {e}"),
            ServiceError::Member { member, detail } => {
                write!(f, "ensemble member {member}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Derives member `i`'s solo configuration from the base: one rank over
/// the whole domain, the member's perturbed seed, and (for offloaded
/// versions) one device so the run meters its per-step occupancy for
/// the service's own replay. Member 0 reproduces the base scenario.
pub fn member_config(base: &ModelConfig, spec: &EnsembleSpec, member: usize) -> ModelConfig {
    let mut cfg = *base;
    cfg.ranks = 1;
    cfg.case.seed = base
        .case
        .seed
        .wrapping_add(member as u64 * spec.seed_stride);
    cfg.gpus = if cfg.version.offloaded() { 1 } else { 0 };
    cfg.ensemble = None;
    cfg
}

/// FNV-1a digest of a scenario's pressure column — the shared-lookup
/// admission key. The `KernelMode::Cached` collision tables are a pure
/// function of the per-level pressures, which depend on the grid and
/// spacing but *not* on the storm seed: seed-perturbed members of one
/// base therefore present identical keys and share one resident copy
/// per device.
pub fn pressure_key(params: &ConusParams) -> u64 {
    let case = ConusCase::new(*params);
    let eat = |h, v: u64| fnv1a(h, &v.to_le_bytes());
    (1..=params.nz).fold(eat(FNV1A_OFFSET, params.nz as u64), |h, k| {
        eat(h, case.pressure(k).to_bits() as u64)
    })
}

/// The device-memory footprint one member's context charges (1-rank
/// decomposition over the whole domain; `stack_bytes` optionally
/// overridden by [`ServiceOptions::stack_bytes`]).
pub fn member_footprint(base: &ModelConfig, stack_bytes: Option<u64>) -> RankFootprint {
    let dd = two_d_decomposition(base.case.domain(), 1, base.halo);
    let mut pp = PerfParams::default();
    if let Some(sb) = stack_bytes {
        pp.stack_bytes = sb;
    }
    rank_footprint(&pp, staged_bytes(dd.patches[0].compute_points() as u64))
}

/// One member's per-step device occupancy, the scheduling core's whole
/// input: the functional plane meters these from real runs, the gate's
/// throughput arm extrapolates them at full scale from the perf plane.
#[derive(Debug, Clone)]
pub struct MemberTimings {
    /// Member id.
    pub member: usize,
    /// Modeled device service seconds per step (kernels + staged
    /// transfers).
    pub service_per_step: Vec<f64>,
}

/// One member's scheduling outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledMember {
    /// Member id.
    pub member: usize,
    /// Device the member was packed onto (`None` for CPU versions,
    /// which never touch the pool).
    pub device: Option<usize>,
    /// Wave (admission round) the member ran in.
    pub wave: usize,
    /// Whether the member's lookup tables were already resident on its
    /// device (shared with an earlier co-resident member).
    pub cache_hit: bool,
    /// Modeled arrival time of the job.
    pub submit_secs: f64,
    /// Modeled time the member's context was admitted (its wave
    /// opening, or its own arrival if later).
    pub admit_secs: f64,
    /// Modeled time the member's wave drained.
    pub done_secs: f64,
    /// Summed device service over the run.
    pub service_secs: f64,
    /// Summed exposed queueing over the run (peer services + context
    /// slices).
    pub queue_secs: f64,
}

/// Per-device occupancy ledger over a whole ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLedger {
    /// Device id.
    pub device: usize,
    /// Most members co-resident at once.
    pub peak_residents: usize,
    /// Peak bytes charged (members + shared lookup tables).
    pub peak_used_bytes: u64,
    /// HBM capacity.
    pub capacity_bytes: u64,
    /// Service seconds executed.
    pub busy_secs: f64,
    /// Context-slice seconds paid.
    pub slice_secs: f64,
    /// Slice seconds amortized away by batching.
    pub slice_secs_saved: f64,
    /// Exposed queue seconds of the device's residents.
    pub queue_secs: f64,
    /// Service windows (batches) dispatched.
    pub batches: usize,
}

impl DeviceLedger {
    fn empty(device: usize, capacity_bytes: u64) -> Self {
        DeviceLedger {
            device,
            peak_residents: 0,
            peak_used_bytes: 0,
            capacity_bytes,
            busy_secs: 0.0,
            slice_secs: 0.0,
            slice_secs_saved: 0.0,
            queue_secs: 0.0,
            batches: 0,
        }
    }
}

/// Outcome of the pure scheduling core.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-member outcomes, member order.
    pub members: Vec<ScheduledMember>,
    /// Per-device ledgers, device order.
    pub devices: Vec<DeviceLedger>,
    /// Admission rounds it took to drain the queue.
    pub waves: usize,
    /// Modeled end-to-end time of the batched ensemble.
    pub makespan_secs: f64,
    /// The same schedule replayed without launch batching (every
    /// submission pays its own slice).
    pub unbatched_makespan_secs: f64,
    /// Σ member service seconds — N solo runs back to back on one
    /// exclusive device, the baseline the throughput gate beats.
    pub sequential_secs: f64,
    /// Shared-lookup admission ledger.
    pub cache: CacheShareStats,
}

impl Schedule {
    /// Admission-queue waits (admit − submit), member order.
    pub fn admission_waits(&self) -> Vec<f64> {
        self.members
            .iter()
            .map(|m| m.admit_secs - m.submit_secs)
            .collect()
    }
}

/// p50/p90/p99 of a latency sample (ceiling-rank on the sorted sample;
/// all zeros when empty). Ceiling-rank guarantees the reported value is
/// at or *above* the requested percentile: the old `.round()`
/// nearest-rank could select the rank below it on small samples (p90 of
/// 8 waits rounded rank 6.3 down to 6 — the ~86th percentile — and p50
/// of 2 waits "rounded" to the upper while p90 of 11 fell short).
pub fn latency_percentiles(waits: &[f64]) -> [f64; 3] {
    if waits.is_empty() {
        return [0.0; 3];
    }
    let mut sorted = waits.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pick = |p: f64| {
        let at = (p * (sorted.len() - 1) as f64).ceil() as usize;
        sorted[at]
    };
    [pick(0.50), pick(0.90), pick(0.99)]
}

/// The pure scheduling core: packs `timings` onto `spec.devices`
/// devices in deterministic waves and replays their per-step
/// occupancies with windowed launch batching.
///
/// Waves admit members in ascending id via [`DevicePool::admit_packed`]
/// until the first rejection (members are homogeneous, so nothing after
/// the first rejection fits either); the leftovers queue for the next
/// wave, which opens when the current one drains. Within a wave, step 0
/// submissions carry the members' arrival offsets (`spacing_secs`
/// apart) and later steps resubmit as soon as the device served them —
/// the same bulk-synchronous convention as the multi-rank driver.
///
/// Deterministic by construction: admission order depends only on
/// member ids and footprints, never on submit times (pinned by a
/// proptest). Fails with [`ServiceError::Admission`] only when a member
/// fits no *empty* device.
pub fn schedule_ensemble(
    timings: &[MemberTimings],
    spec: &EnsembleSpec,
    footprint: &RankFootprint,
    lookup_key: Option<u64>,
) -> Result<Schedule, ServiceError> {
    if spec.devices == 0 {
        return Err(ServiceError::Config("devices must be >= 1".into()));
    }
    let n = timings.len();
    let mut pool = DevicePool::for_backend(spec.backend, spec.devices);
    let submit: Vec<f64> = (0..n).map(|i| i as f64 * spec.spacing_secs).collect();
    let mut pending: Vec<usize> = (0..n).collect();
    let mut scheduled: Vec<Option<ScheduledMember>> = (0..n).map(|_| None).collect();
    let mut ledgers: Vec<DeviceLedger> = (0..spec.devices)
        .map(|d| DeviceLedger::empty(d, pool.capacity_bytes()))
        .collect();
    let mut clock = 0.0f64;
    let mut clock_unbatched = 0.0f64;
    let mut sequential = 0.0f64;
    let mut waves = 0usize;

    while !pending.is_empty() {
        // Admit the wave in member order; the first rejection closes it.
        let mut admitted = Vec::new();
        let mut rest = Vec::new();
        for &m in &pending {
            if !rest.is_empty() {
                rest.push(m);
                continue;
            }
            match pool.admit_packed(m, footprint, lookup_key) {
                Ok(a) => admitted.push((m, a)),
                Err(e) => {
                    if admitted.is_empty() {
                        // Nothing is resident in a fresh wave, so this
                        // member can never fit: a typed failure, not a
                        // queue.
                        return Err(ServiceError::Admission(e));
                    }
                    rest.push(m);
                }
            }
        }
        pending = rest;
        let wave = waves;
        waves += 1;
        for l in ledgers.iter_mut() {
            l.peak_residents = l.peak_residents.max(pool.residents(l.device).len());
            l.peak_used_bytes = l.peak_used_bytes.max(pool.used_bytes(l.device));
        }

        // The wave opens when the device drains and its first member
        // has arrived; later members' arrivals ride in as step-0
        // submission offsets.
        let first_arrival = submit[admitted[0].0];
        let wave_start = clock.max(first_arrival);
        let wave_start_unbatched = clock_unbatched.max(first_arrival);

        let steps_max = admitted
            .iter()
            .map(|(m, _)| timings[*m].service_per_step.len())
            .max()
            .unwrap_or(0);
        let mut span = 0.0f64;
        let mut span_unbatched = 0.0f64;
        let mut acc: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for step in 0..steps_max {
            let subs: Vec<RankSubmission> = admitted
                .iter()
                .filter_map(|(m, _)| {
                    timings[*m]
                        .service_per_step
                        .get(step)
                        .map(|&svc| RankSubmission {
                            rank: *m,
                            submit_secs: if step == 0 {
                                (submit[*m] - wave_start).max(0.0)
                            } else {
                                0.0
                            },
                            service_secs: svc,
                        })
                })
                .collect();
            if subs.is_empty() {
                break;
            }
            let batched = pool.replay_batched(&subs, spec.window_secs);
            let plain = pool.replay_batched(&subs, -1.0);
            span += batched
                .ledgers
                .iter()
                .map(|l| l.makespan_secs)
                .fold(0.0, f64::max);
            span_unbatched += plain
                .ledgers
                .iter()
                .map(|l| l.makespan_secs)
                .fold(0.0, f64::max);
            for b in &batched.ledgers {
                let l = &mut ledgers[b.device];
                l.batches += b.batches;
                l.slice_secs += b.slice_secs;
                l.slice_secs_saved += b.slice_secs_saved;
                l.busy_secs += batched.share.devices[b.device].busy_secs;
                l.queue_secs += batched.share.devices[b.device].queue_secs;
            }
            for r in &batched.share.ranks {
                let e = acc.entry(r.rank).or_insert((0.0, 0.0));
                e.0 += r.service_secs;
                e.1 += r.queue_secs;
            }
        }

        let done = wave_start + span;
        for (m, a) in &admitted {
            let (service_secs, queue_secs) = acc.get(m).copied().unwrap_or((0.0, 0.0));
            sequential += service_secs;
            scheduled[*m] = Some(ScheduledMember {
                member: *m,
                device: Some(a.device),
                wave,
                cache_hit: a.cache_hit,
                submit_secs: submit[*m],
                admit_secs: wave_start.max(submit[*m]),
                done_secs: done,
                service_secs,
                queue_secs,
            });
            pool.release(*m);
        }
        clock = done;
        clock_unbatched = wave_start_unbatched + span_unbatched;
    }

    Ok(Schedule {
        // Cannot fire: a member leaves `pending` only by being admitted
        // to a wave, every admitted member is scheduled before its wave
        // closes, and the loop above ends only once `pending` is empty.
        members: scheduled
            .into_iter()
            .map(|m| m.expect("all waves drained"))
            .collect(),
        devices: ledgers,
        waves,
        makespan_secs: clock,
        unbatched_makespan_secs: clock_unbatched,
        sequential_secs: sequential,
        cache: pool.cache_stats(),
    })
}

/// One ensemble member's full outcome: its scheduling ledger plus the
/// functional run's final state and recovery history.
#[derive(Debug, Clone)]
pub struct MemberOutcome {
    /// The member's row of the schedule: id, device, wave, modeled
    /// arrival / admission / completion and device seconds.
    pub scheduled: ScheduledMember,
    /// The member's perturbed scenario seed.
    pub seed: u64,
    /// Launch attempts (1 = no failure).
    pub attempts: usize,
    /// Checkpoint steps each relaunch resumed from.
    pub resumed_from: Vec<u64>,
    /// Final state — bitwise-identical to the member's solo run.
    pub state: SbmPatchState,
}

/// Outcome of a full ensemble service run.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// The request served.
    pub spec: EnsembleSpec,
    /// Per-member outcomes, member order.
    pub members: Vec<MemberOutcome>,
    /// The modeled plane: waves, makespans, per-device ledgers and the
    /// shared-lookup ledger (a trivial one-wave timeline with no devices
    /// for CPU versions).
    pub schedule: Schedule,
}

fn per_hour(members: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        members as f64 * 3600.0 / secs
    } else {
        0.0
    }
}

impl EnsembleReport {
    /// Modeled throughput of the batched service (0 when the modeled
    /// timeline is empty, e.g. CPU versions).
    pub fn members_per_hour(&self) -> f64 {
        per_hour(self.members.len(), self.schedule.makespan_secs)
    }

    /// Throughput without launch batching.
    pub fn unbatched_members_per_hour(&self) -> f64 {
        per_hour(self.members.len(), self.schedule.unbatched_makespan_secs)
    }

    /// Throughput of N sequential solo runs on one exclusive device.
    pub fn sequential_members_per_hour(&self) -> f64 {
        per_hour(self.members.len(), self.schedule.sequential_secs)
    }

    /// p50/p90/p99 admission-queue wait.
    pub fn admission_wait_percentiles(&self) -> [f64; 3] {
        latency_percentiles(&self.schedule.admission_waits())
    }

    /// Total slice seconds amortized away by batching. Folded from
    /// +0.0 because an empty `sum()` over f64 yields -0.0, which would
    /// render as `-0.0s` for CPU versions that never touch the pool.
    pub fn slice_secs_saved(&self) -> f64 {
        (self.schedule.devices.iter())
            .map(|d| d.slice_secs_saved)
            .fold(0.0, |a, b| a + b)
    }

    /// The one-line service summary `miniwrf` prints: modeled batched
    /// throughput at this hardware, median and tail admission-queue
    /// wait, the shared-lookup hit rate, and the context-slice seconds
    /// amortized away by launch batching.
    pub fn one_line(&self) -> String {
        let [wait_p50, _, wait_p99] = self.admission_wait_percentiles();
        format!(
            "ensemble: members={} devices={} waves={} rate={:.2}/h wait_p50={wait_p50:.3}s \
             wait_p99={wait_p99:.3}s cache={:.0}% slice_saved={:.1}s",
            self.members.len(),
            self.schedule.devices.len(),
            self.schedule.waves,
            self.members_per_hour(),
            self.schedule.cache.hit_rate() * 100.0,
            self.slice_secs_saved(),
        )
    }
}

/// Runs the ensemble described by `cfg.ensemble` (the namelist
/// `&ensemble` block) with default service options.
pub fn run_ensemble(cfg: &ModelConfig, steps: usize) -> Result<EnsembleReport, ServiceError> {
    let spec = cfg
        .ensemble
        .ok_or_else(|| ServiceError::Config("configuration has no &ensemble block".into()))?;
    run_ensemble_with(cfg, &spec, steps, &ServiceOptions::default())
}

/// Runs an ensemble of `spec.members` perturbed members of `base` for
/// `steps` steps each. Members run functionally in member order (each
/// is a real solo integration — sharing is bitwise-neutral), then their
/// metered per-step device occupancies are packed and replayed through
/// the scheduling core. A member with a scripted fault (or a real
/// failure) retries through the restart supervisor when
/// [`ServiceOptions::restart_root`] is set; its final-attempt service
/// is what the shared timeline charges (the thrown-away attempt is
/// recovery overhead, ledgered in its `attempts`/`resumed_from`).
pub fn run_ensemble_with(
    base: &ModelConfig,
    spec: &EnsembleSpec,
    steps: usize,
    opts: &ServiceOptions,
) -> Result<EnsembleReport, ServiceError> {
    if spec.members == 0 {
        return Err(ServiceError::Config("members must be >= 1".into()));
    }
    if spec.devices == 0 {
        return Err(ServiceError::Config("devices must be >= 1".into()));
    }
    let offloaded = base.version.offloaded();
    let footprint = member_footprint(base, opts.stack_bytes);
    let key = pressure_key(&base.case);

    // Fail fast when a member fits no empty device — before any
    // functional work is spent.
    if offloaded {
        let mut scratch = DevicePool::for_backend(spec.backend, spec.devices);
        if let Err(e) = scratch.admit_packed(0, &footprint, Some(key)) {
            return Err(ServiceError::Admission(e));
        }
    }

    // Functional plane: every member is a real solo run.
    let mut states = Vec::with_capacity(spec.members);
    let mut attempts = Vec::with_capacity(spec.members);
    let mut resumed = Vec::with_capacity(spec.members);
    let mut timings = Vec::with_capacity(spec.members);
    for m in 0..spec.members {
        let cfg = member_config(base, spec, m);
        let plan = opts.faults.get(&m).cloned();
        let (run, tries, restarts_from) = if let Some(root) = &opts.restart_root {
            let rcfg = RestartConfig {
                dir: root.join(format!("member{m:03}")),
                interval: spec.checkpoint_interval.max(1),
                max_attempts: spec.max_attempts.max(1),
                timeout: opts.timeout,
            };
            let (run, stats) = run_parallel_restartable(cfg, steps, &rcfg, plan)
                .map_err(|detail| ServiceError::Member { member: m, detail })?;
            (run, stats.attempts, stats.restarts_from)
        } else {
            if plan.is_some() {
                return Err(ServiceError::Config(
                    "fault injection needs a restart_root (the retry policy)".into(),
                ));
            }
            let run = run_parallel_checked(cfg, steps).map_err(ServiceError::Admission)?;
            (run, 1, Vec::new())
        };
        // Cannot fire: `member_config` makes every member a one-rank run,
        // and a finished run holds one report and one state per rank.
        timings.push(MemberTimings {
            member: m,
            service_per_step: run.reports[0].device_secs_per_step.clone(),
        });
        states.push(run.states.into_iter().next().expect("one rank"));
        attempts.push(tries);
        resumed.push(restarts_from);
    }

    // Modeled plane: pack and replay. CPU versions never touch the
    // pool — a trivial timeline keeps the digest arms uniform across
    // all four scheme versions.
    let schedule = if offloaded {
        schedule_ensemble(&timings, spec, &footprint, Some(key))?
    } else {
        Schedule {
            members: (0..spec.members)
                .map(|m| ScheduledMember {
                    member: m,
                    device: None,
                    wave: 0,
                    cache_hit: false,
                    submit_secs: m as f64 * spec.spacing_secs,
                    admit_secs: m as f64 * spec.spacing_secs,
                    done_secs: 0.0,
                    service_secs: 0.0,
                    queue_secs: 0.0,
                })
                .collect(),
            devices: Vec::new(),
            waves: 1,
            makespan_secs: 0.0,
            unbatched_makespan_secs: 0.0,
            sequential_secs: 0.0,
            cache: CacheShareStats::default(),
        }
    };

    let members = (schedule.members.iter())
        .zip(states)
        .zip(attempts.into_iter().zip(resumed))
        .map(|((s, state), (attempts, resumed_from))| MemberOutcome {
            scheduled: s.clone(),
            seed: member_config(base, spec, s.member).case.seed,
            attempts,
            resumed_from,
            state,
        })
        .collect();

    Ok(EnsembleReport {
        spec: *spec,
        members,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::run_parallel;
    use fsbm_core::scheme::SbmVersion;
    use proptest::prelude::*;

    fn base(version: SbmVersion) -> ModelConfig {
        ModelConfig::gate(version, fsbm_core::exec::ExecMode::work_steal(), 2)
    }

    fn flat_timings(members: usize, steps: usize, service: f64) -> Vec<MemberTimings> {
        (0..members)
            .map(|m| MemberTimings {
                member: m,
                service_per_step: vec![service; steps],
            })
            .collect()
    }

    fn gate_footprint() -> RankFootprint {
        member_footprint(&base(SbmVersion::OffloadCollapse3), None)
    }

    #[test]
    fn pressure_key_is_seed_independent_but_grid_sensitive() {
        let mut a = ConusParams::at_scale(0.05);
        let mut b = a;
        b.seed = a.seed.wrapping_add(17);
        assert_eq!(pressure_key(&a), pressure_key(&b));
        a.nz += 1;
        assert_ne!(pressure_key(&a), pressure_key(&b));
    }

    #[test]
    fn member_configs_perturb_only_the_seed() {
        let b = base(SbmVersion::OffloadCollapse2);
        let spec = EnsembleSpec {
            seed_stride: 7,
            ..EnsembleSpec::default()
        };
        let m0 = member_config(&b, &spec, 0);
        let m3 = member_config(&b, &spec, 3);
        assert_eq!(m0.case.seed, b.case.seed);
        assert_eq!(m3.case.seed, b.case.seed + 21);
        assert_eq!(m3.ranks, 1);
        assert_eq!(m3.gpus, 1);
        assert_eq!(m3.case.nx, b.case.nx);
        assert!(m3.ensemble.is_none());
    }

    #[test]
    fn eight_members_on_two_devices_pack_in_one_wave() {
        // Gate-scale footprints are stack-dominated (13.5 GiB): five
        // fit a device, so 8 members on 2 devices pack 4 + 4.
        let spec = EnsembleSpec {
            members: 8,
            devices: 2,
            ..EnsembleSpec::default()
        };
        let s =
            schedule_ensemble(&flat_timings(8, 3, 0.5), &spec, &gate_footprint(), Some(1)).unwrap();
        assert_eq!(s.waves, 1);
        for d in &s.devices {
            assert_eq!(d.peak_residents, 4);
            assert!(d.peak_used_bytes <= d.capacity_bytes);
        }
        // One shared lookup copy per device: 2 misses, 6 hits.
        assert_eq!((s.cache.misses, s.cache.hits), (2, 6));
        // Everyone queues behind peers, and batching beats both the
        // unbatched replay and the sequential baseline at this service
        // size.
        assert!(s.makespan_secs < s.unbatched_makespan_secs);
        assert!(s.makespan_secs < s.sequential_secs);
    }

    #[test]
    fn overflow_members_queue_for_a_second_wave() {
        let spec = EnsembleSpec {
            members: 8,
            devices: 1,
            ..EnsembleSpec::default()
        };
        let s =
            schedule_ensemble(&flat_timings(8, 2, 0.3), &spec, &gate_footprint(), Some(1)).unwrap();
        assert_eq!(s.waves, 2);
        let waves: Vec<usize> = s.members.iter().map(|m| m.wave).collect();
        assert_eq!(waves, vec![0, 0, 0, 0, 0, 1, 1, 1]);
        // Second-wave members wait for the first wave to drain.
        let waits = s.admission_waits();
        assert!(waits[..5].iter().all(|&w| w < 1e-9));
        assert!(waits[5..].iter().all(|&w| w > 0.0));
        let [p50, p90, p99] = latency_percentiles(&waits);
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn percentiles_use_ceiling_rank_at_small_n() {
        // Two samples: every percentile above the median must report the
        // upper sample (ceil picks rank 1; round was correct here only
        // by accident of .5 rounding away from zero).
        assert_eq!(latency_percentiles(&[1.0, 2.0]), [2.0, 2.0, 2.0]);
        // Eight samples: p90 rank = ceil(0.9 × 7) = 7, the maximum.
        // Nearest-rank rounded 6.3 down to rank 6 — the ~86th
        // percentile, *below* the requested p90.
        let w: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        assert_eq!(latency_percentiles(&w), [5.0, 8.0, 8.0]);
        // Eleven samples: p50 = ceil(5.0) = rank 5, p90 = rank 9,
        // p99 = ceil(9.9) = rank 10.
        let w: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        assert_eq!(latency_percentiles(&w), [6.0, 10.0, 11.0]);
        // Degenerate samples.
        assert_eq!(latency_percentiles(&[3.5]), [3.5, 3.5, 3.5]);
        assert_eq!(latency_percentiles(&[]), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn backend_capacity_changes_member_packing() {
        // Same members, same footprints: a smaller-memory backend packs
        // fewer members per device, so the queue takes more waves.
        let fp = gate_footprint();
        let t = flat_timings(8, 2, 0.3);
        let a = EnsembleSpec {
            members: 8,
            devices: 1,
            ..EnsembleSpec::default()
        };
        let v = EnsembleSpec {
            backend: gpu_sim::machine::backend_by_name("v100").unwrap(),
            ..a
        };
        let sa = schedule_ensemble(&t, &a, &fp, Some(1)).unwrap();
        let sv = schedule_ensemble(&t, &v, &fp, Some(1)).unwrap();
        assert_eq!(sa.waves, 2, "A100-80GB packs 5 + 3");
        assert!(
            sv.waves > sa.waves,
            "V100-32GB must need more waves than the A100 ({} vs {})",
            sv.waves,
            sa.waves
        );
        assert_eq!(
            sv.devices[0].capacity_bytes,
            32 * 1024 * 1024 * 1024,
            "ledger capacity is the backend device's HBM"
        );
    }

    #[test]
    fn oversized_member_is_a_typed_admission_error() {
        let spec = EnsembleSpec::default();
        let fp = RankFootprint {
            stack_bytes: 512 * 1024,
            temp_slab_bytes: 0,
            lookup_bytes: 64 << 20,
        };
        let err = schedule_ensemble(&flat_timings(2, 1, 0.1), &spec, &fp, Some(1)).unwrap_err();
        match err {
            ServiceError::Admission(e) => {
                assert_eq!(e.residents, 0);
                assert!(e.requested_bytes > e.capacity_bytes);
            }
            other => panic!("expected admission error, got {other:?}"),
        }
    }

    #[test]
    fn ensemble_members_match_their_solo_runs_bitwise() {
        let b = base(SbmVersion::OffloadCollapse3);
        let spec = EnsembleSpec {
            members: 3,
            devices: 2,
            ..EnsembleSpec::default()
        };
        let rep = run_ensemble_with(&b, &spec, 2, &ServiceOptions::default()).unwrap();
        assert_eq!(rep.members.len(), 3);
        for m in &rep.members {
            let solo = run_parallel(member_config(&b, &spec, m.scheduled.member), 2);
            assert_eq!(
                m.state.digest(),
                solo.states[0].digest(),
                "member {} diverged from its solo run",
                m.scheduled.member
            );
        }
        // Distinct seeds produce distinct members.
        assert_ne!(rep.members[0].state.digest(), rep.members[1].state.digest());
    }

    #[test]
    fn cpu_versions_skip_the_pool() {
        let b = base(SbmVersion::Lookup);
        let spec = EnsembleSpec {
            members: 2,
            ..EnsembleSpec::default()
        };
        let rep = run_ensemble_with(&b, &spec, 2, &ServiceOptions::default()).unwrap();
        assert!(rep.members.iter().all(|m| m.scheduled.device.is_none()));
        assert_eq!(rep.schedule.makespan_secs, 0.0);
        assert_eq!(rep.members_per_hour(), 0.0);
        // An empty modeled timeline still renders every field.
        assert_eq!(
            rep.one_line(),
            "ensemble: members=2 devices=0 waves=1 rate=0.00/h wait_p50=0.000s \
             wait_p99=0.000s cache=0% slice_saved=0.0s"
        );
    }

    #[test]
    fn line_contains_every_field() {
        let tiny = two_d_decomposition(wrf_grid::Domain::new(2, 2, 2), 1, 0).patches[0];
        let scheduled = |m: usize| ScheduledMember {
            member: m,
            device: Some(m % 2),
            wave: 0,
            cache_hit: m >= 2,
            submit_secs: 0.0,
            admit_secs: if m == 7 { 1.2345 } else { 0.0 },
            done_secs: 0.0,
            service_secs: 0.0,
            queue_secs: 0.0,
        };
        let mut saving = DeviceLedger::empty(0, 1);
        saving.slice_secs_saved = 214.18;
        let schedule = Schedule {
            members: (0..8).map(scheduled).collect(),
            devices: vec![saving, DeviceLedger::empty(1, 1)],
            waves: 1,
            makespan_secs: 8.0 * 3600.0 / 9.237,
            unbatched_makespan_secs: 0.0,
            sequential_secs: 0.0,
            cache: CacheShareStats {
                hits: 6,
                misses: 2,
                bytes_saved: 0,
            },
        };
        let members = (schedule.members.iter())
            .map(|s| MemberOutcome {
                scheduled: s.clone(),
                seed: 0,
                attempts: 1,
                resumed_from: Vec::new(),
                state: SbmPatchState::new(tiny),
            })
            .collect();
        let line = EnsembleReport {
            spec: EnsembleSpec::default(),
            members,
            schedule,
        }
        .one_line();
        assert!(line.starts_with("ensemble: members=8"));
        for needle in [
            "devices=2",
            "waves=1",
            "rate=9.24/h",
            "wait_p50=0.000s",
            "wait_p99=1.234s",
            "cache=75%",
            "slice_saved=214.2s",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Wave membership and device placement depend only on member
        /// ids and footprints — never on the submit interleaving.
        #[test]
        fn admission_is_deterministic_under_submit_interleavings(
            members in 1usize..12,
            devices in 1usize..4,
            spacing_ms in 0u64..400,
        ) {
            let fp = gate_footprint();
            let a = EnsembleSpec { members, devices, spacing_secs: 0.0, ..EnsembleSpec::default() };
            let b = EnsembleSpec {
                members,
                devices,
                spacing_secs: spacing_ms as f64 * 1e-3,
                ..EnsembleSpec::default()
            };
            let t = flat_timings(members, 2, 0.2);
            let sa = schedule_ensemble(&t, &a, &fp, Some(9)).unwrap();
            let sb = schedule_ensemble(&t, &b, &fp, Some(9)).unwrap();
            prop_assert_eq!(sa.waves, sb.waves);
            for (ma, mb) in sa.members.iter().zip(&sb.members) {
                prop_assert_eq!(ma.device, mb.device);
                prop_assert_eq!(ma.wave, mb.wave);
                prop_assert_eq!(ma.cache_hit, mb.cache_hit);
            }
        }

        /// No device ever exceeds its memory cap, whatever the member
        /// count, device count, and stack size.
        #[test]
        fn co_resident_members_never_exceed_the_cap(
            members in 1usize..16,
            devices in 1usize..4,
            stack_kib in 16u64..128,
        ) {
            let fp = RankFootprint {
                stack_bytes: stack_kib * 1024,
                temp_slab_bytes: 10_000_000,
                lookup_bytes: 64 << 20,
            };
            let spec = EnsembleSpec { members, devices, ..EnsembleSpec::default() };
            let s = schedule_ensemble(&flat_timings(members, 1, 0.1), &spec, &fp, Some(3)).unwrap();
            for d in &s.devices {
                prop_assert!(d.peak_used_bytes <= d.capacity_bytes,
                    "device {} over cap: {} > {}", d.device, d.peak_used_bytes, d.capacity_bytes);
            }
            prop_assert_eq!(s.members.len(), members);
        }
    }

    /// Retry-after-injected-fault converges to the solo digest: the
    /// service's supervised member is killed mid-run, relaunches from
    /// its newest checkpoint, and still lands bitwise on the solo run.
    #[test]
    fn faulted_member_retries_and_converges_to_solo_digest() {
        let b = base(SbmVersion::OffloadCollapse2);
        let spec = EnsembleSpec {
            members: 2,
            devices: 1,
            max_attempts: 3,
            checkpoint_interval: 1,
            ..EnsembleSpec::default()
        };
        let dir =
            std::env::temp_dir().join(format!("miniwrf_service_retry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = ServiceOptions {
            restart_root: Some(dir.clone()),
            timeout: Duration::from_millis(300),
            ..ServiceOptions::default()
        };
        opts.faults
            .insert(1, Arc::new(FaultPlan::new().kill_rank_at(0, 2)));
        let rep = run_ensemble_with(&b, &spec, 3, &opts).unwrap();
        assert_eq!(rep.members[0].attempts, 1);
        assert!(rep.members[1].attempts >= 2, "the fault must have fired");
        assert!(!rep.members[1].resumed_from.is_empty());
        for m in &rep.members {
            let solo = run_parallel(member_config(&b, &spec, m.scheduled.member), 3);
            assert_eq!(m.state.digest(), solo.states[0].digest());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
