//! Ensemble service: seed-perturbed members of one base configuration,
//! placed by the paper's one admission rule.
//!
//! Section VII-A needs two rules — ranks are placed round-robin over the
//! devices, and device memory caps how many share one — and
//! [`DevicePool::admit`] states both. The service adds no third:
//! [`member_batches`] admits members in member order onto a fresh pool
//! of `spec.devices` devices of the base backend, a refusal opens the
//! next batch, and a refusal on an empty pool is the typed
//! [`ServiceError::Admission`]. Every admitted member then runs as one
//! solo integration, so its final state is bitwise its solo run:
//! placement shares memory, never arithmetic. CPU versions never touch
//! the pool and run as one batch.

use crate::config::ModelConfig;
use crate::parallel::run_parallel;
use crate::perfmodel::{rank_footprint, staged_bytes, PerfParams};
use fsbm_core::state::SbmPatchState;
use gpu_sim::devicepool::{DevicePool, RankFootprint};
use gpu_sim::error::DeviceError;
use gpu_sim::machine::Backend;
use wrf_grid::two_d_decomposition;

/// Ensemble request parsed from the namelist `&ensemble` block. The
/// devices are of the base configuration's backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnsembleSpec {
    /// Ensemble size (perturbed members generated from the base).
    pub members: usize,
    /// Devices each batch's pool holds.
    pub devices: usize,
    /// Seed offset between consecutive members (member `i` runs the
    /// base scenario with `seed + i * seed_stride`; member 0 is the
    /// unperturbed control).
    pub seed_stride: u64,
}

impl Default for EnsembleSpec {
    fn default() -> Self {
        EnsembleSpec {
            members: 4,
            devices: 2,
            seed_stride: 1,
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
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(msg) => write!(f, "ensemble config: {msg}"),
            ServiceError::Admission(e) => write!(f, "ensemble admission: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Derives member `i`'s solo configuration from the base: one rank over
/// the whole domain and the member's perturbed seed. Its device is the
/// one its batch admitted it to, so the integration itself needs no
/// pool (`gpus = 0`). Member 0 reproduces the base scenario.
pub fn member_config(base: &ModelConfig, spec: &EnsembleSpec, member: usize) -> ModelConfig {
    let mut cfg = *base;
    cfg.ranks = 1;
    cfg.case.seed = base
        .case
        .seed
        .wrapping_add(member as u64 * spec.seed_stride);
    cfg.gpus = 0;
    cfg.ensemble = None;
    cfg
}

/// The device-memory footprint one member's context charges (1-rank
/// decomposition over the whole domain).
pub fn member_footprint(base: &ModelConfig) -> RankFootprint {
    let dd = two_d_decomposition(base.case.domain(), 1, base.halo);
    let staged = staged_bytes(dd.patches[0].compute_points() as u64);
    rank_footprint(&PerfParams::default(), staged)
}

/// How many contexts of `footprint` one of `backend`'s devices admits,
/// and the typed refusal of the next: the depth [`member_batches`] fills
/// each device to.
pub fn member_cap(footprint: &RankFootprint, backend: &Backend) -> (usize, DeviceError) {
    let mut pool = DevicePool::for_backend(backend, 1);
    let mut cap = 0;
    loop {
        match pool.admit(cap, footprint) {
            Ok(_) => cap += 1,
            Err(e) => return (cap, e),
        }
    }
}

/// The `(batch, device)` of members `0..members`, member order: each
/// batch is [`DevicePool::admit`] of the next members onto a fresh pool
/// of `devices` (≥ 1) of `backend`'s devices, and a refusal opens the
/// next batch. A refusal on an empty pool is [`ServiceError::Admission`].
pub fn member_batches(
    footprint: &RankFootprint,
    backend: &Backend,
    devices: usize,
    members: usize,
) -> Result<Vec<(usize, usize)>, ServiceError> {
    let mut placed = Vec::with_capacity(members);
    let mut pool = DevicePool::for_backend(backend, devices);
    let (mut batch, mut first) = (0, 0);
    while placed.len() < members {
        let member = placed.len();
        match pool.admit(member, footprint) {
            Ok(device) => placed.push((batch, device)),
            Err(e) if member == first => return Err(ServiceError::Admission(e)),
            Err(_) => {
                (batch, first) = (batch + 1, member);
                pool = DevicePool::for_backend(backend, devices);
            }
        }
    }
    Ok(placed)
}

/// One ensemble member's outcome.
#[derive(Debug, Clone)]
pub struct MemberOutcome {
    /// Member id.
    pub member: usize,
    /// The member's perturbed scenario seed.
    pub seed: u64,
    /// Batch the member ran in.
    pub batch: usize,
    /// Device its batch admitted it to (`None` for CPU versions, which
    /// never touch the pool).
    pub device: Option<usize>,
    /// Final state — bitwise-identical to the member's solo run.
    pub state: SbmPatchState,
}

/// Outcome of a full ensemble service run.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// The request served.
    pub spec: EnsembleSpec,
    /// Members one device admits (`None` for CPU versions).
    pub cap: Option<usize>,
    /// Batches the members ran in.
    pub batches: usize,
    /// Per-member outcomes, member order.
    pub members: Vec<MemberOutcome>,
}

impl EnsembleReport {
    /// The one-line service summary `miniwrf` prints: members, devices
    /// (0 when the version never touches the pool), batches and the
    /// per-device cap (`-` without a pool).
    pub fn one_line(&self) -> String {
        let devices = self.cap.map_or(0, |_| self.spec.devices);
        let cap = self.cap.map_or("-".to_string(), |c| c.to_string());
        format!(
            "ensemble: members={} devices={devices} batches={} cap={cap}",
            self.members.len(),
            self.batches,
        )
    }
}

/// Runs `spec.members` perturbed members of `base` for `steps` steps
/// each: offloaded versions are placed by [`member_batches`] before any
/// member runs, then every member runs solo, in member order.
pub fn run_ensemble(
    base: &ModelConfig,
    spec: &EnsembleSpec,
    steps: usize,
) -> Result<EnsembleReport, ServiceError> {
    if spec.members == 0 {
        return Err(ServiceError::Config("members must be >= 1".into()));
    }
    if spec.devices == 0 {
        return Err(ServiceError::Config("devices must be >= 1".into()));
    }
    let fp = member_footprint(base);
    let offloaded = base.version.offloaded();
    let placed: Vec<(usize, Option<usize>)> = if offloaded {
        let placed = member_batches(&fp, base.backend, spec.devices, spec.members)?;
        placed.into_iter().map(|(b, d)| (b, Some(d))).collect()
    } else {
        vec![(0, None); spec.members]
    };
    let members: Vec<MemberOutcome> = (placed.into_iter().enumerate())
        .map(|(member, (batch, device))| {
            let cfg = member_config(base, spec, member);
            // Cannot fire: a member is a one-rank run, and a finished run
            // holds one state per rank.
            let state = run_parallel(cfg, steps).states.into_iter().next();
            MemberOutcome {
                member,
                seed: cfg.case.seed,
                batch,
                device,
                state: state.expect("one rank"),
            }
        })
        .collect();
    Ok(EnsembleReport {
        spec: *spec,
        cap: offloaded.then(|| member_cap(&fp, base.backend).0),
        batches: members.last().map_or(0, |m| m.batch + 1),
        members,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::scheme::SbmVersion;
    use gpu_sim::machine::{backend_by_name, default_backend};
    use proptest::prelude::*;

    fn base(version: SbmVersion) -> ModelConfig {
        ModelConfig::gate(version, fsbm_core::exec::ExecMode::work_steal(), 2)
    }

    fn gate_footprint() -> RankFootprint {
        member_footprint(&base(SbmVersion::OffloadCollapse3))
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
        assert_eq!(m3.gpus, 0);
        assert_eq!(m3.case.nx, b.case.nx);
        assert!(m3.ensemble.is_none());
    }

    #[test]
    fn eight_members_on_two_devices_pack_in_one_wave() {
        // Gate-scale footprints are stack-dominated (13.5 GiB): five
        // fit a device, so 8 members on 2 devices run in one batch,
        // round-robin 4 + 4.
        let placed = member_batches(&gate_footprint(), default_backend(), 2, 8).unwrap();
        let want: Vec<(usize, usize)> = (0..8).map(|m| (0, m % 2)).collect();
        assert_eq!(placed, want);
        assert_eq!(member_cap(&gate_footprint(), default_backend()).0, 5);
    }

    #[test]
    fn overflow_members_queue_for_a_second_wave() {
        let placed = member_batches(&gate_footprint(), default_backend(), 1, 8).unwrap();
        let batches: Vec<usize> = placed.iter().map(|&(b, _)| b).collect();
        assert_eq!(batches, vec![0, 0, 0, 0, 0, 1, 1, 1]);
        assert!(placed.iter().all(|&(_, d)| d == 0));
    }

    #[test]
    fn backend_capacity_changes_member_packing() {
        // Same members, same footprints: a smaller-memory backend admits
        // fewer members per device, so the ensemble takes more batches.
        let fp = gate_footprint();
        let batches = |backend| {
            let placed = member_batches(&fp, backend, 1, 8).unwrap();
            placed.last().unwrap().0 + 1
        };
        let v100 = backend_by_name("v100").unwrap();
        assert_eq!(batches(default_backend()), 2, "A100-80GB admits 5 + 3");
        assert!(
            batches(v100) > batches(default_backend()),
            "V100-32GB must need more batches than the A100"
        );
        let (cap, refusal) = member_cap(&fp, v100);
        assert!(cap < 5);
        assert_eq!(
            refusal.capacity_bytes,
            32 * 1024 * 1024 * 1024,
            "the refusal names the backend device's HBM"
        );
    }

    #[test]
    fn oversized_member_is_a_typed_admission_error() {
        let fp = RankFootprint {
            stack_bytes: 512 * 1024,
            temp_slab_bytes: 0,
            lookup_bytes: 64 << 20,
        };
        match member_batches(&fp, default_backend(), 2, 2).unwrap_err() {
            ServiceError::Admission(e) => {
                assert_eq!((e.rank, e.residents), (0, 0));
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
        let rep = run_ensemble(&b, &spec, 2).unwrap();
        assert_eq!(rep.members.len(), 3);
        for m in &rep.members {
            let solo = run_parallel(member_config(&b, &spec, m.member), 2);
            assert_eq!(
                m.state.digest(),
                solo.states[0].digest(),
                "member {} diverged from its solo run",
                m.member
            );
            assert_eq!(m.device, Some(m.member % 2));
        }
        assert_eq!(
            rep.one_line(),
            "ensemble: members=3 devices=2 batches=1 cap=5"
        );
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
        let rep = run_ensemble(&b, &spec, 2).unwrap();
        assert!(rep.members.iter().all(|m| m.device.is_none()));
        assert_eq!(
            rep.one_line(),
            "ensemble: members=2 devices=0 batches=1 cap=-"
        );
    }

    #[test]
    fn line_contains_every_field() {
        let tiny = two_d_decomposition(wrf_grid::Domain::new(2, 2, 2), 1, 0).patches[0];
        let members = (0..9)
            .map(|m| MemberOutcome {
                member: m,
                seed: 0,
                batch: m / 8,
                device: Some(m % 2),
                state: SbmPatchState::new(tiny),
            })
            .collect();
        let line = EnsembleReport {
            spec: EnsembleSpec::default(),
            cap: Some(4),
            batches: 2,
            members,
        }
        .one_line();
        assert_eq!(line, "ensemble: members=9 devices=2 batches=2 cap=4");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// No device of any batch holds more than its memory cap,
        /// whatever the member count, device count, and stack size, and
        /// every member is placed.
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
            let backend = default_backend();
            let dev = backend.device_params();
            let placed = member_batches(&fp, backend, devices, members).unwrap();
            prop_assert_eq!(placed.len(), members);
            let charged = fp.charged_bytes(&dev).unwrap();
            for slot in &placed {
                let residents = placed.iter().filter(|p| *p == slot).count() as u64;
                prop_assert!(residents * charged <= dev.hbm_bytes,
                    "batch {} device {} over cap: {} x {} B", slot.0, slot.1, residents, charged);
            }
        }
    }
}
