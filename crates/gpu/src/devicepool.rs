//! Shared-device scheduling: round-robin rank placement, memory-capped
//! admission, and deterministic time-shared replay.
//!
//! Section VII-A of the paper runs 16/32/64 MPI ranks over 16 GPUs:
//! "for each GPU, the (1/2/4) MPI tasks are distributed in a
//! round-robin fashion", and device memory caps the sharing at 5 ranks
//! per 80 GB A100 (each rank's context reserves its
//! `NV_ACC_CUDA_STACKSIZE` stack pool plus the `temp_arrays` slabs and
//! lookup working set). [`DevicePool`] models all three effects:
//!
//! * **Placement** — rank `r` lands on device `r % n_devices`, the
//!   static round-robin the paper describes. Deterministic by
//!   construction: the same (ranks, devices) pair always produces the
//!   same assignment.
//! * **Admission** — [`DevicePool::admit`] charges each resident rank's
//!   [`RankFootprint`] against the device's HBM capacity and fails with
//!   a typed [`DeviceError`] naming the rank, device, and byte counts
//!   once the budget is exhausted — the hard OOM wall the paper hits
//!   beyond 5 ranks/GPU.
//! * **Time-sharing** — [`DevicePool::replay`] serializes the resident
//!   ranks' per-step device occupancy in deterministic `(submit, rank)`
//!   order, MPS-style: co-resident submissions queue behind each other,
//!   and every service window on a *shared* device additionally pays
//!   the global [`Calibration::service_slice_secs`] context-service
//!   slice. A device with a single resident context pays neither, so
//!   exclusive runs price identically with or without a pool.
//!
//! The replay is a pure function of the submissions (no wall clocks, no
//! shared mutable timelines), so the queueing report is bitwise
//! reproducible and composes with the α–β halo accounting: exposed
//! communication time and exposed queueing time are reported as
//! separate ledgers.

use crate::error::DeviceError;
use crate::machine::{Backend, Calibration, GpuParams, CALIBRATION};

/// Device-memory footprint one resident rank charges against its
/// assigned device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFootprint {
    /// Per-thread device stack (`NV_ACC_CUDA_STACKSIZE`); the context
    /// reserves [`GpuParams::stack_pool_bytes`] of it — 13.5 GiB at the
    /// paper's 64 KiB setting, the dominant share of the budget.
    pub stack_bytes: u64,
    /// Resident `temp_arrays` slabs + staged thermo fields.
    pub temp_slab_bytes: u64,
    /// Collision lookup-table working set (`cwll`/`cwlg`/... hierarchy).
    pub lookup_bytes: u64,
}

impl RankFootprint {
    /// Total bytes this rank's context charges on `params` hardware.
    /// `None` when the stack pool (a namelist-controlled multiply) or
    /// the sum overflows `u64` — admission treats that as an
    /// unsatisfiable request rather than letting a wrapped footprint
    /// falsely fit.
    pub fn charged_bytes(&self, params: &GpuParams) -> Option<u64> {
        params
            .checked_stack_pool_bytes(self.stack_bytes)?
            .checked_add(self.temp_slab_bytes)?
            .checked_add(self.lookup_bytes)
    }
}

/// One rank's device occupancy submission for a replay round: the rank
/// asks for `service_secs` of device time starting no earlier than
/// `submit_secs` (both modeled seconds, never wall clocks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankSubmission {
    /// Submitting rank (must be admitted).
    pub rank: usize,
    /// Modeled time the offloaded region is reached.
    pub submit_secs: f64,
    /// Modeled device occupancy requested (kernels + staged transfers).
    pub service_secs: f64,
}

/// Per-rank outcome of one replay round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankShare {
    /// Rank id.
    pub rank: usize,
    /// Device the rank is resident on.
    pub device: usize,
    /// Co-resident submissions on that device this round (incl. self).
    pub sharers: usize,
    /// The rank's own device occupancy.
    pub service_secs: f64,
    /// Exposed queueing: modeled seconds between submission and the
    /// start of the rank's own compute (peers' services + context
    /// slices, including the rank's own switch-in).
    pub queue_secs: f64,
}

/// Per-device outcome of one replay round (or an accumulated run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceShare {
    /// Device id.
    pub device: usize,
    /// Ranks resident (admitted) on the device.
    pub residents: usize,
    /// Bytes charged by the resident contexts.
    pub used_bytes: u64,
    /// HBM capacity.
    pub capacity_bytes: u64,
    /// Summed service seconds executed.
    pub busy_secs: f64,
    /// Summed context-service slice overhead (zero when exclusive).
    pub slice_secs: f64,
    /// Summed exposed queue seconds of the device's residents.
    pub queue_secs: f64,
}

/// Outcome of a replay: per-rank and per-device ledgers, rank- and
/// device-ordered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShareReport {
    /// Per-rank shares, ordered by rank id.
    pub ranks: Vec<RankShare>,
    /// Per-device shares, ordered by device id.
    pub devices: Vec<DeviceShare>,
}

impl ShareReport {
    /// Accumulates another round into this report (summing the second
    /// ledgers; residency and memory fields must agree). Used to fold
    /// per-step replays into a whole-run ledger.
    pub fn absorb(&mut self, other: &ShareReport) {
        if self.ranks.is_empty() && self.devices.is_empty() {
            *self = other.clone();
            return;
        }
        for (a, b) in self.ranks.iter_mut().zip(&other.ranks) {
            assert_eq!((a.rank, a.device), (b.rank, b.device), "mismatched rounds");
            a.service_secs += b.service_secs;
            a.queue_secs += b.queue_secs;
            a.sharers = a.sharers.max(b.sharers);
        }
        for (a, b) in self.devices.iter_mut().zip(&other.devices) {
            assert_eq!(a.device, b.device, "mismatched rounds");
            a.busy_secs += b.busy_secs;
            a.slice_secs += b.slice_secs;
            a.queue_secs += b.queue_secs;
        }
    }

    /// Total exposed queue seconds across ranks.
    pub fn total_queue_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.queue_secs).sum()
    }
}

/// Memory-accounting state of one pooled device.
#[derive(Debug, Clone)]
struct PoolDevice {
    used_bytes: u64,
    residents: Vec<usize>,
}

/// A pool of simulated devices shared by a communicator's ranks:
/// round-robin placement, memory-capped admission, deterministic
/// time-shared replay. See the module docs.
#[derive(Debug, Clone)]
pub struct DevicePool {
    params: GpuParams,
    calib: Calibration,
    devices: Vec<PoolDevice>,
    slice_secs: f64,
}

impl DevicePool {
    /// Creates a pool of `n_devices` devices of the given hardware with
    /// the default [`CALIBRATION`](crate::machine::CALIBRATION) — the
    /// historical A100 pricing. Per-backend pools should go through
    /// [`DevicePool::for_backend`] or [`DevicePool::with_calibration`]
    /// so replay pricing follows the instance, not the global const.
    pub fn new(params: GpuParams, n_devices: usize) -> Self {
        assert!(n_devices > 0, "a device pool needs at least one device");
        DevicePool {
            params,
            calib: CALIBRATION,
            devices: (0..n_devices)
                .map(|_| PoolDevice {
                    used_bytes: 0,
                    residents: Vec::new(),
                })
                .collect(),
            slice_secs: CALIBRATION.service_slice_secs,
        }
    }

    /// Creates a pool of `n_devices` devices of `backend`'s offload
    /// target, priced with that backend's calibration.
    pub fn for_backend(backend: &Backend, n_devices: usize) -> Self {
        DevicePool::new(backend.device_params(), n_devices).with_calibration(backend.calib)
    }

    /// Replaces the pool's calibration; the context-service slice used
    /// by replays follows it.
    pub fn with_calibration(mut self, calib: Calibration) -> Self {
        self.calib = calib;
        self.slice_secs = calib.service_slice_secs;
        self
    }

    /// Overrides the context-service slice alone, on top of whatever
    /// calibration the pool carries (tests and ablations).
    pub fn with_service_slice(mut self, secs: f64) -> Self {
        self.slice_secs = secs;
        self
    }

    /// The calibration this pool prices replays with.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// Number of devices in the pool.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// The context-service slice used by replays.
    pub fn service_slice_secs(&self) -> f64 {
        self.slice_secs
    }

    /// Round-robin home device of `rank` — §VII-A's placement, a pure
    /// function of (rank, device count).
    pub fn device_for(&self, rank: usize) -> usize {
        rank % self.devices.len()
    }

    /// Ranks currently resident on `device`.
    pub fn residents(&self, device: usize) -> &[usize] {
        &self.devices[device].residents
    }

    /// Device an admitted rank is resident on (`None` when it was never
    /// admitted); agrees with [`DevicePool::device_for`] for every
    /// admitted rank.
    pub fn device_of(&self, rank: usize) -> Option<usize> {
        self.devices
            .iter()
            .position(|d| d.residents.contains(&rank))
    }

    /// Bytes charged on `device` by its resident contexts.
    pub fn used_bytes(&self, device: usize) -> u64 {
        self.devices[device].used_bytes
    }

    /// HBM capacity of each device.
    pub fn capacity_bytes(&self) -> u64 {
        self.params.hbm_bytes
    }

    /// Admits `rank` onto its round-robin device, charging `footprint`
    /// against the device budget. Fails with a typed [`DeviceError`]
    /// naming rank, device, and bytes when the context does not fit —
    /// the paper's hard OOM beyond ~5 ranks/GPU. The pool is unchanged
    /// on failure.
    pub fn admit(&mut self, rank: usize, footprint: &RankFootprint) -> Result<usize, DeviceError> {
        let device = self.device_for(rank);
        let dev = &mut self.devices[device];
        assert!(
            !dev.residents.contains(&rank),
            "rank {rank} admitted twice onto device {device}"
        );
        // An overflowing footprint is unsatisfiable: saturate so the
        // capacity check below rejects it with the same typed error.
        let requested = footprint.charged_bytes(&self.params).unwrap_or(u64::MAX);
        let capacity = self.params.hbm_bytes;
        if requested > capacity - dev.used_bytes {
            return Err(DeviceError {
                rank,
                device,
                requested_bytes: requested,
                used_bytes: dev.used_bytes,
                capacity_bytes: capacity,
                residents: dev.residents.len(),
            });
        }
        dev.used_bytes += requested;
        dev.residents.push(rank);
        Ok(device)
    }

    /// Admits ranks `0..ranks`, all with the same footprint, in rank
    /// order — the uniform-decomposition common case. Stops at the
    /// first failure (earlier admissions stay resident so the error's
    /// byte counts describe the device as the failing rank saw it).
    pub fn admit_all(
        &mut self,
        ranks: usize,
        footprint: &RankFootprint,
    ) -> Result<(), DeviceError> {
        for rank in 0..ranks {
            self.admit(rank, footprint)?;
        }
        Ok(())
    }

    /// Replays one bulk-synchronous round of submissions: on each
    /// device, submissions are served in `(submit, rank)` order, and on
    /// devices with two or more submissions this round every service
    /// window is preceded by the context-service slice. Exclusive
    /// devices pay no slice. Panics if a submission names a rank that
    /// was never admitted. Pure and deterministic — no wall clocks, no
    /// mutation.
    pub fn replay(&self, submissions: &[RankSubmission]) -> ShareReport {
        let mut per_device: Vec<Vec<RankSubmission>> = vec![Vec::new(); self.devices.len()];
        for sub in submissions {
            let device = self
                .device_of(sub.rank)
                .unwrap_or_else(|| panic!("rank {} submitted without being admitted", sub.rank));
            per_device[device].push(*sub);
        }

        let mut ranks: Vec<RankShare> = Vec::with_capacity(submissions.len());
        let mut devices: Vec<DeviceShare> = Vec::with_capacity(self.devices.len());
        for (d, subs) in per_device.iter_mut().enumerate() {
            subs.sort_by(|a, b| {
                a.submit_secs
                    .total_cmp(&b.submit_secs)
                    .then(a.rank.cmp(&b.rank))
            });
            let sharers = subs.len();
            let slice = if sharers > 1 { self.slice_secs } else { 0.0 };
            let mut clock = 0.0f64;
            let mut busy = 0.0f64;
            let mut sliced = 0.0f64;
            let mut queued = 0.0f64;
            for sub in subs.iter() {
                let begin = clock.max(sub.submit_secs) + slice;
                let queue = begin - sub.submit_secs;
                clock = begin + sub.service_secs;
                sliced += slice;
                busy += sub.service_secs;
                queued += queue;
                ranks.push(RankShare {
                    rank: sub.rank,
                    device: d,
                    sharers,
                    service_secs: sub.service_secs,
                    queue_secs: queue,
                });
            }
            devices.push(DeviceShare {
                device: d,
                residents: self.devices[d].residents.len(),
                used_bytes: self.devices[d].used_bytes,
                capacity_bytes: self.params.hbm_bytes,
                busy_secs: busy,
                slice_secs: sliced,
                queue_secs: queued,
            });
        }
        ranks.sort_by_key(|r| r.rank);
        ShareReport { ranks, devices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::A100;
    use proptest::prelude::*;

    /// The paper's full-scale footprint: 64 KiB stacks dominate.
    fn paper_footprint() -> RankFootprint {
        RankFootprint {
            stack_bytes: 65536,
            temp_slab_bytes: 150_000_000,
            lookup_bytes: 64 << 20,
        }
    }

    #[test]
    fn round_robin_is_modular() {
        let pool = DevicePool::new(A100, 16);
        assert_eq!(pool.device_for(0), 0);
        assert_eq!(pool.device_for(16), 0);
        assert_eq!(pool.device_for(17), 1);
        assert_eq!(pool.device_for(63), 15);
    }

    #[test]
    fn five_ranks_fit_sixth_is_a_typed_error() {
        // One 80 GB A100, 64 KiB stacks: each context charges ~13.7 GiB,
        // so 5 fit and the 6th is the paper's OOM wall.
        let mut pool = DevicePool::new(A100, 1);
        let fp = paper_footprint();
        for rank in 0..5 {
            assert_eq!(pool.admit(rank, &fp), Ok(0));
        }
        let err = pool.admit(5, &fp).unwrap_err();
        assert_eq!(err.rank, 5);
        assert_eq!(err.device, 0);
        assert_eq!(err.residents, 5);
        assert!(err.requested_bytes > err.capacity_bytes - err.used_bytes);
        let msg = err.to_string();
        assert!(msg.contains("rank 5") && msg.contains("device 0"), "{msg}");
        // The pool still holds the five admitted ranks.
        assert_eq!(pool.residents(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn admit_all_matches_paper_sweep() {
        // 40 ranks on 8 GPUs = 5/device: the equal-resource setup fits.
        let mut pool = DevicePool::new(A100, 8);
        pool.admit_all(40, &paper_footprint()).unwrap();
        for d in 0..8 {
            assert_eq!(pool.residents(d).len(), 5);
        }
        // 48 ranks on 8 GPUs needs a 6th context on device 0: rank 40
        // is the first admission past the wall.
        let mut pool = DevicePool::new(A100, 8);
        let err = pool.admit_all(48, &paper_footprint()).unwrap_err();
        assert_eq!((err.rank, err.device), (40, 0));
    }

    #[test]
    fn exclusive_replay_has_no_queue_or_slice() {
        let mut pool = DevicePool::new(A100, 2).with_service_slice(0.3);
        pool.admit_all(2, &paper_footprint()).unwrap();
        let rep = pool.replay(&[
            RankSubmission {
                rank: 0,
                submit_secs: 0.0,
                service_secs: 0.5,
            },
            RankSubmission {
                rank: 1,
                submit_secs: 0.0,
                service_secs: 0.25,
            },
        ]);
        for r in &rep.ranks {
            assert_eq!(r.sharers, 1);
            assert_eq!(r.queue_secs, 0.0);
        }
        assert_eq!(rep.devices[0].slice_secs, 0.0);
        assert_eq!(rep.devices[0].busy_secs, 0.5);
        assert_eq!(rep.total_queue_secs(), 0.0);
    }

    #[test]
    fn shared_replay_serializes_and_charges_slices() {
        let mut pool = DevicePool::new(A100, 1).with_service_slice(0.3);
        pool.admit_all(3, &paper_footprint()).unwrap();
        let subs: Vec<RankSubmission> = (0..3)
            .map(|rank| RankSubmission {
                rank,
                submit_secs: 0.0,
                service_secs: 0.1,
            })
            .collect();
        let rep = pool.replay(&subs);
        // Rank 0: own slice only; rank 1: slice + r0 service + slice;
        // rank 2: two services + three slices.
        let q: Vec<f64> = rep.ranks.iter().map(|r| r.queue_secs).collect();
        assert!((q[0] - 0.3).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 0.7).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 1.1).abs() < 1e-12, "{q:?}");
        assert!((rep.devices[0].slice_secs - 0.9).abs() < 1e-12);
        assert!((rep.devices[0].busy_secs - 0.3).abs() < 1e-12);
    }

    #[test]
    fn later_submissions_wait_less() {
        // A rank that reaches its offloaded region late overlaps the
        // peers' services with its own host work: the queue shrinks.
        let mut pool = DevicePool::new(A100, 1).with_service_slice(0.0);
        pool.admit_all(2, &paper_footprint()).unwrap();
        let rep = pool.replay(&[
            RankSubmission {
                rank: 0,
                submit_secs: 0.0,
                service_secs: 1.0,
            },
            RankSubmission {
                rank: 1,
                submit_secs: 0.8,
                service_secs: 1.0,
            },
        ]);
        assert_eq!(rep.ranks[0].queue_secs, 0.0);
        assert!((rep.ranks[1].queue_secs - 0.2).abs() < 1e-12);
    }

    /// Regression for the unchecked stack-pool multiply: a stack size
    /// near `u64::MAX / thread_capacity` used to wrap into a footprint
    /// that falsely fit admission. Admission must reject it with the
    /// typed error, charging nothing.
    #[test]
    fn overflowing_stack_pool_is_rejected_not_wrapped() {
        let huge = u64::MAX / A100.thread_capacity() + 1;
        let fp = RankFootprint {
            stack_bytes: huge,
            temp_slab_bytes: 0,
            lookup_bytes: 0,
        };
        assert_eq!(fp.charged_bytes(&A100), None);
        // The old wrapping arithmetic produced a "small" pool that fit.
        assert!(A100.thread_capacity().wrapping_mul(huge) < A100.hbm_bytes);
        let mut pool = DevicePool::new(A100, 2);
        let err = pool.admit(0, &fp).unwrap_err();
        assert_eq!((err.rank, err.device, err.residents), (0, 0, 0));
        assert_eq!(err.requested_bytes, u64::MAX);
        assert_eq!(pool.used_bytes(0), 0);
    }

    /// Regression for the calibration leak: replay pricing used to read
    /// the global `CALIBRATION` const, so a per-instance calibration was
    /// silently ignored. A pool carrying a non-default calibration must
    /// price its context slices (and therefore queueing) differently.
    #[test]
    fn non_default_calibration_changes_replay_pricing() {
        let custom = Calibration {
            service_slice_secs: 2.0 * CALIBRATION.service_slice_secs,
            ..CALIBRATION
        };
        let subs: Vec<RankSubmission> = (0..3)
            .map(|rank| RankSubmission {
                rank,
                submit_secs: 0.0,
                service_secs: 0.1,
            })
            .collect();
        let mut default_pool = DevicePool::new(A100, 1);
        default_pool.admit_all(3, &paper_footprint()).unwrap();
        let mut custom_pool = DevicePool::new(A100, 1).with_calibration(custom);
        custom_pool.admit_all(3, &paper_footprint()).unwrap();
        assert_eq!(custom_pool.calibration(), &custom);
        let d = default_pool.replay(&subs);
        let c = custom_pool.replay(&subs);
        assert!(
            c.total_queue_secs() > d.total_queue_secs(),
            "doubled slice must queue longer: {} vs {}",
            c.total_queue_secs(),
            d.total_queue_secs()
        );
        assert!((c.devices[0].slice_secs - 2.0 * d.devices[0].slice_secs).abs() < 1e-12);
        // Service time is conserved either way.
        assert!((c.devices[0].busy_secs - d.devices[0].busy_secs).abs() < 1e-12);
    }

    /// A backend pool inherits both the device and the calibration of
    /// its bundle; the default backend is bitwise the historical pool.
    #[test]
    fn backend_pool_carries_the_bundle() {
        let v100 = crate::machine::backend_by_name("v100-32gb").unwrap();
        let pool = DevicePool::for_backend(v100, 2);
        assert_eq!(pool.capacity_bytes(), 32 * 1024 * 1024 * 1024);
        assert_eq!(pool.service_slice_secs(), v100.calib.service_slice_secs);
        let default = DevicePool::for_backend(crate::machine::default_backend(), 2);
        assert_eq!(default.capacity_bytes(), A100.hbm_bytes);
        assert_eq!(default.service_slice_secs(), CALIBRATION.service_slice_secs);
    }

    #[test]
    fn absorb_accumulates_rounds() {
        let mut pool = DevicePool::new(A100, 1).with_service_slice(0.1);
        pool.admit_all(2, &paper_footprint()).unwrap();
        let subs: Vec<RankSubmission> = (0..2)
            .map(|rank| RankSubmission {
                rank,
                submit_secs: 0.0,
                service_secs: 0.2,
            })
            .collect();
        let round = pool.replay(&subs);
        let mut total = ShareReport::default();
        total.absorb(&round);
        total.absorb(&round);
        assert!((total.ranks[0].service_secs - 0.4).abs() < 1e-12);
        assert!((total.devices[0].busy_secs - 0.8).abs() < 1e-12);
        assert!((total.total_queue_secs() - 2.0 * round.total_queue_secs()).abs() < 1e-12);
    }

    proptest! {
        /// Admission never lets the charged bytes of any device exceed
        /// its capacity, whatever the footprint and rank count.
        #[test]
        fn admission_never_oversubscribes_memory(
            stack_kib in 0u64..256,
            slab_mb in 0u64..4096,
            ranks in 1usize..64,
            devices in 1usize..8,
        ) {
            let fp = RankFootprint {
                stack_bytes: stack_kib * 1024,
                temp_slab_bytes: slab_mb * 1_000_000,
                lookup_bytes: 0,
            };
            let mut pool = DevicePool::new(A100, devices);
            let _ = pool.admit_all(ranks, &fp);
            for d in 0..devices {
                prop_assert!(pool.used_bytes(d) <= pool.capacity_bytes());
                prop_assert_eq!(
                    pool.used_bytes(d),
                    fp.charged_bytes(&A100).unwrap() * pool.residents(d).len() as u64
                );
            }
        }

        /// Round-robin placement is deterministic and balanced for any
        /// (ranks, devices) pair: two pools agree rank by rank, and
        /// device loads differ by at most one.
        #[test]
        fn round_robin_is_deterministic_and_balanced(
            ranks in 1usize..128,
            devices in 1usize..17,
        ) {
            let fp = RankFootprint { stack_bytes: 0, temp_slab_bytes: 1, lookup_bytes: 0 };
            let mut a = DevicePool::new(A100, devices);
            let mut b = DevicePool::new(A100, devices);
            a.admit_all(ranks, &fp).unwrap();
            b.admit_all(ranks, &fp).unwrap();
            for r in 0..ranks {
                prop_assert_eq!(a.device_for(r), b.device_for(r));
                prop_assert_eq!(a.device_for(r), r % devices);
            }
            let loads: Vec<usize> = (0..devices).map(|d| a.residents(d).len()).collect();
            let (lo, hi) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            prop_assert!(hi - lo <= 1, "unbalanced loads {:?}", loads);
            prop_assert_eq!(loads.iter().sum::<usize>(), ranks);
        }

        /// Replay conserves service time and only ever adds queueing on
        /// shared devices.
        #[test]
        fn replay_conserves_service_and_queues_only_when_shared(
            ranks in 1usize..24,
            devices in 1usize..6,
            service_ms in 1u64..200,
        ) {
            let fp = RankFootprint { stack_bytes: 1024, temp_slab_bytes: 0, lookup_bytes: 0 };
            let mut pool = DevicePool::new(A100, devices).with_service_slice(0.05);
            pool.admit_all(ranks, &fp).unwrap();
            let service = service_ms as f64 * 1e-3;
            let subs: Vec<RankSubmission> = (0..ranks)
                .map(|rank| RankSubmission { rank, submit_secs: 0.0, service_secs: service })
                .collect();
            let rep = pool.replay(&subs);
            let busy: f64 = rep.devices.iter().map(|d| d.busy_secs).sum();
            prop_assert!((busy - service * ranks as f64).abs() < 1e-9);
            for r in &rep.ranks {
                if r.sharers == 1 {
                    prop_assert_eq!(r.queue_secs, 0.0);
                } else {
                    prop_assert!(r.queue_secs > 0.0);
                }
            }
        }
    }
}
