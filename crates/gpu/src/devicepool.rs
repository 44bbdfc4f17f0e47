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
//!
//! On top of the static round-robin plane, the ensemble service plane
//! (PR 8) adds three capabilities:
//!
//! * **Packed admission** — [`DevicePool::admit_packed`] places a
//!   context on the least-loaded device that fits (fewest residents,
//!   then fewest charged bytes, then lowest id), instead of the modular
//!   home. Deterministic: the same admission sequence always produces
//!   the same packing.
//! * **Shared lookup tables** — co-resident contexts that present the
//!   same `lookup_key` (a digest of their pressure levels — the
//!   `KernelMode::Cached` tables are a pure function of the column)
//!   charge the 64 MiB lookup working set once per device, refcounted;
//!   [`DevicePool::cache_stats`] ledgers the hits, misses, and bytes
//!   saved. [`DevicePool::release`] refunds a context's charge exactly
//!   and evicts the shared table with its last reference.
//! * **Batched service windows** — [`DevicePool::replay_batched`]
//!   groups submissions that arrive within `window_secs` of a batch's
//!   opening submission into one service window, paying the context
//!   slice once per *batch* rather than once per submission — the
//!   launch-amortization the service plane trades queueing for. A
//!   negative window degenerates to exactly [`DevicePool::replay`].

use crate::error::DeviceError;
use crate::machine::{Backend, Calibration, GpuParams, CALIBRATION};
use std::collections::BTreeMap;

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

/// Outcome of a packed admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedAdmit {
    /// Device the context landed on.
    pub device: usize,
    /// Whether the context's lookup tables were already resident (a
    /// co-admitted context with the same key pays the bytes once).
    pub cache_hit: bool,
}

/// Pool-wide ledger of shared-lookup admissions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheShareStats {
    /// Keyed admissions that found their table already resident.
    pub hits: usize,
    /// Keyed admissions that had to materialize the table.
    pub misses: usize,
    /// Device bytes not charged thanks to sharing (lookup bytes per
    /// hit).
    pub bytes_saved: u64,
}

impl CacheShareStats {
    /// Hits over keyed admissions; 0 when none were keyed.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// One refcounted lookup working set resident on a device.
#[derive(Debug, Clone, Copy)]
struct SharedLookup {
    bytes: u64,
    refs: usize,
}

/// Per-device outcome of one batched replay round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchLedger {
    /// Device id.
    pub device: usize,
    /// Submissions served this round.
    pub submissions: usize,
    /// Service windows (batches) they were grouped into.
    pub batches: usize,
    /// Context-slice seconds actually paid (one per batch when shared).
    pub slice_secs: f64,
    /// Slice seconds amortized away versus one slice per submission.
    pub slice_secs_saved: f64,
    /// Modeled time the device finished its last submission.
    pub makespan_secs: f64,
}

/// Outcome of a batched replay: the share ledgers plus per-device batch
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedReplay {
    /// Per-rank and per-device ledgers, as [`DevicePool::replay`].
    pub share: ShareReport,
    /// Per-device batching ledger, ordered by device id.
    pub ledgers: Vec<BatchLedger>,
}

/// Memory-accounting state of one pooled device. `residents`,
/// `charges`, and `keys` are parallel vectors (one entry per resident
/// context); `lookups` holds the refcounted shared tables, whose bytes
/// are part of `used_bytes` but belong to no single context.
#[derive(Debug, Clone)]
struct PoolDevice {
    used_bytes: u64,
    residents: Vec<usize>,
    charges: Vec<u64>,
    keys: Vec<Option<u64>>,
    lookups: BTreeMap<u64, SharedLookup>,
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
    cache: CacheShareStats,
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
                    charges: Vec::new(),
                    keys: Vec::new(),
                    lookups: BTreeMap::new(),
                })
                .collect(),
            slice_secs: CALIBRATION.service_slice_secs,
            cache: CacheShareStats::default(),
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

    /// Device a resident context actually landed on (`None` when it was
    /// never admitted or has been released). For round-robin admissions
    /// this agrees with [`DevicePool::device_for`]; packed admissions
    /// have no modular home, so replays resolve residency through this.
    pub fn device_of(&self, id: usize) -> Option<usize> {
        self.devices.iter().position(|d| d.residents.contains(&id))
    }

    /// Pool-wide shared-lookup ledger across packed admissions.
    pub fn cache_stats(&self) -> CacheShareStats {
        self.cache
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
        dev.charges.push(requested);
        dev.keys.push(None);
        Ok(device)
    }

    /// Admits a context onto the least-loaded device that fits,
    /// instead of its modular home: fewest residents first, then fewest
    /// charged bytes, then lowest device id — a deterministic packing
    /// for ensemble members that have no MPI rank structure. When
    /// `lookup_key` is given and a co-resident context on the chosen
    /// device already holds the same key, the lookup bytes are not
    /// charged again (the `KernelMode::Cached` tables are a pure
    /// function of the pressure column, so members with identical
    /// levels share one resident copy); the share is refcounted and
    /// ledgered in [`DevicePool::cache_stats`]. Fails with a typed
    /// [`DeviceError`] describing the least-loaded device when no
    /// device fits; the pool is unchanged on failure.
    pub fn admit_packed(
        &mut self,
        id: usize,
        footprint: &RankFootprint,
        lookup_key: Option<u64>,
    ) -> Result<PackedAdmit, DeviceError> {
        assert!(
            self.device_of(id).is_none(),
            "context {id} admitted twice onto the pool"
        );
        let capacity = self.params.hbm_bytes;
        // Checked, saturating accounting: a stack pool that overflows
        // u64 can never fit, so it must not wrap into a small charge.
        let base = self
            .params
            .checked_stack_pool_bytes(footprint.stack_bytes)
            .and_then(|p| p.checked_add(footprint.temp_slab_bytes))
            .unwrap_or(u64::MAX);
        let need = |dev: &PoolDevice| -> u64 {
            match lookup_key {
                Some(k) if dev.lookups.contains_key(&k) => base,
                _ => base.saturating_add(footprint.lookup_bytes),
            }
        };
        let order = |d: usize, dev: &PoolDevice| (dev.residents.len(), dev.used_bytes, d);
        let fit = (0..self.devices.len())
            .filter(|&d| {
                let dev = &self.devices[d];
                need(dev) <= capacity - dev.used_bytes
            })
            .min_by_key(|&d| order(d, &self.devices[d]));
        let Some(device) = fit else {
            // Report the device the packing would have preferred.
            let best = (0..self.devices.len())
                .min_by_key(|&d| order(d, &self.devices[d]))
                .expect("pool has devices");
            let dev = &self.devices[best];
            return Err(DeviceError {
                rank: id,
                device: best,
                requested_bytes: need(dev),
                used_bytes: dev.used_bytes,
                capacity_bytes: capacity,
                residents: dev.residents.len(),
            });
        };
        let dev = &mut self.devices[device];
        let mut cache_hit = false;
        let charge = match lookup_key {
            Some(k) => {
                if let Some(sl) = dev.lookups.get_mut(&k) {
                    sl.refs += 1;
                    cache_hit = true;
                    self.cache.hits += 1;
                    self.cache.bytes_saved += footprint.lookup_bytes;
                } else {
                    dev.lookups.insert(
                        k,
                        SharedLookup {
                            bytes: footprint.lookup_bytes,
                            refs: 1,
                        },
                    );
                    dev.used_bytes += footprint.lookup_bytes;
                    self.cache.misses += 1;
                }
                base
            }
            None => base + footprint.lookup_bytes,
        };
        dev.used_bytes += charge;
        dev.residents.push(id);
        dev.charges.push(charge);
        dev.keys.push(lookup_key);
        Ok(PackedAdmit { device, cache_hit })
    }

    /// Releases a resident context, refunding exactly what its
    /// admission charged; a shared lookup table is evicted (and its
    /// bytes refunded) with its last reference. Returns the bytes
    /// freed. Panics when the context is not resident.
    pub fn release(&mut self, id: usize) -> u64 {
        let device = self
            .device_of(id)
            .unwrap_or_else(|| panic!("context {id} released without being admitted"));
        let dev = &mut self.devices[device];
        let at = dev
            .residents
            .iter()
            .position(|&r| r == id)
            .expect("resident");
        dev.residents.remove(at);
        let charge = dev.charges.remove(at);
        let key = dev.keys.remove(at);
        dev.used_bytes -= charge;
        let mut freed = charge;
        if let Some(k) = key {
            let sl = dev.lookups.get_mut(&k).expect("keyed context has a table");
            sl.refs -= 1;
            if sl.refs == 0 {
                let sl = dev.lookups.remove(&k).expect("present");
                dev.used_bytes -= sl.bytes;
                freed += sl.bytes;
            }
        }
        freed
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

    /// Replays one bulk-synchronous round of submissions unbatched: a
    /// negative window puts every submission in its own batch, so on
    /// devices with two or more submissions this round every service
    /// window is preceded by the context-service slice.
    pub fn replay(&self, submissions: &[RankSubmission]) -> ShareReport {
        self.replay_batched(submissions, -1.0).share
    }

    /// Replays one round with windowed launch batching: on each device,
    /// submissions are served in `(submit, rank)` order, but a
    /// submission arriving within `window_secs` of the submission that
    /// *opened* the current batch joins that batch, and the whole batch
    /// pays the context-service slice once — the service-window
    /// amortization of `Calibration::service_slice_secs`. Exclusive
    /// devices still pay no slice. Panics if a submission names a rank
    /// that was never admitted. Pure and deterministic — no wall clocks,
    /// no mutation.
    pub fn replay_batched(
        &self,
        submissions: &[RankSubmission],
        window_secs: f64,
    ) -> BatchedReplay {
        let mut per_device: Vec<Vec<RankSubmission>> = vec![Vec::new(); self.devices.len()];
        for sub in submissions {
            let device = self
                .device_of(sub.rank)
                .unwrap_or_else(|| panic!("rank {} submitted without being admitted", sub.rank));
            per_device[device].push(*sub);
        }

        let mut ranks: Vec<RankShare> = Vec::with_capacity(submissions.len());
        let mut devices: Vec<DeviceShare> = Vec::with_capacity(self.devices.len());
        let mut ledgers: Vec<BatchLedger> = Vec::with_capacity(self.devices.len());
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
            let mut batches = 0usize;
            let mut i = 0;
            while i < subs.len() {
                // The batch window opens when its first submission
                // arrives; later submissions within the window ride the
                // same context switch-in.
                let open = subs[i].submit_secs;
                let mut j = i + 1;
                while j < subs.len() && subs[j].submit_secs - open <= window_secs {
                    j += 1;
                }
                batches += 1;
                let mut t = clock.max(open) + slice;
                sliced += slice;
                for sub in &subs[i..j] {
                    // Within a batch the device may still idle until a
                    // window member actually arrives.
                    let begin = t.max(sub.submit_secs);
                    let queue = begin - sub.submit_secs;
                    t = begin + sub.service_secs;
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
                clock = t;
                i = j;
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
            ledgers.push(BatchLedger {
                device: d,
                submissions: sharers,
                batches,
                slice_secs: sliced,
                slice_secs_saved: (sharers.saturating_sub(batches)) as f64 * slice,
                makespan_secs: clock,
            });
        }
        ranks.sort_by_key(|r| r.rank);
        BatchedReplay {
            share: ShareReport { ranks, devices },
            ledgers,
        }
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

    #[test]
    fn packed_admission_balances_and_shares_lookup() {
        let mut pool = DevicePool::new(A100, 2);
        let fp = paper_footprint();
        let base = A100.stack_pool_bytes(fp.stack_bytes) + fp.temp_slab_bytes;
        let key = Some(0xfeed_beefu64);
        // Least-loaded packing alternates devices; the second context
        // on each device finds the lookup tables already resident.
        let hits: Vec<PackedAdmit> = (0..4)
            .map(|m| pool.admit_packed(m, &fp, key).unwrap())
            .collect();
        assert_eq!(
            hits,
            vec![
                PackedAdmit {
                    device: 0,
                    cache_hit: false
                },
                PackedAdmit {
                    device: 1,
                    cache_hit: false
                },
                PackedAdmit {
                    device: 0,
                    cache_hit: true
                },
                PackedAdmit {
                    device: 1,
                    cache_hit: true
                },
            ]
        );
        for d in 0..2 {
            assert_eq!(pool.used_bytes(d), 2 * base + fp.lookup_bytes);
        }
        let stats = pool.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!(stats.bytes_saved, 2 * fp.lookup_bytes);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(pool.device_of(2), Some(0));
        // Releasing one sharer keeps the table; releasing the last
        // evicts it and refunds its bytes.
        assert_eq!(pool.release(0), base);
        assert_eq!(pool.used_bytes(0), base + fp.lookup_bytes);
        assert_eq!(pool.release(2), base + fp.lookup_bytes);
        assert_eq!(pool.used_bytes(0), 0);
        assert_eq!(pool.device_of(0), None);
        // Device 1 is untouched.
        assert_eq!(pool.used_bytes(1), 2 * base + fp.lookup_bytes);
    }

    #[test]
    fn packed_admission_without_key_shares_nothing() {
        let mut pool = DevicePool::new(A100, 1);
        let fp = paper_footprint();
        let a = pool.admit_packed(0, &fp, None).unwrap();
        let b = pool.admit_packed(1, &fp, None).unwrap();
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(pool.used_bytes(0), 2 * fp.charged_bytes(&A100).unwrap());
        assert_eq!(pool.cache_stats(), CacheShareStats::default());
    }

    #[test]
    fn oversized_stack_is_a_typed_packed_error() {
        // 512 KiB NV_ACC_CUDA_STACKSIZE: the stack pool alone is
        // 108 SMs x 2048 threads x 512 KiB = 108 GiB > 80 GB HBM, so
        // the very first packed admission fails on an empty device.
        let mut pool = DevicePool::new(A100, 2);
        let fp = RankFootprint {
            stack_bytes: 512 * 1024,
            temp_slab_bytes: 0,
            lookup_bytes: 64 << 20,
        };
        let err = pool.admit_packed(7, &fp, Some(1)).unwrap_err();
        assert_eq!((err.rank, err.device, err.residents), (7, 0, 0));
        assert!(err.requested_bytes > err.capacity_bytes);
        assert_eq!(pool.used_bytes(0), 0);
        assert_eq!(pool.cache_stats(), CacheShareStats::default());
    }

    /// Regression for the unchecked stack-pool multiply: a stack size
    /// near `u64::MAX / thread_capacity` used to wrap into a footprint
    /// that falsely fit admission. Both admission paths must reject it
    /// with the typed error, charging nothing.
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
        let err = pool.admit_packed(1, &fp, Some(7)).unwrap_err();
        assert_eq!(err.requested_bytes, u64::MAX);
        assert_eq!(pool.used_bytes(0), 0);
        assert_eq!(pool.cache_stats(), CacheShareStats::default());
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
    fn batched_replay_amortizes_slices() {
        let mut pool = DevicePool::new(A100, 1).with_service_slice(0.3);
        for m in 0..4 {
            pool.admit_packed(m, &paper_footprint(), Some(9)).unwrap();
        }
        let subs: Vec<RankSubmission> = (0..4)
            .map(|rank| RankSubmission {
                rank,
                submit_secs: rank as f64 * 0.05,
                service_secs: 0.1,
            })
            .collect();
        // All four arrive within one 0.3 s window: one batch, one slice.
        let b = pool.replay_batched(&subs, 0.3);
        assert_eq!(b.ledgers[0].batches, 1);
        assert!((b.ledgers[0].slice_secs - 0.3).abs() < 1e-12);
        assert!((b.ledgers[0].slice_secs_saved - 0.9).abs() < 1e-12);
        // makespan: slice + 4 services (arrivals overlap service).
        assert!((b.ledgers[0].makespan_secs - 0.7).abs() < 1e-12);
        // A negative window degenerates to the unbatched replay.
        let plain = pool.replay_batched(&subs, -1.0);
        assert_eq!(plain.ledgers[0].batches, 4);
        assert_eq!(plain.ledgers[0].slice_secs_saved, 0.0);
        assert!(b.ledgers[0].makespan_secs < plain.ledgers[0].makespan_secs);
        // Batching trades slice overhead for queueing, never service.
        assert_eq!(
            b.share.devices[0].busy_secs,
            plain.share.devices[0].busy_secs
        );
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

        /// Widening the batch window never increases the slice seconds
        /// a device pays, and the saved + paid slices always add up to
        /// the unbatched bill.
        #[test]
        fn batching_only_ever_amortizes_slices(
            ranks in 1usize..16,
            devices in 1usize..4,
            window_ms in 0u64..2000,
            spacing_ms in 0u64..500,
        ) {
            let fp = RankFootprint { stack_bytes: 1024, temp_slab_bytes: 0, lookup_bytes: 0 };
            let mut pool = DevicePool::new(A100, devices).with_service_slice(0.3);
            pool.admit_all(ranks, &fp).unwrap();
            let subs: Vec<RankSubmission> = (0..ranks)
                .map(|rank| RankSubmission {
                    rank,
                    submit_secs: (rank as u64 * spacing_ms) as f64 * 1e-3,
                    service_secs: 0.05,
                })
                .collect();
            let plain = pool.replay_batched(&subs, -1.0);
            let batched = pool.replay_batched(&subs, window_ms as f64 * 1e-3);
            for (b, p) in batched.ledgers.iter().zip(&plain.ledgers) {
                prop_assert!(b.slice_secs <= p.slice_secs + 1e-12);
                prop_assert!(b.batches <= p.batches);
                prop_assert!(b.makespan_secs <= p.makespan_secs + 1e-9);
                prop_assert!((b.slice_secs + b.slice_secs_saved - p.slice_secs).abs() < 1e-9);
            }
        }

        /// Packed admission + release is exactly reversible: whatever
        /// interleaving of keyed/unkeyed admissions, used bytes always
        /// equal the live charges plus the live shared tables, never
        /// exceed capacity, and releasing everything refunds to zero.
        #[test]
        fn packed_release_refunds_exactly(
            members in 1usize..24,
            devices in 1usize..4,
            slab_mb in 0u64..2000,
            keyed in proptest::collection::vec(any::<bool>(), 24),
        ) {
            let fp = RankFootprint {
                stack_bytes: 65536,
                temp_slab_bytes: slab_mb * 1_000_000,
                lookup_bytes: 64 << 20,
            };
            let mut pool = DevicePool::new(A100, devices);
            let mut admitted = Vec::new();
            for (m, &is_keyed) in keyed.iter().enumerate().take(members) {
                let key = if is_keyed { Some(42u64) } else { None };
                if pool.admit_packed(m, &fp, key).is_ok() {
                    admitted.push(m);
                }
                for d in 0..devices {
                    prop_assert!(pool.used_bytes(d) <= pool.capacity_bytes());
                }
            }
            // Release in admission order; every device drains to zero.
            for &m in &admitted {
                pool.release(m);
            }
            for d in 0..devices {
                prop_assert_eq!(pool.used_bytes(d), 0);
                prop_assert!(pool.residents(d).is_empty());
            }
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
