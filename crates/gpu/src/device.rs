//! Device state: memory accounting, contexts, and stack configuration.

use crate::error::GpuError;
use crate::machine::GpuParams;
use std::collections::HashMap;

/// One modeled GPU.
///
/// A device tracks HBM usage: per-context stack pools (the CUDA runtime
/// reserves `stack_size × max resident threads` when a context
/// configures `NV_ACC_CUDA_STACKSIZE`) plus named data-environment
/// allocations, failing with [`GpuError::OutOfMemory`] when exhausted —
/// the mechanism that caps the paper at 5 MPI ranks/GPU (§VII-A). How
/// ranks sharing a GPU queue behind each other is
/// [`DevicePool::replay`](crate::devicepool::DevicePool::replay)'s job.
#[derive(Debug)]
pub struct Device {
    params: GpuParams,
    /// Per-context reserved stack pool bytes, keyed by context (rank) id.
    contexts: HashMap<usize, u64>,
    /// Named allocations: (context, name) → bytes.
    allocs: HashMap<(usize, String), u64>,
    used: u64,
}

impl Device {
    /// Creates an idle, empty device.
    pub fn new(params: GpuParams) -> Self {
        Device {
            params,
            contexts: HashMap::new(),
            allocs: HashMap::new(),
            used: 0,
        }
    }

    /// The device's hardware parameters.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Bytes of HBM currently in use (stack pools + allocations).
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes of HBM still free.
    pub fn free_bytes(&self) -> u64 {
        self.params.hbm_bytes - self.used
    }

    /// Creates a context for `rank` with the given per-thread stack size
    /// (the `NV_ACC_CUDA_STACKSIZE` environment variable), reserving the
    /// stack pool in HBM. Fails with OOM if the pool does not fit.
    pub fn create_context(&mut self, rank: usize, stack_bytes: u64) -> Result<(), GpuError> {
        assert!(
            !self.contexts.contains_key(&rank),
            "context for rank {rank} already exists"
        );
        let pool = self.params.stack_pool_bytes(stack_bytes);
        self.reserve(pool)?;
        self.contexts.insert(rank, stack_bytes);
        Ok(())
    }

    /// The per-thread stack limit of `rank`'s context.
    pub fn stack_limit(&self, rank: usize) -> u64 {
        *self
            .contexts
            .get(&rank)
            .unwrap_or(&self.params.default_stack_bytes)
    }

    /// Number of contexts (ranks) attached.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Allocates `bytes` of device memory under `(rank, name)` — the
    /// `omp target enter data map(alloc: ...)` path.
    pub fn alloc(&mut self, rank: usize, name: &str, bytes: u64) -> Result<(), GpuError> {
        let key = (rank, name.to_string());
        assert!(
            !self.allocs.contains_key(&key),
            "allocation {name} already exists for rank {rank}"
        );
        self.reserve(bytes)?;
        self.allocs.insert(key, bytes);
        Ok(())
    }

    /// Frees a named allocation (`omp target exit data map(delete: ...)`).
    pub fn free(&mut self, rank: usize, name: &str) {
        if let Some(bytes) = self.allocs.remove(&(rank, name.to_string())) {
            self.used -= bytes;
        }
    }

    /// Releases a context and its stack pool (allocations stay until
    /// freed explicitly).
    pub fn destroy_context(&mut self, rank: usize) {
        if let Some(stack) = self.contexts.remove(&rank) {
            self.used -= self.params.stack_pool_bytes(stack);
        }
    }

    fn reserve(&mut self, bytes: u64) -> Result<(), GpuError> {
        let free = self.params.hbm_bytes - self.used;
        if bytes > free {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available: free,
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Validates that a kernel needing `stack_bytes_per_thread` fits
    /// `rank`'s configured stack limit (§VI-B's stack-overflow error).
    pub fn check_stack(&self, rank: usize, stack_bytes_per_thread: u64) -> Result<(), GpuError> {
        let limit = self.stack_limit(rank);
        if stack_bytes_per_thread > limit {
            Err(GpuError::StackOverflow {
                required: stack_bytes_per_thread,
                limit,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::A100;

    #[test]
    fn five_contexts_fit_six_oom_at_64k_stack() {
        // The §VII-A observation: with NV_ACC_CUDA_STACKSIZE=65536 each
        // rank's context reserves ~13.5 GiB; 5 fit in 80 GiB, 6 do not
        // once slab allocations (~1 GiB/rank) are added.
        let mut d = Device::new(A100);
        let slab = 1 << 30;
        for rank in 0..5 {
            d.create_context(rank, 65536).expect("context fits");
            d.alloc(rank, "temp_arrays", slab).expect("slab fits");
        }
        let err = d.create_context(5, 65536).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        assert_eq!(d.context_count(), 5);
    }

    #[test]
    fn default_stack_contexts_are_cheap() {
        let mut d = Device::new(A100);
        for rank in 0..64 {
            d.create_context(rank, A100.default_stack_bytes).unwrap();
        }
        assert!(d.used_bytes() < 16 * (1 << 30));
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut d = Device::new(A100);
        d.create_context(0, 1024).unwrap();
        let before = d.used_bytes();
        d.alloc(0, "fl1_temp", 1 << 20).unwrap();
        assert_eq!(d.used_bytes(), before + (1 << 20));
        d.free(0, "fl1_temp");
        assert_eq!(d.used_bytes(), before);
    }

    #[test]
    fn oom_reports_availability() {
        let mut d = Device::new(A100);
        let err = d.alloc(0, "huge", A100.hbm_bytes + 1).unwrap_err();
        match err {
            GpuError::OutOfMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, A100.hbm_bytes + 1);
                assert_eq!(available, A100.hbm_bytes);
            }
            e => panic!("wrong error {e:?}"),
        }
    }

    #[test]
    fn stack_check_matches_narrative() {
        // §VI-B: automatic arrays (~20 KiB/thread) overflow the default
        // 1 KiB stack; raising NV_ACC_CUDA_STACKSIZE to 64 KiB fixes it.
        let mut d = Device::new(A100);
        d.create_context(0, A100.default_stack_bytes).unwrap();
        assert!(matches!(
            d.check_stack(0, 20 * 1024),
            Err(GpuError::StackOverflow { .. })
        ));
        d.destroy_context(0);
        d.create_context(0, 65536).unwrap();
        assert!(d.check_stack(0, 20 * 1024).is_ok());
    }

    #[test]
    fn destroy_context_releases_pool() {
        let mut d = Device::new(A100);
        d.create_context(0, 65536).unwrap();
        let used = d.used_bytes();
        assert!(used > 0);
        d.destroy_context(0);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_context_panics() {
        let mut d = Device::new(A100);
        d.create_context(0, 1024).unwrap();
        let _ = d.create_context(0, 1024);
    }
}
