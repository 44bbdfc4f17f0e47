//! CUDA-style error conditions surfaced by the device model.

use std::fmt;

/// Errors a launch can produce, mirroring the failures the paper ran
/// into (Sections VI-B, VI-C). The device-memory wall of Section VII-A is
/// [`DeviceError`], raised at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// Kernel needs more per-thread stack than the configured limit —
    /// the "CUDA memory error due to stack overflow" of Section VI-B,
    /// caused by automatic arrays in `coal_bott_new` and cured by
    /// `NV_ACC_CUDA_STACKSIZE` + the slab refactor.
    StackOverflow {
        /// Per-thread stack bytes the kernel requires.
        required: u64,
        /// Configured per-thread stack limit.
        limit: u64,
    },
    /// Launch geometry invalid (zero iterations, zero block size, more
    /// registers per thread than addressable, ...).
    InvalidLaunch(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::StackOverflow { required, limit } => write!(
                f,
                "CUDA stack overflow: kernel needs {required} B/thread, limit {limit} B \
                 (raise NV_ACC_CUDA_STACKSIZE or remove automatic arrays)"
            ),
            GpuError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Admission failure on a shared device pool: a rank's context does not
/// fit in the remaining device memory. This is the hard wall of Section
/// VII-A — on 80 GB A100s with 64 KiB stacks, the sixth resident rank's
/// stack pool + `temp_arrays` slab + lookup working set exceeds HBM, so
/// sharing caps at 5 ranks/GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceError {
    /// Rank whose admission failed.
    pub rank: usize,
    /// Device the rank round-robins onto.
    pub device: usize,
    /// Bytes the rank's context would charge.
    pub requested_bytes: u64,
    /// Bytes already charged by resident contexts.
    pub used_bytes: u64,
    /// Device HBM capacity.
    pub capacity_bytes: u64,
    /// Contexts already resident when admission failed.
    pub residents: usize,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device admission failed: rank {} needs {} B on device {} but only {} of {} B remain \
             ({} contexts resident) — past the memory-capped sharing limit of Section VII-A",
            self.rank,
            self.requested_bytes,
            self.device,
            self.capacity_bytes - self.used_bytes,
            self.capacity_bytes,
            self.residents
        )
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GpuError::StackOverflow {
            required: 20480,
            limit: 1024,
        };
        assert!(e.to_string().contains("NV_ACC_CUDA_STACKSIZE"));
        assert!(GpuError::InvalidLaunch("zero iterations".into())
            .to_string()
            .contains("zero iterations"));
    }
}
