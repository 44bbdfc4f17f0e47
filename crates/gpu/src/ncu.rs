//! Nsight-Compute-style per-kernel profile (Table VI).

use crate::cachesim::MemStats;
use crate::launch::LaunchStats;

/// The metric set Table VI reports for the collision kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Kernel time in milliseconds.
    pub time_ms: f64,
    /// Achieved occupancy, percent.
    pub achieved_occupancy_pct: f64,
    /// L1/TEX hit rate, percent.
    pub l1_hit_pct: f64,
    /// L2 hit rate, percent.
    pub l2_hit_pct: f64,
    /// DRAM write volume, GB.
    pub dram_write_gb: f64,
    /// DRAM read volume, GB.
    pub dram_read_gb: f64,
}

impl KernelProfile {
    /// Assembles the profile from a modeled launch and cache statistics.
    pub fn from_model(name: &str, launch: &LaunchStats, mem: &MemStats) -> Self {
        KernelProfile {
            name: name.to_string(),
            time_ms: launch.time_secs * 1e3,
            achieved_occupancy_pct: launch.occupancy.achieved * 100.0,
            l1_hit_pct: mem.l1_hit_pct(),
            l2_hit_pct: mem.l2_hit_pct(),
            dram_write_gb: mem.dram_write_bytes as f64 / 1e9,
            dram_read_gb: mem.dram_read_bytes as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachesim::MemStats;
    use crate::launch::{launch_modeled, KernelSpec, KernelWork};
    use crate::machine::A100;

    fn sample() -> KernelProfile {
        let w = KernelWork {
            iters: 100_000,
            flops_f32: 1e9,
            mem_ops: 1e8,
            dram_read_bytes: 1e9,
            dram_write_bytes: 5e8,
            warp_efficiency: 0.8,
            ..Default::default()
        };
        let launch = launch_modeled(&A100, &KernelSpec::new("coal"), &w).unwrap();
        let mem = MemStats {
            l1_hits: 850,
            l1_misses: 150,
            l2_hits: 120,
            l2_misses: 30,
            dram_read_bytes: 1_000_000_000,
            dram_write_bytes: 500_000_000,
        };
        KernelProfile::from_model("coal", &launch, &mem)
    }

    #[test]
    fn profile_fields() {
        let p = sample();
        assert!((p.l1_hit_pct - 85.0).abs() < 1e-9);
        assert!((p.l2_hit_pct - 80.0).abs() < 1e-9);
        assert!((p.dram_read_gb - 1.0).abs() < 1e-9);
        assert!((p.dram_write_gb - 0.5).abs() < 1e-9);
        assert!(p.time_ms > 0.0);
        assert!(p.achieved_occupancy_pct > 0.0 && p.achieved_occupancy_pct <= 100.0);
    }
}
