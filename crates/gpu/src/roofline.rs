//! Roofline model (Figure 3 of the paper).
//!
//! The paper's Nsight-Compute roofline places the collision kernel's
//! collapse(2) and collapse(3) variants against the A100's single- and
//! double-precision ceilings, showing the full collapse pushes the kernel
//! toward the memory roof while *reducing* arithmetic intensity (more
//! DRAM traffic from uncoalesced slab accesses and register spills).

use crate::launch::LaunchStats;
use crate::machine::GpuParams;

/// One measured kernel point on the roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label (e.g. `collapse(2) f32`).
    pub label: String,
    /// Arithmetic intensity, FLOP / DRAM byte.
    pub ai: f64,
    /// Achieved performance, GFLOP/s.
    pub gflops: f64,
}

impl RooflinePoint {
    /// Builds a point from a modeled launch.
    pub fn from_launch(label: &str, s: &LaunchStats) -> Self {
        RooflinePoint {
            label: label.to_string(),
            ai: s.arithmetic_intensity(),
            gflops: s.gflops(),
        }
    }
}

/// The machine roofline: ceilings and classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// FP32 ceiling, GFLOP/s.
    pub fp32_gflops: f64,
    /// FP64 ceiling, GFLOP/s.
    pub fp64_gflops: f64,
    /// DRAM bandwidth, GB/s.
    pub bw_gbs: f64,
}

impl Roofline {
    /// Roofline of a GPU.
    pub fn of(gpu: &GpuParams) -> Self {
        Roofline {
            fp32_gflops: gpu.fp32_flops / 1e9,
            fp64_gflops: gpu.fp64_flops / 1e9,
            bw_gbs: gpu.hbm_bw / 1e9,
        }
    }

    /// The attainable GFLOP/s at arithmetic intensity `ai` under the
    /// chosen precision ceiling.
    pub fn attainable(&self, ai: f64, double_precision: bool) -> f64 {
        let peak = if double_precision {
            self.fp64_gflops
        } else {
            self.fp32_gflops
        };
        (self.bw_gbs * ai).min(peak)
    }

    /// The ridge point (AI where the memory roof meets the compute roof).
    pub fn ridge(&self, double_precision: bool) -> f64 {
        let peak = if double_precision {
            self.fp64_gflops
        } else {
            self.fp32_gflops
        };
        peak / self.bw_gbs
    }

    /// True when a point at `ai` is in the memory-bound region.
    pub fn memory_bound(&self, ai: f64, double_precision: bool) -> bool {
        ai < self.ridge(double_precision)
    }

    /// Fraction of the attainable roof a point achieves (0–1).
    pub fn efficiency(&self, p: &RooflinePoint, double_precision: bool) -> f64 {
        let roof = self.attainable(p.ai, double_precision);
        if roof > 0.0 {
            p.gflops / roof
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::A100;

    #[test]
    fn a100_ceilings() {
        let r = Roofline::of(&A100);
        assert!((r.fp32_gflops - 19500.0).abs() < 1.0);
        assert!((r.fp64_gflops - 9700.0).abs() < 1.0);
        assert!((r.bw_gbs - 1935.0).abs() < 1.0);
    }

    #[test]
    fn attainable_follows_min_of_roofs() {
        let r = Roofline::of(&A100);
        // Low AI: memory slope.
        assert!((r.attainable(1.0, false) - r.bw_gbs).abs() < 1e-9);
        // High AI: compute roof.
        assert!((r.attainable(1e6, false) - r.fp32_gflops).abs() < 1e-9);
        assert!((r.attainable(1e6, true) - r.fp64_gflops).abs() < 1e-9);
    }

    #[test]
    fn ridge_separates_regions() {
        let r = Roofline::of(&A100);
        let ridge = r.ridge(false);
        assert!(r.memory_bound(ridge * 0.5, false));
        assert!(!r.memory_bound(ridge * 2.0, false));
        // FP64 ridge is at lower AI than FP32 ridge.
        assert!(r.ridge(true) < ridge);
    }

    #[test]
    fn efficiency_of_point_on_roof_is_one() {
        let r = Roofline::of(&A100);
        let p = RooflinePoint {
            label: "on-roof".into(),
            ai: 1.0,
            gflops: r.attainable(1.0, false),
        };
        assert!((r.efficiency(&p, false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zoo_backends_have_distinct_ceilings() {
        // Every backend in the zoo yields a well-formed roofline, and the
        // ceilings genuinely differ across devices (no accidental A100
        // clones): at least four distinct ridge points among five
        // backends (the 40 GB A100 shares the compute ceiling but not
        // the bandwidth, so even it moves).
        let ridges: Vec<f64> = crate::machine::ZOO
            .iter()
            .map(|b| {
                let r = Roofline::of(&b.device_params());
                assert!(r.ridge(false) > 0.0, "{}", b.name);
                assert!(r.attainable(1e9, false) > r.attainable(0.01, false));
                r.ridge(false)
            })
            .collect();
        let mut distinct = ridges.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert!(
            distinct.len() >= 4,
            "zoo rooflines collapsed onto each other: {ridges:?}"
        );
    }
}
