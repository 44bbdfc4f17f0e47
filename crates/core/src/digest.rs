//! End-of-run state digests for `diffwrf`-style golden verification.
//!
//! The paper pins its port down with `diffwrf` (§VII-B): per-variable
//! digit agreement between the CPU and GPU runs. A repository gate needs
//! the same evidence in committable form, but a full field dump of even a
//! reduced case is megabytes per version. A [`StateDigest`] is the
//! middle ground: per field it keeps a bitwise checksum (so *exact*
//! reproduction is detectable), full-field accumulators in `f64` (sum,
//! L2, min, max — any global drift moves these), a strided sample of raw
//! `f32` bit patterns (so max-rel/ULP statistics can be recomputed
//! against a golden without the full field), and the physically meaningful
//! scalar moments (per-class number and mass totals, accumulated
//! precipitation). The gate crate (`wrf-gate`) renders these into golden
//! fixtures and compares candidate digests against them.

use crate::point::Grids;
use crate::state::SbmPatchState;
use crate::types::{HydroClass, NKR};

/// Number of strided raw samples retained per field.
pub const DIGEST_SAMPLES: usize = 64;

/// FNV-1a 64-bit offset basis: where every fold starts.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step, `(h ^ v) · prime`: `v` is a byte, or a whole hash
/// when hashes are combined order-sensitively.
pub fn fnv1a_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a 64-bit over `bytes`, continuing from `h` ([`FNV1A_OFFSET`] to
/// start) — cheap, dependency-free and sensitive to every bit: the
/// field checksums here, the restart-file integrity check, the
/// shared-lookup key.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, u64::from(b)))
}

/// FNV-1a 64-bit hash over the little-endian bytes of `f32` values.
///
/// Bit-exact: two fields hash equal iff every value is bitwise
/// identical (including NaN payloads and signed zeros).
pub fn checksum_f32(values: &[f32]) -> u64 {
    (values.iter()).fold(FNV1A_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// Distance between two `f32`s in units of representable values.
///
/// Uses the standard monotonic reinterpretation of the IEEE-754 bit
/// pattern, so +0.0 and −0.0 are 1 apart and `ulp_distance(a, a) == 0`.
/// Any NaN is infinitely far from everything (`u32::MAX`).
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    if a.is_nan() || b.is_nan() {
        return if a.to_bits() == b.to_bits() {
            0
        } else {
            u32::MAX
        };
    }
    let monotonic = |x: f32| -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            // Negative range: descending bit patterns, mapped below zero
            // so −0.0 sits one step under +0.0.
            -((bits & 0x7fff_ffff) as i64) - 1
        } else {
            bits as i64
        }
    };
    (monotonic(a) - monotonic(b))
        .unsigned_abs()
        .min(u32::MAX as u64) as u32
}

/// Digest of one named field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDigest {
    /// WRF-style variable name (`T`, `QVAPOR`, `RAINNC`, `FF1`…).
    pub name: String,
    /// Full field length in values.
    pub len: usize,
    /// FNV-1a checksum of every value's bit pattern.
    pub checksum: u64,
    /// Full-field sum, accumulated in `f64`.
    pub sum: f64,
    /// Full-field L2 norm, accumulated in `f64`.
    pub l2: f64,
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
    /// Stride between retained samples (`max(1, len / DIGEST_SAMPLES)`).
    pub stride: usize,
    /// Raw bit patterns of the values at `0, stride, 2·stride, …`.
    pub samples: Vec<u32>,
}

impl FieldDigest {
    /// Digests `values` under `name`.
    pub fn of(name: &str, values: &[f32]) -> Self {
        let stride = (values.len() / DIGEST_SAMPLES).max(1);
        let mut sum = 0.0f64;
        let mut l2 = 0.0f64;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in values {
            sum += v as f64;
            l2 += (v as f64) * (v as f64);
            min = min.min(v);
            max = max.max(v);
        }
        if values.is_empty() {
            min = 0.0;
            max = 0.0;
        }
        FieldDigest {
            name: name.to_string(),
            len: values.len(),
            checksum: checksum_f32(values),
            sum,
            l2: l2.sqrt(),
            min,
            max,
            stride,
            samples: values.iter().step_by(stride).map(|v| v.to_bits()).collect(),
        }
    }
}

/// One named scalar moment (per-class totals, accumulated precip).
#[derive(Debug, Clone, PartialEq)]
pub struct MomentDigest {
    /// Moment name (`M0_FF1` = number, `M1_FF1` = mass, `PRECIP_ACC`).
    pub name: String,
    /// Moment value.
    pub value: f64,
}

/// Digest of one end-of-run [`SbmPatchState`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateDigest {
    /// Per-field digests (thermo state + per-class hydrometeor mass
    /// projections + raw bin slabs).
    pub fields: Vec<FieldDigest>,
    /// Scalar moments.
    pub moments: Vec<MomentDigest>,
}

impl StateDigest {
    /// The field digest by name.
    pub fn field(&self, name: &str) -> Option<&FieldDigest> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// The moment by name.
    pub fn moment(&self, name: &str) -> Option<&MomentDigest> {
        self.moments.iter().find(|m| m.name == name)
    }
}

/// WRF-style variable names of the seven FSBM distribution slabs.
fn class_var(c: HydroClass) -> &'static str {
    match c {
        HydroClass::Water => "FF1",
        HydroClass::IceColumns => "FF2C",
        HydroClass::IcePlates => "FF2P",
        HydroClass::IceDendrites => "FF2D",
        HydroClass::Snow => "FF3",
        HydroClass::Graupel => "FF4",
        HydroClass::Hail => "FF5",
    }
}

impl SbmPatchState {
    /// Digests the state for golden verification: thermo fields, the
    /// per-class bin slabs, and the number/mass moments of every class.
    pub fn digest(&self) -> StateDigest {
        let grids = Grids::new();
        let mut fields = vec![
            FieldDigest::of("T", self.tt.as_slice()),
            FieldDigest::of("QVAPOR", self.qv.as_slice()),
            FieldDigest::of("RAINNC", &self.rainnc),
        ];
        let mut moments = Vec::new();
        for c in HydroClass::ALL {
            let slab = self.ff[c.index()].as_slice();
            fields.push(FieldDigest::of(class_var(c), slab));
            let mass = &grids.of(c).mass;
            let mut m0 = 0.0f64;
            let mut m1 = 0.0f64;
            for bins in slab.chunks(NKR) {
                for (n, m) in bins.iter().zip(mass) {
                    m0 += *n as f64;
                    m1 += (*n as f64) * (*m as f64);
                }
            }
            moments.push(MomentDigest {
                name: format!("M0_{}", class_var(c)),
                value: m0,
            });
            moments.push(MomentDigest {
                name: format!("M1_{}", class_var(c)),
                value: m1,
            });
        }
        moments.push(MomentDigest {
            name: "PRECIP_ACC".to_string(),
            value: self.precip_acc,
        });
        StateDigest { fields, moments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_bit_exact() {
        let a = [1.0f32, -0.0, 2.5];
        let b = [1.0f32, 0.0, 2.5]; // -0.0 vs 0.0 differ bitwise
        assert_ne!(checksum_f32(&a), checksum_f32(&b));
        assert_eq!(checksum_f32(&a), checksum_f32(a.as_ref()));
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(0.0, -0.0), 1);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u32::MAX);
        // Symmetric.
        assert_eq!(ulp_distance(3.5, -2.0), ulp_distance(-2.0, 3.5));
    }

    #[test]
    fn field_digest_stats() {
        let values: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let d = FieldDigest::of("X", &values);
        assert_eq!(d.len, 1000);
        assert_eq!(d.min, 0.0);
        assert_eq!(d.max, 999.0);
        assert_eq!(d.sum, 499_500.0);
        assert_eq!(d.stride, 1000 / DIGEST_SAMPLES);
        assert!(d.samples.len() >= DIGEST_SAMPLES);
        assert_eq!(d.samples[0], 0.0f32.to_bits());
    }

    #[test]
    fn empty_field_digest_is_finite() {
        let d = FieldDigest::of("E", &[]);
        assert_eq!(d.len, 0);
        assert_eq!(d.min, 0.0);
        assert_eq!(d.max, 0.0);
        assert!(d.samples.is_empty());
    }
}
