//! `diffwrf`-style output verification (§VII-B).
//!
//! WRF ships a `diffwrf` utility that reports, per state variable, how
//! many significant digits two runs agree to. The paper uses it to show
//! the GPU port retains 3–6 digits on state variables and 1–5 on
//! microphysics variables over a 3-hour run. This module implements the
//! same comparison over [`SbmPatchState`]s.

use fsbm_core::point::Grids;
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{HydroClass, NKR};
use std::fmt;

/// Comparison result for one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    /// Variable name (WRF-style).
    pub name: String,
    /// Maximum relative difference.
    pub max_rel: f64,
    /// Maximum absolute difference.
    pub max_abs: f64,
    /// RMS of the differences.
    pub rms: f64,
    /// Value pairs where either side is non-finite and the bits differ.
    /// Any such pair forces `max_rel`/`max_abs` to infinity and
    /// `digits` to 0: a NaN that appears in only one run is the
    /// strongest possible disagreement, not a value to ignore.
    pub nonfinite: usize,
    /// Agreed significant digits: `floor(−log₁₀ max_rel)`, 15 when
    /// bit-identical, 0 when any pair disagrees non-finitely.
    pub digits: u32,
}

/// Digit count from a maximum relative error. A non-finite `max_rel`
/// (NaN or infinity, from a non-finite disagreement) is 0 digits —
/// `<= 0.0` would read NaN as full agreement, the dangerous direction.
pub fn digits_of(max_rel: f64) -> u32 {
    if !max_rel.is_finite() {
        0
    } else if max_rel <= 0.0 {
        15
    } else {
        (-max_rel.log10()).floor().clamp(0.0, 15.0) as u32
    }
}

/// Relative-difference denominator floor per variable: fields with
/// physically tiny magnitudes get a floor so noise in empty regions does
/// not read as disagreement. The one scale table: [`diffwrf`] reads the
/// state and class-mass entries, the gates' digest comparisons the
/// moment (`M0_*`, `M1_*`) and default ones too.
pub fn denom_floor(name: &str) -> f64 {
    match name {
        "T" => 100.0,
        "QVAPOR" => 1.0e-4,
        "RAINNC" => 1.0e-3,
        n if n.starts_with("FF") => 1.0e-8,
        n if n.starts_with("M0_") => 1.0e3,
        n if n.starts_with("M1_") => 1.0e-8,
        _ => 1.0e-9,
    }
}

fn diff_slices(name: &str, a: &[f32], b: &[f32]) -> FieldDiff {
    assert_eq!(a.len(), b.len(), "field size mismatch for {name}");
    let scale = denom_floor(name) as f32;
    let mut max_rel = 0.0f64;
    let mut max_abs = 0.0f64;
    let mut sq = 0.0f64;
    let mut nonfinite = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x.to_bits() == y.to_bits() {
            // Bit-identical — including two NaNs with the same payload,
            // which `(x - y).abs()` would otherwise turn into NaN and
            // `f64::max` would then silently discard.
            continue;
        }
        if !x.is_finite() || !y.is_finite() {
            nonfinite += 1;
            max_rel = f64::INFINITY;
            max_abs = f64::INFINITY;
            continue;
        }
        let d = (x - y).abs() as f64;
        max_abs = max_abs.max(d);
        sq += d * d;
        let denom = x.abs().max(y.abs()).max(scale) as f64;
        max_rel = max_rel.max(d / denom);
    }
    FieldDiff {
        name: name.to_string(),
        max_rel,
        max_abs,
        rms: (sq / a.len().max(1) as f64).sqrt(),
        nonfinite,
        digits: digits_of(max_rel),
    }
}

/// The `diffwrf` report over all compared variables.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-field comparisons.
    pub fields: Vec<FieldDiff>,
}

impl DiffReport {
    /// The field entry by name.
    pub fn field(&self, name: &str) -> Option<&FieldDiff> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Minimum agreed digits over the *state* variables (T, QVAPOR,
    /// RAINNC).
    pub fn min_state_digits(&self) -> u32 {
        self.fields
            .iter()
            .filter(|f| matches!(f.name.as_str(), "T" | "QVAPOR" | "RAINNC"))
            .map(|f| f.digits)
            .min()
            .unwrap_or(0)
    }

    /// Minimum agreed digits over the microphysics variables.
    pub fn min_microphysics_digits(&self) -> u32 {
        self.fields
            .iter()
            .filter(|f| f.name.starts_with("FF"))
            .map(|f| f.digits)
            .min()
            .unwrap_or(0)
    }

    /// True when every field is bit-identical.
    pub fn identical(&self) -> bool {
        self.fields
            .iter()
            .all(|f| f.max_abs == 0.0 && f.nonfinite == 0)
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "diffwrf: variable-by-variable agreement")?;
        writeln!(
            f,
            "{:<10} {:>12} {:>12} {:>12} {:>7}",
            "field", "max_rel", "max_abs", "rms", "digits"
        )?;
        for d in &self.fields {
            writeln!(
                f,
                "{:<10} {:>12.3e} {:>12.3e} {:>12.3e} {:>7}",
                d.name, d.max_rel, d.max_abs, d.rms, d.digits
            )?;
        }
        Ok(())
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

/// Compares two model states variable by variable.
pub fn diffwrf(a: &SbmPatchState, b: &SbmPatchState) -> DiffReport {
    assert_eq!(a.patch, b.patch, "states must share a patch");
    let grids = Grids::new();
    let mut fields = vec![
        diff_slices("T", a.tt.as_slice(), b.tt.as_slice()),
        diff_slices("QVAPOR", a.qv.as_slice(), b.qv.as_slice()),
        diff_slices("RAINNC", &a.rainnc, &b.rainnc),
    ];
    // Microphysics: compare per-class *mass* fields (what diffwrf sees as
    // QCLOUD/QRAIN etc.), built from the bins.
    for c in HydroClass::ALL {
        let g = grids.of(c);
        let fa = &a.ff[c.index()];
        let fb = &b.ff[c.index()];
        let to_mass = |f: &wrf_grid::Field4<f32>| -> Vec<f32> {
            f.as_slice()
                .chunks(NKR)
                .map(|bins| bins.iter().zip(&g.mass).map(|(n, m)| n * m).sum())
                .collect()
        };
        fields.push(diff_slices(class_var(c), &to_mass(fa), &to_mass(fb)));
    }
    DiffReport { fields }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conus::{ConusCase, ConusParams};
    use wrf_grid::two_d_decomposition;

    fn state() -> SbmPatchState {
        let params = ConusParams::at_scale(0.05);
        let case = ConusCase::new(params);
        let dd = two_d_decomposition(params.domain(), 1, 2);
        case.init_state(&dd.patches[0])
    }

    /// `diffwrf` compares in f32: each of its scales is the f32 it
    /// always used, and the moments keep their own floors.
    #[test]
    fn one_scale_table_for_fields_and_moments() {
        let f32_scale = |name| denom_floor(name) as f32;
        assert_eq!(f32_scale("T").to_bits(), 100.0f32.to_bits());
        assert_eq!(f32_scale("QVAPOR").to_bits(), 1.0e-4f32.to_bits());
        assert_eq!(f32_scale("RAINNC").to_bits(), 1.0e-3f32.to_bits());
        for c in HydroClass::ALL {
            assert_eq!(f32_scale(class_var(c)).to_bits(), 1.0e-8f32.to_bits());
        }
        assert_eq!(denom_floor("M0_FF1"), 1.0e3);
        assert_eq!(denom_floor("M1_FF1"), 1.0e-8);
        assert_eq!(denom_floor("W"), 1.0e-9);
    }

    #[test]
    fn identical_states_agree_fully() {
        let a = state();
        let r = diffwrf(&a, &a.clone());
        assert!(r.identical());
        assert_eq!(r.min_state_digits(), 15);
        assert_eq!(r.min_microphysics_digits(), 15);
        assert_eq!(r.field("T").unwrap().digits, 15);
    }

    #[test]
    fn small_perturbation_counts_digits() {
        let a = state();
        let mut b = a.clone();
        // Perturb temperature in the 5th significant digit.
        for v in b.tt.as_mut_slice() {
            *v *= 1.0 + 3.0e-6;
        }
        let r = diffwrf(&a, &b);
        let t = r.field("T").unwrap();
        assert!(t.digits >= 4 && t.digits <= 6, "digits {}", t.digits);
        assert!(!r.identical());
        // Microphysics untouched.
        assert_eq!(r.min_microphysics_digits(), 15);
    }

    #[test]
    fn microphysics_perturbation_detected() {
        let a = state();
        let mut b = a.clone();
        for f in &mut b.ff {
            for v in f.as_mut_slice() {
                *v *= 1.0 + 1.0e-3;
            }
        }
        let r = diffwrf(&a, &b);
        assert!(r.min_microphysics_digits() <= 3);
        assert_eq!(r.min_state_digits(), 15);
    }

    #[test]
    fn all_zero_fields_report_full_agreement() {
        let mut a = state();
        for v in a.rainnc.iter_mut() {
            *v = 0.0;
        }
        let b = a.clone();
        let r = diffwrf(&a, &b);
        let rain = r.field("RAINNC").unwrap();
        // 0/0 must not produce NaN digits: identical zeros are 15.
        assert_eq!(rain.digits, 15);
        assert_eq!(rain.nonfinite, 0);
        assert!(r.identical());
    }

    #[test]
    fn nan_payload_is_not_silently_identical() {
        let a = state();
        let mut b = a.clone();
        b.tt.as_mut_slice()[0] = f32::NAN;
        let r = diffwrf(&a, &b);
        let t = r.field("T").unwrap();
        assert_eq!(t.digits, 0, "a NaN in one run must read as 0 digits");
        assert_eq!(t.nonfinite, 1);
        assert!(t.max_rel.is_infinite());
        assert!(!r.identical());
    }

    #[test]
    fn matching_nan_payloads_are_identical() {
        let mut a = state();
        a.qv.as_mut_slice()[3] = f32::NAN;
        let b = a.clone();
        let r = diffwrf(&a, &b);
        let q = r.field("QVAPOR").unwrap();
        assert_eq!(q.digits, 15);
        assert_eq!(q.nonfinite, 0);
        assert!(r.identical());
    }

    #[test]
    fn infinity_mismatch_detected() {
        let a = state();
        let mut b = a.clone();
        b.tt.as_mut_slice()[7] = f32::INFINITY;
        let r = diffwrf(&a, &b);
        let t = r.field("T").unwrap();
        assert_eq!(t.digits, 0);
        assert_eq!(t.nonfinite, 1);
        assert!(!r.identical());
    }

    #[test]
    fn report_renders() {
        let a = state();
        let s = diffwrf(&a, &a.clone()).to_string();
        assert!(s.contains("QVAPOR"));
        assert!(s.contains("FF4"));
        assert!(s.contains("digits"));
    }

    #[test]
    #[should_panic(expected = "share a patch")]
    fn mismatched_patches_panic() {
        let a = state();
        let params = ConusParams::at_scale(0.06);
        let case = ConusCase::new(params);
        let dd = two_d_decomposition(params.domain(), 1, 2);
        let b = case.init_state(&dd.patches[0]);
        let _ = diffwrf(&a, &b);
    }
}
