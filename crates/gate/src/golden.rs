//! Golden verification: the `diffwrf` methodology as an enforced gate.
//!
//! Every scheme version is pinned to a committed [`GoldenFixture`]
//! capturing the end-of-run digest of the deterministic gate case
//! (`ModelConfig::gate`). The gate re-runs the case across all four
//! versions × both scheduling modes × several worker counts and compares
//! each candidate digest (a) against its own version's golden and (b)
//! against the baseline version's golden — so same-version reproduction
//! and cross-version agreement are both enforced, with diffwrf-style
//! per-field statistics (digits of agreement, max abs/rel error, RMSE,
//! ULP distance) in the report.

use crate::fixture::GoldenFixture;
use crate::report::{Cell, Check, Table};
use fsbm_core::digest::{ulp_distance, StateDigest};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmVersion};
use fsbm_core::state::SbmPatchState;
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;

/// Per-field comparison statistics (the `diffwrf` columns plus ULP).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldComparison {
    /// Variable or moment name.
    pub name: String,
    /// True when the checksums (fields) or exact values (moments) match.
    pub bitwise: bool,
    /// Maximum relative difference over samples and statistics.
    pub max_rel: f64,
    /// Maximum absolute difference over the sampled values.
    pub max_abs: f64,
    /// RMS difference over the sampled values.
    pub rmse: f64,
    /// Maximum ULP distance over the sampled values (0 for moments).
    pub max_ulp: u32,
    /// Agreed significant digits: `floor(−log₁₀ max_rel)`, 15 when exact.
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

/// Relative-difference denominator floor per variable, mirroring the
/// `diffwrf` scales: fields with physically tiny magnitudes get a floor
/// so noise in empty regions does not read as disagreement.
fn denom_floor(name: &str) -> f64 {
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

fn rel(a: f64, b: f64, floor: f64) -> f64 {
    if a.to_bits() == b.to_bits() {
        // Bit-identical, including matching NaN payloads and equal
        // infinities: `(a - b)` would yield NaN for those and the
        // caller's `f64::max` would silently drop it.
        return 0.0;
    }
    let d = (a - b).abs();
    if !d.is_finite() {
        // A NaN or infinity on one side only is total disagreement.
        return f64::INFINITY;
    }
    if d == 0.0 {
        0.0
    } else {
        d / a.abs().max(b.abs()).max(floor)
    }
}

/// Result of comparing a candidate digest against a golden digest.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestComparison {
    /// Per-field and per-moment statistics.
    pub fields: Vec<FieldComparison>,
    /// Structural mismatches (missing fields, length changes) — any
    /// entry here fails the comparison outright.
    pub structural: Vec<String>,
}

impl DigestComparison {
    /// Minimum agreed digits across everything compared.
    pub fn min_digits(&self) -> u32 {
        self.fields.iter().map(|f| f.digits).min().unwrap_or(0)
    }

    /// The worst-agreeing entry (fewest digits; ties broken by larger
    /// max-rel), i.e. the field a failure report should name.
    pub fn worst(&self) -> Option<&FieldComparison> {
        self.fields.iter().min_by(|a, b| {
            (a.digits, std::cmp::Reverse(ordered(a.max_rel)))
                .cmp(&(b.digits, std::cmp::Reverse(ordered(b.max_rel))))
        })
    }

    /// True when every compared value is bit-identical.
    pub fn bitwise(&self) -> bool {
        self.structural.is_empty() && self.fields.iter().all(|f| f.bitwise)
    }
}

fn ordered(x: f64) -> u64 {
    // Total-order key for non-negative finite f64s.
    x.to_bits()
}

/// Compares `candidate` against `golden`, field by field.
pub fn compare_digests(golden: &StateDigest, candidate: &StateDigest) -> DigestComparison {
    let mut fields = Vec::new();
    let mut structural = Vec::new();
    for g in &golden.fields {
        let Some(c) = candidate.field(&g.name) else {
            structural.push(format!("field {} missing from candidate", g.name));
            continue;
        };
        if c.len != g.len || c.stride != g.stride || c.samples.len() != g.samples.len() {
            structural.push(format!(
                "field {} shape changed: len {} -> {}, stride {} -> {}",
                g.name, g.len, c.len, g.stride, c.stride
            ));
            continue;
        }
        let floor = denom_floor(&g.name);
        let mut max_rel = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut max_ulp = 0u32;
        let mut sq = 0.0f64;
        for (&gb, &cb) in g.samples.iter().zip(&c.samples) {
            if gb == cb {
                continue;
            }
            let (x, y) = (f32::from_bits(gb), f32::from_bits(cb));
            if !x.is_finite() || !y.is_finite() {
                // Non-finite on one side: force the worst verdict
                // rather than letting NaN vanish inside f64::max.
                max_rel = f64::INFINITY;
                max_abs = f64::INFINITY;
                max_ulp = u32::MAX;
                continue;
            }
            let d = (x as f64 - y as f64).abs();
            max_abs = max_abs.max(d);
            sq += d * d;
            max_rel = max_rel.max(rel(x as f64, y as f64, floor));
            max_ulp = max_ulp.max(ulp_distance(x, y));
        }
        // Fold the full-field accumulators in: samples are strided, but
        // sum/L2 see every value, so a divergence between samples cannot
        // hide.
        max_rel = max_rel
            .max(rel(g.sum, c.sum, floor * g.len as f64))
            .max(rel(g.l2, c.l2, floor))
            .max(rel(g.min as f64, c.min as f64, floor))
            .max(rel(g.max as f64, c.max as f64, floor));
        fields.push(FieldComparison {
            name: g.name.clone(),
            bitwise: g.checksum == c.checksum,
            max_rel,
            max_abs,
            rmse: (sq / g.samples.len().max(1) as f64).sqrt(),
            max_ulp,
            digits: digits_of(max_rel),
        });
    }
    for gm in &golden.moments {
        let Some(cm) = candidate.moment(&gm.name) else {
            structural.push(format!("moment {} missing from candidate", gm.name));
            continue;
        };
        let floor = denom_floor(&gm.name);
        let r = rel(gm.value, cm.value, floor);
        fields.push(FieldComparison {
            name: gm.name.clone(),
            bitwise: gm.value.to_bits() == cm.value.to_bits(),
            max_rel: r,
            max_abs: (gm.value - cm.value).abs(),
            rmse: (gm.value - cm.value).abs(),
            max_ulp: 0,
            digits: digits_of(r),
        });
    }
    DigestComparison { fields, structural }
}

/// Combined bitwise checksum of a digest: FNV-style fold of every field
/// checksum, order-sensitive (the one-token state identity of the tune
/// report).
pub fn combined_checksum(digest: &StateDigest) -> u64 {
    digest.fields.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, f| {
        (h ^ f.checksum).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Minimum digits on state variables (`T`, `QVAPOR`, `RAINNC`,
/// `PRECIP_ACC`). The four versions share every arithmetic path, so
/// they agree bitwise today; 6 digits is the widest drift a libm or
/// toolchain change could plausibly introduce without a physics bug.
pub const MIN_STATE_DIGITS: u32 = 6;
/// Minimum digits on microphysics variables (`FF*`, `M0_*`, `M1_*`).
pub const MIN_MICRO_DIGITS: u32 = 5;

/// The digit floor for the field or moment `name`.
pub fn digit_floor(name: &str) -> u32 {
    if name.starts_with("FF") || name.starts_with("M0_") || name.starts_with("M1_") {
        MIN_MICRO_DIGITS
    } else {
        MIN_STATE_DIGITS
    }
}

/// How well two sets of end states agree: the fold of
/// [`compare_digests`] every equivalence gate reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StateAgreement {
    /// True when every compared value is bit-identical.
    pub bitwise: bool,
    /// Minimum agreed digits across states and fields.
    pub min_digits: u32,
    /// Worst-agreeing field of the worst comparison (empty while a fold
    /// has seen nothing short of full agreement).
    pub worst_field: String,
    /// Max ULP distance of that field.
    pub worst_ulp: u32,
}

impl StateAgreement {
    /// The agreement of one digest comparison.
    pub fn of(cmp: &DigestComparison) -> StateAgreement {
        let worst = cmp.worst();
        StateAgreement {
            bitwise: cmp.bitwise(),
            min_digits: cmp.min_digits(),
            worst_field: worst.map(|f| f.name.clone()).unwrap_or_default(),
            worst_ulp: worst.map_or(0, |f| f.max_ulp),
        }
    }

    /// Nothing compared yet: full agreement.
    pub fn full() -> StateAgreement {
        StateAgreement {
            bitwise: true,
            min_digits: 15,
            worst_field: String::new(),
            worst_ulp: 0,
        }
    }

    /// Folds one more digest comparison in: the worst one so far names
    /// the worst field.
    pub fn fold(&mut self, cmp: &DigestComparison) {
        let bitwise = self.bitwise && cmp.bitwise();
        if cmp.min_digits() < self.min_digits {
            *self = StateAgreement::of(cmp);
        }
        self.bitwise = bitwise;
    }

    /// The violation text when the sides differ (`what` names them).
    pub fn violation(&self, what: &str) -> Option<String> {
        (!self.bitwise).then(|| {
            format!(
                "{what} digests differ (min digits {}, worst {})",
                self.min_digits, self.worst_field
            )
        })
    }
}

/// Compares two runs state by state (rank by rank, member by member). A
/// length mismatch is total disagreement.
pub fn compare_states(a: &[SbmPatchState], b: &[SbmPatchState]) -> StateAgreement {
    let mut agreement = StateAgreement::full();
    if a.len() != b.len() {
        agreement.bitwise = false;
        agreement.min_digits = 0;
    }
    for (x, y) in a.iter().zip(b) {
        agreement.fold(&compare_digests(&x.digest(), &y.digest()));
    }
    agreement
}

/// One arm of a digest-equivalence matrix — the row every equivalence
/// gate (golden, comm, fault, share, ensemble) reports.
#[derive(Debug, Clone)]
pub struct EquivRow {
    /// What was compared (`baseline`, `lookup blocking`, …): the check
    /// label's suffix.
    pub arm: String,
    /// The arm's identifying and measured columns, keyed as they appear
    /// in the table (`version`, `ranks`, `queue_secs`, …).
    pub cells: Vec<(&'static str, Cell)>,
    /// How the two sides agreed.
    pub agreement: StateAgreement,
    /// Everything the gate holds against this arm (empty when passing).
    pub violations: Vec<String>,
}

/// The table and the per-arm checks of an equivalence matrix.
pub fn equivalence(key: &'static str, title: &str, rows: &[EquivRow]) -> (Table, Vec<Check>) {
    let mut columns: Vec<&'static str> = rows
        .first()
        .map(|r| r.cells.iter().map(|(k, _)| *k).collect())
        .unwrap_or_default();
    columns.extend(["bitwise", "min_digits", "worst_field", "worst_ulp", "pass"]);
    let table = Table::new(
        key,
        title,
        &columns,
        rows.iter().map(|r| {
            let mut row: Vec<Cell> = r.cells.iter().map(|(_, c)| c.clone()).collect();
            row.extend([
                r.agreement.bitwise.into(),
                r.agreement.min_digits.into(),
                r.agreement.worst_field.as_str().into(),
                r.agreement.worst_ulp.into(),
                r.violations.is_empty().into(),
            ]);
            row
        }),
    );
    let checks = rows
        .iter()
        .map(|r| Check::all_of(format!("{key}: {}", r.arm), &r.violations))
        .collect();
    (table, checks)
}

/// One run of the golden matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenRunSpec {
    /// Scheme version under test.
    pub version: SbmVersion,
    /// Scheduling mode.
    pub mode: ExecMode,
    /// Device-worker count.
    pub workers: usize,
    /// Host memory layout of the microphysics hot path.
    pub layout: Layout,
}

/// The full gate matrix: every version × {static tiles, work stealing}
/// × `worker_counts` × both memory layouts.
pub fn gate_matrix(worker_counts: &[usize]) -> Vec<GoldenRunSpec> {
    let mut specs = Vec::new();
    for version in SbmVersion::ALL {
        for mode in [ExecMode::StaticTiles, ExecMode::work_steal()] {
            for &workers in worker_counts {
                for layout in Layout::ALL {
                    specs.push(GoldenRunSpec {
                        version,
                        mode,
                        workers,
                        layout,
                    });
                }
            }
        }
    }
    specs
}

/// Filename stem of a version's golden fixture.
pub fn version_slug(v: SbmVersion) -> &'static str {
    match v {
        SbmVersion::Baseline => "baseline",
        SbmVersion::Lookup => "lookup",
        SbmVersion::OffloadCollapse2 => "collapse2",
        SbmVersion::OffloadCollapse3 => "collapse3",
    }
}

/// Human description of the pinned gate case, written into fixtures.
pub fn case_description() -> String {
    format!(
        "scale={} nz={} steps={}",
        ModelConfig::GATE_SCALE,
        ModelConfig::GATE_NZ,
        ModelConfig::GATE_STEPS
    )
}

/// Runs one matrix entry and digests the end state. `perturb`, when
/// set, scales the liquid-water distribution by `1 + perturb` after the
/// run — the hook the gate's self-test uses to prove a divergence
/// actually trips the gate.
pub fn run_digest(spec: &GoldenRunSpec, perturb: Option<f32>) -> StateDigest {
    let mut cfg = ModelConfig::gate(spec.version, spec.mode, spec.workers);
    cfg.layout = spec.layout;
    let mut m = Model::single_rank(cfg);
    m.run(ModelConfig::GATE_STEPS);
    if let Some(eps) = perturb {
        for v in m.state.ff[0].as_mut_slice() {
            *v *= 1.0 + eps;
        }
    }
    m.state.digest()
}

/// Builds the canonical (serial, static-tiles) fixture for `version`.
pub fn bless_fixture(version: SbmVersion) -> GoldenFixture {
    let digest = run_digest(
        &GoldenRunSpec {
            version,
            mode: ExecMode::StaticTiles,
            workers: 1,
            layout: Layout::PointAos,
        },
        None,
    );
    GoldenFixture {
        version: version.label().to_string(),
        case: case_description(),
        digest,
    }
}

/// Compares one matrix run against one fixture under the digit floors.
pub fn check_against(
    spec: &GoldenRunSpec,
    vs: &'static str,
    golden: &StateDigest,
    candidate: &StateDigest,
) -> EquivRow {
    let cmp = compare_digests(golden, candidate);
    let mut violations: Vec<String> = cmp.structural.clone();
    for f in &cmp.fields {
        let floor = digit_floor(&f.name);
        if f.digits < floor {
            violations.push(format!(
                "{}: {} digits < required {floor} (max_rel {:.3e}, max_abs {:.3e}, rmse {:.3e}, ulp {})",
                f.name, f.digits, f.max_rel, f.max_abs, f.rmse, f.max_ulp
            ));
        }
    }
    let agreement = StateAgreement::of(&cmp);
    let (version, mode, layout) = (spec.version.label(), spec.mode.label(), spec.layout.label());
    EquivRow {
        arm: format!("{version} [{mode} w={} {layout}] vs {vs}", spec.workers),
        cells: vec![
            ("version", version.into()),
            ("mode", mode.into()),
            ("workers", spec.workers.into()),
            ("layout", layout.into()),
            ("vs", vs.into()),
        ],
        agreement,
        violations,
    }
}

/// Runs the golden gate: every spec in `specs` is digested once and
/// compared against its own version's fixture and the baseline fixture.
/// Fixtures are looked up by version label in `fixtures`. `perturb` is
/// the self-test hook of [`run_digest`].
pub fn run_golden_gate(
    specs: &[GoldenRunSpec],
    fixtures: &[GoldenFixture],
    perturb: Option<f32>,
) -> Result<Vec<EquivRow>, String> {
    let fixture_for = |label: &str| -> Result<&GoldenFixture, String> {
        fixtures.iter().find(|f| f.version == label).ok_or_else(|| {
            format!("no golden fixture for version {label:?} — run `repro gate --bless`")
        })
    };
    let baseline = fixture_for(SbmVersion::Baseline.label())?;
    let mut rows = Vec::new();
    for spec in specs {
        let own = fixture_for(spec.version.label())?;
        let candidate = run_digest(spec, perturb);
        rows.push(check_against(spec, "self", &own.digest, &candidate));
        if spec.version != SbmVersion::Baseline {
            rows.push(check_against(
                spec,
                "baseline",
                &baseline.digest,
                &candidate,
            ));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::digest::FieldDigest;

    fn digest_of(values: &[f32]) -> StateDigest {
        StateDigest {
            fields: vec![FieldDigest::of("T", values)],
            moments: vec![fsbm_core::digest::MomentDigest {
                name: "M1_FF1".into(),
                value: values.iter().map(|&v| v as f64).sum(),
            }],
        }
    }

    #[test]
    fn identical_digests_are_bitwise() {
        let a = digest_of(&[280.0, 281.5, 290.25]);
        let cmp = compare_digests(&a, &a.clone());
        assert!(cmp.bitwise());
        assert_eq!(cmp.min_digits(), 15);
        assert!(cmp.structural.is_empty());
    }

    #[test]
    fn perturbation_counts_digits_and_names_worst_field() {
        let base: Vec<f32> = (0..200).map(|i| 280.0 + i as f32 * 0.1).collect();
        let a = digest_of(&base);
        let perturbed: Vec<f32> = base.iter().map(|&v| v * (1.0 + 1.0e-3)).collect();
        let b = digest_of(&perturbed);
        let cmp = compare_digests(&a, &b);
        assert!(!cmp.bitwise());
        let worst = cmp.worst().unwrap();
        // The relative error is 1e-3 → 2 digits of agreement.
        assert!(worst.digits <= 3, "digits {}", worst.digits);
        assert!(worst.max_ulp > 0 || worst.name == "M1_FF1");
        let spec = GoldenRunSpec {
            version: SbmVersion::Baseline,
            mode: ExecMode::StaticTiles,
            workers: 1,
            layout: Layout::PointAos,
        };
        let check = check_against(&spec, "self", &a, &b);
        assert!(
            check.violations.iter().any(|v| v.contains("T:")),
            "violations: {:?}",
            check.violations
        );
    }

    #[test]
    fn structural_mismatch_fails() {
        let a = digest_of(&[1.0, 2.0, 3.0]);
        let b = digest_of(&[1.0, 2.0]);
        let cmp = compare_digests(&a, &b);
        assert!(!cmp.structural.is_empty());
        assert!(!cmp.bitwise());
    }

    #[test]
    fn matrix_covers_versions_and_modes() {
        let specs = gate_matrix(&[1, 3]);
        assert_eq!(specs.len(), 4 * 2 * 2 * 2);
        assert!(specs
            .iter()
            .any(|s| s.version == SbmVersion::OffloadCollapse3
                && s.mode == ExecMode::work_steal()
                && s.workers == 3
                && s.layout == Layout::PanelSoa));
    }

    #[test]
    fn digits_formula() {
        assert_eq!(digits_of(0.0), 15);
        assert_eq!(digits_of(1.0e-6), 6);
        assert_eq!(digits_of(0.5), 0);
        assert_eq!(digits_of(2.0), 0);
        assert_eq!(digits_of(f64::NAN), 0, "NaN must not read as agreement");
        assert_eq!(digits_of(f64::INFINITY), 0);
    }
}
