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
//!
//! Every matrix arm runs the production layout ([`Layout::PanelSoa`]);
//! the reference layout appears once per fixture, as the arm that
//! blesses it ([`GoldenRunSpec::canonical`]) — so a fixture is written
//! from `PointAos` and checked against `PanelSoa`. That the two layouts
//! agree point by point, statistic by statistic, is proven where they
//! differ: `fsbm-core`'s `tests/layout_equivalence.rs`
//! (`panels_match_aos_static`, `panels_match_aos_worksteal`, the planted
//! cases bucket by bucket) and the ledger's `PointAos` oracle on every
//! benchmark run.
//!
//! [`equivalence_matrix`] is the one loop behind every digest-equivalence
//! table of the eight gates: arms in, [`EquivRow`]s out.

use crate::fixture::GoldenFixture;
use crate::report::{Check, Row, Table};
use fsbm_core::digest::{fnv1a_step, ulp_distance, StateDigest, FNV1A_OFFSET};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmVersion};
use fsbm_core::state::SbmPatchState;
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use wrf_cases::diffwrf::digits_of;

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

/// Relative difference of `a` and `b` over the larger magnitude, the
/// denominator floored at `floor`.
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
    (digest.fields.iter()).fold(FNV1A_OFFSET, |h, f| fnv1a_step(h, f.checksum))
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

/// The agreement an equivalence matrix demands of its two sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bar {
    /// Bit-identical digests (the §VII-B bar applied to a layer that may
    /// move time, never arithmetic). The text names the two sides in the
    /// violation (`Blocking vs Overlapped`).
    Bitwise(&'static str),
    /// The golden policy: every field and moment at or above its
    /// [`digit_floor`].
    DigitFloors,
}

/// How `candidate` agrees with `reference`, state by state (rank by
/// rank, member by member), and what `bar` holds against it. A length
/// mismatch is total disagreement.
pub fn judge(
    bar: Bar,
    reference: &[StateDigest],
    candidate: &[StateDigest],
) -> (StateAgreement, Vec<String>) {
    let mut agreement = StateAgreement::full();
    let mut violations = Vec::new();
    if reference.len() != candidate.len() {
        agreement.bitwise = false;
        agreement.min_digits = 0;
    }
    for (g, c) in reference.iter().zip(candidate) {
        let cmp = compare_digests(g, c);
        agreement.fold(&cmp);
        if bar == Bar::DigitFloors {
            violations.extend(floor_violations(&cmp));
        }
    }
    match bar {
        Bar::Bitwise(what) => violations.extend(agreement.violation(what)),
        Bar::DigitFloors if reference.len() != candidate.len() => violations.push(format!(
            "{} states compared against {}",
            candidate.len(),
            reference.len()
        )),
        Bar::DigitFloors => {}
    }
    (agreement, violations)
}

/// Compares two runs' end states bitwise.
pub fn compare_states(a: &[SbmPatchState], b: &[SbmPatchState]) -> StateAgreement {
    let sides = Sides::of_states(a, b);
    judge(Bar::Bitwise(""), &sides.reference, &sides.candidate).0
}

/// One arm of a digest-equivalence matrix — the row every equivalence
/// gate (golden, comm, fault, share, ensemble, cases) reports.
#[derive(Debug, Clone)]
pub struct EquivRow {
    /// What was compared (`baseline`, `lookup blocking`, …): the check
    /// label's suffix.
    pub arm: String,
    /// The arm's identifying and measured columns, keyed as they appear
    /// in the table (`version`, `ranks`, `queue_secs`, …).
    pub cells: Row,
    /// How the two sides agreed.
    pub agreement: StateAgreement,
    /// Everything the gate holds against this arm (empty when passing).
    pub violations: Vec<String>,
}

/// One arm of an equivalence matrix before it runs.
#[derive(Debug, Clone)]
pub struct Arm<S> {
    /// What the matrix's closure needs to run the arm.
    pub spec: S,
    /// The check label's suffix.
    pub label: String,
    /// The arm's identifying columns.
    pub cells: Row,
}

impl Arm<SbmVersion> {
    /// The arm of a per-version matrix: labelled by the version, whose
    /// `version` column leads `cells`.
    pub fn version(version: SbmVersion, cells: Row) -> Self {
        let mut all = vec![("version", version.label().into())];
        all.extend(cells);
        Arm {
            spec: version,
            label: version.label().to_string(),
            cells: all,
        }
    }
}

/// What running one arm yields: the two sides' end-state digests,
/// paired in order, plus whatever else the arm measured or found.
#[derive(Debug, Clone, Default)]
pub struct Sides {
    /// The side the arm trusts (fixture, uninterrupted run, solo run).
    pub reference: Vec<StateDigest>,
    /// The side under test.
    pub candidate: Vec<StateDigest>,
    /// Measured columns, after the arm's identifying ones.
    pub cells: Row,
    /// What the run holds against the arm besides disagreement.
    pub violations: Vec<String>,
}

impl Sides {
    /// The two sides of a pair of runs.
    pub fn of_states(reference: &[SbmPatchState], candidate: &[SbmPatchState]) -> Sides {
        Sides {
            reference: reference.iter().map(SbmPatchState::digest).collect(),
            candidate: candidate.iter().map(SbmPatchState::digest).collect(),
            ..Sides::default()
        }
    }

    /// An arm whose candidate side never ran.
    pub fn failed(violation: String) -> Sides {
        Sides {
            violations: vec![violation],
            ..Sides::default()
        }
    }
}

/// Runs a digest-equivalence matrix: every arm through `run`, its two
/// sides held to `bar`.
pub fn equivalence_matrix<S>(
    bar: Bar,
    arms: impl IntoIterator<Item = Arm<S>>,
    mut run: impl FnMut(&S) -> Sides,
) -> Vec<EquivRow> {
    let row = |arm: Arm<S>| {
        let sides = run(&arm.spec);
        let (agreement, disagreement) = judge(bar, &sides.reference, &sides.candidate);
        let (mut cells, mut violations) = (arm.cells, sides.violations);
        cells.extend(sides.cells);
        violations.extend(disagreement);
        EquivRow {
            arm: arm.label,
            cells,
            agreement,
            violations,
        }
    };
    arms.into_iter().map(row).collect()
}

/// The table and the per-arm checks of an equivalence matrix.
pub fn equivalence(key: &'static str, title: &str, rows: &[EquivRow]) -> (Table, Vec<Check>) {
    let keyed = |r: &EquivRow| {
        let mut row = r.cells.clone();
        row.extend([
            ("bitwise", r.agreement.bitwise.into()),
            ("min_digits", r.agreement.min_digits.into()),
            ("worst_field", r.agreement.worst_field.as_str().into()),
            ("worst_ulp", r.agreement.worst_ulp.into()),
            ("pass", r.violations.is_empty().into()),
        ]);
        row
    };
    let checks = rows
        .iter()
        .map(|r| Check::all_of(format!("{key}: {}", r.arm), &r.violations))
        .collect();
    (Table::new(key, title, rows.iter().map(keyed)), checks)
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

impl GoldenRunSpec {
    /// The run that blesses `version`'s fixture: the reference layout,
    /// serial static tiles.
    pub fn canonical(version: SbmVersion) -> Self {
        GoldenRunSpec {
            version,
            mode: ExecMode::StaticTiles,
            workers: 1,
            layout: Layout::PointAos,
        }
    }
}

/// The full gate matrix: per version, the arm that blessed its fixture,
/// then {static tiles, work stealing} × `worker_counts` on the
/// production layout.
pub fn gate_matrix(worker_counts: &[usize]) -> Vec<GoldenRunSpec> {
    let mut specs = Vec::new();
    for version in SbmVersion::ALL {
        specs.push(GoldenRunSpec::canonical(version));
        for mode in [ExecMode::StaticTiles, ExecMode::work_steal()] {
            for &workers in worker_counts {
                specs.push(GoldenRunSpec {
                    version,
                    mode,
                    workers,
                    layout: Layout::PanelSoa,
                });
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
    GoldenFixture {
        version: version.label().to_string(),
        case: case_description(),
        digest: run_digest(&GoldenRunSpec::canonical(version), None),
    }
}

/// What the golden policy holds against one digest comparison: every
/// structural mismatch, and every field below its digit floor.
fn floor_violations(cmp: &DigestComparison) -> Vec<String> {
    let mut violations = cmp.structural.clone();
    for f in &cmp.fields {
        let floor = digit_floor(&f.name);
        if f.digits < floor {
            violations.push(format!(
                "{}: {} digits < required {floor} (max_rel {:.3e}, max_abs {:.3e}, rmse {:.3e}, ulp {})",
                f.name, f.digits, f.max_rel, f.max_abs, f.rmse, f.max_ulp
            ));
        }
    }
    violations
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
    fn arm<'a>(
        spec: &GoldenRunSpec,
        vs: &'static str,
        golden: &'a GoldenFixture,
    ) -> Arm<(GoldenRunSpec, &'a StateDigest)> {
        let (version, mode, layout) =
            (spec.version.label(), spec.mode.label(), spec.layout.label());
        Arm {
            spec: (*spec, &golden.digest),
            label: format!("{version} [{mode} w={} {layout}] vs {vs}", spec.workers),
            cells: vec![
                ("version", version.into()),
                ("mode", mode.into()),
                ("workers", spec.workers.into()),
                ("layout", layout.into()),
                ("vs", vs.into()),
            ],
        }
    }
    let baseline = fixture_for(SbmVersion::Baseline.label())?;
    let mut arms = Vec::new();
    for spec in specs {
        arms.push(arm(spec, "self", fixture_for(spec.version.label())?));
        if spec.version != SbmVersion::Baseline {
            arms.push(arm(spec, "baseline", baseline));
        }
    }
    // A spec's two arms are adjacent: one integration serves both.
    let mut last: Option<(GoldenRunSpec, StateDigest)> = None;
    Ok(equivalence_matrix(
        Bar::DigitFloors,
        arms,
        |(spec, golden)| {
            if last.as_ref().map(|(ran, _)| ran) != Some(spec) {
                last = Some((*spec, run_digest(spec, perturb)));
            }
            Sides {
                reference: vec![(*golden).clone()],
                candidate: last.iter().map(|(_, d)| d.clone()).collect(),
                ..Sides::default()
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Cell;
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
        // Under the golden policy the arm fails naming the field; the
        // same pair under the bitwise bar names the two sides instead.
        let (a, b) = ([a], [b]);
        let (agreement, violations) = judge(Bar::DigitFloors, &a, &b);
        assert!(!agreement.bitwise && agreement.min_digits <= 3);
        assert!(
            violations.iter().any(|v| v.contains("T:")),
            "violations: {violations:?}"
        );
        let (_, violations) = judge(Bar::Bitwise("left vs right"), &a, &b);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("left vs right digests differ"));
    }

    /// The one loop behind every equivalence table: cells are the arm's
    /// then the run's, violations the run's then the bar's, and an arm
    /// whose sides differ in length is total disagreement under either
    /// bar.
    #[test]
    fn matrix_rows_carry_arm_then_run() {
        let a = digest_of(&[1.0, 2.0, 3.0]);
        let arms = [SbmVersion::Baseline, SbmVersion::Lookup]
            .map(|v| Arm::version(v, vec![("ranks", 4usize.into())]));
        let rows = equivalence_matrix(Bar::Bitwise("x vs y"), arms, |&version| Sides {
            reference: vec![a.clone()],
            candidate: if version == SbmVersion::Lookup {
                Vec::new()
            } else {
                vec![a.clone()]
            },
            cells: vec![("queue_secs", Cell::num(0.5, 3))],
            violations: vec!["found by the run".into()],
        });
        assert_eq!(rows[0].arm, "baseline");
        let keys: Vec<&str> = rows[0].cells.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["version", "ranks", "queue_secs"]);
        assert!(rows[0].agreement.bitwise);
        assert_eq!(rows[0].violations, ["found by the run"]);
        assert_eq!(rows[1].agreement.min_digits, 0);
        assert_eq!(rows[1].violations.len(), 2, "{:?}", rows[1].violations);
        let (_, v) = judge(Bar::DigitFloors, &[a], &[]);
        assert_eq!(v, ["0 states compared against 1"]);
        assert!(Sides::failed("never ran".into()).candidate.is_empty());
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
        assert_eq!(specs.len(), 4 * (1 + 2 * 2));
        assert!(specs
            .iter()
            .any(|s| s.version == SbmVersion::OffloadCollapse3
                && s.mode == ExecMode::work_steal()
                && s.workers == 3
                && s.layout == Layout::PanelSoa));
    }

    /// The matrix, by name: `SbmVersion::ALL` × {static-tiles,
    /// work-stealing+compaction} × {1, 3} on `panel-soa`, plus per
    /// version the one `point-aos` arm — which is the spec that blesses
    /// the fixture, so each fixture is written from the reference layout
    /// and checked against the production one.
    #[test]
    fn matrix_is_production_layout_plus_the_blessing_arm() {
        let name = |s: &GoldenRunSpec| {
            let (mode, layout) = (s.mode.label(), s.layout.label());
            format!("{} [{mode} w={} {layout}]", s.version.label(), s.workers)
        };
        let got: Vec<String> = gate_matrix(&[1, 3]).iter().map(name).collect();
        let mut want = Vec::new();
        for version in SbmVersion::ALL.map(SbmVersion::label) {
            want.push(format!("{version} [static-tiles w=1 point-aos]"));
            for mode in ["static-tiles", "work-stealing+compaction"] {
                for workers in [1, 3] {
                    want.push(format!("{version} [{mode} w={workers} panel-soa]"));
                }
            }
        }
        assert_eq!(got, want);
        for version in SbmVersion::ALL {
            let blessing = GoldenRunSpec::canonical(version);
            assert_eq!(name(&blessing), want[5 * version as usize]);
            assert_eq!(
                gate_matrix(&[1, 3])
                    .iter()
                    .filter(|s| s.layout == Layout::PointAos && s.version == version)
                    .collect::<Vec<_>>(),
                [&blessing]
            );
        }
        // `bless_fixture` runs exactly that spec (one version here;
        // `tests/gate.rs` holds all four against the committed files).
        let blessing = GoldenRunSpec::canonical(SbmVersion::Lookup);
        assert_eq!(
            bless_fixture(SbmVersion::Lookup).digest,
            run_digest(&blessing, None)
        );
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
