//! Digest comparison: the `diffwrf` methodology every equivalence gate
//! reports with.
//!
//! [`compare_digests`] holds a candidate end-state digest
//! ([`fsbm_core::digest`]) against a reference one field by field, with
//! diffwrf-style statistics: digits of agreement, max relative error,
//! ULP distance. The committed fixtures (`goldens/*.golden`,
//! [`crate::fixture`]) pin one end state each and are checked by the
//! cases gate ([`crate::cases`]).
//!
//! [`equivalence_matrix`] is the one loop behind every digest-equivalence
//! table of the gates: arms in, [`EquivRow`]s out, each arm's two sides
//! required bitwise-identical.

use crate::report::{Check, Row, Table};
use fsbm_core::digest::{fnv1a_step, ulp_distance, StateDigest, FNV1A_OFFSET};
use fsbm_core::scheme::{Layout, SbmVersion};
use fsbm_core::state::SbmPatchState;
use wrf_cases::diffwrf::{denom_floor, digits_of};

/// Per-field comparison statistics: the `diffwrf` digits and relative
/// error, plus ULP distance.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldComparison {
    /// Variable or moment name.
    pub name: String,
    /// True when the checksums (fields) or exact values (moments) match.
    pub bitwise: bool,
    /// Maximum relative difference over samples and statistics.
    pub max_rel: f64,
    /// Maximum ULP distance over the sampled values (0 for moments).
    pub max_ulp: u32,
    /// Agreed significant digits: `floor(−log₁₀ max_rel)`, 15 when exact.
    pub digits: u32,
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
        let mut max_ulp = 0u32;
        for (&gb, &cb) in g.samples.iter().zip(&c.samples) {
            if gb == cb {
                continue;
            }
            let (x, y) = (f32::from_bits(gb), f32::from_bits(cb));
            if !x.is_finite() || !y.is_finite() {
                // Non-finite on one side: force the worst verdict
                // rather than letting NaN vanish inside f64::max.
                max_rel = f64::INFINITY;
                max_ulp = u32::MAX;
                continue;
            }
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
            max_ulp: 0,
            digits: digits_of(r),
        });
    }
    DigestComparison { fields, structural }
}

/// Combined bitwise checksum of a digest: FNV-style fold of every field
/// checksum, order-sensitive (the one-token state identity of the zoo
/// report's `bitwise` table).
pub fn combined_checksum(digest: &StateDigest) -> u64 {
    (digest.fields.iter()).fold(FNV1A_OFFSET, |h, f| fnv1a_step(h, f.checksum))
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

/// How `candidate` agrees with `reference`, state by state (rank by
/// rank, member by member), and the violation when they are not
/// bit-identical (the §VII-B bar applied to a layer that may move time,
/// never arithmetic); `what` names the two sides in it (`Blocking vs
/// Overlapped`). A length mismatch is total disagreement.
pub fn judge(
    what: &str,
    reference: &[StateDigest],
    candidate: &[StateDigest],
) -> (StateAgreement, Option<String>) {
    let mut agreement = StateAgreement::full();
    if reference.len() != candidate.len() {
        agreement.bitwise = false;
        agreement.min_digits = 0;
    }
    for (g, c) in reference.iter().zip(candidate) {
        agreement.fold(&compare_digests(g, c));
    }
    let violation = agreement.violation(what);
    (agreement, violation)
}

/// Compares two runs' end states bitwise.
pub fn compare_states(a: &[SbmPatchState], b: &[SbmPatchState]) -> StateAgreement {
    let sides = Sides::of_states(a, b);
    judge("", &sides.reference, &sides.candidate).0
}

/// One arm of a digest-equivalence matrix — the row every equivalence
/// gate (comm, fault, share, ensemble, cases) reports.
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

/// The arms of a reproducibility matrix, per version: `reference` on
/// the reference layout (the baseline's is the canonical run itself),
/// then each of `production` on the production layout — so every
/// version is pinned in both layouts. `label` names a setting.
pub(crate) fn layout_arms<M: Copy>(
    reference: M,
    production: &[M],
    label: impl Fn(M) -> String,
) -> Vec<Arm<(SbmVersion, Layout, M)>> {
    let mut arms = Vec::new();
    for version in SbmVersion::ALL {
        let aos = (version != SbmVersion::Baseline).then_some((Layout::PointAos, reference));
        let soa = production.iter().map(|&m| (Layout::PanelSoa, m));
        arms.extend(aos.into_iter().chain(soa).map(|(layout, m)| Arm {
            spec: (version, layout, m),
            label: format!("{} [{} {}]", version.label(), label(m), layout.label()),
            cells: Vec::new(),
        }));
    }
    arms
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
/// sides required bitwise-identical ([`judge`]; `what` names them).
pub fn equivalence_matrix<S>(
    what: &str,
    arms: impl IntoIterator<Item = Arm<S>>,
    mut run: impl FnMut(&S) -> Sides,
) -> Vec<EquivRow> {
    let row = |arm: Arm<S>| {
        let sides = run(&arm.spec);
        let (agreement, disagreement) = judge(what, &sides.reference, &sides.candidate);
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
        // The arm fails naming the two sides and the worst field.
        let (agreement, violation) = judge("left vs right", &[a], &[b]);
        assert!(!agreement.bitwise && agreement.min_digits <= 3);
        let violation = violation.expect("a violation");
        assert!(
            violation.starts_with("left vs right digests differ") && violation.contains("worst"),
            "{violation}"
        );
    }

    /// The one loop behind every equivalence table: cells are the arm's
    /// then the run's, violations the run's then the disagreement, and
    /// an arm whose sides differ in length is total disagreement.
    #[test]
    fn matrix_rows_carry_arm_then_run() {
        let a = digest_of(&[1.0, 2.0, 3.0]);
        let arms = [SbmVersion::Baseline, SbmVersion::Lookup]
            .map(|v| Arm::version(v, vec![("ranks", 4usize.into())]));
        let rows = equivalence_matrix("x vs y", arms, |&version| Sides {
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
        let (_, v) = judge("x vs y", &[a], &[]);
        assert_eq!(
            v.as_deref(),
            Some("x vs y digests differ (min digits 0, worst )")
        );
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
        let arms = layout_arms("serial", &["serial", "stealing"], str::to_string);
        assert_eq!(arms.len(), 3 + 4 * 2);
        for version in SbmVersion::ALL {
            for mode in ["serial", "stealing"] {
                assert!(
                    arms.iter()
                        .any(|a| a.spec == (version, Layout::PanelSoa, mode)),
                    "{} {mode} missing",
                    version.label()
                );
            }
        }
    }

    /// The matrix, by name: per version its one reference-layout arm,
    /// then every production setting on the production layout. The
    /// baseline has no reference-layout arm: its serial reference-layout
    /// run is the canonical one that blesses the fixture, every arm's
    /// reference side.
    #[test]
    fn matrix_is_production_layout_plus_the_blessing_arm() {
        let arms = layout_arms("ref", &["a", "b"], str::to_string);
        let got: Vec<&str> = arms.iter().map(|a| a.label.as_str()).collect();
        let mut want = Vec::new();
        for version in SbmVersion::ALL.map(SbmVersion::label) {
            if version != SbmVersion::Baseline.label() {
                want.push(format!("{version} [ref point-aos]"));
            }
            want.push(format!("{version} [a panel-soa]"));
            want.push(format!("{version} [b panel-soa]"));
        }
        assert_eq!(got, want);
        for version in SbmVersion::ALL {
            let aos: Vec<_> = (arms.iter())
                .filter(|a| a.spec.0 == version && a.spec.1 == Layout::PointAos)
                .map(|a| a.spec.2)
                .collect();
            let want: &[&str] = if version == SbmVersion::Baseline {
                &[]
            } else {
                &["ref"]
            };
            assert_eq!(aos, want, "{}", version.label());
        }
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
