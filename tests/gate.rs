//! End-to-end tests of the fixture check of the cases gate
//! (`repro cases`): `goldens/` holds one fixture per state and every
//! case's canonical run re-blesses it byte for byte, the gate case's
//! state passes every arm bitwise, a fixture that has drifted fails
//! naming the worst field by digits of agreement, and a missing fixture
//! names the one bless command.

use std::sync::OnceLock;
use wrf_offload_repro::wrf_cases::CaseKind;
use wrf_offload_repro::wrf_gate::cases::{
    bless_case_fixture, bless_nested_fixture, canonical_case_state, case_check, fixture_check,
    report, CaseCheck, NestPins,
};
use wrf_offload_repro::wrf_gate::golden::StateAgreement;

fn goldens() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// The cases check of the gate case's state (`ModelConfig::gate`'s,
/// which every scheme version reproduces), run once for the tests that
/// read it.
fn conus_check() -> &'static CaseCheck {
    static CHECK: OnceLock<CaseCheck> = OnceLock::new();
    CHECK.get_or_init(|| case_check(CaseKind::Conus, &goldens()).expect("committed fixture"))
}

#[test]
fn clean_tree_passes_the_golden_gate_bitwise() {
    let check = conus_check();
    assert!(check.violations.is_empty(), "{:?}", check.violations);
    // Every arm — any version, either layout, either scheduler —
    // reproduces the canonical run bit for bit (the §VII-B claim,
    // strengthened): three reference-layout arms (the baseline's is the
    // canonical run) and two production arms per version.
    assert_eq!(check.matrix_runs, 3 + 4 * 2);
    assert!(check.bitwise && check.comm_bitwise);
    // The canonical run reproduces the committed fixture bit for bit.
    assert!(check.golden.bitwise && check.golden.min_digits == 15);
}

#[test]
fn gate_report_merges_and_serializes() {
    // The case axis alone; the nest pins are at their passing value.
    let pins = NestPins {
        matrix: Vec::new(),
        golden: StateAgreement::full(),
        parent_matches_case: true,
    };
    let rep = report(std::slice::from_ref(conus_check()), &pins, &[], &[], &[]);
    assert!(rep.pass(), "{:?}", rep.violations());
    let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
    assert!(labels.contains(&"case conus"), "{labels:?}");
    assert!(labels.contains(&"tail census: conus"), "{labels:?}");
    // One case, one line of the per-case table (the writer's layout).
    let json = rep.to_json();
    assert!(json.contains("\n  \"pass\": true,\n"), "{json}");
    let (_, table) = json.split_once("    \"cases\": [\n").expect("cases table");
    let (rows, _) = table.split_once("\n    ]").expect("table closes");
    assert_eq!(rows.lines().count(), 1, "{json}");
    assert!(
        rows.contains("\"case\": \"conus\", \"matrix_runs\": 11"),
        "{json}"
    );
    assert!(rep.rendered().contains("cases gate: PASS"));
}

#[test]
fn perturbed_fixture_fails_and_names_the_worst_field() {
    // A fixture whose liquid-water distribution sits 5e-4 off the run:
    // far below eyeball visibility, far above bitwise.
    let kind = CaseKind::Conus;
    let end = canonical_case_state(kind);
    let mut drifted = end.clone();
    for v in drifted.ff[0].as_mut_slice() {
        *v *= 1.0 + 5.0e-4;
    }
    let (agreement, violation) = fixture_check("case_conus", &drifted.digest(), &end.digest());
    // The worst field by digits of agreement must be FF1 or its moments.
    assert!(
        agreement.worst_field.contains("FF1"),
        "worst field {}",
        agreement.worst_field
    );
    assert!(agreement.min_digits <= 4, "digits {}", agreement.min_digits);
    assert!(!agreement.bitwise);
    let violation = violation.expect("a drifted fixture fails");
    assert!(
        violation.starts_with("canonical run drifted from goldens/case_conus.golden")
            && violation.contains("FF1"),
        "the violation must name the fixture and the field: {violation}"
    );
    // The run against itself passes, bitwise.
    let (agreement, violation) = fixture_check("case_conus", &end.digest(), &end.digest());
    assert!(agreement.bitwise && violation.is_none());
}

#[test]
fn missing_case_fixture_names_the_bless_command() {
    let empty = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_goldens");
    let err = case_check(CaseKind::Supercell, &empty).unwrap_err();
    assert!(err.contains("case_supercell.golden"), "{err}");
    assert!(err.contains("run `repro cases --bless`"), "{err}");
}

#[test]
fn committed_goldens_match_current_physics() {
    // One fixture per state: the five cases and the nested child, and
    // nothing else (the gate case's state is `case_conus`).
    let mut names: Vec<String> = std::fs::read_dir(goldens())
        .expect("goldens dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut want: Vec<String> = CaseKind::ALL
        .into_iter()
        .map(|kind| format!("case_{}.golden", kind.slug()))
        .chain(["case_nested.golden".to_string()])
        .collect();
    want.sort();
    assert_eq!(names, want);
    // Each canonical run re-blesses its committed fixture byte for byte:
    // what `repro cases --bless` would write is what is committed.
    let committed = |stem: &str| {
        std::fs::read_to_string(goldens().join(format!("{stem}.golden"))).expect("fixture")
    };
    for kind in CaseKind::ALL {
        let stem = format!("case_{}", kind.slug());
        assert!(
            bless_case_fixture(kind).rendered() == committed(&stem),
            "{stem}: committed golden diverged from the canonical run"
        );
    }
    let nested = bless_nested_fixture().expect("nested run");
    assert!(
        nested.rendered() == committed("case_nested"),
        "case_nested: committed golden diverged from the canonical run"
    );
}
