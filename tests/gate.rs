//! End-to-end tests of the reproduction gate (`repro gate`).
//!
//! These exercise the same paths the CI gate runs, on reduced matrices:
//! golden fixtures round-trip through the committed text format, a clean
//! tree passes bitwise, a perturbed run fails naming the worst field by
//! digits of agreement.

use wrf_offload_repro::fsbm_core::exec::ExecMode;
use wrf_offload_repro::fsbm_core::scheme::{Layout, SbmVersion};
use wrf_offload_repro::wrf_gate::golden::{bless_fixture, run_golden_gate, GoldenRunSpec};
use wrf_offload_repro::wrf_gate::{gate_report, GoldenFixture};

/// A reduced golden matrix under the rule of the full one
/// (`golden::gate_matrix`): two versions, each the arm that blesses its
/// fixture (reference layout), then both modes × two worker counts on
/// the production layout.
fn reduced_matrix() -> Vec<GoldenRunSpec> {
    let mut specs = Vec::new();
    for version in [SbmVersion::Baseline, SbmVersion::OffloadCollapse2] {
        specs.push(GoldenRunSpec::canonical(version));
        for mode in [ExecMode::StaticTiles, ExecMode::work_steal()] {
            for workers in [1usize, 2] {
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

fn fixtures() -> Vec<GoldenFixture> {
    // Round-trip through the committed text format so the fixtures the
    // comparisons see are exactly what a checkout would parse.
    [SbmVersion::Baseline, SbmVersion::OffloadCollapse2]
        .into_iter()
        .map(|v| GoldenFixture::parse(&bless_fixture(v).rendered()).expect("fixture round-trip"))
        .collect()
}

#[test]
fn clean_tree_passes_the_golden_gate_bitwise() {
    let rows = run_golden_gate(&reduced_matrix(), &fixtures(), None).expect("gate runs");
    let report = gate_report(&rows);
    assert!(report.pass(), "violations: {:?}", report.violations());
    // Every run — any version, any mode, any worker count — reproduces
    // its fixture bit for bit (the §VII-B claim, strengthened).
    assert!(rows
        .iter()
        .all(|r| r.agreement.bitwise && r.agreement.min_digits == 15));
    // Cross-version comparisons are present, not just same-version.
    assert!(rows.iter().any(|r| r.arm.ends_with("vs baseline")));
    // The assertion inventory: one check per (run, fixture) comparison —
    // the five baseline runs against themselves, the five collapse(2)
    // runs against both. The one point-aos label per version is the
    // blessing arm's.
    let labels: Vec<&str> = report.checks.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels.len(), 5 + 2 * 5);
    assert_eq!(
        labels[0],
        "golden: baseline [static-tiles w=1 point-aos] vs self"
    );
    assert_eq!(
        labels[1],
        "golden: baseline [static-tiles w=1 panel-soa] vs self"
    );
    let aos: Vec<&&str> = labels.iter().filter(|l| l.contains("point-aos")).collect();
    assert_eq!(
        aos,
        [
            &"golden: baseline [static-tiles w=1 point-aos] vs self",
            &"golden: offload collapse(2) [static-tiles w=1 point-aos] vs self",
            &"golden: offload collapse(2) [static-tiles w=1 point-aos] vs baseline",
        ]
    );
    assert_eq!(
        labels.iter().filter(|l| l.ends_with("vs baseline")).count(),
        5
    );
}

#[test]
fn perturbed_run_fails_and_names_the_worst_field() {
    // Perturb in the 4th significant digit: far below eyeball
    // visibility, far above bitwise.
    let rows =
        run_golden_gate(&reduced_matrix()[..2], &fixtures(), Some(5.0e-4)).expect("gate runs");
    let report = gate_report(&rows);
    assert!(!report.pass());
    let agreement = &rows[0].agreement;
    // The perturbation hits the liquid-water distribution; the worst
    // field by digits of agreement must be FF1 or its moments.
    assert!(
        agreement.worst_field.contains("FF1"),
        "worst field {}",
        agreement.worst_field
    );
    assert!(agreement.min_digits <= 4, "digits {}", agreement.min_digits);
    assert!(!agreement.bitwise);
    let v = report.violations().join("\n");
    assert!(v.contains("FF1"), "violations must name the field: {v}");
}

#[test]
fn golden_gate_requires_a_baseline_fixture() {
    let only_c2: Vec<GoldenFixture> = fixtures()
        .into_iter()
        .filter(|f| f.version != SbmVersion::Baseline.label())
        .collect();
    let err = run_golden_gate(&reduced_matrix()[..1], &only_c2, None).unwrap_err();
    assert!(err.contains("--bless"), "{err}");
}

#[test]
fn committed_goldens_match_current_physics() {
    // The committed version fixtures under goldens/ must reproduce from
    // a fresh serial run — the same check `repro gate` performs, reduced
    // to the canonical (static-tiles, 1 worker) runs. The directory also
    // holds the case-library fixtures (`case:` version namespace, gated
    // by `repro cases`); they must stay invisible to the version lookup.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    let fixtures = wrf_offload_repro::wrf_gate::load_fixtures(&dir).expect("committed fixtures");
    assert_eq!(fixtures.len(), 10);
    assert_eq!(
        fixtures
            .iter()
            .filter(|f| f.version.starts_with("case:"))
            .count(),
        6
    );
    for version in SbmVersion::ALL {
        let spec = GoldenRunSpec::canonical(version);
        let rows = run_golden_gate(&[spec], &fixtures, None).expect("fixture per version");
        let check = &rows[0];
        assert!(check.arm.ends_with("point-aos] vs self"), "{}", check.arm);
        assert!(
            check.violations.is_empty(),
            "{}: committed golden diverged: {:?}",
            version.label(),
            check.violations
        );
        assert!(check.agreement.bitwise, "{}: not bitwise", version.label());
    }
}

#[test]
fn gate_report_merges_and_serializes() {
    let golden = run_golden_gate(&reduced_matrix()[..1], &fixtures(), None).unwrap();
    let report = gate_report(&golden);
    assert!(report.pass());
    // One golden row, one line of the table (the writer's layout).
    let json = report.to_json();
    assert!(json.contains("\n  \"pass\": true,\n"), "{json}");
    let (_, table) = json
        .split_once("    \"golden\": [\n")
        .expect("golden table");
    let (rows, _) = table.split_once("\n    ]").expect("table closes");
    assert_eq!(rows.lines().count(), 1, "{json}");
    let text = report.rendered();
    assert!(text.contains("gate: PASS"));
}
