//! The case-library gate (`repro cases`): per-case golden digests,
//! activity bands, comm equivalence, and nested-vs-solo agreement.
//!
//! Four enforced claims about the idealized case library and the
//! one-way nest:
//!
//! * **Reproducibility** — every library case (plus the legacy CONUS
//!   default) produces *bitwise-identical* end-of-run digests across
//!   all four scheme versions × both schedulers × both memory layouts,
//!   and the canonical run matches its committed
//!   `goldens/case_<slug>.golden` fixture under the golden policy.
//! * **Comm equivalence** — each case decomposed over two ranks
//!   digests identically under blocking and overlapped halo exchange.
//! * **Activity bands** — each case's column-activity fraction lands in
//!   its pinned band ([`CaseKind::activity_band`]), the library bands
//!   are disjoint, and the fractions stay in-band across the sweep
//!   scales (the standing `BENCH_cases.json` axis; PRs run the shallow
//!   sweep, the nightly arm the deep one — [`crate::Depth`]).
//! * **Nesting** — the pinned nested configuration
//!   ([`ModelConfig::GATE_NEST`] over the squall-line case) digests
//!   identically across versions × layouts × comm modes, its child
//!   matches `goldens/case_nested.golden`, its parent matches the
//!   squall-line case fixture (one-way nesting never feeds back), and
//!   every case's nested child agrees with a solo fine-grid run of the
//!   child region to the case's documented interior digit floor.
//!
//! The report is written to `BENCH_cases.json`; any violation makes
//! `repro cases` exit nonzero.

use crate::fixture::GoldenFixture;
use crate::golden::{compare_digests, compare_states, StateAgreement, MIN_STATE_DIGITS};
use crate::report::{Cell, Check, Report, Table};
use fsbm_core::digest::StateDigest;
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmVersion};
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use miniwrf::nest::{interior_max_rel, run_nested, run_solo_fine};
use miniwrf::parallel::run_parallel;
use mpi_sim::CommMode;
use prof_sim::{case_line, nest_line};
use std::path::{Path, PathBuf};
use wrf_cases::{CaseKind, ConusCase};

/// Ranks of the per-case comm-equivalence runs.
const RANKS: usize = 2;
/// Worker count of the work-stealing matrix arm.
const WORKERS: usize = 3;
/// Interior margin (child cells shaved off each lateral side) of the
/// nested-vs-solo comparison.
const NEST_MARGIN: i32 = 5;

/// Documented interior digit floor of the nested-vs-solo comparison at
/// margin 5, per case. Measured agreement at the gate configuration is
/// well above each floor (supercell 2.0, squall line 3.6, CONUS 3.7,
/// orographic 5.5, shallow convection 7.0 digits); the floors leave
/// headroom for toolchain drift while still catching a broken boundary
/// injection, which collapses agreement to ~0–1 digits.
pub fn nest_digit_floor(kind: CaseKind) -> f64 {
    match kind {
        CaseKind::Conus => 3.0,
        CaseKind::SquallLine => 3.0,
        CaseKind::Supercell => 1.7,
        CaseKind::Orographic => 4.5,
        CaseKind::ShallowConvection => 6.0,
    }
}

/// One case's reproducibility + activity outcome.
#[derive(Debug, Clone)]
pub struct CaseCheck {
    /// Case slug.
    pub case: &'static str,
    /// Runs in the version × scheduler × layout matrix.
    pub matrix_runs: usize,
    /// True when every matrix run digested identically.
    pub bitwise: bool,
    /// How the canonical run agreed with the committed fixture.
    pub golden: StateAgreement,
    /// True when the multi-rank blocking and overlapped runs agreed.
    pub comm_bitwise: bool,
    /// Column-activity fraction at gate scale.
    pub activity: f64,
    /// The case's pinned activity band.
    pub band: (f64, f64),
    /// Canonical digest checksum of the `T` field (table/summary key).
    pub checksum: u64,
    /// Failure details (empty when passing).
    pub violations: Vec<String>,
}

/// One case's nested-vs-solo agreement outcome.
#[derive(Debug, Clone)]
pub struct NestCheck {
    /// Case slug.
    pub case: &'static str,
    /// Interior digits of agreement (nested child vs solo fine run).
    pub interior_digits: f64,
    /// The case's documented floor.
    pub floor: f64,
    /// True when `interior_digits >= floor`.
    pub pass: bool,
}

/// One activity-sweep sample.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Case slug.
    pub case: &'static str,
    /// Horizontal scale of the sample.
    pub scale: f64,
    /// Column-activity fraction at that scale.
    pub activity: f64,
    /// True when the fraction is inside the case's band.
    pub in_band: bool,
}

/// How the pinned nested configuration reproduced.
#[derive(Debug, Clone)]
pub struct NestPins {
    /// True when the nested matrix (versions × layouts × comm modes)
    /// digested identically (parent and child).
    pub matrix_bitwise: bool,
    /// How the canonical nested child agreed with its fixture.
    pub golden: StateAgreement,
    /// True when the nested parent matched the squall-line case fixture
    /// (one-way nesting leaves the parent untouched).
    pub parent_matches_case: bool,
}

/// Assembles the cases report from its axes.
pub fn report(
    checks: &[CaseCheck],
    pins: &NestPins,
    nest: &[NestCheck],
    sweep: &[SweepPoint],
    sweep_scales: &[f64],
) -> Report {
    // No colon after `case`: CI greps `^case: ` for the summary lines.
    let mut out: Vec<Check> = checks
        .iter()
        .map(|c| Check::all_of(format!("case {}", c.case), &c.violations))
        .collect();
    let disjoint = bands_disjoint();
    out.push(Check::new(
        "library activity bands disjoint",
        disjoint,
        "library activity bands overlap",
    ));
    out.push(Check::new(
        "nest matrix bitwise",
        pins.matrix_bitwise,
        "nested matrix diverged across versions/layouts/comm modes",
    ));
    out.push(Check::new(
        "nest child vs golden",
        pins.golden.bitwise,
        format!(
            "nested child drifted from goldens/case_nested.golden (min digits {})",
            pins.golden.min_digits
        ),
    ));
    out.push(Check::new(
        "nest parent vs case golden",
        pins.parent_matches_case,
        "nested parent diverged from the un-nested squall-line run",
    ));
    out.extend(nest.iter().map(|n| {
        let detail = format!(
            "interior digits {:.2} < floor {:.2}",
            n.interior_digits, n.floor
        );
        Check::new(format!("nest floor: {}", n.case), n.pass, detail)
            .bounded(n.interior_digits, n.floor)
    }));
    out.extend(sweep.iter().map(|p| {
        Check::new(
            format!("sweep in band: {} @ {}", p.case, p.scale),
            p.in_band,
            format!("activity {:.4} outside band", p.activity),
        )
    }));
    let cases = Table::new(
        "cases",
        "per-case digest table",
        &[
            "case",
            "matrix_runs",
            "bitwise",
            "golden_bitwise",
            "min_digits",
            "worst_field",
            "comm_bitwise",
            "activity",
            "band",
            "checksum",
            "pass",
        ],
        checks.iter().map(|c| {
            vec![
                c.case.into(),
                c.matrix_runs.into(),
                c.bitwise.into(),
                c.golden.bitwise.into(),
                c.golden.min_digits.into(),
                c.golden.worst_field.as_str().into(),
                c.comm_bitwise.into(),
                Cell::num(c.activity, 6),
                Cell::List(vec![c.band.0.into(), c.band.1.into()]),
                format!("{:016x}", c.checksum).into(),
                c.violations.is_empty().into(),
            ]
        }),
    );
    let gn = ModelConfig::GATE_NEST;
    let pins_table = Table::new(
        "pins",
        format!(
            "library bands; one-way nest (ratio {} over {}x{} parent cells, margin {NEST_MARGIN})",
            gn.ratio, gn.w, gn.h
        ),
        &[
            "bands_disjoint",
            "matrix_bitwise",
            "golden_bitwise",
            "min_digits",
            "parent_matches_case",
        ],
        [vec![
            disjoint.into(),
            pins.matrix_bitwise.into(),
            pins.golden.bitwise.into(),
            pins.golden.min_digits.into(),
            pins.parent_matches_case.into(),
        ]],
    );
    let nest_table = Table::new(
        "nest",
        "nested child vs solo fine-grid run, interior digits",
        &["case", "interior_digits", "floor", "pass"],
        nest.iter().map(|n| {
            vec![
                n.case.into(),
                Cell::num(n.interior_digits, 3),
                n.floor.into(),
                n.pass.into(),
            ]
        }),
    );
    let sweep_table = Table::new(
        "sweep",
        "activity sweep",
        &["case", "scale", "activity", "in_band"],
        sweep.iter().map(|p| {
            vec![
                p.case.into(),
                p.scale.into(),
                Cell::num(p.activity, 6),
                p.in_band.into(),
            ]
        }),
    );
    let mut lines: Vec<String> = checks
        .iter()
        .map(|c| {
            case_line(
                c.case, c.activity, c.band.0, c.band.1, c.checksum, c.bitwise,
            )
        })
        .collect();
    lines.extend(
        nest.iter()
            .map(|n| nest_line(n.case, gn.ratio, n.interior_digits, n.floor, n.pass)),
    );
    lines.extend(sweep.iter().map(|p| {
        format!(
            "sweep: {} scale={} activity={:.4} {}",
            p.case,
            p.scale,
            p.activity,
            if p.in_band { "in-band" } else { "OUT-OF-BAND" }
        )
    }));
    Report {
        gate: "cases",
        case: vec![
            ("ranks", RANKS.into()),
            ("workers", WORKERS.into()),
            ("nest_margin", NEST_MARGIN.into()),
            (
                "sweep_scales",
                Cell::List(sweep_scales.iter().map(|&x| x.into()).collect()),
            ),
        ],
        checks: out,
        tables: vec![cases, pins_table, nest_table, sweep_table],
        lines,
    }
}

/// Filename stem of a case fixture (`goldens/case_<slug>.golden`).
pub fn case_fixture_name(kind: CaseKind) -> String {
    format!("case_{}", kind.slug())
}

/// Human description written into a case fixture.
fn case_fixture_description(kind: CaseKind) -> String {
    format!(
        "case={} scale={} nz={} steps={}",
        kind.slug(),
        ModelConfig::GATE_SCALE,
        ModelConfig::GATE_NZ,
        ModelConfig::GATE_STEPS
    )
}

/// The case the pinned nested configuration runs (squall line: strong
/// through-flow exercises the boundary injection hardest among the
/// cases with >2 interior digits of headroom).
pub const NEST_CASE: CaseKind = CaseKind::SquallLine;

/// Runs one matrix entry of one case and digests the end state.
fn case_digest(
    kind: CaseKind,
    version: SbmVersion,
    mode: ExecMode,
    workers: usize,
    layout: Layout,
) -> StateDigest {
    let mut cfg = ModelConfig::case_gate(kind, version, mode, workers);
    cfg.layout = layout;
    let mut m = Model::single_rank(cfg);
    m.run(ModelConfig::GATE_STEPS);
    m.state.digest()
}

/// Builds the canonical committable fixture for one case.
pub fn bless_case_fixture(kind: CaseKind) -> GoldenFixture {
    // The `version` label is deliberately NOT an `SbmVersion::label()`:
    // the main golden gate loads every `goldens/*.golden` and looks
    // fixtures up by version label, so case fixtures carry a disjoint
    // `case:` namespace to stay invisible to it.
    GoldenFixture {
        version: format!("case:{}", kind.slug()),
        case: case_fixture_description(kind),
        digest: case_digest(
            kind,
            SbmVersion::Baseline,
            ExecMode::StaticTiles,
            1,
            Layout::PointAos,
        ),
    }
}

/// The canonical nested configuration of the gate.
fn nested_cfg(version: SbmVersion, layout: Layout, comm: CommMode) -> ModelConfig {
    let mut cfg = ModelConfig::case_gate(NEST_CASE, version, ExecMode::StaticTiles, 1);
    cfg.layout = layout;
    cfg.comm = comm;
    cfg.nest = Some(ModelConfig::GATE_NEST);
    cfg
}

/// Builds the canonical committable fixture pinning the nested child.
pub fn bless_nested_fixture() -> Result<GoldenFixture, String> {
    let run = run_nested(
        nested_cfg(SbmVersion::Baseline, Layout::PointAos, CommMode::Blocking),
        ModelConfig::GATE_STEPS,
    )?;
    Ok(GoldenFixture {
        version: "case:nested".to_string(),
        case: format!(
            "nested {} ratio={} i0={} j0={} w={} h={} steps={}",
            NEST_CASE.slug(),
            ModelConfig::GATE_NEST.ratio,
            ModelConfig::GATE_NEST.i0,
            ModelConfig::GATE_NEST.j0,
            ModelConfig::GATE_NEST.w,
            ModelConfig::GATE_NEST.h,
            ModelConfig::GATE_STEPS
        ),
        digest: run.child.digest(),
    })
}

/// Writes the five case fixtures plus the nested-child fixture into
/// `dir` (the `repro cases --bless` path).
pub fn bless_cases(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut written = Vec::new();
    for kind in CaseKind::ALL {
        written.push(bless_case_fixture(kind).write_to(dir, &case_fixture_name(kind))?);
    }
    written.push(bless_nested_fixture()?.write_to(dir, "case_nested")?);
    Ok(written)
}

/// Loads one named fixture from `dir`.
fn load_fixture(dir: &Path, stem: &str) -> Result<GoldenFixture, String> {
    GoldenFixture::read_from(&dir.join(format!("{stem}.golden")))
        .map_err(|e| format!("{e} — run `repro cases --bless`"))
}

/// Column-activity fraction of `kind` at `scale` (analytic, no model
/// run needed).
pub fn activity_fraction(kind: CaseKind, scale: f64) -> f64 {
    let case = ConusCase::new(kind.params(scale));
    let dd = wrf_grid::two_d_decomposition(case.params.domain(), 1, 3);
    let act = case.activity(&dd.patches[0]);
    act.active_columns as f64 / act.columns.max(1) as f64
}

/// Checks whether the library bands are pairwise disjoint.
fn bands_disjoint() -> bool {
    let mut bands: Vec<(f64, f64)> = CaseKind::LIBRARY
        .iter()
        .map(|k| k.activity_band())
        .collect();
    bands.sort_by(|a, b| a.0.total_cmp(&b.0));
    bands.windows(2).all(|w| w[0].1 < w[1].0)
}

/// Gates one case: the reproducibility matrix, the committed fixture,
/// comm equivalence, and the activity band.
pub fn case_check(kind: CaseKind, goldens_dir: &Path) -> Result<CaseCheck, String> {
    let fixture = load_fixture(goldens_dir, &case_fixture_name(kind))?;
    let mut violations = Vec::new();

    // Reproducibility matrix: versions × schedulers × layouts, all
    // single-rank, all required bitwise-identical.
    let canonical = case_digest(
        kind,
        SbmVersion::Baseline,
        ExecMode::StaticTiles,
        1,
        Layout::PointAos,
    );
    let mut matrix_runs = 0usize;
    let mut bitwise = true;
    for version in SbmVersion::ALL {
        for (mode, workers) in [
            (ExecMode::StaticTiles, 1),
            (ExecMode::work_steal(), WORKERS),
        ] {
            for layout in Layout::ALL {
                matrix_runs += 1;
                let d = case_digest(kind, version, mode, workers, layout);
                if !compare_digests(&canonical, &d).bitwise() {
                    bitwise = false;
                    violations.push(format!(
                        "{} {:?} w{} {:?} diverged from the canonical run",
                        version.label(),
                        mode,
                        workers,
                        layout
                    ));
                }
            }
        }
    }

    // Canonical vs the committed fixture, under the golden policy.
    let golden = StateAgreement::of(&compare_digests(&fixture.digest, &canonical));
    if golden.min_digits < MIN_STATE_DIGITS && !golden.bitwise {
        violations.push(format!(
            "canonical run drifted from goldens/{}.golden: {} digits (worst {})",
            case_fixture_name(kind),
            golden.min_digits,
            golden.worst_field
        ));
    }

    // Comm equivalence on a small decomposition.
    let mut comm_cfg =
        ModelConfig::case_gate(kind, SbmVersion::Lookup, ExecMode::work_steal(), WORKERS);
    comm_cfg.ranks = RANKS;
    comm_cfg.comm = CommMode::Blocking;
    let blocking = run_parallel(comm_cfg, ModelConfig::GATE_STEPS);
    comm_cfg.comm = CommMode::Overlapped;
    let overlapped = run_parallel(comm_cfg, ModelConfig::GATE_STEPS);
    let comm_bitwise = compare_states(&blocking.states, &overlapped.states).bitwise;
    if !comm_bitwise {
        violations.push(format!(
            "blocking vs overlapped digests differ at {RANKS} ranks"
        ));
    }

    // Activity band at gate scale.
    let activity = activity_fraction(kind, ModelConfig::GATE_SCALE);
    let band = kind.activity_band();
    if activity < band.0 || activity > band.1 {
        violations.push(format!(
            "activity {activity:.4} outside band [{:.3}, {:.3}]",
            band.0, band.1
        ));
    }

    Ok(CaseCheck {
        case: kind.slug(),
        matrix_runs,
        bitwise,
        golden,
        comm_bitwise,
        activity,
        band,
        checksum: canonical.field("T").map(|f| f.checksum).unwrap_or(0),
        violations,
    })
}

/// Runs the pinned nested configuration across versions × layouts ×
/// comm modes — parent and child must digest identically everywhere —
/// and compares the canonical run against the fixtures.
fn nest_pins(goldens_dir: &Path) -> Result<NestPins, String> {
    let nested_fixture = load_fixture(goldens_dir, "case_nested")?;
    let case_fixture = load_fixture(goldens_dir, &case_fixture_name(NEST_CASE))?;
    let canonical = run_nested(
        nested_cfg(SbmVersion::Baseline, Layout::PointAos, CommMode::Blocking),
        ModelConfig::GATE_STEPS,
    )?;
    let (parent, child) = (canonical.parent.digest(), canonical.child.digest());
    let mut matrix_bitwise = true;
    for version in SbmVersion::ALL {
        for layout in Layout::ALL {
            for comm in [CommMode::Blocking, CommMode::Overlapped] {
                let run = run_nested(nested_cfg(version, layout, comm), ModelConfig::GATE_STEPS)?;
                matrix_bitwise &= compare_digests(&parent, &run.parent.digest()).bitwise()
                    && compare_digests(&child, &run.child.digest()).bitwise();
            }
        }
    }
    Ok(NestPins {
        matrix_bitwise,
        golden: StateAgreement::of(&compare_digests(&nested_fixture.digest, &child)),
        parent_matches_case: compare_digests(&case_fixture.digest, &parent).bitwise(),
    })
}

/// Nested-vs-solo interior agreement of one case.
pub fn nest_check(kind: CaseKind) -> Result<NestCheck, String> {
    let mut cfg = ModelConfig::case_gate(kind, SbmVersion::Lookup, ExecMode::StaticTiles, 1);
    cfg.nest = Some(ModelConfig::GATE_NEST);
    let nested = run_nested(cfg, ModelConfig::GATE_STEPS)?;
    let solo = run_solo_fine(cfg, ModelConfig::GATE_STEPS)?;
    let rel = interior_max_rel(&nested.child, &solo, NEST_MARGIN);
    let interior_digits = if rel <= 0.0 {
        15.0
    } else {
        (-rel.log10()).clamp(0.0, 15.0)
    };
    let floor = nest_digit_floor(kind);
    Ok(NestCheck {
        case: kind.slug(),
        interior_digits,
        floor,
        pass: interior_digits >= floor,
    })
}

/// The activity sweep over `scales` (the standing `BENCH_cases.json`
/// axis).
pub fn activity_sweep(scales: &[f64]) -> Vec<SweepPoint> {
    let mut sweep = Vec::new();
    for &scale in scales {
        for kind in CaseKind::LIBRARY {
            let activity = activity_fraction(kind, scale);
            let band = kind.activity_band();
            sweep.push(SweepPoint {
                case: kind.slug(),
                scale,
                activity,
                in_band: activity >= band.0 && activity <= band.1,
            });
        }
    }
    sweep
}

/// Runs the cases gate against the fixtures in `goldens_dir`, sweeping
/// the activity fractions over `sweep_scales`.
pub fn run(goldens_dir: &Path, sweep_scales: &[f64]) -> Result<Report, String> {
    let checks = CaseKind::ALL
        .into_iter()
        .map(|kind| case_check(kind, goldens_dir))
        .collect::<Result<Vec<_>, _>>()?;
    let pins = nest_pins(goldens_dir)?;
    let nest = CaseKind::ALL
        .into_iter()
        .map(nest_check)
        .collect::<Result<Vec<_>, _>>()?;
    let sweep = activity_sweep(sweep_scales);
    Ok(report(&checks, &pins, &nest, &sweep, sweep_scales))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pass: bool) -> CaseCheck {
        CaseCheck {
            case: "squall_line",
            matrix_runs: 16,
            bitwise: pass,
            golden: StateAgreement {
                bitwise: pass,
                min_digits: if pass { 15 } else { 3 },
                worst_field: if pass { String::new() } else { "T".into() },
                worst_ulp: 0,
            },
            comm_bitwise: true,
            activity: 0.2794,
            band: (0.25, 0.45),
            checksum: 0xdead_beef,
            violations: if pass {
                Vec::new()
            } else {
                vec!["matrix diverged".into()]
            },
        }
    }

    fn pins() -> NestPins {
        NestPins {
            matrix_bitwise: true,
            golden: StateAgreement::full(),
            parent_matches_case: true,
        }
    }

    fn nest(interior_digits: f64) -> NestCheck {
        NestCheck {
            case: "squall_line",
            interior_digits,
            floor: 3.0,
            pass: interior_digits >= 3.0,
        }
    }

    fn report_of(pass: bool, nest_digits: f64) -> Report {
        let sweep = SweepPoint {
            case: "squall_line",
            scale: 0.05,
            activity: 0.2794,
            in_band: pass,
        };
        report(
            &[check(pass)],
            &pins(),
            &[nest(nest_digits)],
            &[sweep],
            &[0.05],
        )
    }

    #[test]
    fn verdict_aggregates_every_axis() {
        assert!(report_of(true, 3.6).pass());
        let bad = report_of(false, 3.6);
        assert!(!bad.pass());
        let v = bad.violations();
        assert!(v.iter().any(|x| x.contains("matrix diverged")), "{v:?}");
        assert!(v.iter().any(|x| x.contains("sweep")), "{v:?}");
        // Each nest pin gates on its own.
        let mut broken = pins();
        broken.matrix_bitwise = false;
        broken.golden.bitwise = false;
        broken.parent_matches_case = false;
        let v = report(&[], &broken, &[], &[], &[]).violations();
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn nest_floor_gates() {
        let rep = report_of(true, 1.2);
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("interior digits 1.20")));
    }

    /// The parent format's keys and printed digits survive the envelope,
    /// and the summary lines CI greps are verbatim.
    #[test]
    fn rendering_and_json_carry_the_table() {
        let rep = report_of(true, 3.6);
        let text = rep.rendered();
        assert!(text.contains("per-case digest table"), "{text}");
        assert!(text.contains("case: squall_line activity=0.2794"), "{text}");
        assert!(text.contains("nest: squall_line ratio=2"), "{text}");
        assert!(
            text.contains("sweep: squall_line scale=0.05 activity=0.2794 in-band"),
            "{text}"
        );
        assert!(text.contains("cases gate: PASS"), "{text}");
        let json = rep.to_json();
        assert!(json.contains("\"gate\": \"cases\""), "{json}");
        assert!(
            json.contains("\"checksum\": \"00000000deadbeef\""),
            "{json}"
        );
        assert!(json.contains("\"band\": [0.25, 0.45]"), "{json}");
        assert!(json.contains("\"interior_digits\": 3.6"), "{json}");
        assert!(json.contains("\"pass\": true"), "{json}");
    }

    #[test]
    fn floors_sit_below_measured_agreement_with_headroom() {
        // Measured at the gate configuration (margin 5): supercell 2.0,
        // squall 3.6, conus 3.7, orographic 5.5, shallow 7.0.
        for kind in CaseKind::ALL {
            let f = nest_digit_floor(kind);
            assert!((1.0..=6.0).contains(&f), "{kind:?}: {f}");
        }
    }

    #[test]
    fn bands_are_disjoint() {
        assert!(bands_disjoint());
    }

    /// The assertion inventory of the real gate at its cheapest: one
    /// case through every axis against the committed fixtures (the
    /// nested version × layout × comm matrix is `repro cases`' to run).
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
        let kind = CaseKind::ShallowConvection;
        let rep = report(
            &[case_check(kind, &goldens).expect("committed fixture")],
            &pins(),
            &[nest_check(kind).expect("nest runs")],
            &activity_sweep(&[ModelConfig::GATE_SCALE])[..1],
            &[ModelConfig::GATE_SCALE],
        );
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "case shallow_convection",
                "library activity bands disjoint",
                "nest matrix bitwise",
                "nest child vs golden",
                "nest parent vs case golden",
                "nest floor: shallow_convection",
                "sweep in band: shallow_convection @ 0.05",
            ]
        );
    }
}
