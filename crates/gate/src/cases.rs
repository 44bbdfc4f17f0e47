//! The case-library gate (`repro cases`): per-case golden digests,
//! activity bands, comm equivalence, and nested-vs-solo agreement.
//!
//! Five enforced claims about the idealized case library and the
//! one-way nest:
//!
//! * **Reproducibility** — every library case (plus the legacy CONUS
//!   default, the state `ModelConfig::gate` builds) produces end-of-run
//!   digests *bitwise-identical* to its canonical run (baseline version,
//!   serial, reference layout — the run that blesses the fixture) across
//!   all four scheme versions: each on the reference layout's serial
//!   static tiles and on the production layout under both schedulers.
//!   The canonical run matches its committed
//!   `goldens/case_<slug>.golden` fixture — one fixture per state —
//!   bitwise, or to [`MIN_FIXTURE_DIGITS`] on every field and moment.
//! * **Comm equivalence** — each case decomposed over two ranks
//!   digests identically under blocking and overlapped halo exchange.
//! * **Activity bands** — each case's column-activity fraction lands in
//!   its pinned band ([`CaseKind::activity_band`]), the library bands
//!   are disjoint, and the fractions stay in-band across the sweep
//!   scales (the standing `BENCH_cases.json` axis; PRs run the shallow
//!   sweep, the nightly arm the deep one — [`crate::Depth`]).
//! * **Bin tails** — each case's canonical end state holds no bin value
//!   that is subnormal or positive below [`fsbm_core::point::N_FLOOR`]
//!   ([`SbmPatchState::tail_census`]): the floor the step applies where
//!   transport, the condensation relax and sedimentation write keeps the
//!   tails out.
//! * **Nesting** — the pinned nested configuration
//!   ([`ModelConfig::GATE_NEST`] over the squall-line case) digests
//!   identically to its canonical run across versions × comm modes, its child
//!   matches `goldens/case_nested.golden`, its parent matches the
//!   squall-line case fixture (one-way nesting never feeds back), and
//!   every case's nested child agrees with a solo fine-grid run of the
//!   child region to the case's documented interior digit floor.
//!
//! The report is written to `BENCH_cases.json`; any violation makes
//! `repro cases` exit nonzero.

use crate::comm::both_modes;
use crate::fixture::GoldenFixture;
use crate::golden::{
    compare_digests, compare_states, equivalence_matrix, layout_arms, Arm, EquivRow, Sides,
    StateAgreement,
};
use crate::report::{Cell, Check, Report, Table};
use fsbm_core::digest::StateDigest;
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmVersion};
use fsbm_core::state::{SbmPatchState, TailCensus};
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use miniwrf::nest::{interior_max_rel, run_nested, run_solo_fine, NestedRun};
use mpi_sim::CommMode;
use std::path::{Path, PathBuf};
use wrf_cases::{CaseKind, ConusCase};

/// Ranks of the per-case comm-equivalence runs.
const RANKS: usize = 2;
/// Worker count of the work-stealing matrix arm.
const WORKERS: usize = 3;
/// Interior margin (child cells shaved off each lateral side) of the
/// nested-vs-solo comparison.
const NEST_MARGIN: i32 = 5;

/// Minimum digits on every field and moment at which a canonical run
/// that is not bitwise still matches its committed fixture. Every arm
/// agrees bitwise today; 6 digits is the widest drift a libm or
/// toolchain change could plausibly introduce without a physics bug.
pub const MIN_FIXTURE_DIGITS: u32 = 6;

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
    /// Runs in the version × layout × scheduler matrix.
    pub matrix_runs: usize,
    /// True when every matrix run digested like the canonical run.
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
    /// Bin values of the canonical end state in a tail the floor removes
    /// (gated at zero).
    pub census: TailCensus,
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
    /// What the nested matrix (versions × comm modes) holds against its
    /// arms: empty when parent and child digested like the canonical
    /// nested run everywhere.
    pub matrix: Vec<String>,
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
    out.push(Check::all_of("nest matrix bitwise", &pins.matrix));
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
    out.extend(checks.iter().map(|c| {
        let detail = format!(
            "{} subnormal and {} sub-floor bin values at step {}",
            c.census.subnormal,
            c.census.below_floor,
            ModelConfig::GATE_STEPS
        );
        Check::new(
            format!("tail census: {}", c.case),
            c.census == TailCensus::default(),
            detail,
        )
    }));
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
        checks.iter().map(|c| {
            vec![
                ("case", c.case.into()),
                ("matrix_runs", c.matrix_runs.into()),
                ("bitwise", c.bitwise.into()),
                ("golden_bitwise", c.golden.bitwise.into()),
                ("min_digits", c.golden.min_digits.into()),
                ("worst_field", c.golden.worst_field.as_str().into()),
                ("comm_bitwise", c.comm_bitwise.into()),
                ("activity", Cell::num(c.activity, 6)),
                ("band", Cell::List(vec![c.band.0.into(), c.band.1.into()])),
                ("checksum", format!("{:016x}", c.checksum).into()),
                ("subnormal_bins", c.census.subnormal.into()),
                ("sub_floor_bins", c.census.below_floor.into()),
                ("pass", c.violations.is_empty().into()),
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
        [vec![
            ("bands_disjoint", disjoint.into()),
            ("matrix_bitwise", pins.matrix.is_empty().into()),
            ("golden_bitwise", pins.golden.bitwise.into()),
            ("min_digits", pins.golden.min_digits.into()),
            ("parent_matches_case", pins.parent_matches_case.into()),
        ]],
    );
    let nest_table = Table::new(
        "nest",
        "nested child vs solo fine-grid run, interior digits",
        nest.iter().map(|n| {
            vec![
                ("case", n.case.into()),
                ("interior_digits", Cell::num(n.interior_digits, 3)),
                ("floor", n.floor.into()),
                ("pass", n.pass.into()),
            ]
        }),
    );
    let sweep_table = Table::new(
        "sweep",
        "activity sweep",
        sweep.iter().map(|p| {
            vec![
                ("case", p.case.into()),
                ("scale", p.scale.into()),
                ("activity", Cell::num(p.activity, 6)),
                ("in_band", p.in_band.into()),
            ]
        }),
    );
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

/// Runs one matrix entry of one case and returns the end state.
fn case_state(
    kind: CaseKind,
    version: SbmVersion,
    mode: ExecMode,
    workers: usize,
    layout: Layout,
) -> SbmPatchState {
    let mut cfg = ModelConfig::case_gate(kind, version, mode, workers);
    cfg.layout = layout;
    let mut m = Model::single_rank(cfg);
    m.run(ModelConfig::GATE_STEPS);
    m.state
}

/// The run that blesses a case's fixture and anchors its matrix: the
/// baseline version, serial static tiles, the reference layout.
pub fn canonical_case_state(kind: CaseKind) -> SbmPatchState {
    case_state(
        kind,
        SbmVersion::Baseline,
        ExecMode::StaticTiles,
        1,
        Layout::PointAos,
    )
}

/// Builds the canonical committable fixture for one case.
pub fn bless_case_fixture(kind: CaseKind) -> GoldenFixture {
    // The `version` label names the state, not a scheme version: every
    // version must reproduce the one fixture of the state.
    GoldenFixture {
        version: format!("case:{}", kind.slug()),
        case: case_fixture_description(kind),
        digest: canonical_case_state(kind).digest(),
    }
}

/// A nested run's version, layout and comm mode.
type NestArm = (SbmVersion, Layout, CommMode);

/// Every case's nested-vs-solo check runs this arm; on [`NEST_CASE`] it
/// reuses the nest matrix's run of it.
const FLOOR_ARM: NestArm = (SbmVersion::Lookup, Layout::PanelSoa, CommMode::Blocking);

/// The gate's pinned nested configuration of `kind` under `arm`.
fn nested_config(kind: CaseKind, (version, layout, comm): NestArm) -> ModelConfig {
    let mut cfg = ModelConfig::case_gate(kind, version, ExecMode::StaticTiles, 1);
    cfg.layout = layout;
    cfg.comm = comm;
    cfg.nest = Some(ModelConfig::GATE_NEST);
    cfg
}

/// One nested run of the gate's pinned configuration.
fn nested_run(arm: NestArm) -> Result<NestedRun, String> {
    run_nested(nested_config(NEST_CASE, arm), ModelConfig::GATE_STEPS)
}

/// The nested run that blesses the child fixture and anchors the nested
/// matrix: baseline version, reference layout, blocking comm.
fn canonical_nested_run() -> Result<NestedRun, String> {
    nested_run((SbmVersion::Baseline, Layout::PointAos, CommMode::Blocking))
}

/// Builds the canonical committable fixture pinning the nested child.
pub fn bless_nested_fixture() -> Result<GoldenFixture, String> {
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
        digest: canonical_nested_run()?.child.digest(),
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

/// True when `activity` lies inside `kind`'s pinned band.
fn in_band(kind: CaseKind, activity: f64) -> bool {
    let (lo, hi) = kind.activity_band();
    (lo..=hi).contains(&activity)
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

/// What a matrix holds against its arms, each violation led by its arm.
fn arm_violations(rows: &[EquivRow]) -> Vec<String> {
    rows.iter()
        .flat_map(|r| (r.violations.iter()).map(move |v| format!("{}: {v}", r.arm)))
        .collect()
}

/// How a canonical run's `digest` agrees with the committed fixture
/// `goldens/<stem>.golden`, and the violation when it drifted: a field
/// or moment missing or reshaped, or — short of bitwise — fewer than
/// [`MIN_FIXTURE_DIGITS`] on any of them.
pub fn fixture_check(
    stem: &str,
    fixture: &StateDigest,
    digest: &StateDigest,
) -> (StateAgreement, Option<String>) {
    let cmp = compare_digests(fixture, digest);
    let golden = StateAgreement::of(&cmp);
    let drifted =
        !cmp.structural.is_empty() || (!golden.bitwise && golden.min_digits < MIN_FIXTURE_DIGITS);
    let violation = drifted.then(|| {
        format!(
            "canonical run drifted from goldens/{stem}.golden: {} digits (worst {}){}",
            golden.min_digits,
            golden.worst_field,
            (cmp.structural.iter()).fold(String::new(), |s, m| s + "; " + m)
        )
    });
    (golden, violation)
}

/// A scheduling mode and its worker count.
type Scheduler = (ExecMode, usize);

/// A case's reproducibility matrix: serial static tiles in both layouts,
/// and work stealing on [`WORKERS`] threads on the production layout.
fn matrix_arms() -> Vec<Arm<(SbmVersion, Layout, Scheduler)>> {
    let serial = (ExecMode::StaticTiles, 1);
    let stealing = (ExecMode::work_steal(), WORKERS);
    layout_arms(serial, &[serial, stealing], |(mode, workers)| {
        format!("{} w={workers}", mode.label())
    })
}

/// Gates one case: the reproducibility matrix, the committed fixture,
/// comm equivalence, and the activity band.
pub fn case_check(kind: CaseKind, goldens_dir: &Path) -> Result<CaseCheck, String> {
    let fixture = load_fixture(goldens_dir, &case_fixture_name(kind))?;

    // Reproducibility matrix: every arm single-rank and required
    // bitwise-identical to the canonical run.
    let end = canonical_case_state(kind);
    let (canonical, census) = (end.digest(), end.tail_census());
    let what = "canonical vs matrix run";
    let matrix = equivalence_matrix(
        what,
        matrix_arms(),
        |&(version, layout, (mode, workers))| Sides {
            reference: vec![canonical.clone()],
            candidate: vec![case_state(kind, version, mode, workers, layout).digest()],
            ..Sides::default()
        },
    );
    let mut violations = arm_violations(&matrix);
    let (matrix_runs, bitwise) = (matrix.len(), violations.is_empty());

    // Canonical vs the committed fixture.
    let (golden, drift) = fixture_check(&case_fixture_name(kind), &fixture.digest, &canonical);
    violations.extend(drift);

    // Comm equivalence on a small decomposition.
    let mut comm_cfg =
        ModelConfig::case_gate(kind, SbmVersion::Lookup, ExecMode::work_steal(), WORKERS);
    comm_cfg.ranks = RANKS;
    let (blocking, overlapped) = both_modes(comm_cfg, ModelConfig::GATE_STEPS);
    let comm_bitwise = compare_states(&blocking.states, &overlapped.states).bitwise;
    if !comm_bitwise {
        violations.push(format!(
            "blocking vs overlapped digests differ at {RANKS} ranks"
        ));
    }

    // Activity band at gate scale.
    let activity = activity_fraction(kind, ModelConfig::GATE_SCALE);
    let band = kind.activity_band();
    if !in_band(kind, activity) {
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
        census,
        violations,
    })
}

/// Runs the pinned nested configuration across versions: blocking comm
/// in both layouts, overlapped comm on the production layout — parent
/// and child must digest like the canonical nested run everywhere — and
/// compares that run against the fixtures. Returns the [`FLOOR_ARM`]
/// run's child too (`None` when that run failed).
fn nest_pins(goldens_dir: &Path) -> Result<(NestPins, Option<SbmPatchState>), String> {
    let nested_fixture = load_fixture(goldens_dir, "case_nested")?;
    let case_fixture = load_fixture(goldens_dir, &case_fixture_name(NEST_CASE))?;
    let canonical = canonical_nested_run()?;
    let (parent, child) = (canonical.parent.digest(), canonical.child.digest());
    let comms = [CommMode::Blocking, CommMode::Overlapped];
    let arms = layout_arms(CommMode::Blocking, &comms, |comm| comm.name().to_string());
    let what = "canonical vs nested matrix run";
    let mut floor_child = None;
    let matrix = equivalence_matrix(what, arms, |&arm| match nested_run(arm) {
        Err(e) => Sides::failed(e),
        Ok(run) => {
            let candidate = vec![run.parent.digest(), run.child.digest()];
            if arm == FLOOR_ARM {
                floor_child = Some(run.child);
            }
            Sides {
                reference: vec![parent.clone(), child.clone()],
                candidate,
                ..Sides::default()
            }
        }
    });
    let pins = NestPins {
        matrix: arm_violations(&matrix),
        golden: StateAgreement::of(&compare_digests(&nested_fixture.digest, &child)),
        parent_matches_case: compare_digests(&case_fixture.digest, &parent).bitwise(),
    };
    Ok((pins, floor_child))
}

/// Nested-vs-solo interior agreement of one case: the [`FLOOR_ARM`]
/// nested run's child — `child`, when the caller already integrated it —
/// against the solo fine run.
pub fn nest_check(kind: CaseKind, child: Option<SbmPatchState>) -> Result<NestCheck, String> {
    let cfg = nested_config(kind, FLOOR_ARM);
    let child = match child {
        Some(child) => child,
        None => run_nested(cfg, ModelConfig::GATE_STEPS)?.child,
    };
    let solo = run_solo_fine(cfg, ModelConfig::GATE_STEPS)?;
    let rel = interior_max_rel(&child, &solo, NEST_MARGIN);
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
            sweep.push(SweepPoint {
                case: kind.slug(),
                scale,
                activity,
                in_band: in_band(kind, activity),
            });
        }
    }
    sweep
}

/// Runs the cases gate against the fixtures in `goldens_dir`, sweeping
/// the activity fractions over `sweep_scales`. The per-case checks and
/// the nested runs are independent integrations: they run on two
/// threads, and the report is assembled in one fixed order.
pub fn run(goldens_dir: &Path, sweep_scales: &[f64]) -> Result<Report, String> {
    let nested = || -> Result<(NestPins, Vec<NestCheck>), String> {
        let (pins, mut reused) = nest_pins(goldens_dir)?;
        let nest = (CaseKind::ALL.into_iter())
            .map(|kind| nest_check(kind, reused.take_if(|_| kind == NEST_CASE)));
        Ok((pins, nest.collect::<Result<_, _>>()?))
    };
    let (checks, nested) = std::thread::scope(|s| {
        let nested = s.spawn(nested);
        let checks = CaseKind::ALL
            .into_iter()
            .map(|kind| case_check(kind, goldens_dir))
            .collect::<Result<Vec<_>, _>>();
        (checks, nested.join().expect("a nested run panicked"))
    });
    let (checks, (pins, nest)) = (checks?, nested?);
    let sweep = activity_sweep(sweep_scales);
    Ok(report(&checks, &pins, &nest, &sweep, sweep_scales))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pass: bool) -> CaseCheck {
        CaseCheck {
            case: "squall_line",
            matrix_runs: 11,
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
            census: TailCensus::default(),
            violations: if pass {
                Vec::new()
            } else {
                vec!["matrix diverged".into()]
            },
        }
    }

    fn pins() -> NestPins {
        NestPins {
            matrix: Vec::new(),
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
        broken.matrix.push("lookup overlapped: diverged".into());
        broken.golden.bitwise = false;
        broken.parent_matches_case = false;
        let v = report(&[], &broken, &[], &[], &[]).violations();
        assert_eq!(v.len(), 3, "{v:?}");
        // So does a bin tail the floor should have removed.
        let mut tails = check(true);
        tails.census.below_floor = 2;
        let v = report(&[tails], &pins(), &[], &[], &[]).violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("2 sub-floor bin values at step 4"), "{v:?}");
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
    /// and the headline table CI lifts into the summary is titled as
    /// `ci.sh` names it.
    #[test]
    fn rendering_and_json_carry_the_table() {
        let rep = report_of(true, 3.6);
        let text = rep.rendered();
        assert!(
            text.contains("=== repro cases: per-case digest table ==="),
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

    /// The matrix, by name: per version the reference layout's serial
    /// arm — the baseline's is the canonical run, which blesses the
    /// fixture — then the serial and work-stealing arms on the
    /// production layout.
    #[test]
    fn matrix_pins_every_version_in_both_layouts() {
        let got: Vec<String> = matrix_arms().into_iter().map(|a| a.label).collect();
        let mut want = Vec::new();
        for version in SbmVersion::ALL.map(SbmVersion::label) {
            if version != SbmVersion::Baseline.label() {
                want.push(format!("{version} [static-tiles w=1 point-aos]"));
            }
            want.push(format!("{version} [static-tiles w=1 panel-soa]"));
            want.push(format!(
                "{version} [work-stealing+compaction w=3 panel-soa]"
            ));
        }
        assert_eq!(got, want);
    }

    /// A fixture that lost a field fails however well the rest agrees;
    /// a drift short of bitwise passes only at [`MIN_FIXTURE_DIGITS`] on
    /// every field.
    #[test]
    fn fixture_check_holds_shape_and_digits() {
        use fsbm_core::digest::FieldDigest;
        let values: Vec<f32> = (0..100).map(|i| 280.0 + i as f32).collect();
        let digest = |fields: &[(&str, f32)]| StateDigest {
            fields: (fields.iter())
                .map(|&(name, scale)| {
                    let scaled: Vec<f32> = values.iter().map(|v| v * scale).collect();
                    FieldDigest::of(name, &scaled)
                })
                .collect(),
            moments: Vec::new(),
        };
        let run = digest(&[("T", 1.0), ("QVAPOR", 1.0)]);
        let (_, v) = fixture_check("case_x", &digest(&[("T", 1.0), ("RAINNC", 1.0)]), &run);
        assert!(
            v.as_deref().is_some_and(|v| v.contains("RAINNC missing")),
            "{v:?}"
        );
        let (agreement, v) = fixture_check("case_x", &digest(&[("T", 1.0 + 1.0e-7)]), &run);
        assert!(!agreement.bitwise && agreement.min_digits >= MIN_FIXTURE_DIGITS);
        assert_eq!(v, None);
        let (_, v) = fixture_check("case_x", &digest(&[("T", 1.0 + 1.0e-5)]), &run);
        assert!(v.is_some_and(|v| v.contains("goldens/case_x.golden: 4 digits (worst T)")));
    }

    #[test]
    fn bands_are_disjoint() {
        assert!(bands_disjoint());
    }

    /// The assertion inventory of the real gate at its cheapest: one
    /// case through every axis against the committed fixtures (the
    /// nested version × comm matrix is `repro cases`' to run).
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
        let kind = CaseKind::ShallowConvection;
        let rep = report(
            &[case_check(kind, &goldens).expect("committed fixture")],
            &pins(),
            &[nest_check(kind, None).expect("nest runs")],
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
                "tail census: shallow_convection",
                "nest floor: shallow_convection",
                "sweep in band: shallow_convection @ 0.05",
            ]
        );
    }
}
