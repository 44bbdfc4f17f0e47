//! The shared-GPU gate (`repro share`): device-sharing equivalence and
//! memory-capped admission.
//!
//! Two enforced claims about the shared-device scheduler:
//!
//! * **Equivalence** — for every scheme version, the multi-rank gate
//!   case produces *bitwise-identical* per-rank digests on exclusive
//!   devices and on a shared pool. Contention changes timing, never
//!   arithmetic (the §VII-B `diffwrf` bar, applied to sharing). For the
//!   offloaded versions the shared run must additionally price a
//!   nonzero exposed queue — sharing that costs nothing isn't modeled.
//! * **Admission** — the paper's memory wall (§VII-A) is typed and
//!   placed: 5 contexts fit one 80 GB A100 at 64 KiB stacks and the
//!   6th fails; the equal-resource 40-rank/8-GPU setup fits while
//!   48/8 fails at exactly rank 40 on device 0, with the
//!   [`gpu_sim::DeviceError`] naming rank, device, and bytes.
//!
//! The 16-GPU × {16,32,64}-rank sharing sweep is Table VII, priced and
//! shape-checked once, by the `paper` gate
//! ([`crate::tables::sweep_shape_violations`]).
//!
//! The report is written to `BENCH_share.json`; any violation makes
//! `repro share` exit nonzero.

use crate::golden::{equivalence, equivalence_matrix, Arm, EquivRow, Sides};
use crate::report::{Cell, Check, Report, Row, Table};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::devicepool::DevicePool;
use gpu_sim::DeviceError;
use miniwrf::config::ModelConfig;
use miniwrf::parallel::{run_parallel, run_parallel_checked};
use miniwrf::perfmodel::{rank_footprint, staged_bytes, PerfParams};
use wrf_cases::ConusParams;

/// Ranks of the equivalence runs (the gate case decomposed).
const RANKS: usize = 4;
/// Devices of the equivalence runs' shared pool (< [`RANKS`], so the
/// pool genuinely time-shares).
const DEVICES: usize = 2;

/// One admission scenario against a full-scale device pool.
#[derive(Debug, Clone)]
pub struct AdmissionCheck {
    /// What the scenario exercises.
    pub label: &'static str,
    /// How the scenario is sized (`ranks`, `devices`; may be empty).
    pub sized: Row,
    /// Outcome description (the typed error's message on failures).
    pub detail: String,
    /// True when the outcome matched the expected wall.
    pub pass: bool,
}

/// The `admission` table and the per-scenario checks.
pub fn admission_parts(title: &str, scenarios: &[AdmissionCheck]) -> (Table, Vec<Check>) {
    let row = |a: &AdmissionCheck| {
        let mut row = vec![("label", a.label.into())];
        row.extend(a.sized.iter().cloned());
        row.extend([
            ("detail", a.detail.as_str().into()),
            ("pass", a.pass.into()),
        ]);
        row
    };
    let check = |a: &AdmissionCheck| {
        Check::new(format!("admission: {}", a.label), a.pass, a.detail.as_str())
    };
    (
        Table::new("admission", title, scenarios.iter().map(row)),
        scenarios.iter().map(check).collect(),
    )
}

/// Admits contexts `0, 1, …` through `admit` until one is refused: how
/// many fit, and the typed refusal of the next.
pub(crate) fn admit_until_refused<T>(
    mut admit: impl FnMut(usize) -> Result<T, DeviceError>,
) -> (usize, DeviceError) {
    let mut cap = 0usize;
    loop {
        match admit(cap) {
            Ok(_) => cap += 1,
            Err(e) => return (cap, e),
        }
    }
}

/// Assembles the share report from its two arms.
pub fn report(equiv: &[EquivRow], admission: &[AdmissionCheck]) -> Report {
    let (equiv_table, mut checks) = equivalence(
        "equivalence",
        "exclusive vs shared-pool digest equivalence",
        equiv,
    );
    let (admission, admission_checks) =
        admission_parts("memory-capped admission (\u{a7}VII-A)", admission);
    checks.extend(admission_checks);
    Report {
        gate: "share",
        case: vec![("ranks", RANKS.into()), ("devices", DEVICES.into())],
        checks,
        tables: vec![equiv_table, admission],
    }
}

/// Full-scale staged slab bytes for one of `ranks` patches of the
/// CONUS-12km domain (the same shape the perf model charges).
pub(crate) fn full_scale_slab_bytes(ranks: usize) -> u64 {
    let full = ConusParams::full();
    let points = (full.nx as u64 * full.ny as u64 * full.nz as u64).div_ceil(ranks as u64);
    staged_bytes(points)
}

/// Runs the admission scenarios against the full-scale pool of `pp`'s
/// device.
fn run_admission_checks(pp: &PerfParams) -> Vec<AdmissionCheck> {
    let footprint = |ranks| rank_footprint(pp, full_scale_slab_bytes(ranks));
    let scenario = |label, ranks: usize, devices: usize, detail, pass| AdmissionCheck {
        label,
        sized: vec![("ranks", ranks.into()), ("devices", devices.into())],
        detail,
        pass,
    };

    // How many contexts fit one 80 GB A100 at the paper's 64 KiB stack.
    let mut pool = DevicePool::new(pp.gpu, 1);
    let (cap, cap_err) = admit_until_refused(|rank| pool.admit(rank, &footprint(16)));
    let detail = format!("{cap} contexts fit, 6th rejected: {cap_err}");
    let per_device = scenario("per-device cap", cap, 1, detail, cap == 5);

    // The equal-resource 2-node setup: 40 ranks on 8 GPUs (5/device).
    let mut pool = DevicePool::new(pp.gpu, 8);
    let ok = pool.admit_all(40, &footprint(40));
    let detail = match &ok {
        Ok(()) => "all admitted (5 per device)".into(),
        Err(e) => format!("unexpected rejection: {e}"),
    };
    let pass = ok.is_ok() && (0..8).all(|d| pool.residents(d).len() == 5);
    let two_nodes = scenario("40 ranks / 8 GPUs", 40, 8, detail, pass);

    // One step beyond the wall: 48 ranks on 8 GPUs needs a 6th context
    // on device 0; rank 40 must be the one that fails.
    let err = DevicePool::new(pp.gpu, 8).admit_all(48, &footprint(48));
    let detail = match &err {
        Ok(()) => "unexpectedly admitted".into(),
        Err(e) => e.to_string(),
    };
    let pass = matches!(&err, Err(e) if e.rank == 40 && e.device == 0 && e.residents == 5);
    vec![
        per_device,
        two_nodes,
        scenario("48 ranks / 8 GPUs", 48, 8, detail, pass),
    ]
}

/// The equivalence arms of `versions`: exclusive devices vs a
/// genuinely-shared pool.
pub fn equivalence_rows(versions: impl IntoIterator<Item = SbmVersion>) -> Vec<EquivRow> {
    let arms = (versions.into_iter()).map(|v| {
        Arm::version(
            v,
            vec![("ranks", RANKS.into()), ("devices", DEVICES.into())],
        )
    });
    equivalence_matrix("exclusive vs shared", arms, |&version| {
        let mut cfg = ModelConfig::gate(version, ExecMode::work_steal(), 3);
        cfg.ranks = RANKS;
        cfg.gpus = 0;
        let exclusive = run_parallel(cfg, ModelConfig::GATE_STEPS);
        cfg.gpus = DEVICES;
        let mut queue_secs = 0.0f64;
        let mut sides = match run_parallel_checked(cfg, ModelConfig::GATE_STEPS) {
            Err(e) => Sides::failed(format!("gate pool rejected the run: {e}")),
            Ok(shared) => {
                queue_secs = (shared.reports.iter())
                    .filter_map(|r| r.share.map(|s| s.queue_secs))
                    .fold(0.0, f64::max);
                let mut sides = Sides::of_states(&exclusive.states, &shared.states);
                if version.offloaded() && queue_secs == 0.0 {
                    let text = "shared pool priced zero queueing for an offloaded version";
                    sides.violations.push(text.into());
                }
                sides
            }
        };
        sides.cells.push(("queue_secs", Cell::num(queue_secs, 9)));
        sides
    })
}

/// Runs the share gate: per-version equivalence on the gate case, then
/// the admission scenarios on the paper's device.
pub fn run() -> Report {
    let equiv = equivalence_rows(SbmVersion::ALL);
    report(&equiv, &run_admission_checks(&PerfParams::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::StateAgreement;

    fn equiv_row(queue_secs: f64) -> EquivRow {
        EquivRow {
            arm: "offload_collapse3".into(),
            cells: vec![
                ("version", "offload_collapse3".into()),
                ("ranks", 4usize.into()),
                ("devices", 2usize.into()),
                ("queue_secs", Cell::num(queue_secs, 9)),
            ],
            agreement: StateAgreement::full(),
            violations: Vec::new(),
        }
    }

    fn admission(pass: bool) -> AdmissionCheck {
        AdmissionCheck {
            label: "48 ranks / 8 GPUs",
            sized: vec![("ranks", 48usize.into()), ("devices", 8usize.into())],
            detail: "unexpectedly admitted".into(),
            pass,
        }
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn report_verdict_flows_to_json_and_text() {
        let rep = report(&[equiv_row(0.61)], &[admission(true)]);
        assert!(rep.pass(), "{:?}", rep.violations());
        let json = rep.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"label\": \"48 ranks / 8 GPUs\""));
        assert!(json.contains("\"queue_secs\": 0.61"));
        assert!(json.contains("\"case\": {\"ranks\": 4, \"devices\": 2}"));
        assert!(rep.rendered().contains("share gate: PASS"));
    }

    #[test]
    fn failed_admission_fails_the_report() {
        let rep = report(&[], &[admission(false)]);
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("unexpectedly admitted")));
        assert!(report(&[], &[admission(true)]).pass());
    }

    /// The assertion inventory of the real gate at its cheapest: one
    /// equivalence arm and the admission scenarios, which read the
    /// default machine parameters and measure nothing.
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let rep = report(
            &equivalence_rows([SbmVersion::OffloadCollapse2]),
            &run_admission_checks(&PerfParams::default()),
        );
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "equivalence: offload collapse(2)",
                "admission: per-device cap",
                "admission: 40 ranks / 8 GPUs",
                "admission: 48 ranks / 8 GPUs",
            ]
        );
        let keys: Vec<&str> = rep.tables.iter().map(|t| t.key).collect();
        assert_eq!(keys, ["equivalence", "admission"]);
    }
}
