//! The ensemble gate (`repro ensemble`): the ensemble service over the
//! paper's one admission rule.
//!
//! Two enforced claims about `miniwrf::service`:
//!
//! * **Equivalence** — for every scheme version, each ensemble member's
//!   end state is *bitwise-identical* to the same member run solo (the
//!   §VII-B `diffwrf` bar applied to the service): placement decides
//!   which device a member charges, never its arithmetic. Perturbed
//!   seeds must also genuinely perturb — member digests differ across
//!   seeds.
//! * **Admission** — [`gpu_sim::DevicePool::admit`] caps full-scale
//!   members per device exactly, members past the cap open a second
//!   batch rather than failing, and an oversized stack is a typed
//!   [`ServiceError::Admission`], not a panic.
//!
//! The report is written to `BENCH_ensemble.json`; any violation makes
//! `repro ensemble` exit nonzero.

use crate::golden::{equivalence, equivalence_matrix, Arm, EquivRow, Sides};
use crate::report::Report;
use crate::share::{admission_parts, AdmissionCheck};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::devicepool::RankFootprint;
use gpu_sim::machine::{default_backend, Backend};
use gpu_sim::DeviceError;
use miniwrf::config::ModelConfig;
use miniwrf::parallel::run_parallel;
use miniwrf::service::{
    member_batches, member_config, member_footprint, run_ensemble, EnsembleSpec, MemberOutcome,
    ServiceError,
};

/// Members of the equivalence (functional, gate-scale) ensembles.
const EQ_MEMBERS: usize = 3;
/// Devices of the equivalence ensembles' pool.
const EQ_DEVICES: usize = 2;
/// Steps each equivalence member integrates.
const EQ_STEPS: usize = 3;

/// Assembles the ensemble report from its arms: the equivalence rows
/// and the packing scenarios.
pub fn report(equiv: &[EquivRow], packing: &[AdmissionCheck]) -> Report {
    let (equiv_table, mut checks) =
        equivalence("equivalence", "member vs solo digest equivalence", equiv);
    let (packing, packing_checks) = admission_parts("memory-capped packing", packing);
    checks.extend(packing_checks);
    Report {
        gate: "ensemble",
        case: vec![
            ("eq_members", EQ_MEMBERS.into()),
            ("eq_devices", EQ_DEVICES.into()),
            ("eq_steps", EQ_STEPS.into()),
        ],
        checks,
        tables: vec![equiv_table, packing],
    }
}

/// The full-scale member footprint (1-rank CONUS-12km context at the
/// paper's stack setting) — backend-independent bytes; what varies per
/// backend is the capacity they are admitted against.
pub(crate) fn full_scale_footprint() -> RankFootprint {
    member_footprint(&ModelConfig::paper_default(SbmVersion::OffloadCollapse3))
}

/// How many full-scale members one of `backend`'s devices admits, and
/// the typed refusal of the one after.
pub(crate) fn member_cap(backend: &Backend) -> (usize, DeviceError) {
    miniwrf::service::member_cap(&full_scale_footprint(), backend)
}

/// Runs the admission scenarios against the full-scale footprint.
fn run_pack_checks() -> Vec<AdmissionCheck> {
    let fp = full_scale_footprint();
    let backend = default_backend();
    let scenario = |label, pass, detail| AdmissionCheck {
        label,
        sized: Vec::new(),
        detail,
        pass,
    };

    // Exact per-device member cap at full scale.
    let (cap, cap_err) = member_cap(backend);
    let detail = format!("{cap} full-scale members fit one A100, next rejected: {cap_err}");
    let per_device = scenario("per-device member cap", cap == 4, detail);

    // Members past the cap open a second batch instead of failing.
    let batches = member_batches(&fp, backend, 1, 2 * cap)
        .map(|placed| placed.last().map_or(0, |&(batch, _)| batch + 1));
    let detail = match &batches {
        Ok(b) => format!("{} members on 1 device ran in {b} batches", 2 * cap),
        Err(e) => format!("unexpected failure: {e}"),
    };
    let overflow = scenario("overflow members queue", batches == Ok(2), detail);

    // An oversized stack fits nowhere: a typed error naming the bytes.
    let big = RankFootprint {
        stack_bytes: 512 * 1024,
        ..fp
    };
    let err = member_batches(&big, backend, 1, 2);
    let pass = matches!(
        &err,
        Err(ServiceError::Admission(e))
            if e.residents == 0 && e.requested_bytes > e.capacity_bytes
    );
    let detail = match &err {
        Err(ServiceError::Admission(e)) => e.to_string(),
        Err(other) => format!("wrong error kind: {other}"),
        Ok(_) => "unexpectedly admitted".into(),
    };
    vec![
        per_device,
        overflow,
        scenario("oversized stack", pass, detail),
    ]
}

/// Every served member against the same member run solo.
fn members_vs_solo(base: &ModelConfig, spec: &EnsembleSpec, members: &[MemberOutcome]) -> Sides {
    let solo = |m: &MemberOutcome| {
        let run = run_parallel(member_config(base, spec, m.member), EQ_STEPS);
        run.states[0].digest()
    };
    Sides {
        reference: members.iter().map(solo).collect(),
        candidate: members.iter().map(|m| m.state.digest()).collect(),
        ..Sides::default()
    }
}

/// The equivalence arms of `versions`: every member of a served
/// ensemble against its solo run. Perturbed seeds must also genuinely
/// perturb.
fn equivalence_rows(versions: impl IntoIterator<Item = SbmVersion>) -> Vec<EquivRow> {
    let arms = (versions.into_iter()).map(|v| {
        let cells = vec![
            ("members", EQ_MEMBERS.into()),
            ("devices", EQ_DEVICES.into()),
        ];
        Arm::version(v, cells)
    });
    equivalence_matrix("served members vs solo runs", arms, |&version| {
        let base = ModelConfig::gate(version, ExecMode::work_steal(), 2);
        let spec = EnsembleSpec {
            members: EQ_MEMBERS,
            devices: EQ_DEVICES,
            ..EnsembleSpec::default()
        };
        let rep = match run_ensemble(&base, &spec, EQ_STEPS) {
            Err(e) => return Sides::failed(format!("service rejected the ensemble: {e}")),
            Ok(rep) => rep,
        };
        let mut sides = members_vs_solo(&base, &spec, &rep.members);
        for m in &rep.members {
            if version.offloaded() != m.device.is_some() {
                sides.violations.push(format!(
                    "member {} device residency disagrees with the version's offload class",
                    m.member
                ));
            }
        }
        if let [m0, m1, ..] = &sides.candidate[..] {
            if m0 == m1 {
                let text = "seed perturbation produced identical members 0 and 1";
                sides.violations.push(text.into());
            }
        }
        sides
    })
}

/// Runs the ensemble gate: per-version equivalence, then the admission
/// scenarios.
pub fn run() -> Report {
    report(&equivalence_rows(SbmVersion::ALL), &run_pack_checks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::StateAgreement;

    fn passing_parts() -> (EquivRow, AdmissionCheck) {
        let equiv = EquivRow {
            arm: "offload_collapse3".into(),
            cells: vec![
                ("version", "offload_collapse3".into()),
                ("members", 3usize.into()),
                ("devices", 2usize.into()),
            ],
            agreement: StateAgreement::full(),
            violations: Vec::new(),
        };
        let packing = AdmissionCheck {
            label: "per-device member cap",
            sized: Vec::new(),
            detail: "4 full-scale members fit one A100".to_string(),
            pass: true,
        };
        (equiv, packing)
    }

    #[test]
    fn full_scale_cap_is_four_members_per_device() {
        let failed: Vec<AdmissionCheck> =
            run_pack_checks().into_iter().filter(|c| !c.pass).collect();
        assert!(failed.is_empty(), "{failed:?}");
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn report_verdict_flows_to_json_and_text() {
        let (equiv, packing) = passing_parts();
        let rep = report(&[equiv], &[packing]);
        assert!(rep.pass());
        assert!(rep.violations().is_empty());
        let json = rep.to_json();
        assert!(json.contains("\"gate\": \"ensemble\""));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"label\": \"per-device member cap\""));
        assert!(json.contains("\"bitwise\": true"));
        let text = rep.rendered();
        assert!(text.contains("ensemble gate: PASS"));
        assert!(text.contains("=== repro ensemble: memory-capped packing ==="));
    }

    #[test]
    fn any_failing_arm_fails_the_report() {
        let (mut equiv, packing) = passing_parts();
        equiv.violations = vec!["member 1 diverged".into()];
        let rep = report(&[equiv], &[packing]);
        assert!(!rep.pass());
        assert!(rep.violations().iter().any(|v| v.contains("equivalence")));
        let (equiv, mut packing) = passing_parts();
        packing.pass = false;
        let rep = report(&[equiv], &[packing]);
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("admission: per-device member cap")));
    }

    /// The assertion inventory of the real gate at its cheapest: one
    /// served ensemble and the packing scenarios.
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let rep = report(&equivalence_rows([SbmVersion::Lookup]), &run_pack_checks());
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "equivalence: lookup",
                "admission: per-device member cap",
                "admission: overflow members queue",
                "admission: oversized stack",
            ]
        );
    }
}
