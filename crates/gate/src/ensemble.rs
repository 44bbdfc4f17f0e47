//! The ensemble gate (`repro ensemble`): batch-service correctness and
//! throughput over the shared [`DevicePool`].
//!
//! Four enforced claims about `miniwrf::service`:
//!
//! * **Equivalence** — for every scheme version, each ensemble member's
//!   end state is *bitwise-identical* to the same member run solo
//!   (the §VII-B `diffwrf` bar applied to the batch engine): packing,
//!   launch batching, and lookup sharing change timing, never
//!   arithmetic. Perturbed seeds must also genuinely perturb — member
//!   digests differ across seeds.
//! * **Retry** — a member killed mid-run relaunches through the PR 4
//!   restart supervisor, resumes from its newest complete checkpoint
//!   set, and still lands bitwise on its solo digest.
//! * **Admission** — packing is memory-capped at full scale: the
//!   per-device member cap is exact, overflow members queue for a
//!   second wave rather than failing, and an oversized stack is a
//!   typed [`ServiceError::Admission`], not a panic.
//! * **Throughput** — at full scale (CONUS-12km members, 10 simulated
//!   minutes) the batched service beats N sequential solo runs *and*
//!   the unbatched replay on modeled members/hour, with a nonzero
//!   amortized-slice ledger and one shared lookup copy per device.
//!
//! The report is written to `BENCH_ensemble.json`: members/hour at
//! fixed hardware, admission-queue latency percentiles, the per-device
//! occupancy ledger, and cache-share hit rates. Any violation makes
//! `repro ensemble` exit nonzero.

use crate::golden::{compare_digests, equivalence, EquivRow, StateAgreement};
use crate::report::{Cell, Check, Report, Table};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::devicepool::{DevicePool, RankFootprint};
use gpu_sim::machine::{default_backend, Backend, A100};
use miniwrf::config::ModelConfig;
use miniwrf::parallel::run_parallel;
use miniwrf::perfmodel::{gpu_rank_step_time, MeasuredCoeffs, PerfParams, RankWork, TrafficModel};
use miniwrf::service::{
    latency_percentiles, member_config, member_footprint, pressure_key, run_ensemble_with,
    schedule_ensemble, DeviceLedger, EnsembleSpec, MemberOutcome, MemberTimings, Schedule,
    ServiceError, ServiceOptions,
};
use mpi_sim::FaultPlan;
use prof_sim::{ensemble_line, EnsembleSummary};
use std::sync::Arc;
use std::time::Duration;
use wrf_cases::{ConusCase, ConusParams};
use wrf_grid::two_d_decomposition;

/// Members of the equivalence (functional, gate-scale) ensembles.
const EQ_MEMBERS: usize = 3;
/// Devices of the equivalence ensembles' pool.
const EQ_DEVICES: usize = 2;
/// Steps each equivalence member integrates.
const EQ_STEPS: usize = 3;
/// Members of the full-scale throughput arm.
pub(crate) const MEMBERS: usize = 8;
/// Devices of the full-scale throughput arm (fixed hardware).
pub(crate) const DEVICES: usize = 2;
/// Simulated minutes each full-scale member runs.
pub(crate) const MINUTES: f64 = 10.0;
/// Member the retry arm kills.
const FAULT_MEMBER: usize = 1;
/// Step the fault fires at.
const FAULT_STEP: u64 = 2;
/// Launch attempts the retry arm allows.
const MAX_ATTEMPTS: usize = 3;

/// One full-scale throughput row (one offloaded version).
#[derive(Debug, Clone, Default)]
pub struct ThroughputRow {
    /// Scheme version.
    pub version: &'static str,
    /// Ensemble size.
    pub members: usize,
    /// Pool devices.
    pub devices: usize,
    /// Admission waves the schedule took.
    pub waves: usize,
    /// Modeled device service per member step, seconds.
    pub service_secs: f64,
    /// Batched modeled throughput, members/hour.
    pub batched_mph: f64,
    /// Unbatched-replay throughput, members/hour.
    pub unbatched_mph: f64,
    /// N-sequential-solo-runs throughput, members/hour.
    pub sequential_mph: f64,
    /// Slice seconds amortized away by launch batching.
    pub slice_secs_saved: f64,
    /// Shared-lookup hits.
    pub cache_hits: usize,
    /// Shared-lookup misses (one per device that materialized tables).
    pub cache_misses: usize,
    /// Shared-lookup hit rate.
    pub cache_hit_rate: f64,
    /// p50/p90/p99 admission-queue wait, seconds.
    pub wait_percentiles: [f64; 3],
    /// Failure details (empty when passing).
    pub violations: Vec<String>,
}

/// Assembles the ensemble report from its arms: the equivalence rows,
/// the retry arm, the packing scenarios, the throughput rows, and the
/// headline row's per-device ledger.
pub fn report(
    equiv: &[EquivRow],
    retry: &EquivRow,
    packing: &[PackCheck],
    throughput: &[ThroughputRow],
    devices: &[DeviceLedger],
) -> Report {
    let (equiv_table, mut checks) =
        equivalence("equivalence", "member vs solo digest equivalence", equiv);
    let (retry_table, retry_checks) = equivalence(
        "retry",
        "a member killed mid-run relaunches from its checkpoint",
        std::slice::from_ref(retry),
    );
    checks.extend(retry_checks);
    checks.extend(
        packing
            .iter()
            .map(|(label, pass, detail)| Check::new(format!("admission: {label}"), *pass, detail)),
    );
    checks.extend(
        throughput
            .iter()
            .map(|t| Check::all_of(format!("throughput: {}", t.version), &t.violations)),
    );
    let packing = Table::new(
        "admission",
        "memory-capped packing",
        &["label", "detail", "pass"],
        packing.iter().map(|(label, pass, detail)| {
            vec![(*label).into(), detail.as_str().into(), (*pass).into()]
        }),
    );
    let rows = Table::new(
        "throughput",
        "full-scale batched throughput",
        &[
            "version",
            "members",
            "devices",
            "waves",
            "service_secs",
            "batched_members_per_hour",
            "unbatched_members_per_hour",
            "sequential_members_per_hour",
            "slice_secs_saved",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "wait_p50",
            "wait_p90",
            "wait_p99",
            "pass",
        ],
        throughput.iter().map(|r| {
            vec![
                r.version.into(),
                r.members.into(),
                r.devices.into(),
                r.waves.into(),
                Cell::num(r.service_secs, 6),
                Cell::num(r.batched_mph, 4),
                Cell::num(r.unbatched_mph, 4),
                Cell::num(r.sequential_mph, 4),
                Cell::num(r.slice_secs_saved, 3),
                r.cache_hits.into(),
                r.cache_misses.into(),
                Cell::num(r.cache_hit_rate, 4),
                Cell::num(r.wait_percentiles[0], 4),
                Cell::num(r.wait_percentiles[1], 4),
                Cell::num(r.wait_percentiles[2], 4),
                r.violations.is_empty().into(),
            ]
        }),
    );
    let ledger = Table::new(
        "devices",
        "per-device occupancy ledger of the headline row",
        &[
            "device",
            "peak_residents",
            "peak_used_bytes",
            "capacity_bytes",
            "busy_secs",
            "slice_secs",
            "slice_secs_saved",
            "queue_secs",
            "batches",
        ],
        devices.iter().map(|d| {
            vec![
                d.device.into(),
                d.peak_residents.into(),
                d.peak_used_bytes.into(),
                d.capacity_bytes.into(),
                Cell::num(d.busy_secs, 3),
                Cell::num(d.slice_secs, 3),
                Cell::num(d.slice_secs_saved, 3),
                Cell::num(d.queue_secs, 3),
                d.batches.into(),
            ]
        }),
    );
    let lines = throughput.iter().map(|r| {
        ensemble_line(&EnsembleSummary {
            members: r.members,
            devices: r.devices,
            waves: r.waves,
            members_per_hour: r.batched_mph,
            wait_p50_secs: r.wait_percentiles[0],
            wait_p99_secs: r.wait_percentiles[2],
            cache_hit_rate: r.cache_hit_rate,
            slice_saved_secs: r.slice_secs_saved,
        })
    });
    Report {
        gate: "ensemble",
        case: vec![
            ("eq_members", EQ_MEMBERS.into()),
            ("eq_devices", EQ_DEVICES.into()),
            ("eq_steps", EQ_STEPS.into()),
            ("members", MEMBERS.into()),
            ("devices", DEVICES.into()),
            ("minutes", MINUTES.into()),
        ],
        checks,
        tables: vec![equiv_table, retry_table, packing, rows, ledger],
        lines: lines.collect(),
    }
}

/// The full-scale member footprint (1-rank CONUS-12km context at the
/// paper's stack setting) — backend-independent bytes; what varies per
/// backend is the capacity they are packed against.
pub(crate) fn full_scale_footprint() -> RankFootprint {
    member_footprint(
        &ModelConfig::paper_default(SbmVersion::OffloadCollapse3),
        None,
    )
}

/// Prices [`MEMBERS`] full-scale members of `version` (CONUS-12km,
/// [`MINUTES`] simulated each) on `backend`'s perf plane, then packs and
/// batch-replays them on [`DEVICES`] of its devices. Returns the device
/// service seconds of one member step — kernels + staged transfers;
/// host work and halos never occupy the device — and the schedule.
pub(crate) fn full_scale_schedule(
    backend: &'static Backend,
    version: SbmVersion,
    coeffs: &MeasuredCoeffs,
    (pp, traffic): (&PerfParams, &TrafficModel),
) -> (f64, Result<Schedule, ServiceError>) {
    let full = ConusParams::full();
    let case = ConusCase::new(full);
    let dd = two_d_decomposition(full.domain(), 1, 3);
    let work = RankWork::extrapolate(&case, &dd.patches[0], coeffs, version, pp);
    let t = gpu_rank_step_time(&work, pp, traffic);
    let service = t.coal_loop + t.transfer;
    let spec = EnsembleSpec {
        members: MEMBERS,
        devices: DEVICES,
        backend,
        ..EnsembleSpec::default()
    };
    let timings: Vec<MemberTimings> = (0..MEMBERS)
        .map(|m| MemberTimings {
            member: m,
            service_per_step: vec![service; case.steps_for_minutes(MINUTES)],
        })
        .collect();
    let key = Some(pressure_key(&full));
    let schedule = schedule_ensemble(&timings, &spec, &full_scale_footprint(), key);
    (service, schedule)
}

/// Modeled members/hour of [`MEMBERS`] members finishing in `secs`.
pub(crate) fn members_per_hour(secs: f64) -> f64 {
    if secs > 0.0 {
        MEMBERS as f64 * 3600.0 / secs
    } else {
        0.0
    }
}

/// Checks a full-scale throughput schedule against the gate's claims.
fn throughput_violations(
    s: &Schedule,
    batched_mph: f64,
    unbatched_mph: f64,
    sequential_mph: f64,
) -> Vec<String> {
    let mut v = Vec::new();
    if batched_mph <= sequential_mph {
        v.push(format!(
            "batched service must beat {} sequential solo runs: {:.2} <= {:.2} members/hour",
            MEMBERS, batched_mph, sequential_mph
        ));
    }
    if batched_mph <= unbatched_mph {
        v.push(format!(
            "launch batching must beat the unbatched replay: {:.2} <= {:.2} members/hour",
            batched_mph, unbatched_mph
        ));
    }
    let saved: f64 = s.devices.iter().map(|d| d.slice_secs_saved).sum();
    if saved <= 0.0 {
        v.push("batching amortized no context slices".into());
    }
    for d in &s.devices {
        if d.peak_used_bytes > d.capacity_bytes {
            v.push(format!(
                "device {} over its memory cap: {} > {} bytes",
                d.device, d.peak_used_bytes, d.capacity_bytes
            ));
        }
    }
    let occupied = s.devices.iter().filter(|d| d.peak_residents > 0).count();
    if s.cache.misses != occupied {
        v.push(format!(
            "expected one lookup materialization per occupied device, got {} misses on {} devices",
            s.cache.misses, occupied
        ));
    }
    if s.cache.hits + s.cache.misses < MEMBERS {
        v.push(format!(
            "cache ledger covers {} admissions, expected at least {}",
            s.cache.hits + s.cache.misses,
            MEMBERS
        ));
    }
    let [p50, p90, p99] = latency_percentiles(&s.admission_waits());
    if !(p50 <= p90 && p90 <= p99) {
        v.push(format!(
            "latency percentiles out of order: p50 {p50:.3} p90 {p90:.3} p99 {p99:.3}"
        ));
    }
    v
}

/// One packing scenario: what it exercises, whether the outcome matched
/// the expected wall, and the outcome (the typed error's message on
/// failures).
pub type PackCheck = (&'static str, bool, String);

/// Runs the admission scenarios against the full-scale footprint.
fn run_pack_checks() -> Vec<PackCheck> {
    let fp = full_scale_footprint();
    let mut out = Vec::new();

    // Exact per-device member cap at full scale.
    let mut pool = DevicePool::new(A100, 1);
    let key = pressure_key(&ConusParams::full());
    let mut cap = 0usize;
    let cap_err = loop {
        match pool.admit_packed(cap, &fp, Some(key)) {
            Ok(_) => cap += 1,
            Err(e) => break e,
        }
    };
    out.push((
        "per-device member cap",
        cap == 4,
        format!("{cap} full-scale members fit one A100, next rejected: {cap_err}"),
    ));

    // Overflow members queue for a second wave instead of failing.
    let flat: Vec<MemberTimings> = (0..2 * cap)
        .map(|m| MemberTimings {
            member: m,
            service_per_step: vec![1.0; 2],
        })
        .collect();
    let spec = EnsembleSpec {
        members: 2 * cap,
        devices: 1,
        ..EnsembleSpec::default()
    };
    let waves = schedule_ensemble(&flat, &spec, &fp, Some(key)).map(|s| s.waves);
    out.push((
        "overflow members queue",
        waves == Ok(2),
        match &waves {
            Ok(w) => format!("{} members on 1 device drained in {w} waves", 2 * cap),
            Err(e) => format!("unexpected failure: {e}"),
        },
    ));

    // An oversized stack fits nowhere: a typed error naming the bytes.
    let big = member_footprint(
        &ModelConfig::paper_default(SbmVersion::OffloadCollapse3),
        Some(512 * 1024),
    );
    let err = schedule_ensemble(&flat[..2], &spec, &big, Some(key));
    out.push((
        "oversized stack",
        matches!(
            &err,
            Err(ServiceError::Admission(e))
                if e.residents == 0 && e.requested_bytes > e.capacity_bytes
        ),
        match &err {
            Err(ServiceError::Admission(e)) => e.to_string(),
            Err(other) => format!("wrong error kind: {other}"),
            Ok(_) => "unexpectedly admitted".into(),
        },
    ));
    out
}

/// Runs one full-scale throughput row: members' per-step services are
/// extrapolated by the perf plane, then packed and batch-replayed by
/// the scheduling core.
fn run_throughput_row(
    version: SbmVersion,
    coeffs: &MeasuredCoeffs,
    traffic: &TrafficModel,
) -> (ThroughputRow, Vec<DeviceLedger>) {
    let plane = (&PerfParams::default(), traffic);
    let (service, schedule) = full_scale_schedule(default_backend(), version, coeffs, plane);
    let mut row = ThroughputRow {
        version: version.label(),
        members: MEMBERS,
        devices: DEVICES,
        waves: 0,
        service_secs: service,
        ..ThroughputRow::default()
    };
    match schedule {
        Ok(s) => {
            row.waves = s.waves;
            row.batched_mph = members_per_hour(s.makespan_secs);
            row.unbatched_mph = members_per_hour(s.unbatched_makespan_secs);
            row.sequential_mph = members_per_hour(s.sequential_secs);
            row.slice_secs_saved = s.devices.iter().map(|d| d.slice_secs_saved).sum();
            row.cache_hits = s.cache.hits;
            row.cache_misses = s.cache.misses;
            row.cache_hit_rate = s.cache.hit_rate();
            row.wait_percentiles = latency_percentiles(&s.admission_waits());
            row.violations =
                throughput_violations(&s, row.batched_mph, row.unbatched_mph, row.sequential_mph);
            (row, s.devices)
        }
        Err(e) => {
            row.violations = vec![format!("full-scale schedule failed: {e}")];
            (row, Vec::new())
        }
    }
}

/// Every served member against the same member run solo: how the end
/// states agreed.
fn members_vs_solo(
    base: &ModelConfig,
    spec: &EnsembleSpec,
    members: &[MemberOutcome],
) -> StateAgreement {
    let mut agreement = StateAgreement::full();
    for m in members {
        let solo = run_parallel(member_config(base, spec, m.member), EQ_STEPS);
        agreement.fold(&compare_digests(
            &m.state.digest(),
            &solo.states[0].digest(),
        ));
    }
    agreement
}

/// Runs the retry arm: one supervised gate-scale ensemble with a
/// scripted kill, every member still bitwise against solo.
fn run_retry_row() -> EquivRow {
    let version = SbmVersion::OffloadCollapse2;
    let base = ModelConfig::gate(version, ExecMode::work_steal(), 2);
    let spec = EnsembleSpec {
        members: EQ_MEMBERS.max(FAULT_MEMBER + 1),
        devices: 1,
        max_attempts: MAX_ATTEMPTS,
        checkpoint_interval: 1,
        ..EnsembleSpec::default()
    };
    let dir = std::env::temp_dir().join(format!("miniwrf_ensemble_gate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut violations = Vec::new();
    let (mut attempts, mut resumed, mut agreement) = (0usize, Vec::new(), StateAgreement::full());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        violations.push(format!("cannot create checkpoint root: {e}"));
    } else {
        let mut opts = ServiceOptions {
            restart_root: Some(dir.clone()),
            timeout: Duration::from_millis(300),
            ..ServiceOptions::default()
        };
        opts.faults.insert(
            FAULT_MEMBER,
            Arc::new(FaultPlan::new().kill_rank_at(0, FAULT_STEP)),
        );
        match run_ensemble_with(&base, &spec, EQ_STEPS, &opts) {
            Err(e) => violations.push(format!("supervised ensemble failed: {e}")),
            Ok(rep) => {
                let killed = &rep.members[FAULT_MEMBER];
                attempts = killed.attempts;
                resumed = killed.resumed_from.clone();
                if attempts < 2 {
                    violations.push(format!(
                        "the scripted fault never fired: member {FAULT_MEMBER} took {attempts} attempt(s)"
                    ));
                }
                if resumed.is_empty() {
                    violations.push("the relaunch resumed from nothing".into());
                }
                agreement = members_vs_solo(&base, &spec, &rep.members);
                violations.extend(agreement.violation("recovered members vs solo runs"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    EquivRow {
        arm: version.label().to_string(),
        cells: vec![
            ("version", version.label().into()),
            ("member", FAULT_MEMBER.into()),
            ("attempts", attempts.into()),
            (
                "resumed_from",
                Cell::List(resumed.into_iter().map(Cell::from).collect()),
            ),
        ],
        agreement,
        violations,
    }
}

/// One equivalence arm: every member of a served ensemble against its
/// solo run. Perturbed seeds must also genuinely perturb.
fn equivalence_row(version: SbmVersion) -> EquivRow {
    let base = ModelConfig::gate(version, ExecMode::work_steal(), 2);
    let spec = EnsembleSpec {
        members: EQ_MEMBERS,
        devices: EQ_DEVICES,
        ..EnsembleSpec::default()
    };
    let mut violations = Vec::new();
    let mut agreement = StateAgreement::full();
    match run_ensemble_with(&base, &spec, EQ_STEPS, &ServiceOptions::default()) {
        Err(e) => violations.push(format!("service rejected the ensemble: {e}")),
        Ok(rep) => {
            for m in &rep.members {
                if version.offloaded() != m.device.is_some() {
                    violations.push(format!(
                        "member {} device residency disagrees with the version's offload class",
                        m.member
                    ));
                }
            }
            agreement = members_vs_solo(&base, &spec, &rep.members);
            violations.extend(agreement.violation("served members vs solo runs"));
            if let [m0, m1, ..] = &rep.members[..] {
                if m0.state.digest() == m1.state.digest() {
                    violations.push("seed perturbation produced identical members 0 and 1".into());
                }
            }
        }
    }
    EquivRow {
        arm: version.label().to_string(),
        cells: vec![
            ("version", version.label().into()),
            ("members", EQ_MEMBERS.into()),
            ("devices", EQ_DEVICES.into()),
        ],
        agreement,
        violations,
    }
}

/// Runs the ensemble gate: per-version equivalence, the retry arm, the
/// admission scenarios, then the full-scale throughput rows (both
/// offloaded versions; the headline — last — row's device ledger is
/// kept).
pub fn run() -> Report {
    let equiv: Vec<EquivRow> = SbmVersion::ALL.into_iter().map(equivalence_row).collect();
    let retry = run_retry_row();
    let (coeffs, traffic) = (crate::measure_gate_coeffs(), TrafficModel::measure());
    let mut throughput = Vec::new();
    let mut devices = Vec::new();
    for version in SbmVersion::ALL.into_iter().filter(|v| v.offloaded()) {
        let (row, ledgers) = run_throughput_row(version, &coeffs, &traffic);
        throughput.push(row);
        if !ledgers.is_empty() {
            devices = ledgers;
        }
    }
    report(&equiv, &retry, &run_pack_checks(), &throughput, &devices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing_row() -> ThroughputRow {
        ThroughputRow {
            version: "offload_collapse3",
            members: 8,
            devices: 2,
            waves: 1,
            service_secs: 2.5,
            batched_mph: 9.2,
            unbatched_mph: 8.1,
            sequential_mph: 4.7,
            slice_secs_saved: 214.2,
            cache_hits: 6,
            cache_misses: 2,
            cache_hit_rate: 0.75,
            wait_percentiles: [0.0, 0.2, 0.35],
            violations: Vec::new(),
        }
    }

    fn equiv(version: &'static str, cells: Vec<(&'static str, Cell)>) -> EquivRow {
        let mut all = vec![("version", version.into())];
        all.extend(cells);
        EquivRow {
            arm: version.into(),
            cells: all,
            agreement: StateAgreement::full(),
            violations: Vec::new(),
        }
    }

    fn passing_report(retry: EquivRow, row: ThroughputRow) -> Report {
        let members = vec![("members", 3usize.into()), ("devices", 2usize.into())];
        let packing = (
            "per-device member cap",
            true,
            "4 full-scale members fit one A100".to_string(),
        );
        let ledger = DeviceLedger {
            device: 0,
            peak_residents: 4,
            peak_used_bytes: 76 << 30,
            capacity_bytes: 80 << 30,
            busy_secs: 2400.0,
            slice_secs: 36.0,
            slice_secs_saved: 108.0,
            queue_secs: 7200.0,
            batches: 120,
        };
        report(
            &[equiv("offload_collapse3", members)],
            &retry,
            &[packing],
            &[row],
            &[ledger],
        )
    }

    fn retry_row() -> EquivRow {
        let resumed = Cell::List(vec![2u64.into()]);
        equiv(
            "offload_collapse2",
            vec![
                ("member", 1usize.into()),
                ("attempts", 2usize.into()),
                ("resumed_from", resumed),
            ],
        )
    }

    #[test]
    fn full_scale_cap_is_four_members_per_device() {
        let failed: Vec<PackCheck> = run_pack_checks().into_iter().filter(|c| !c.1).collect();
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn full_scale_throughput_beats_sequential_and_unbatched() {
        let (coeffs, traffic) = miniwrf::perfmodel::test_fixture();
        let (row, ledgers) = run_throughput_row(SbmVersion::OffloadCollapse3, coeffs, traffic);
        assert!(row.violations.is_empty(), "{:?}", row.violations);
        assert_eq!(row.waves, 1);
        assert!(row.batched_mph > row.sequential_mph);
        assert!(row.batched_mph > row.unbatched_mph);
        assert_eq!((row.cache_misses, row.cache_hits), (2, 6));
        assert!(row.slice_secs_saved > 0.0);
        assert_eq!(ledgers.len(), 2);
        for d in &ledgers {
            assert_eq!(d.peak_residents, 4);
            assert!(d.peak_used_bytes <= d.capacity_bytes);
        }
    }

    #[test]
    fn throughput_regressions_are_caught() {
        let (coeffs, traffic) = miniwrf::perfmodel::test_fixture();
        let plane = (&PerfParams::default(), traffic);
        let (_, schedule) = full_scale_schedule(
            default_backend(),
            SbmVersion::OffloadCollapse3,
            coeffs,
            plane,
        );
        // Feed the checker inverted numbers.
        let v = throughput_violations(&schedule.unwrap(), 1.0, 8.0, 4.0);
        assert!(v.iter().any(|x| x.contains("sequential")), "{v:?}");
        assert!(v.iter().any(|x| x.contains("unbatched")), "{v:?}");
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn report_verdict_flows_to_json_and_text() {
        let rep = passing_report(retry_row(), passing_row());
        assert!(rep.pass());
        assert!(rep.violations().is_empty());
        let json = rep.to_json();
        assert!(json.contains("\"gate\": \"ensemble\""));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"batched_members_per_hour\": 9.2"));
        assert!(json.contains("\"resumed_from\": [2]"));
        assert!(json.contains("\"cache_hit_rate\": 0.75"));
        let text = rep.rendered();
        assert!(text.contains("ensemble gate: PASS"));
        assert!(text.contains("ensemble: members=8 devices=2 waves=1"));
    }

    #[test]
    fn any_failing_arm_fails_the_report() {
        let mut retry = retry_row();
        retry.violations = vec!["resumed from nothing".into()];
        let rep = passing_report(retry, passing_row());
        assert!(!rep.pass());
        assert!(rep.violations().iter().any(|v| v.contains("retry")));
        let mut row = passing_row();
        row.violations = vec!["batched lost".into()];
        let rep = passing_report(retry_row(), row);
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("throughput: offload_collapse3")));
    }

    /// The assertion inventory of the real gate at its cheapest: one
    /// served ensemble, the retry arm, the packing scenarios, and one
    /// throughput row priced from the shared test coefficients.
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let (coeffs, traffic) = miniwrf::perfmodel::test_fixture();
        let (row, ledgers) = run_throughput_row(SbmVersion::OffloadCollapse3, coeffs, traffic);
        let rep = report(
            &[equivalence_row(SbmVersion::Lookup)],
            &run_retry_row(),
            &run_pack_checks(),
            &[row],
            &ledgers,
        );
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "equivalence: lookup",
                "retry: offload collapse(2)",
                "admission: per-device member cap",
                "admission: overflow members queue",
                "admission: oversized stack",
                "throughput: offload collapse(3) w/ pointers",
            ]
        );
    }
}
