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

use crate::context::{ReproContext, MINUTES};
use crate::golden::{equivalence, equivalence_matrix, Arm, Bar, EquivRow, Sides};
use crate::report::{Cell, Check, Report, Table};
use crate::share::{admission_parts, admit_until_refused, AdmissionCheck};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::devicepool::{DevicePool, RankFootprint};
use gpu_sim::machine::{default_backend, Backend};
use gpu_sim::DeviceError;
use miniwrf::config::ModelConfig;
use miniwrf::parallel::run_parallel;
use miniwrf::perfmodel::{gpu_rank_step_time, RankWork};
use miniwrf::service::{
    latency_percentiles, member_config, member_footprint, pressure_key, run_ensemble_with,
    schedule_ensemble, DeviceLedger, EnsembleSpec, MemberOutcome, MemberTimings, Schedule,
    ServiceError, ServiceOptions,
};
use mpi_sim::FaultPlan;
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
    packing: &[AdmissionCheck],
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
    let (packing, packing_checks) = admission_parts("memory-capped packing", packing);
    checks.extend(packing_checks);
    checks.extend(
        throughput
            .iter()
            .map(|t| Check::all_of(format!("throughput: {}", t.version), &t.violations)),
    );
    let rows = Table::new(
        "throughput",
        "full-scale batched throughput",
        throughput.iter().map(|r| {
            vec![
                ("version", r.version.into()),
                ("members", MEMBERS.into()),
                ("devices", DEVICES.into()),
                ("waves", r.waves.into()),
                ("service_secs", Cell::num(r.service_secs, 6)),
                ("batched_members_per_hour", Cell::num(r.batched_mph, 4)),
                ("unbatched_members_per_hour", Cell::num(r.unbatched_mph, 4)),
                (
                    "sequential_members_per_hour",
                    Cell::num(r.sequential_mph, 4),
                ),
                ("slice_secs_saved", Cell::num(r.slice_secs_saved, 3)),
                ("cache_hits", r.cache_hits.into()),
                ("cache_misses", r.cache_misses.into()),
                ("cache_hit_rate", Cell::num(r.cache_hit_rate, 4)),
                ("wait_p50", Cell::num(r.wait_percentiles[0], 4)),
                ("wait_p90", Cell::num(r.wait_percentiles[1], 4)),
                ("wait_p99", Cell::num(r.wait_percentiles[2], 4)),
                ("pass", r.violations.is_empty().into()),
            ]
        }),
    );
    let ledger = Table::new(
        "devices",
        "per-device occupancy ledger of the headline row",
        devices.iter().map(|d| {
            vec![
                ("device", d.device.into()),
                ("peak_residents", d.peak_residents.into()),
                ("peak_used_bytes", d.peak_used_bytes.into()),
                ("capacity_bytes", d.capacity_bytes.into()),
                ("busy_secs", Cell::num(d.busy_secs, 3)),
                ("slice_secs", Cell::num(d.slice_secs, 3)),
                ("slice_secs_saved", Cell::num(d.slice_secs_saved, 3)),
                ("queue_secs", Cell::num(d.queue_secs, 3)),
                ("batches", d.batches.into()),
            ]
        }),
    );
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

/// How many full-scale members one of `backend`'s devices admits, and
/// the typed refusal of the one after.
pub(crate) fn member_cap(backend: &'static Backend) -> (usize, DeviceError) {
    let (fp, key) = (full_scale_footprint(), pressure_key(&ConusParams::full()));
    let mut pool = DevicePool::for_backend(backend, 1);
    admit_until_refused(|member| pool.admit_packed(member, &fp, Some(key)))
}

/// Prices [`MEMBERS`] full-scale members of `version` (CONUS-12km,
/// [`MINUTES`] simulated each) on `ctx` — the plane of `backend` — then
/// packs and batch-replays them on [`DEVICES`] of its devices. Returns
/// the device service seconds of one member step — kernels + staged
/// transfers; host work and halos never occupy the device — and the
/// schedule.
pub(crate) fn full_scale_schedule(
    ctx: &ReproContext,
    backend: &'static Backend,
    version: SbmVersion,
) -> (f64, Result<Schedule, ServiceError>) {
    let case = ConusCase::new(ctx.case);
    let dd = two_d_decomposition(ctx.case.domain(), 1, 3);
    let work = RankWork::extrapolate(&case, &dd.patches[0], &ctx.coeffs, version, &ctx.pp);
    let t = gpu_rank_step_time(&work, &ctx.pp, &ctx.traffic);
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
    let key = Some(pressure_key(&ctx.case));
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

/// Devices whose ledger peaks past their memory capacity.
pub(crate) fn over_capacity(devices: &[DeviceLedger]) -> impl Iterator<Item = String> + '_ {
    let over = |d: &&DeviceLedger| d.peak_used_bytes > d.capacity_bytes;
    devices.iter().filter(over).map(|d| {
        format!(
            "device {} over its memory cap: {} > {} bytes",
            d.device, d.peak_used_bytes, d.capacity_bytes
        )
    })
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
    v.extend(over_capacity(&s.devices));
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

/// Runs the admission scenarios against the full-scale footprint.
fn run_pack_checks() -> Vec<AdmissionCheck> {
    let fp = full_scale_footprint();
    let scenario = |label, pass, detail| AdmissionCheck {
        label,
        sized: Vec::new(),
        detail,
        pass,
    };

    // Exact per-device member cap at full scale.
    let key = pressure_key(&ConusParams::full());
    let (cap, cap_err) = member_cap(default_backend());
    let detail = format!("{cap} full-scale members fit one A100, next rejected: {cap_err}");
    let per_device = scenario("per-device member cap", cap == 4, detail);

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
    let detail = match &waves {
        Ok(w) => format!("{} members on 1 device drained in {w} waves", 2 * cap),
        Err(e) => format!("unexpected failure: {e}"),
    };
    let overflow = scenario("overflow members queue", waves == Ok(2), detail);

    // An oversized stack fits nowhere: a typed error naming the bytes.
    let big = member_footprint(
        &ModelConfig::paper_default(SbmVersion::OffloadCollapse3),
        Some(512 * 1024),
    );
    let err = schedule_ensemble(&flat[..2], &spec, &big, Some(key));
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

/// Runs one full-scale throughput row: members' per-step services are
/// extrapolated by the perf plane, then packed and batch-replayed by
/// the scheduling core.
fn run_throughput_row(
    ctx: &ReproContext,
    version: SbmVersion,
) -> (ThroughputRow, Vec<DeviceLedger>) {
    let (service, schedule) = full_scale_schedule(ctx, default_backend(), version);
    let mut row = ThroughputRow {
        version: version.label(),
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

/// Every served member against the same member run solo.
fn members_vs_solo(base: &ModelConfig, spec: &EnsembleSpec, members: &[MemberOutcome]) -> Sides {
    let solo = |m: &MemberOutcome| {
        let run = run_parallel(member_config(base, spec, m.scheduled.member), EQ_STEPS);
        run.states[0].digest()
    };
    Sides {
        reference: members.iter().map(solo).collect(),
        candidate: members.iter().map(|m| m.state.digest()).collect(),
        ..Sides::default()
    }
}

/// Runs the retry arm: one supervised gate-scale ensemble with a
/// scripted kill, every member still bitwise against solo.
fn run_retry_row() -> EquivRow {
    let arm = Arm::version(
        SbmVersion::OffloadCollapse2,
        vec![("member", FAULT_MEMBER.into())],
    );
    let bar = Bar::Bitwise("recovered members vs solo runs");
    let mut rows = equivalence_matrix(bar, [arm], |&version| {
        let base = ModelConfig::gate(version, ExecMode::work_steal(), 2);
        let spec = EnsembleSpec {
            members: EQ_MEMBERS.max(FAULT_MEMBER + 1),
            devices: 1,
            max_attempts: MAX_ATTEMPTS,
            checkpoint_interval: 1,
            ..EnsembleSpec::default()
        };
        let dir =
            std::env::temp_dir().join(format!("miniwrf_ensemble_gate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut attempts, mut resumed) = (0usize, Vec::new());
        let mut sides = if let Err(e) = std::fs::create_dir_all(&dir) {
            Sides::failed(format!("cannot create checkpoint root: {e}"))
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
                Err(e) => Sides::failed(format!("supervised ensemble failed: {e}")),
                Ok(rep) => {
                    let killed = &rep.members[FAULT_MEMBER];
                    attempts = killed.attempts;
                    resumed = killed.resumed_from.clone();
                    let mut sides = members_vs_solo(&base, &spec, &rep.members);
                    if attempts < 2 {
                        sides.violations.push(format!(
                            "the scripted fault never fired: member {FAULT_MEMBER} took {attempts} attempt(s)"
                        ));
                    }
                    if resumed.is_empty() {
                        (sides.violations).push("the relaunch resumed from nothing".into());
                    }
                    sides
                }
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        let resumed = Cell::List(resumed.into_iter().map(Cell::from).collect());
        (sides.cells).extend([("attempts", attempts.into()), ("resumed_from", resumed)]);
        sides
    });
    rows.remove(0)
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
    let bar = Bar::Bitwise("served members vs solo runs");
    equivalence_matrix(bar, arms, |&version| {
        let base = ModelConfig::gate(version, ExecMode::work_steal(), 2);
        let spec = EnsembleSpec {
            members: EQ_MEMBERS,
            devices: EQ_DEVICES,
            ..EnsembleSpec::default()
        };
        let rep = match run_ensemble_with(&base, &spec, EQ_STEPS, &ServiceOptions::default()) {
            Err(e) => return Sides::failed(format!("service rejected the ensemble: {e}")),
            Ok(rep) => rep,
        };
        let mut sides = members_vs_solo(&base, &spec, &rep.members);
        for m in &rep.members {
            if version.offloaded() != m.scheduled.device.is_some() {
                sides.violations.push(format!(
                    "member {} device residency disagrees with the version's offload class",
                    m.scheduled.member
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

/// Runs the ensemble gate: per-version equivalence, the retry arm, the
/// admission scenarios, then the full-scale throughput rows (both
/// offloaded versions; the headline — last — row's device ledger is
/// kept).
pub fn run() -> Report {
    let equiv = equivalence_rows(SbmVersion::ALL);
    let retry = run_retry_row();
    let ctx = ReproContext::quick();
    let mut throughput = Vec::new();
    let mut devices = Vec::new();
    for version in SbmVersion::ALL.into_iter().filter(|v| v.offloaded()) {
        let (row, ledgers) = run_throughput_row(&ctx, version);
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
    use crate::golden::StateAgreement;

    fn passing_row() -> ThroughputRow {
        ThroughputRow {
            version: "offload_collapse3",
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
        let packing = AdmissionCheck {
            label: "per-device member cap",
            sized: Vec::new(),
            detail: "4 full-scale members fit one A100".to_string(),
            pass: true,
        };
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
        let failed: Vec<AdmissionCheck> =
            run_pack_checks().into_iter().filter(|c| !c.pass).collect();
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn full_scale_throughput_beats_sequential_and_unbatched() {
        let ctx = ReproContext::quick_shared();
        let (row, ledgers) = run_throughput_row(ctx, SbmVersion::OffloadCollapse3);
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
        let ctx = ReproContext::quick_shared();
        let (_, schedule) =
            full_scale_schedule(ctx, default_backend(), SbmVersion::OffloadCollapse3);
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
        assert!(text.contains("=== repro ensemble: full-scale batched throughput ==="));
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
    /// throughput row priced on the shared quick context.
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let ctx = ReproContext::quick_shared();
        let (row, ledgers) = run_throughput_row(ctx, SbmVersion::OffloadCollapse3);
        let rep = report(
            &equivalence_rows([SbmVersion::Lookup]),
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
