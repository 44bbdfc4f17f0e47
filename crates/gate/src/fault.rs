//! The fault gate (`repro fault`): bitwise recovery from rank death.
//!
//! The enforced claim: for every scheme version × comm mode, a run in
//! which a rank is killed mid-integration and the supervisor relaunches
//! from the newest complete checkpoint set produces per-rank digests
//! *bitwise-identical* to an uninterrupted golden run. Checkpointing,
//! failure detection, and relaunch may cost wall time, but they may not
//! change a bit of the weather — the §VII-B `diffwrf` bar applied to
//! fault tolerance. The report carries counts and digests only, so it
//! re-emits byte-identical run after run; the wall time of a recovery
//! is printed by `miniwrf`'s `recovery:` line for real supervised runs.
//!
//! Each check scripts one kill through an [`mpi_sim::FaultPlan`] at a
//! step strictly after the first checkpoint of half the runs (and
//! before it for none — the interval and kill step are chosen so the
//! relaunch genuinely resumes from disk, not from a cold start). The
//! report is written to `BENCH_fault.json`; any violation makes
//! `repro fault` exit nonzero.

use crate::golden::{equivalence, equivalence_matrix, Arm, EquivRow, Sides};
use crate::report::{Cell, Report};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use miniwrf::config::ModelConfig;
use miniwrf::parallel::run_parallel;
use miniwrf::restart::{run_parallel_restartable, RecoveryStats, RestartConfig};
use mpi_sim::{CommMode, FaultPlan};
use std::sync::Arc;
use std::time::Duration;

/// Ranks of every run.
const RANKS: usize = 4;
/// Steps integrated (the gate case's pinned length).
const STEPS: usize = ModelConfig::GATE_STEPS;
/// Steps between checkpoints.
const INTERVAL: usize = 2;
/// The rank the fault plan kills.
const KILL_RANK: usize = 1;
/// The 0-based step at which it dies: the step-2 checkpoint exists, so
/// recovery must resume from disk and replay steps 2..4 — exercising
/// both the write and read paths.
const KILL_STEP: u64 = 2;
/// Supervisor relaunch budget.
const MAX_ATTEMPTS: usize = 3;
/// Failure-detection timeout per rank of the gate run. Short, because
/// the gate *wants* a failure: every millisecond here is paid once per
/// surviving rank per faulted arm.
pub const TIMEOUT: Duration = Duration::from_millis(1500);

/// Assembles the fault report from the per-arm recovery rows.
pub fn report(rows: &[EquivRow], timeout: Duration) -> Report {
    let (table, checks) = equivalence(
        "recovery",
        "kill a rank mid-run, recover from the newest checkpoint set",
        rows,
    );
    Report {
        gate: "fault",
        case: vec![
            ("ranks", RANKS.into()),
            ("steps", STEPS.into()),
            ("interval", INTERVAL.into()),
            ("kill_rank", KILL_RANK.into()),
            ("kill_step", KILL_STEP.into()),
            ("timeout_ms", (timeout.as_millis() as u64).into()),
        ],
        checks,
        tables: vec![table],
    }
}

/// The two sides of every arm.
const SIDES: &str = "recovered vs uninterrupted golden";

/// One version × comm-mode arm of the recovery matrix.
fn arm(version: SbmVersion, mode: CommMode) -> Arm<(SbmVersion, CommMode)> {
    Arm {
        spec: (version, mode),
        label: format!("{} {}", version.label(), mode.name()),
        cells: vec![
            ("version", version.label().into()),
            ("mode", mode.name().into()),
        ],
    }
}

/// The supervised run's columns of a recovery row.
fn stats_cells(stats: &RecoveryStats) -> Vec<(&'static str, Cell)> {
    vec![
        ("attempts", stats.attempts.into()),
        ("restarted_from", stats.restarts_from.last().copied().into()),
        ("steps_replayed", stats.steps_replayed.into()),
        ("checkpoint_writes", stats.checkpoint_writes.into()),
    ]
}

/// Runs the given version × comm-mode arms: each is one golden run and
/// one supervised run with the scripted kill, compared digest for
/// digest.
pub fn recovery_rows(
    arms: impl IntoIterator<Item = (SbmVersion, CommMode)>,
    timeout: Duration,
) -> Vec<EquivRow> {
    let arms = arms.into_iter().map(|(version, mode)| arm(version, mode));
    equivalence_matrix(SIDES, arms, |&(version, mode)| {
        let mut cfg = ModelConfig::gate(version, ExecMode::work_steal(), 3);
        cfg.ranks = RANKS;
        cfg.comm = mode;
        let golden = run_parallel(cfg, STEPS);
        let dir = std::env::temp_dir().join(format!(
            "wrf_fault_gate_{}_{}_{}",
            version.label(),
            mode.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let rcfg = RestartConfig {
            dir: dir.clone(),
            interval: INTERVAL,
            max_attempts: MAX_ATTEMPTS,
            timeout,
        };
        let plan = Arc::new(FaultPlan::new().kill_rank_at(KILL_RANK, KILL_STEP));
        let outcome = run_parallel_restartable(cfg, STEPS, &rcfg, Some(plan));
        let _ = std::fs::remove_dir_all(&dir);
        let (stats, recovered, violations) = match outcome {
            Ok((run, stats)) => {
                let fired = (stats.attempts < 2)
                    .then(|| format!("fault never fired: {} attempt(s)", stats.attempts));
                (stats, run.states, fired.into_iter().collect())
            }
            Err(e) => (
                RecoveryStats {
                    attempts: MAX_ATTEMPTS,
                    ..RecoveryStats::default()
                },
                Vec::new(),
                vec![format!("supervisor failed to recover: {e}")],
            ),
        };
        Sides {
            cells: stats_cells(&stats),
            violations,
            ..Sides::of_states(&golden.states, &recovered)
        }
    })
}

/// Runs the fault gate: every scheme version × comm mode.
pub fn run(timeout: Duration) -> Report {
    let arms = (SbmVersion::ALL.into_iter())
        .flat_map(|v| [CommMode::Blocking, CommMode::Overlapped].map(|mode| (v, mode)));
    report(&recovery_rows(arms, timeout), timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::digest::{FieldDigest, StateDigest};

    /// A synthetic recovery row whose recovered side did or did not
    /// land on the golden one.
    fn row(bitwise: bool) -> EquivRow {
        let stats = RecoveryStats {
            attempts: 2,
            restarts_from: vec![2],
            steps_replayed: 2,
            checkpoint_writes: 4,
            ..RecoveryStats::default()
        };
        let digest = |t: f32| StateDigest {
            fields: vec![FieldDigest::of("T", &[t, 281.5, 290.25])],
            moments: Vec::new(),
        };
        let arms = [arm(SbmVersion::Baseline, CommMode::Blocking)];
        equivalence_matrix(SIDES, arms, |_| Sides {
            reference: vec![digest(280.0)],
            candidate: vec![digest(if bitwise { 280.0 } else { 280.5 })],
            cells: stats_cells(&stats),
            violations: Vec::new(),
        })
        .remove(0)
    }

    #[test]
    fn divergent_recovery_fails_the_gate() {
        let good = report(&[row(true)], TIMEOUT);
        assert!(good.pass());
        assert!(good.violations().is_empty());
        let bad = report(&[row(true), row(false)], TIMEOUT);
        assert!(!bad.pass());
        let v = bad.violations();
        assert!(v[0].contains("fault: recovery: baseline blocking"), "{v:?}");
        assert!(v[0].contains("digests differ"), "{v:?}");
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn json_and_rendering_carry_the_verdict() {
        let rep = report(&[row(true)], TIMEOUT);
        let json = rep.to_json();
        assert!(json.contains("\"gate\": \"fault\""));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"restarted_from\": 2"));
        assert!(
            !json.contains("recovery_secs"),
            "the report carries no clock"
        );
        assert!(json.contains("\"timeout_ms\": 1500"));
        assert!(json.contains("\"bitwise\": true"));
        assert!(rep.rendered().contains("fault gate: PASS"));
    }

    /// The real thing, reduced: one version × one mode through the full
    /// kill → detect → relaunch → compare pipeline. The `repro fault`
    /// binary covers the whole matrix; the unit test keeps CI honest if
    /// that step is skipped — and pins the arm's assertion label.
    #[test]
    fn single_arm_recovers_bitwise() {
        let timeout = Duration::from_millis(400);
        let arm = recovery_rows([(SbmVersion::Lookup, CommMode::Blocking)], timeout).remove(0);
        assert!(arm.violations.is_empty(), "{:?}", arm.violations);
        assert!(arm.agreement.bitwise);
        assert!(arm.cells.contains(&("attempts", Cell::Int(2))));
        assert!(arm.cells.contains(&("restarted_from", Cell::Int(2))));
        let rep = report(&[arm], timeout);
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["recovery: lookup blocking"]);
    }
}
