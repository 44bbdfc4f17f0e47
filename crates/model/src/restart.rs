//! Checkpoint/restart and the rank-failure supervisor.
//!
//! WRF survives node loss the unglamorous way: `restart_interval`
//! minutes between restart files, and a batch script that resubmits
//! `wrf.exe` from the latest set. This module reproduces that loop over
//! the thread-rank runtime. Each rank writes a WRF-style restart file
//! (the `wrf_cases::wrfout` format plus step/clock/checksum framing)
//! every [`RestartConfig::interval`] steps; when a rank dies — scripted
//! through an [`mpi_sim::FaultPlan`] or real — the survivors detect it
//! through timed-out collectives, the attempt tears down cleanly, and
//! [`run_parallel_restartable`] relaunches every rank from the newest
//! *complete* checkpoint set.
//!
//! Recovery is bitwise: a run that is killed and resumed produces
//! exactly the final state of an uninterrupted run, because a
//! checkpoint captures everything the step loop depends on — the
//! completed-step count, the accumulated `f32` model clock (wind fields
//! are functions of it), and the full patch state including halos. The
//! `repro fault` gate (`wrf-gate::fault`) asserts this for every scheme
//! version × comm mode.

use crate::config::ModelConfig;
use crate::parallel::{
    admit_ranks, attach_share, run_attempt, CheckpointSpec, ParallelRun, RankFailure, StartPoint,
};
use fsbm_core::state::SbmPatchState;
use mpi_sim::{FaultPlan, DEFAULT_TIMEOUT};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use wrf_cases::wrfout;

/// Supervisor policy for a restartable run.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Directory holding the per-rank restart files.
    pub dir: PathBuf,
    /// Steps between checkpoints (namelist `restart_interval`); must be
    /// > 0 for recovery to have anything to resume from.
    pub interval: usize,
    /// Launch attempts before the supervisor gives up (first try
    /// included).
    pub max_attempts: usize,
    /// Per-rank receive/collective timeout — the failure-detection
    /// latency. Production-sized runs want the generous default;
    /// fault-injection tests drop it to tens of milliseconds.
    pub timeout: Duration,
}

impl RestartConfig {
    /// A policy writing to `dir` every `interval` steps, with 3
    /// attempts and the default timeout.
    pub fn new(dir: impl Into<PathBuf>, interval: usize) -> Self {
        RestartConfig {
            dir: dir.into(),
            interval,
            max_attempts: 3,
            timeout: DEFAULT_TIMEOUT,
        }
    }
}

/// What recovery cost: the supervisor's ledger for the `repro fault`
/// gate and the `miniwrf` one-liner.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Launch attempts made (1 = no failure).
    pub attempts: usize,
    /// Rank failures observed, in supervisor order.
    pub failures: Vec<String>,
    /// Completed-step label of each checkpoint a relaunch started from
    /// (0 = cold start).
    pub restarts_from: Vec<u64>,
    /// Steps run more than once because the failure landed between
    /// checkpoints.
    pub steps_replayed: u64,
    /// Restart files written across all attempts.
    pub checkpoint_writes: u64,
    /// Wall seconds spent in failed attempts plus checkpoint discovery
    /// (the recovery overhead the gate reports).
    pub recovery_wall_secs: f64,
}

impl RecoveryStats {
    /// The one-line supervisor summary `miniwrf` prints: launches made
    /// (1 = no failure), the checkpoint the last relaunch resumed from
    /// (`-` when the run never failed), steps integrated twice, restart
    /// files written, and the wall time the failed attempts burned.
    pub fn one_line(&self) -> String {
        let from = match self.restarts_from.last() {
            Some(step) => format!("from=step{step}"),
            None => "from=-".to_string(),
        };
        format!(
            "recovery: attempts={} {from} replayed={} checkpoints={} overhead={:.1}ms",
            self.attempts,
            self.steps_replayed,
            self.checkpoint_writes,
            self.recovery_wall_secs * 1.0e3,
        )
    }
}

/// The per-rank restart file path for a checkpoint taken after `done`
/// completed steps.
pub fn checkpoint_path(dir: &Path, rank: usize, done: u64) -> PathBuf {
    dir.join(format!("restart_r{rank:04}_s{done:08}.bin"))
}

/// Writes one rank's restart file atomically: the record goes to a
/// temporary name first and is renamed into place, so a rank killed
/// mid-write can never leave a plausible-but-truncated file where the
/// supervisor looks (and the checksum catches anything that slips by).
pub(crate) fn write_rank_checkpoint(
    dir: &Path,
    rank: usize,
    done: u64,
    time: f32,
    state: &SbmPatchState,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let target = checkpoint_path(dir, rank, done);
    let tmp = target.with_extension("tmp");
    wrfout::save_restart(&tmp, done, time, state)?;
    std::fs::rename(&tmp, &target)
}

/// Finds the newest step for which *every* rank has a loadable restart
/// file, and loads the set. A checkpoint is only usable if all ranks
/// can resume from the same step; a set with a missing, corrupt, or
/// step-mismatched member is skipped in favour of the next older one.
pub fn find_latest_checkpoint(dir: &Path, ranks: usize) -> Option<Vec<StartPoint>> {
    let entries = std::fs::read_dir(dir).ok()?;
    // Candidate steps = those seen for rank 0; set-completeness is
    // verified by loading.
    let mut steps: Vec<u64> = entries
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let rest = name.strip_prefix("restart_r0000_s")?;
            let digits = rest.strip_suffix(".bin")?;
            digits.parse().ok()
        })
        .collect();
    steps.sort_unstable();
    steps.dedup();
    for &done in steps.iter().rev() {
        let mut set = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            match wrfout::load_restart(&checkpoint_path(dir, rank, done)) {
                Ok((s, time, state)) if s == done => set.push((s, time, state)),
                _ => break,
            }
        }
        if set.len() == ranks {
            return Some(set);
        }
    }
    None
}

/// Runs `cfg` for `steps` steps under the restart supervisor:
/// checkpoints every `rcfg.interval` steps, and on any rank failure
/// tears the attempt down, reloads the newest complete checkpoint set,
/// and relaunches — up to `rcfg.max_attempts` times. `plan` scripts
/// faults for testing; pass `None` in production. The returned states
/// are bitwise-identical to an uninterrupted [`crate::run_parallel`]
/// run of the same `cfg`. Device admission comes first, as in
/// [`crate::run_parallel_checked`]: a configuration past the §VII-A
/// memory cap is an error before any rank spawns or any checkpoint is
/// written, and a shared run's reports carry the same [`crate::ShareStats`].
pub fn run_parallel_restartable(
    cfg: ModelConfig,
    steps: usize,
    rcfg: &RestartConfig,
    plan: Option<Arc<FaultPlan>>,
) -> Result<(ParallelRun, RecoveryStats), String> {
    if rcfg.interval == 0 {
        return Err("restart supervisor needs interval > 0".into());
    }
    let pool = admit_ranks(&cfg).map_err(|e| e.to_string())?;
    // Before any rank spawns: a rank that cannot write its checkpoint has
    // no way to fail but to panic, leaving its peers to time out.
    std::fs::create_dir_all(&rcfg.dir).map_err(|e| {
        format!(
            "restart directory {} cannot be created: {e}",
            rcfg.dir.display()
        )
    })?;
    let mut stats = RecoveryStats::default();
    let writes = std::sync::atomic::AtomicU64::new(0);
    loop {
        stats.attempts += 1;
        if stats.attempts > rcfg.max_attempts {
            stats.checkpoint_writes = writes.load(std::sync::atomic::Ordering::SeqCst);
            return Err(format!(
                "gave up after {} attempts; failures: [{}]",
                rcfg.max_attempts,
                stats.failures.join("; ")
            ));
        }
        let attempt_began = std::time::Instant::now();
        let start = if stats.attempts == 1 {
            None
        } else {
            find_latest_checkpoint(&rcfg.dir, cfg.ranks)
        };
        let resume_step = start.as_ref().map_or(0, |s| s[0].0);
        if stats.attempts > 1 {
            stats.restarts_from.push(resume_step);
        }
        let results = run_attempt(
            cfg,
            steps,
            start.as_deref(),
            Some(CheckpointSpec {
                dir: &rcfg.dir,
                interval: rcfg.interval,
                writes: &writes,
            }),
            plan.clone(),
            rcfg.timeout,
        );
        let failures: Vec<&RankFailure> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        if failures.is_empty() {
            stats.checkpoint_writes = writes.load(std::sync::atomic::Ordering::SeqCst);
            let mut run = ParallelRun {
                states: Vec::with_capacity(cfg.ranks),
                reports: Vec::with_capacity(cfg.ranks),
            };
            for r in results {
                let (state, report) = r.expect("no failures");
                run.states.push(state);
                run.reports.push(report);
            }
            if let Some(pool) = &pool {
                attach_share(&mut run.reports, pool);
            }
            return Ok((run, stats));
        }
        let failed_step = failures.iter().map(|f| f.step).min().unwrap_or(0);
        stats.steps_replayed += failed_step.saturating_sub(resume_step);
        for f in &failures {
            stats.failures.push(f.to_string());
        }
        // Everything spent on an attempt that had to be thrown away is
        // recovery overhead.
        stats.recovery_wall_secs += attempt_began.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_parallel;
    use fsbm_core::scheme::SbmVersion;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("miniwrf_restart_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cfg() -> ModelConfig {
        let mut cfg = ModelConfig::functional(SbmVersion::Lookup, 0.05, 6);
        cfg.ranks = 2;
        cfg.device_workers = Some(2);
        cfg
    }

    #[test]
    fn line_contains_every_field() {
        let line = RecoveryStats {
            attempts: 2,
            failures: vec!["rank 1 killed".into()],
            restarts_from: vec![6],
            steps_replayed: 3,
            checkpoint_writes: 9,
            recovery_wall_secs: 0.4567,
        }
        .one_line();
        for needle in [
            "recovery: attempts=2",
            "from=step6",
            "replayed=3",
            "checkpoints=9",
            "overhead=456.7ms",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn clean_run_renders_dash() {
        let line = RecoveryStats {
            attempts: 1,
            checkpoint_writes: 4,
            ..RecoveryStats::default()
        }
        .one_line();
        assert_eq!(
            line,
            "recovery: attempts=1 from=- replayed=0 checkpoints=4 overhead=0.0ms"
        );
    }

    fn assert_bitwise(a: &[SbmPatchState], b: &[SbmPatchState]) {
        for (x, y) in a.iter().zip(b) {
            assert!(
                wrf_cases::diffwrf(x, y).identical(),
                "states diverged:\n{}",
                wrf_cases::diffwrf(x, y)
            );
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let cfg = small_cfg();
        let dir = tmpdir("resume");
        let golden = run_parallel(cfg, 4);
        // Run 4 steps with checkpoints every 2; then resume a fresh
        // attempt from the step-2 set and integrate to 4.
        let rcfg = RestartConfig::new(&dir, 2);
        let (full, stats) = run_parallel_restartable(cfg, 4, &rcfg, None).unwrap();
        assert_eq!(stats.attempts, 1);
        assert_bitwise(&full.states, &golden.states);
        let set = find_latest_checkpoint(&dir, cfg.ranks).expect("step-2 checkpoint");
        assert_eq!(set[0].0, 2);
        let resumed = crate::parallel::run_attempt(cfg, 4, Some(&set), None, None, DEFAULT_TIMEOUT);
        let resumed_states: Vec<SbmPatchState> =
            resumed.into_iter().map(|r| r.unwrap().0).collect();
        assert_bitwise(&resumed_states, &golden.states);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_recovers_from_scripted_kill_bitwise() {
        let cfg = small_cfg();
        let dir = tmpdir("kill");
        let golden = run_parallel(cfg, 4);
        let rcfg = RestartConfig {
            dir: dir.clone(),
            interval: 2,
            max_attempts: 3,
            timeout: Duration::from_millis(300),
        };
        let plan = Arc::new(FaultPlan::new().kill_rank_at(1, 2));
        let (run, stats) = run_parallel_restartable(cfg, 4, &rcfg, Some(plan)).unwrap();
        assert_eq!(stats.attempts, 2, "one failure, one clean relaunch");
        assert_eq!(stats.restarts_from, vec![2], "resumed from the step-2 set");
        assert!(!stats.failures.is_empty());
        assert_bitwise(&run.states, &golden.states);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Faults scripted against a *batched* panel message of step 2 — a
    /// drop, a short delay the exchange absorbs by tag matching, and the
    /// sender's death at that step — in both comm modes: whatever it
    /// takes, the run ends on the fault-free bits.
    #[test]
    fn supervisor_recovers_from_faults_on_a_panel_message_bitwise() {
        use mpi_sim::{CommMode, FaultAction};
        for comm in [CommMode::Blocking, CommMode::Overlapped] {
            let cfg = ModelConfig {
                comm,
                ..small_cfg()
            };
            let golden = run_parallel(cfg, 4);
            // Four messages a panel refresh: the refreshes of steps 0–1
            // are the tag base step 2 starts from.
            let base = run_parallel(cfg, 2).reports[0].comm.unwrap().msgs / 4;
            // The eastward message of a panel refresh well inside step 2
            // (the two ranks sit side by side, so S/N messages never
            // leave a rank).
            let tag = crate::parallel::side_tag(base + 5, 0, 1);
            let on_tag =
                |action| FaultPlan::new().on_message(Some(0), Some(1), Some(tag), action, 1);
            for (what, plan, attempts) in [
                ("drop", on_tag(FaultAction::Drop), 2),
                ("delay", on_tag(FaultAction::Delay(2)), 1),
                ("kill", FaultPlan::new().kill_rank_at(0, 2), 2),
            ] {
                let dir = tmpdir(&format!("panel_{what}_{comm}"));
                let rcfg = RestartConfig {
                    dir: dir.clone(),
                    interval: 2,
                    max_attempts: 3,
                    timeout: Duration::from_millis(300),
                };
                let plan = Arc::new(plan);
                let (run, stats) =
                    run_parallel_restartable(cfg, 4, &rcfg, Some(Arc::clone(&plan))).unwrap();
                assert_eq!(
                    stats.attempts, attempts,
                    "{what}, {comm}: {:?}",
                    stats.failures
                );
                if what != "kill" {
                    assert_eq!(
                        plan.message_hits(),
                        1,
                        "{what}, {comm}: the fault must fire"
                    );
                }
                if attempts == 2 {
                    assert_eq!(stats.restarts_from, vec![2], "{what}, {comm}");
                }
                assert_bitwise(&run.states, &golden.states);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn kill_before_first_checkpoint_restarts_cold() {
        let cfg = small_cfg();
        let dir = tmpdir("cold");
        let golden = run_parallel(cfg, 3);
        let rcfg = RestartConfig {
            dir: dir.clone(),
            interval: 2,
            max_attempts: 3,
            timeout: Duration::from_millis(300),
        };
        // Killed at step 1: the only checkpoint (step 2) is never
        // written, so the relaunch must cold-start from step 0.
        let plan = Arc::new(FaultPlan::new().kill_rank_at(0, 1));
        let (run, stats) = run_parallel_restartable(cfg, 3, &rcfg, Some(plan)).unwrap();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.restarts_from, vec![0]);
        assert_bitwise(&run.states, &golden.states);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_member_falls_back_to_older_set() {
        let cfg = small_cfg();
        let dir = tmpdir("corrupt");
        let rcfg = RestartConfig::new(&dir, 1);
        run_parallel_restartable(cfg, 4, &rcfg, None).unwrap();
        // Sets exist at steps 1, 2, 3. Flip a byte inside rank 1's
        // step-3 file: discovery must skip to the step-2 set.
        let victim = checkpoint_path(&dir, 1, 3);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();
        let set = find_latest_checkpoint(&dir, cfg.ranks).expect("older set");
        assert_eq!(set[0].0, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncreatable_restart_dir_is_an_error_not_a_rank_panic() {
        let dir = tmpdir("uncreatable");
        let file = dir.join("not_a_directory");
        std::fs::write(&file, b"x").unwrap();
        let rcfg = RestartConfig {
            timeout: Duration::from_millis(200),
            ..RestartConfig::new(file.join("restart"), 1)
        };
        let err = run_parallel_restartable(small_cfg(), 2, &rcfg, None).unwrap_err();
        assert!(err.contains("cannot be created"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The supervisor admits devices like `run_parallel_checked`: the
    /// sixth rank on one device is past the §VII-A cap, and the run
    /// stops before any rank writes a checkpoint.
    #[test]
    fn supervisor_refuses_an_oversubscribed_device() {
        let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse3, 0.06, 8);
        cfg.ranks = 6;
        cfg.gpus = 1;
        let dir = tmpdir("oversubscribed");
        let err = run_parallel_restartable(cfg, 2, &RestartConfig::new(&dir, 1), None).unwrap_err();
        assert!(err.contains("rank 5 needs"), "{err}");
        assert!(err.contains("on device 0"), "{err}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shared restartable run attaches the ledger `run_parallel_checked`
    /// attaches for the same configuration.
    #[test]
    fn supervisor_attaches_the_share_ledger() {
        let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse3, 0.06, 8);
        cfg.ranks = 4;
        cfg.gpus = 2;
        let dir = tmpdir("shared");
        let want = crate::run_parallel_checked(cfg, 2).unwrap();
        let (got, _) =
            run_parallel_restartable(cfg, 2, &RestartConfig::new(&dir, 1), None).unwrap();
        for (rank, (g, w)) in got.reports.iter().zip(&want.reports).enumerate() {
            assert!(g.share.is_some(), "rank {rank}");
            assert_eq!(g.share, w.share, "rank {rank}");
        }
        assert_bitwise(&got.states, &want.states);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_gives_up_after_max_attempts() {
        let cfg = small_cfg();
        let dir = tmpdir("giveup");
        let rcfg = RestartConfig {
            dir: dir.clone(),
            interval: 2,
            max_attempts: 2,
            timeout: Duration::from_millis(200),
        };
        // Kills at steps 2 and 3 fire once each: the first attempt dies
        // at step 2, the relaunch (resumed at step 2) dies at step 3,
        // exhausting max_attempts = 2.
        let plan = Arc::new(FaultPlan::new().kill_rank_at(0, 2).kill_rank_at(0, 3));
        let err = run_parallel_restartable(cfg, 4, &rcfg, Some(plan)).unwrap_err();
        assert!(err.contains("gave up"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
