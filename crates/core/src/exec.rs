//! Execution strategy for the functional FSBM plane: how the emulated
//! device threads are scheduled over the collision iteration space, and
//! who runs the sweeps around it.
//!
//! Two strategies exist, the two `bench-exec` arms:
//!
//! * **Static tiles** — the classic `schedule(static)` reference: the
//!   iteration space is split into one contiguous block per worker and
//!   nothing rebalances. Storm clustering leaves most workers idle. The
//!   nucleation/condensation, freeze/melt/breakup and sedimentation
//!   sweeps stay serial loops on the calling thread — the paper's
//!   program, where only the collision loop is offloaded.
//! * **Work-stealing + compaction** — the production point. A persistent
//!   [`wrf_exec::Executor`] (created once per run, not per step)
//!   distributes automatically sized chunks over per-worker deques and
//!   idle workers steal; the predicate mask produced by the fissioned
//!   pre-sweep is scanned into a compact active-index list first, so the
//!   work queue only ever contains points (or columns) whose collision
//!   predicate fired. On CONUS-like sparsity (≤ 20% active) this shrinks
//!   the queue ~5× before any scheduling happens. The three sweeps run
//!   on the same pool, one unit per `(j,k)` row, condensation lane batch
//!   or `(i,j)` column (the paper's §VIII: "the loops calling
//!   condensation routines are currently being offloaded").

use wrf_exec::ExecStats;

/// How the offloaded collision loop (and the tiled CPU path) schedules
/// its iterations across the emulated device threads, and whether the
/// sweeps around it share those threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Contiguous static partition, fresh threads per launch (the seed
    /// behavior's `schedule(static)` analogue).
    StaticTiles,
    /// Persistent work-stealing executor over the activity-compacted
    /// iteration space, automatic chunk size.
    WorkSteal,
}

impl ExecMode {
    /// The default production mode.
    pub const fn work_steal() -> Self {
        ExecMode::WorkSteal
    }

    /// True for the executor-backed variant.
    pub fn uses_executor(self) -> bool {
        self == ExecMode::WorkSteal
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::StaticTiles => "static-tiles",
            ExecMode::WorkSteal => "work-stealing+compaction",
        }
    }
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::work_steal()
    }
}

/// Scans a predicate mask into the compact list of active flat indices
/// (the activity-compacted work queue for a `collapse(3)` launch).
pub fn compact_active_points(predicate: &[bool]) -> Vec<u32> {
    predicate
        .iter()
        .enumerate()
        .filter_map(|(i, &on)| on.then_some(i as u32))
        .collect()
}

/// Scans a point predicate laid out as `[column][i]` into the compact
/// list of active column indices — a column is active when any of its
/// `ilen` points is (the `collapse(2)` launch unit).
pub fn compact_active_columns(predicate: &[bool], ilen: usize) -> Vec<u32> {
    assert!(ilen > 0 && predicate.len().is_multiple_of(ilen));
    predicate
        .chunks_exact(ilen)
        .enumerate()
        .filter_map(|(c, col)| col.iter().any(|&p| p).then_some(c as u32))
        .collect()
}

/// One-run executor summary for the repro driver and the ledger: the
/// numbers that tell whether the queue was balanced, how
/// sparse the activity was, and whether the kernel cache earned its keep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecSummary {
    /// Scheduling mode label ([`ExecMode::label`]).
    pub mode: &'static str,
    /// Pool width (1 when no executor was created: the caller thread
    /// ran everything).
    pub workers: usize,
    /// Jobs dispatched to the pool.
    pub epochs: u64,
    /// Chunks executed across all workers.
    pub chunks: u64,
    /// Successful steals across all workers.
    pub steals: u64,
    /// Queue occupancy high-water mark (chunks in one deque).
    pub max_queue: u64,
    /// Least-busy / most-busy worker busy-time ratio (1.0 = balanced).
    pub balance: f64,
    /// Fraction of grid points whose collision predicate fired.
    pub active_fraction: f64,
    /// Kernel-cache hit rate (1.0 when the cache is disabled or idle).
    pub cache_hit_rate: f64,
    /// Share of the collision sweep's lane slots that did a point's own
    /// work (`SbmStepStats::lane_efficiency`; 1.0 when no panel swept).
    pub lane_efficiency: f64,
    /// Share of the condensation relaxes' lane slots that relaxed a point
    /// the relax was called for (`SbmStepStats::cond_lane_efficiency`;
    /// 1.0 when no panel relaxed).
    pub cond_efficiency: f64,
}

impl ExecSummary {
    /// Builds a summary from executor statistics plus scheme-level
    /// context.
    pub fn from_stats(
        mode: &'static str,
        stats: &ExecStats,
        active_fraction: f64,
        cache_hit_rate: f64,
        lane_efficiency: f64,
        cond_efficiency: f64,
    ) -> Self {
        ExecSummary {
            mode,
            workers: stats.workers,
            epochs: stats.epochs,
            chunks: stats.total_chunks(),
            steals: stats.total_steals(),
            max_queue: stats.max_queue,
            balance: stats.balance(),
            active_fraction,
            cache_hit_rate,
            lane_efficiency,
            cond_efficiency,
        }
    }

    /// The one-line run report:
    /// `exec: work-stealing+compaction workers=4 … steals=37 … active=12.5% cache-hit=100.0% lanes=63.0% cond=99.0%`.
    pub fn one_line(&self) -> String {
        format!(
            "exec: {} workers={} epochs={} chunks={} steals={} maxq={} balance={:.2} \
             active={:.1}% cache-hit={:.1}% lanes={:.1}% cond={:.1}%",
            self.mode,
            self.workers,
            self.epochs,
            self.chunks,
            self.steals,
            self.max_queue,
            self.balance,
            self.active_fraction * 100.0,
            self.cache_hit_rate * 100.0,
            self.lane_efficiency * 100.0,
            self.cond_efficiency * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_points_match_mask() {
        let pred = [false, true, true, false, false, true];
        assert_eq!(compact_active_points(&pred), vec![1, 2, 5]);
        assert!(compact_active_points(&[]).is_empty());
    }

    #[test]
    fn compaction_columns_or_over_i() {
        // 3 columns of ilen = 2: [F,F] [T,F] [F,T]
        let pred = [false, false, true, false, false, true];
        assert_eq!(compact_active_columns(&pred, 2), vec![1, 2]);
        // Fully active and fully idle.
        assert_eq!(compact_active_columns(&[true; 4], 2), vec![0, 1]);
        assert!(compact_active_columns(&[false; 4], 2).is_empty());
    }

    #[test]
    fn mode_labels_and_default() {
        assert_eq!(ExecMode::default(), ExecMode::work_steal());
        assert!(ExecMode::default().uses_executor());
        assert!(!ExecMode::StaticTiles.uses_executor());
        assert_eq!(ExecMode::StaticTiles.label(), "static-tiles");
        assert_eq!(ExecMode::default().label(), "work-stealing+compaction");
    }

    #[test]
    fn line_contains_every_field() {
        let line = ExecSummary {
            mode: "work-stealing+compaction",
            workers: 4,
            epochs: 12,
            chunks: 96,
            steals: 7,
            max_queue: 9,
            balance: 0.83,
            active_fraction: 0.125,
            cache_hit_rate: 0.999,
            lane_efficiency: 0.63,
            cond_efficiency: 0.99,
        }
        .one_line();
        assert!(line.starts_with("exec: work-stealing+compaction"));
        for needle in [
            "workers=4",
            "epochs=12",
            "chunks=96",
            "steals=7",
            "maxq=9",
            "balance=0.83",
            "active=12.5%",
            "cache-hit=99.9%",
            "lanes=63.0%",
            "cond=99.0%",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn percentages_round_half_up_to_one_decimal() {
        // 0.12345 → 12.345 % → rendered "12.3%"; 0.9999 → "100.0%" — the
        // gate's rendered tables rely on this exact formatting.
        let line = ExecSummary {
            mode: "static-tiles",
            workers: 1,
            balance: 1.0,
            active_fraction: 0.12345,
            cache_hit_rate: 0.9999,
            lane_efficiency: 1.0,
            ..ExecSummary::default()
        }
        .one_line();
        assert!(line.contains("active=12.3%"), "{line}");
        assert!(line.contains("cache-hit=100.0%"), "{line}");
        assert!(line.contains("balance=1.00"), "{line}");
    }

    #[test]
    fn serial_degenerate_line_is_well_formed() {
        // A serial run with no stealing and a cold cache still renders
        // every field (no division-by-zero or NaN leakage upstream).
        let line = ExecSummary {
            mode: "static-tiles",
            workers: 1,
            ..ExecSummary::default()
        }
        .one_line();
        assert_eq!(
            line,
            "exec: static-tiles workers=1 epochs=0 chunks=0 steals=0 \
             maxq=0 balance=0.00 active=0.0% cache-hit=0.0% lanes=0.0% cond=0.0%"
        );
    }

    /// A scheme that never needed a pool reports the caller thread as its
    /// one worker.
    #[test]
    fn no_pool_is_one_worker() {
        use crate::scheme::{FastSbm, SbmConfig, SbmVersion};
        let patch = wrf_grid::two_d_decomposition(wrf_grid::Domain::new(4, 2, 3), 1, 0).patches[0];
        let mut serial = FastSbm::new(SbmConfig::new(SbmVersion::Baseline));
        let stats = serial.step(&mut crate::state::SbmPatchState::new(patch));
        let summary = serial.exec_summary(&stats);
        assert_eq!((summary.workers, summary.epochs), (1, 0));
        assert_eq!(summary.balance, 1.0);
    }

    #[test]
    fn summary_line_is_compact() {
        let ex = wrf_exec::Executor::new(2);
        ex.run_indexed(10_000, Some(16), |_| {});
        let s = ExecSummary::from_stats(
            ExecMode::WorkSteal.label(),
            &ex.stats(),
            0.125,
            1.0,
            0.63,
            0.99,
        );
        let line = s.one_line();
        assert!(line.contains("work-stealing+compaction"));
        assert!(line.contains("workers=2"));
        assert!(line.contains("active=12.5%"));
        assert!(line.contains("cache-hit=100.0%"));
        assert!(line.contains("lanes=63.0%"));
        assert!(line.contains("cond=99.0%"));
    }
}
