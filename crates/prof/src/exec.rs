//! Executor-summary reporting: the one-line scheduling report printed
//! after every functional run.
//!
//! The paper infers imbalance indirectly (gprof-vs-nsys disagreement,
//! Table I); the v4 executor makes it observable: steal counts, queue
//! occupancy, busy-time balance, the active-column fraction that drives
//! the compacted work queue, the collision-kernel cache hit rate and how
//! full the collision sweep's lane vectors ran all come out of the run
//! itself. This module owns the canonical rendering
//! so `repro`, tests, and the scheme crate all print the same line.

/// Renders the canonical one-line executor summary.
///
/// `balance` is the least-busy / most-busy worker busy-time ratio
/// (1.0 = perfectly balanced); `active_fraction`, `cache_hit_rate` and
/// `lane_efficiency` (the host's warp efficiency: swept lane slots that
/// did a point's own work) are in `[0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn exec_line(
    mode: &str,
    workers: usize,
    epochs: u64,
    chunks: u64,
    steals: u64,
    max_queue: u64,
    balance: f64,
    active_fraction: f64,
    cache_hit_rate: f64,
    lane_efficiency: f64,
) -> String {
    format!(
        "exec: {mode} workers={workers} epochs={epochs} chunks={chunks} \
         steals={steals} maxq={max_queue} balance={balance:.2} \
         active={:.1}% cache-hit={:.1}% lanes={:.1}%",
        active_fraction * 100.0,
        cache_hit_rate * 100.0,
        lane_efficiency * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_contains_every_field() {
        let line = exec_line(
            "work-stealing+compaction",
            4,
            12,
            96,
            7,
            9,
            0.83,
            0.125,
            0.999,
            0.63,
        );
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
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn percentages_round_half_up_to_one_decimal() {
        // 0.12345 → 12.345 % → rendered "12.3%"; 0.9999 → "100.0%" — the
        // gate's rendered tables rely on this exact formatting.
        let line = exec_line("static-tiles", 1, 1, 1, 0, 0, 1.0, 0.12345, 0.9999, 1.0);
        assert!(line.contains("active=12.3%"), "{line}");
        assert!(line.contains("cache-hit=100.0%"), "{line}");
        assert!(line.contains("balance=1.00"), "{line}");
    }

    #[test]
    fn serial_degenerate_line_is_well_formed() {
        // A serial run with no stealing and a cold cache still renders
        // every field (no division-by-zero or NaN leakage upstream).
        let line = exec_line("static-tiles", 1, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0);
        assert_eq!(
            line,
            "exec: static-tiles workers=1 epochs=0 chunks=0 steals=0 \
             maxq=0 balance=0.00 active=0.0% cache-hit=0.0% lanes=0.0%"
        );
    }
}
