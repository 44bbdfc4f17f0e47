#![warn(missing_docs)]

//! The program's wall clock.
//!
//! [`Stopwatch`] is what a functional step times its two phases with
//! (`wall_dynamics` / `wall_sbm`). The simulated gprof and Nsight
//! recorders that used to live here are gone: Table I is arithmetic
//! over the perf plane's per-rank seconds (`miniwrf::hotspots`), and
//! each summary line is printed by the type that owns its numbers. The
//! program's span/counter stream (`prof_sim::trace`, planned) lands in
//! this crate.

use std::time::Instant;

/// A simple wall-clock stopwatch for functional (real-execution) timing.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since `start`.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}
