#![warn(missing_docs)]

//! Profiling substrates mirroring the tools used in the paper.
//!
//! The paper locates hotspots with two complementary tools (Table I):
//!
//! * **gprof** — a flat profile *aggregated over all MPI ranks*; because
//!   FSBM work is spatially imbalanced, the aggregate understates how
//!   dominant `fast_sbm` is on storm-heavy ranks.
//! * **NVTX + Nsight Systems** — range markers on a *single selected rank*,
//!   giving that rank's true time breakdown.
//!
//! [`FlatProfiler`] reproduces the former, [`RangeProfiler`] the latter.
//! Both accept *seconds* from any source: wall-clock measurements (see
//! [`Stopwatch`]) or the modeled times produced by `gpu-sim`/`mpi-sim`,
//! so the same reports work for functional runs and performance-model runs.

pub mod ensemble;
pub mod exec;
pub mod fault;
pub mod flat;
pub mod ranges;
pub mod table;

pub use ensemble::{ensemble_line, EnsembleSummary};
pub use exec::exec_line;
pub use fault::recovery_line;
pub use flat::{FlatProfiler, FlatReport, FlatRow};
pub use ranges::{RangeProfiler, RangeReport, RangeRow};
pub use table::TextTable;

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
