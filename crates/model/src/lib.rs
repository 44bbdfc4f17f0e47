#![warn(missing_docs)]
// `drop(view)` on borrow-holding views is load-bearing (ends the borrow
// before the owner is used again); the lint misreads it as a no-op.
#![allow(clippy::drop_non_drop)]

//! miniwrf — the integrated model driver.
//!
//! Ties the substrates together the way `wrf.exe` does for the paper's
//! experiments: the CONUS case ([`wrf_cases`]) initializes per-rank
//! patches ([`wrf_grid`]); each step advances RK3 scalar transport
//! ([`wrf_dycore`]) for vapor and every hydrometeor bin, then calls one
//! of the four `fast_sbm` versions ([`fsbm_core`]); ranks exchange halos
//! through [`mpi_sim`]; offloaded versions run on [`gpu_sim`] devices.
//!
//! Two planes again:
//! * [`model`] / [`parallel`] run the model *functionally* (real numbers,
//!   real threads) at reduced scale — used for correctness (§VII-B
//!   `diffwrf` agreement) and for measuring per-point work coefficients.
//! * [`perfmodel`] prices full-scale CONUS-12km runs on the modeled
//!   Perlmutter hardware from those coefficients — regenerating the
//!   paper's Tables I/III–VII and Figures 3–4.

pub mod config;
pub mod hotspots;
pub mod model;
pub mod namelist;
pub mod nest;
pub mod parallel;
pub mod perfmodel;
pub mod restart;
pub mod schedule;

pub use config::ModelConfig;
pub use model::{Model, RunReport, StepReport};
pub use namelist::config_from_namelist;
pub use nest::{interior_max_rel, run_nested, run_solo_fine, NestedRun};
pub use parallel::{
    run_parallel, run_parallel_checked, CommStats, ParallelRun, RankFailure, ShareStats,
};
pub use perfmodel::{
    cpu_rank_step_time, experiment, gpu_rank_step_time, measure_coeffs, rank_footprint,
    staged_bytes, traffic_rates, try_experiment, ExperimentConfig, ExperimentResult,
    MeasuredCoeffs, PerfParams, RankStepTime, RankWork,
};
pub use restart::{find_latest_checkpoint, run_parallel_restartable, RecoveryStats, RestartConfig};
pub use schedule::{auto_version, tune_backend, tune_backend_with, version_for};
