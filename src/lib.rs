#![warn(missing_docs)]

//! # wrf-offload-repro
//!
//! A from-scratch Rust reproduction of *"Optimizing the Weather Research
//! and Forecasting Model with OpenMP Offload and Codee"* (SC 2024): the
//! Fast Spectral Bin Microphysics scheme in the paper's four optimization
//! stages, a miniature WRF driver, and simulated substrates for
//! everything the paper's evaluation needed — an A100 GPU model, an
//! MPI-like rank runtime, the gprof/Nsight views of Table I, and a
//! Codee-like static loop analyzer.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`fsbm_core`] | the FSBM scheme (the paper's optimization target), four versions |
//! | [`wrf_grid`]  | domain → patch → tile decomposition, fields, halos |
//! | [`wrf_dycore`] | RK3 scalar transport (`rk_scalar_tend` / `rk_update_scalar`) |
//! | [`gpu_sim`]   | modeled A100: occupancy, launches, caches, the shared-device pool (the one device-memory model); the collision schedule as plain data |
//! | [`mpi_sim`]   | rank runtime + α–β cost model |
//! | [`prof_sim`]  | the program's wall clock (`Stopwatch`); home of the span stream to come |
//! | [`codee_sim`] | dependence analysis, Open-Catalog checks, directive rewriting |
//! | [`wrf_cases`] | synthetic CONUS-12km scenario + `diffwrf` |
//! | [`miniwrf`]   | integrated model driver + the full-scale performance model |
//! | [`wrf_gate`]  | the reproduction harness: the paper's tables and figures, golden verification, the seven gates (`repro`) |
//!
//! ## Quick start
//!
//! ```
//! use wrf_offload_repro::prelude::*;
//!
//! // A reduced-scale CONUS thunderstorm case with the lookup-optimized
//! // scheme (§VI-A of the paper).
//! let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.05, 10);
//! let mut model = Model::single_rank(cfg);
//! let report = model.run(3);
//! assert!(report.coal_entries > 0, "storms collide");
//! ```
//!
//! The `repro` binary (in `crates/gate`) regenerates every table and
//! figure of the paper; see EXPERIMENTS.md for paper-vs-model numbers.

pub use codee_sim;
pub use fsbm_core;
pub use gpu_sim;
pub use miniwrf;
pub use mpi_sim;
pub use prof_sim;
pub use wrf_cases;
pub use wrf_dycore;
pub use wrf_gate;
pub use wrf_grid;

/// The most commonly used types, re-exported.
pub mod prelude {
    pub use codee_sim::{analyze, rewrite_offload, screening};
    pub use fsbm_core::exec::{ExecMode, ExecSummary};
    pub use fsbm_core::kernels::{KernelCache, KernelMode, KernelTables};
    pub use fsbm_core::scheme::{FastSbm, SbmConfig, SbmStepStats, SbmVersion};
    pub use fsbm_core::state::SbmPatchState;
    pub use fsbm_core::types::{HydroClass, NKR, NTYPES};
    pub use gpu_sim::devicepool::{DevicePool, RankFootprint, RankSubmission};
    pub use gpu_sim::error::GpuError;
    pub use gpu_sim::machine::{default_backend, A100, EPYC_7763, SLINGSHOT};
    pub use gpu_sim::schedule::Storage;
    pub use miniwrf::config::ModelConfig;
    pub use miniwrf::model::{Model, RunReport};
    pub use miniwrf::parallel::run_parallel;
    pub use miniwrf::perfmodel::{
        experiment, measure_coeffs, traffic_rates, ExperimentConfig, PerfParams,
    };
    pub use mpi_sim::comm::run_ranks;
    pub use wrf_cases::conus::{ConusCase, ConusParams};
    pub use wrf_cases::diffwrf::diffwrf;
    pub use wrf_grid::{two_d_decomposition, Domain, Field3, Field4};
}
