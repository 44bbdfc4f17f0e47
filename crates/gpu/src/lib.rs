#![warn(missing_docs)]

//! A software model of an NVIDIA A100 GPU under OpenMP target offload.
//!
//! The paper's port runs on Perlmutter A100s through NVHPC's OpenMP
//! `target teams distribute parallel do` lowering. With no GPU available to
//! this reproduction, this crate provides the device as a *simulated
//! substrate* with two coupled planes:
//!
//! * **Functional plane** — [`wrf_exec::Executor`] (persistent
//!   work-stealing pool, over the whole iteration space or a compacted
//!   active set) and [`launch::launch_functional_static`] (per-launch
//!   scoped threads, static partition) execute the kernel body — a Rust
//!   closure over the collapsed iteration space — with real host
//!   parallelism, so offloaded code paths produce real numerical results
//!   that tests compare against the CPU versions.
//! * **Performance plane** — [`launch::launch_modeled`] prices the same
//!   launch on modeled A100 hardware: an occupancy calculator
//!   ([`occupancy`]), a latency-hiding throughput model, DRAM bandwidth
//!   bounds, the per-thread stack wall ([`KernelSpec::check_stack`],
//!   `NV_ACC_CUDA_STACKSIZE` semantics), device-memory capacity with
//!   typed admission errors ([`DevicePool`], the one device-memory
//!   model), and a trace-driven L1/L2 cache simulator ([`cachesim`])
//!   that yields Nsight-Compute-style metrics ([`ncu`]) and roofline
//!   points ([`roofline`]).
//!
//! The collision schedule the paper's versions differ by is plain data
//! in [`schedule`], below every crate that runs, searches or prices it.
//!
//! Machine parameters are centralized in [`machine`] with their sources;
//! calibration constants are documented there and in `EXPERIMENTS.md`.

pub mod cachesim;
pub mod devicepool;
pub mod error;
pub mod launch;
pub mod machine;
pub mod ncu;
pub mod occupancy;
pub mod roofline;
pub mod schedule;
pub mod syncslice;

pub use devicepool::{
    DevicePool, DeviceShare, RankFootprint, RankShare, RankSubmission, ShareReport,
};
pub use error::{DeviceError, GpuError};
pub use launch::{launch_modeled, launch_modeled_with, KernelSpec, KernelWork, LaunchStats};
pub use machine::{
    backend_by_name, default_backend, Backend, Calibration, CpuParams, DeviceProfile, GpuParams,
    Interconnect, A100, CALIBRATION, EPYC_7763, SLINGSHOT, ZOO,
};
pub use ncu::KernelProfile;
pub use occupancy::{occupancy_for, OccupancyResult};
pub use roofline::{Roofline, RooflinePoint};
pub use syncslice::SyncWriteSlice;
