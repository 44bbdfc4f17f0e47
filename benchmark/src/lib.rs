#![warn(missing_docs)]

//! wrf-ledger — the repo's measured-performance harness.
//!
//! Everything the repo reports about its own speed elsewhere is
//! *modeled* (schedule replay, the perf plane). This package measures:
//! four workloads run the real stack end to end, every layer is also
//! timed in isolation through its public entry points, outputs are
//! checked bitwise against the plainest code path, and a traced pass
//! writes a Chrome trace. `README.md` explains what each number means
//! and which end-to-end metric each layer metric should move.
//!
//! Layout: [`workloads`] (what runs), [`run`] (one run of one
//! workload), [`probes`] (layers in isolation), [`calib`] (host-speed
//! calibration), [`trace`] (span recorder), [`ledger`] (all workloads,
//! `results.json`), [`compare`] (noise-aware verdicts), [`metrics`]
//! (the declared metric list), [`stats`], [`json`], [`host`].

pub mod calib;
pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
