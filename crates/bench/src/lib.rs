#![warn(missing_docs)]

//! The reproduction harness: one function per table/figure of the paper.
//!
//! Each `table*` / `fig*` function returns both structured data and a
//! rendered text block, so the `repro` binary and the integration tests
//! share a single implementation. The mapping to the paper is in
//! DESIGN.md §4; paper-vs-measured numbers are recorded in
//! EXPERIMENTS.md.

pub mod ablations;
pub mod context;
pub mod execbench;
pub mod figures;
pub mod future;
pub mod tables;
pub mod verify;

pub use context::ReproContext;
