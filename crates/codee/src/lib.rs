#![warn(missing_docs)]

//! A Codee-like static analyzer for loop nests.
//!
//! Codee (Section V-A of the paper) contributes three things to the port:
//!
//! 1. **Dependence analysis** — proving the FSBM loops have no
//!    loop-carried dependencies once the global collision arrays are
//!    understood to be dead on entry (`map(from: ...)` in Listing 4),
//!    which licenses the `kernals_ks` removal of Section VI-A.
//! 2. **Modernization checks** from the Open Catalog of Best Practices
//!    (missing `implicit none`, assumed-size arguments, missing intents,
//!    automatic arrays in offloaded code, ...).
//! 3. **Directive rewriting** — inserting OpenMP offload constructs into
//!    the source (`codee rewrite --offload omp`).
//!
//! This crate implements all three as real analyses over a small loop IR
//! ([`ir`]): affine-subscript dependence testing with GCD/coefficient
//! reasoning and write-first privatization ([`depend`]), a checker
//! catalog over subprogram metadata ([`checks`]), and a rewriter that
//! emits the annotated pseudo-Fortran of Listing 4 ([`rewrite`]). The
//! paper's own loop nests (Listings 1, 3, and 6) are encoded in
//! [`corpus`] and analyzed by the test suite and the `codee_workflow`
//! example. [`screening`] aggregates project-level reports like
//! `codee screening`.

pub mod checks;
pub mod corpus;
pub mod depend;
pub mod ir;
pub mod modernize;
pub mod rewrite;
pub mod screening;
pub mod tune;

pub use checks::{run_checks, Check, Finding, Severity};
pub use depend::{analyze, Dependence, DependenceKind, LoopAnalysis};
pub use ir::{Affine, ArrayRef, LoopNest, LoopVar, Stmt, Subprogram};
pub use modernize::{modernize, Modernized};
pub use rewrite::rewrite_offload;
pub use screening::{screening, ScreeningReport};
pub use tune::{tune, NestWork, PricedVariant, ScheduleVariant, TuneReport, TuneTarget};
