#![warn(missing_docs)]

//! An MPI-like rank runtime for the reproduction.
//!
//! WRF's distributed-memory layer (and the multi-rank evaluation of
//! Section VII-A) needs point-to-point halo exchange, collectives, and a
//! communication *cost model*: the paper's 256-core result is dominated by
//! MPI time, and its GPU-sharing results depend on how many ranks feed one
//! device. Ranks here are host threads connected by crossbeam channels
//! ([`comm`]); every operation is also priced with an α–β model over a
//! node topology ([`cost`]). Which GPU a rank lands on is
//! `gpu_sim::DevicePool`'s round-robin, not this crate's business.
//! Rank death is a first-class event: [`fault`] scripts kills and
//! message loss, and every operation in [`comm`] is bounded by the
//! rank's timeout and surfaces a dead or silent peer as a [`CommError`]
//! with (rank, peer, tag, step) context so a supervisor can tear down
//! and restart from a checkpoint instead of hanging.

pub mod comm;
pub mod cost;
pub mod fault;

pub use comm::{
    run_ranks, run_ranks_with_faults, CommError, CommMode, Rank, RecvRequest, Tag, DEFAULT_TIMEOUT,
    OR_WORDS,
};
pub use cost::{CommCost, OverlapStats, Topology};
pub use fault::{FaultAction, FaultPlan};
