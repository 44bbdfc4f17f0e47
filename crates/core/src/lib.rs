#![warn(missing_docs)]
// `drop(view)` on borrow-holding views is load-bearing (ends the borrow
// before the owner is used again); the lint misreads it as a no-op.
#![allow(clippy::drop_non_drop)]

//! Fast Spectral Bin Microphysics (FSBM) — the paper's optimization target.
//!
//! FSBM (Khain et al. 2004; Shpund et al. 2019) resolves hydrometeor size
//! distributions explicitly on 33 mass-doubling bins per particle class
//! (liquid water, three ice-crystal habits, snow, graupel, hail) and
//! integrates nucleation, diffusional growth, collision–coalescence
//! (Bott's flux method over pairwise collection-kernel tables),
//! sedimentation, freezing/melting, and breakup per grid point.
//!
//! This crate implements the scheme and, crucially, the **four versions**
//! whose deltas the paper measures:
//!
//! | Version | Paper section | Change |
//! |---|---|---|
//! | `Baseline`  | §III   | `kernals_ks` fills 20 shared `nkr×nkr` collision tables per grid point |
//! | `Lookup`    | §VI-A  | tables deleted; pure on-demand kernel entries (`get_cw**`) |
//! | `OffloadCollapse2` | §VI-B | loop fission + predicate array; collision loop offloaded over `(j,k)`; automatic bin arrays on the device stack |
//! | `OffloadCollapse3` | §VI-C | per-grid-point slab arrays (`temp_arrays`) replace automatic arrays; full `collapse(3)` |
//!
//! All four produce the same physics (verified by the `diffwrf` tests);
//! they differ in data structure and loop organization exactly as in the
//! paper, and every routine meters its floating-point and memory work
//! ([`meter`]) so the performance model can price it on modeled hardware.

pub mod bins;
pub mod bulk;
pub mod constants;
pub mod diagnostics;
pub mod digest;
pub mod exec;
pub mod kernels;
pub mod meter;
pub mod panels;
pub mod point;
pub mod processes;
pub mod scheme;
pub mod state;
pub mod thermo;
pub mod types;
pub mod workload;

#[cfg(test)]
mod clear_air;

pub use bins::BinGrid;
pub use digest::{FieldDigest, MomentDigest, StateDigest};
pub use exec::{ExecMode, ExecSummary};
pub use kernels::{
    CollisionPair, CollisionTables, KernelCache, KernelMode, KernelTables, COLLISION_PAIRS,
};
pub use meter::PointWork;
pub use panels::{SoaPanel, LANES};
pub use point::{fast_sbm_point, PointBins, PointThermo};
pub use scheme::{FastSbm, Layout, SbmConfig, SbmStepStats, SbmVersion};
pub use state::SbmPatchState;
pub use types::{HydroClass, NKR, NTYPES};
