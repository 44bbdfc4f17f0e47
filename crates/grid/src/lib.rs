#![warn(missing_docs)]

//! WRF-style grid decomposition and field storage.
//!
//! WRF parallelizes with a two-level decomposition (Fig. 1 of the paper):
//! the *domain* (index ranges `ids:ide, kds:kde, jds:jde`) is split
//! horizontally into rectangular *patches*, one per MPI task, whose memory
//! footprint (`ims:ime, kms:kme, jms:jme`) includes halo rows; each patch is
//! further split into *tiles* (`its:ite, kts:kte, jts:jte`) distributed among
//! OpenMP threads.
//!
//! This crate provides those index triplets ([`Span`], [`PatchSpec`]),
//! the decomposition logic ([`decomp`]), 3-D field storage in WRF's
//! `(i, k, j)` memory order ([`Field3`]), and halo pack/unpack ([`halo`]).
//!
//! Index conventions follow WRF: `i` is west–east, `j` is south–north, `k`
//! is the vertical; all ranges are inclusive (Fortran style).

pub mod decomp;
pub mod field;
pub mod halo;
pub mod index;
pub mod overlap;

pub use decomp::{split_patch_into_tiles, two_d_decomposition, DomainDecomp};
pub use field::{Field3, Field4};
pub use halo::{pack_halo, unpack_halo, HaloSide};
pub use index::{Domain, PatchSpec, Span, TileSpec};
pub use overlap::{interior_split, overlap_plan, Frame, InteriorSplit, OverlapPlan, Region};
