//! The microphysical process routines of `fast_sbm`.
//!
//! Each module stands for one Fortran subroutine of the scheme (Listing
//! 1): [`nucleation`] (`jernucl01_ks`), [`condensation`] (`onecond1`,
//! `onecond2`, `onecond3`), [`collision`] (`coal_bott_new`), plus
//! [`freezing`], [`breakup`], and the column-wise [`sedimentation`].
//! Nucleation, freezing and breakup run per point here; the bodies of
//! condensation, collision and sedimentation are the lane-batch kernels
//! of [`crate::panels`], and their modules hold the constants, the branch
//! rule and the tests. [`driver`] combines them per grid point with the
//! paper's temperature guards.

pub mod breakup;
pub mod collision;
pub mod condensation;
pub mod driver;
pub mod freezing;
pub mod nucleation;
pub mod sedimentation;
