#![warn(missing_docs)]

//! A miniature WRF dynamical core: RK3 scalar transport.
//!
//! WRF advances scalars (vapor, and with FSBM *every bin of every
//! hydrometeor class* — hundreds of 3-D fields) with a three-stage
//! Runge–Kutta scheme whose tendency and update routines,
//! `rk_scalar_tend` and `rk_update_scalar`, are the second and third
//! hotspots of the paper's Table I. This crate reproduces that transport
//! structure:
//!
//! * [`wind`] — a kinematic, mass-consistent storm circulation
//!   (streamfunction-derived updraft cells in shear) standing in for the
//!   full compressible Euler solver. The paper's port never touches the
//!   dynamics; what matters here is the *cost* and data motion of scalar
//!   transport, which is preserved (see DESIGN.md substitution table).
//! * [`advect`] — third-order upwind horizontal / second-order vertical
//!   flux-divergence tendencies ([`advect::rk_scalar_tend`]) and the
//!   RK3 stage update ([`advect::rk_update_scalar`]), with positive-
//!   definite clipping as WRF applies to moisture scalars.
//! * [`rk3`] — the three-stage driver, which advances a *panel* of
//!   scalars that share the wind ([`rk3::rk3_advect_panel`]; the
//!   single-scalar drivers are its one-lane case), and the
//!   [`rk3::HaloEngine`] trait every halo boundary source (periodic,
//!   MPI, nest) implements.
//! * [`nest`] — one-way grid nesting: the child↔parent index map,
//!   time interpolation between bracketing parent steps, and the
//!   halo-strip injection that feeds a refined child patch through the
//!   same [`rk3::HaloEngine`] rounds as the periodic and MPI engines.

pub mod advect;
pub mod diffusion;
pub mod nest;
#[cfg(test)]
mod reference;
pub mod rk3;
pub mod wind;

pub use advect::{rk_scalar_tend, rk_update_scalar, STENCIL_WIDTH};
pub use diffusion::horizontal_diffusion;
pub use nest::{fill_halo_round, time_interp, NestMap, NestSpec};
pub use rk3::{
    refresh_now, rk3_advect_panel, rk3_advect_scalar, rk3_advect_scalar_overlapped, FieldTag,
    HaloEngine, HaloRefresh, Rk3Work,
};
pub use wind::{storm_wind, Wind};
