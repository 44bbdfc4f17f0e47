//! Schedule selection through the codee autotuner
//! (`&parallel schedule = 'auto'`).
//!
//! The paper picked its offload schedule by hand; here the model plane
//! can ask [`codee_sim::tune`] instead. The collision nest the search
//! runs over is the corpus encoding of the fissioned Listing 6 loop,
//! its DRAM rates come from the same cache simulation the performance
//! plane prices with ([`TrafficModel::measure_for_backend`], so
//! CPU-class backends drop the warp-scatter penalty), and the winning
//! schedule is mapped back onto the [`SbmVersion`] that implements its
//! geometry: slab storage at full collapse is the Listing 8 pointer
//! refactor (`OffloadCollapse3`), stack storage at outer collapse the
//! §VI-B automatic-array kernel (`OffloadCollapse2`).

use crate::perfmodel::{MeasuredCoeffs, TrafficModel};
use codee_sim::corpus::coal_fission_loop;
use codee_sim::tune::{tune, NestWork, TrafficRates, TuneReport, TuneTarget};
use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::Backend;

/// DRAM rates for the autotuner on `backend`, from the performance
/// plane's cache simulation: the collapse(2) trace is the coalesced
/// lane behaviour, the collapse(3) trace the scattered one (Table VI).
/// `measure_for_backend` already flattens the scattered rates onto the
/// coalesced ones for CPU-class backends.
pub fn tune_rates(backend: &Backend) -> TrafficRates {
    let t = TrafficModel::measure_for_backend(backend);
    TrafficRates {
        coalesced_read: t.c2_read,
        coalesced_write: t.c2_write,
        scattered_read: t.c3_read,
        scattered_write: t.c3_write,
    }
}

/// `(collapse depth, registers/thread, stack bytes/thread)` of the
/// hand-derived collision kernel `version` launches — the geometry the
/// search must recover, read from the one place the scheme states it.
pub fn kernel_geometry(version: SbmVersion) -> (usize, u32, u64) {
    let spec = version.kernel_spec().expect("an offloaded version");
    (
        spec.collapse as usize,
        spec.regs_per_thread,
        spec.stack_bytes_per_thread,
    )
}

/// Nominal work density of the collision nest, with the measured NVHPC
/// geometry of the two hand-derived kernels: the automatic arrays and
/// registers of the fat serial-remainder `collapse(2)` thread, the slab
/// residue and registers of the thin per-point `collapse(3)` thread.
pub fn coal_nest_work() -> NestWork {
    let (_, regs_serial, automatic_bytes) = kernel_geometry(SbmVersion::OffloadCollapse2);
    let (_, regs_point, slab_bytes) = kernel_geometry(SbmVersion::OffloadCollapse3);
    NestWork {
        flops_per_point: 2.0e4,
        mem_ops_per_point: 1.5e3,
        automatic_bytes,
        slab_bytes,
        warp_eff_full: 0.6,
        warp_eff_outer: 0.9,
        regs_serial,
        regs_point,
    }
}

/// [`coal_nest_work`] with the density and divergence replaced by
/// coefficients measured from a functional run.
pub fn coal_nest_work_from(coeffs: &MeasuredCoeffs) -> NestWork {
    NestWork {
        flops_per_point: (coeffs.coal_per_coal_point.flops as f64 * coeffs.entries_per_coal_point)
            .max(1.0),
        mem_ops_per_point: (coeffs.coal_per_coal_point.mem_ops as f64
            * coeffs.entries_per_coal_point)
            .max(1.0),
        warp_eff_full: coeffs.warp_eff_c3.clamp(1e-3, 1.0),
        warp_eff_outer: coeffs.warp_eff_c2.clamp(1e-3, 1.0),
        ..coal_nest_work()
    }
}

/// Runs the schedule search for the collision nest on `backend` with
/// nominal work density.
pub fn tune_backend(backend: &Backend) -> TuneReport {
    tune_backend_with(backend, &coal_nest_work())
}

/// [`tune_backend`] with an explicit work density (e.g. from
/// [`coal_nest_work_from`]).
pub fn tune_backend_with(backend: &Backend, work: &NestWork) -> TuneReport {
    tune(
        &coal_fission_loop(),
        work,
        &TuneTarget::new(backend, tune_rates(backend)),
    )
    .expect("the corpus collision nest is offloadable")
}

/// Maps a searched-best schedule onto the version that implements its
/// geometry.
pub fn version_for(report: &TuneReport) -> SbmVersion {
    if report.winner().variant.storage.is_slab() {
        SbmVersion::OffloadCollapse3
    } else {
        SbmVersion::OffloadCollapse2
    }
}

/// The version `&parallel schedule = 'auto'` resolves to on `backend`:
/// search, then map the winner.
pub fn auto_version(backend: &Backend) -> SbmVersion {
    version_for(&tune_backend(backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::machine::{backend_by_name, default_backend, ZOO};

    #[test]
    fn rates_follow_the_traffic_model() {
        let a100 = default_backend();
        let r = tune_rates(a100);
        assert!(r.scattered_read > r.coalesced_read, "{r:?}");
        let grace = backend_by_name("grace-cpu").unwrap();
        let r = tune_rates(grace);
        assert_eq!(r.scattered_read, r.coalesced_read, "{r:?}");
        assert_eq!(r.scattered_write, r.coalesced_write, "{r:?}");
    }

    /// On every zoo backend the searched-best schedule is the slab one,
    /// so `schedule = 'auto'` resolves to the paper's best version.
    #[test]
    fn auto_resolves_to_collapse3_across_the_zoo() {
        for b in ZOO.iter() {
            assert_eq!(
                auto_version(b),
                SbmVersion::OffloadCollapse3,
                "backend {}",
                b.name
            );
        }
    }

    /// The hand-derived kernels fall out as family winners with the
    /// perf-plane rates too, not just the analytic unit-test rates.
    #[test]
    fn family_winners_match_hand_derived_kernels() {
        let rep = tune_backend(default_backend());
        let v2 = rep.family_winner("stack").unwrap();
        assert_eq!(
            (
                v2.variant.collapse,
                v2.spec.regs_per_thread,
                v2.spec.stack_bytes_per_thread
            ),
            kernel_geometry(SbmVersion::OffloadCollapse2)
        );
        let v3 = rep.family_winner("slab[pt,bin]").unwrap();
        assert_eq!(
            (
                v3.variant.collapse,
                v3.spec.regs_per_thread,
                v3.spec.stack_bytes_per_thread
            ),
            kernel_geometry(SbmVersion::OffloadCollapse3)
        );
        assert!(v3.secs < v2.secs);
    }
}
