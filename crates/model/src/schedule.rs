//! Schedule selection through the codee autotuner
//! (`&physics mp_physics = 'fsbm_auto'`).
//!
//! The paper picked its offload schedule by hand; here the model plane
//! can ask [`codee_sim::tune`] instead. The search runs over the corpus
//! encoding of the fissioned Listing 6 loop with the performance plane's
//! DRAM rates ([`traffic_rates`]) and `gpu_sim::schedule`'s kernel
//! geometry. Search and scheme share that storage axis, so the winner
//! maps back to the version whose [`SbmVersion::plan`] offloads with its
//! storage family: slab → `OffloadCollapse3`, stack → `OffloadCollapse2`.

use crate::perfmodel::{traffic_rates, MeasuredCoeffs};
use codee_sim::corpus::coal_fission_loop;
use codee_sim::tune::{tune, NestWork, TuneReport, TuneTarget};
use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::Backend;
use gpu_sim::schedule::{Offload, Storage};

/// Nominal work density of the collision nest, with the NVHPC geometry
/// of the two hand-derived kernels: the automatic arrays of the stack
/// placement, the slab residue of the Listing 8 placement, and
/// [`NestWork::uniform`]'s registers of the fat and thin threads.
pub fn coal_nest_work() -> NestWork {
    NestWork {
        automatic_bytes: Storage::Stack.stack_bytes_per_thread(),
        slab_bytes: Storage::SlabPointMajor.stack_bytes_per_thread(),
        warp_eff_full: 0.6,
        warp_eff_outer: 0.9,
        ..NestWork::uniform(2.0e4, 1.5e3)
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
        &TuneTarget::new(backend, traffic_rates(backend)),
    )
    .expect("the corpus collision nest is offloadable")
}

/// The version that runs a searched-best schedule: the
/// [`SbmVersion::ALL`] entry whose plan offloads with the winner's
/// storage family (stack or slab).
pub fn version_for(report: &TuneReport) -> SbmVersion {
    let slab = report.winner().variant.storage.is_slab();
    let family = |o: Offload| o.storage.is_slab() == slab;
    SbmVersion::ALL
        .into_iter()
        .find(|v| v.plan().offload.is_some_and(family))
        .expect("an offloaded version of each storage family")
}

/// The version `mp_physics = 'fsbm_auto'` resolves to on `backend`:
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
        let r = traffic_rates(a100);
        assert!(r.scattered_read > r.coalesced_read, "{r:?}");
        let grace = backend_by_name("grace-cpu").unwrap();
        let r = traffic_rates(grace);
        assert_eq!(r.scattered_read, r.coalesced_read, "{r:?}");
        assert_eq!(r.scattered_write, r.coalesced_write, "{r:?}");
    }

    /// On every zoo backend the searched-best schedule is the slab one,
    /// so `mp_physics = 'fsbm_auto'` resolves to the paper's best version.
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

    /// The other half of `fsbm_auto`: for each offloaded version, a search
    /// whose winner has that version's plan — its storage, at its
    /// collapse depth — maps back to that version.
    #[test]
    fn each_offloaded_plan_maps_back_to_its_version() {
        let full = tune_backend(default_backend());
        for version in SbmVersion::ALL.into_iter().filter(|v| v.offloaded()) {
            let offload = version.plan().offload.unwrap();
            let mut rep = full.clone();
            rep.ranked.retain(|p| {
                p.variant.storage == offload.storage
                    && p.variant.collapse as u32 == offload.collapse.depth()
            });
            assert!(!rep.ranked.is_empty(), "{version:?} has no schedule");
            assert_eq!(version_for(&rep), version, "{}", rep.winner().label);
        }
    }

    /// The hand-derived kernels fall out as family winners with the
    /// perf-plane rates too, not just the analytic unit-test rates.
    #[test]
    fn family_winners_match_hand_derived_kernels() {
        let rep = tune_backend(default_backend());
        let mut secs = Vec::new();
        for version in [SbmVersion::OffloadCollapse2, SbmVersion::OffloadCollapse3] {
            let want = version.kernel_spec().unwrap();
            let storage = version.plan().offload.unwrap().storage;
            let got = rep.family_winner(storage).unwrap();
            assert_eq!(got.variant.collapse as u32, want.collapse, "{version:?}");
            assert_eq!(
                got.spec.regs_per_thread, want.regs_per_thread,
                "{version:?}"
            );
            assert_eq!(
                got.spec.stack_bytes_per_thread, want.stack_bytes_per_thread,
                "{version:?}"
            );
            secs.push(got.secs);
        }
        assert!(secs[1] < secs[0], "v3 {} !< v2 {}", secs[1], secs[0]);
    }
}
