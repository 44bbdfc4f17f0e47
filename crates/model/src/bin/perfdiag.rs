//! Diagnostic dump of the performance model (calibration aid).

use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::default_backend;
use miniwrf::perfmodel::{experiment, measure_coeffs, traffic_rates, ExperimentConfig, PerfParams};
use wrf_cases::ConusParams;

fn main() {
    let coeffs = measure_coeffs(0.08, 20, 3);
    println!("coeffs: {coeffs:#?}");
    let pp = PerfParams::default();
    let traffic = traffic_rates(default_backend());
    println!("traffic: {traffic:?}");

    for (version, ranks, gpus) in [
        (SbmVersion::Baseline, 16, 0),
        (SbmVersion::Lookup, 16, 0),
        (SbmVersion::OffloadCollapse2, 16, 16),
        (SbmVersion::OffloadCollapse3, 16, 16),
        (SbmVersion::Baseline, 32, 0),
        (SbmVersion::OffloadCollapse3, 32, 16),
        (SbmVersion::Baseline, 64, 0),
        (SbmVersion::OffloadCollapse3, 64, 16),
        (SbmVersion::Baseline, 256, 0),
        (SbmVersion::OffloadCollapse3, 40, 8),
    ] {
        let e = experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version,
                ranks,
                gpus,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        );
        let c = e.critical();
        println!(
            "{version:?} ranks={ranks} gpus={gpus}: total={:.1}s step={:.3}s io={:.1}s | \
             sbm={:.3} coal={:.4} tend={:.3} upd={:.3} other={:.3} comm={:.4} xfer={:.4}",
            e.total_secs,
            e.step_secs,
            e.io_secs,
            c.fast_sbm,
            c.coal_loop,
            c.rk_scalar_tend,
            c.rk_update_scalar,
            c.other_dyn,
            c.comm,
            c.transfer,
        );
        if let Some(l) = &c.launch {
            println!(
                "    kernel: {:.3} ms occ={:.2}% waves={} bound={:?} eff_issue per-launch",
                l.time_secs * 1e3,
                l.occupancy.achieved * 100.0,
                l.occupancy.waves,
                l.bound
            );
        }
    }
}
