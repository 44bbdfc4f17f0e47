//! The Section VI porting narrative as an executable walkthrough:
//!
//! 1. offload the collision loop with `collapse(3)` and automatic
//!    arrays → **CUDA stack overflow** (the §VI-B error);
//! 2. retreat to `collapse(2)` → it runs, but at single-digit occupancy;
//! 3. raise `NV_ACC_CUDA_STACKSIZE` and apply the Listing 8 slab
//!    refactor → full `collapse(3)` at ~37 % occupancy, ~10× faster.
//!
//! ```sh
//! cargo run --release --example gpu_port_walkthrough
//! ```

use wrf_offload_repro::prelude::*;

fn main() {
    // The collision kernel with automatic arrays needs ~20 KiB of stack
    // per thread (40 bin arrays of 33 reals plus scratch); a default
    // context gives it CUDA's 1 KiB.
    let mut automatic = SbmVersion::OffloadCollapse3
        .kernel_spec()
        .expect("offloaded");
    automatic.stack_bytes_per_thread = Storage::Stack.stack_bytes_per_thread();
    println!("--- attempt 1: collapse(3), automatic arrays, default stack ---");
    match automatic.check_stack(A100.default_stack_bytes) {
        Ok(()) => println!("launched (unexpected!)"),
        Err(e) => println!("LAUNCH FAILED: {e}"),
    }

    println!("\n--- attempt 2: export NV_ACC_CUDA_STACKSIZE=65536 ---");
    automatic.check_stack(65536).unwrap();
    println!(
        "stack OK; context now reserves {:.1} GiB of HBM for the stack pool",
        A100.stack_pool_bytes(65536) as f64 / (1u64 << 30) as f64
    );

    // Run both offloaded versions functionally and compare their modeled
    // launches.
    let coeffs = measure_coeffs(0.08, 24, 3);
    let traffic = traffic_rates(default_backend());
    let pp = PerfParams::default();
    for (version, label) in [
        (
            SbmVersion::OffloadCollapse2,
            "collapse(2), automatic arrays",
        ),
        (
            SbmVersion::OffloadCollapse3,
            "collapse(3), temp_arrays slabs",
        ),
    ] {
        let exp = experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version,
                ranks: 16,
                gpus: 16,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        );
        let c = exp.critical();
        let l = c.launch.as_ref().unwrap();
        println!(
            "\n--- {label} ---\n  kernel {:.2} ms | achieved occupancy {:.2}% | {} wave(s) | bound: {:?}",
            l.time_secs * 1e3,
            l.occupancy.achieved * 100.0,
            l.occupancy.waves,
            l.bound,
        );
        println!(
            "  limiter: {:?} | grid {} blocks | step total {:.2} s",
            l.occupancy.limiter, l.occupancy.grid_blocks, c.total
        );
    }

    // And the correctness check the paper runs (§VII-B).
    println!("\n--- diffwrf: collapse(3) vs CPU baseline (6 steps, reduced scale) ---");
    let (_, report) = diffwrf_c3_vs_baseline();
    println!("{report}");
}

fn diffwrf_c3_vs_baseline() -> (Vec<(String, wrf_cases::diffwrf::DiffReport)>, String) {
    // The harness' verification path (`wrf_gate::verify`) on two of the
    // four versions: run baseline and collapse(3) directly.
    let run = |version: SbmVersion| {
        let mut m = Model::single_rank(ModelConfig::functional(version, 0.06, 12));
        m.run(6);
        m.state
    };
    let a = run(SbmVersion::Baseline);
    let b = run(SbmVersion::OffloadCollapse3);
    let r = diffwrf(&a, &b);
    let s = format!(
        "state digits >= {}, microphysics digits >= {} (paper: 3-6 / 1-5)",
        r.min_state_digits(),
        r.min_microphysics_digits()
    );
    (vec![("collapse3".into(), r)], s)
}
