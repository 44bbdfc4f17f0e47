//! Section VII-A: multiple MPI ranks sharing GPUs — round-robin
//! placement, kernel serialization, and the 5-ranks-per-GPU memory wall.
//!
//! ```sh
//! cargo run --release --example multi_rank_gpu
//! ```

use wrf_offload_repro::prelude::*;

fn main() {
    // --- The memory wall ------------------------------------------------
    // With NV_ACC_CUDA_STACKSIZE=65536 each rank's context reserves
    // ~13.5 GiB of HBM; with ~1.5 GB of temp_arrays slabs per rank, five
    // ranks fit on an 80 GB A100 and the sixth OOMs — the paper's limit.
    println!("--- how many ranks fit one A100-80GB? ---");
    let per_rank = RankFootprint {
        stack_bytes: 65536,
        temp_slab_bytes: 1_500_000_000,
        lookup_bytes: 0,
    };
    let mut pool = DevicePool::new(A100, 1);
    match pool.admit_all(8, &per_rank) {
        Ok(()) => println!("all 8 ranks admitted"),
        Err(e) => println!("{e}"),
    }
    println!(
        "model says: {} ranks/GPU (paper observed 5)",
        pool.residents(0).len()
    );

    // --- Round-robin sharing and serialization ---------------------------
    println!("\n--- 64 ranks on 16 GPUs: round-robin placement ---");
    let mut pool = DevicePool::new(A100, 16);
    pool.admit_all(64, &per_rank).expect("4 ranks/GPU fit");
    for rank in [0usize, 15, 16, 17, 63] {
        let device = pool.device_for(rank);
        println!(
            "rank {rank:>2} -> GPU {device:>2} (shared by {} ranks)",
            pool.residents(device).len()
        );
    }

    // Kernels from co-located ranks serialize on the device: each waits
    // for its peers' kernels plus a context-service slice per switch.
    println!("\n--- one device, 4 ranks submitting 10 ms kernels at t=0 ---");
    let mut pool = DevicePool::new(A100, 1);
    pool.admit_all(4, &per_rank).expect("4 ranks fit");
    let submissions: Vec<RankSubmission> = (0..4)
        .map(|rank| RankSubmission {
            rank,
            submit_secs: 0.0,
            service_secs: 0.010,
        })
        .collect();
    for r in pool.replay(&submissions).ranks {
        println!(
            "rank {}: kernel runs {:.1} - {:.1} ms",
            r.rank,
            r.queue_secs * 1e3,
            (r.queue_secs + r.service_secs) * 1e3
        );
    }

    // --- The Table VII sweep ---------------------------------------------
    println!("\n--- modeled 10-minute runs (Table VII) ---");
    let coeffs = measure_coeffs(0.08, 24, 3);
    let traffic = traffic_rates(default_backend());
    let pp = PerfParams::default();
    let run = |version, ranks, gpus| {
        experiment(
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
        )
        .total_secs
    };
    println!(
        "{:<12} {:>12} {:>12} {:>9}",
        "config", "baseline(s)", "gpu(s)", "speedup"
    );
    for ranks in [16usize, 32, 64] {
        let b = run(SbmVersion::Baseline, ranks, 0);
        let g = run(SbmVersion::OffloadCollapse3, ranks, 16);
        println!(
            "{:<12} {b:>12.1} {g:>12.1} {:>8.2}x",
            format!("{ranks} ranks"),
            b / g
        );
    }
    let b = run(SbmVersion::Baseline, 256, 0);
    let g = run(SbmVersion::OffloadCollapse3, 40, 8);
    println!("{:<12} {b:>12.1} {g:>12.1} {:>8.2}x", "2 nodes", b / g);
    println!("(paper: 2.08x, 1.82x, 1.56x, 0.956x)");
}
