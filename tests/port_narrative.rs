//! The Section VI/VII porting narrative, end to end across crates:
//! Codee's analysis licenses the refactor; the device model reproduces
//! the stack-overflow and out-of-memory walls; the occupancy model
//! reproduces the collapse(2) → collapse(3) jump.

use codee_sim::{analyze, corpus, rewrite_offload};
use wrf_offload_repro::prelude::*;

#[test]
fn codee_licenses_exactly_the_papers_refactor() {
    // Baseline grid loop: blocked by the global collision arrays.
    let blocked = analyze(&corpus::grid_loop_baseline());
    assert_eq!(blocked.collapsible, 0);
    assert!(rewrite_offload(&corpus::grid_loop_baseline()).is_err());

    // kernals_ks itself: fully parallel, outputs dead on entry — the
    // §VI-A insight that the tables can be deleted.
    let kern = analyze(&corpus::kernals_ks_nest());
    assert!(kern.fully_parallel());
    assert_eq!(kern.dead_on_entry.len(), 20);

    // After the refactor the grid loop offloads with collapse(3).
    let lookup = analyze(&corpus::grid_loop_lookup());
    assert_eq!(lookup.collapsible, 3);
    let code = rewrite_offload(&corpus::coal_fission_loop()).unwrap();
    assert!(code.contains("target teams distribute"));
    assert!(code.contains("collapse(2)")); // outer loops; inner is simd
}

#[test]
fn stack_overflow_then_stacksize_then_oom() {
    // §VI-B: collapse(2)'s automatic arrays overflow the default stack...
    let c2 = SbmVersion::OffloadCollapse2
        .kernel_spec()
        .expect("offloaded");
    let err = c2.check_stack(A100.default_stack_bytes).unwrap_err();
    assert!(matches!(err, GpuError::StackOverflow { .. }));

    // ...raising NV_ACC_CUDA_STACKSIZE fixes the launch (collapse(3)'s
    // slab pointers fit either way; CPU versions launch nothing)...
    assert!(c2.check_stack(65536).is_ok());
    let c3 = SbmVersion::OffloadCollapse3
        .kernel_spec()
        .expect("offloaded");
    assert!(c3.check_stack(A100.default_stack_bytes).is_ok());
    assert!(SbmVersion::Baseline.kernel_spec().is_none());

    // ...but the big stack pools cap GPU sharing at 5 ranks (§VII-A):
    // admitting eight onto one A100 stops at the sixth.
    let mut pool = DevicePool::new(A100, 1);
    let per_rank = RankFootprint {
        stack_bytes: 65536,
        temp_slab_bytes: 1_500_000_000,
        lookup_bytes: 0,
    };
    let err = pool.admit_all(8, &per_rank).unwrap_err();
    assert_eq!(err.rank, 5, "the paper's 5-ranks-per-GPU limit");
    assert_eq!(pool.residents(0).len(), 5);
}

#[test]
fn occupancy_jump_matches_table6_regimes() {
    use gpu_sim::occupancy::{occupancy_for, Limiter};
    // collapse(2): one patch's (j,k) space → ~30 blocks on 108 SMs.
    let c2 = occupancy_for(&A100, (75 * 50u64).div_ceil(128), 128, 168, 0);
    assert_eq!(c2.limiter, Limiter::GridSize);
    assert!(c2.achieved < 0.06, "single digits: {}", c2.achieved);
    // collapse(3): the full point space → thousands of blocks,
    // register-limited around 37 %.
    let c3 = occupancy_for(&A100, (106 * 75 * 50u64).div_ceil(128), 128, 80, 0);
    assert_eq!(c3.limiter, Limiter::Registers);
    assert!((0.30..0.45).contains(&c3.achieved));
    assert!(c3.achieved / c2.achieved > 8.0, "the Table VI jump");
}

#[test]
fn offloaded_model_reports_the_narrative_geometry() {
    // The functional model's offloaded versions carry the same kernel
    // geometry the perf model prices.
    for (v, collapse, big_stack) in [
        (SbmVersion::OffloadCollapse2, 2u32, true),
        (SbmVersion::OffloadCollapse3, 3u32, false),
    ] {
        let mut m = Model::single_rank(ModelConfig::functional(v, 0.05, 10));
        let rep = m.run(2);
        assert!(rep.last_sbm.unwrap().coal_iters > 0, "{v:?} launched");
        let spec = v.kernel_spec().expect("offloaded");
        assert_eq!(spec.collapse, collapse);
        assert_eq!(spec.stack_bytes_per_thread > 4096, big_stack);
    }
}
