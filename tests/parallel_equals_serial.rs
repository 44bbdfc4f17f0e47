//! Execution strategy must not change the weather: a multi-rank run
//! with halo exchanges reproduces the single-rank run bit-for-bit, the
//! persistent work-stealing executor reproduces the serial path at
//! every worker count and chunk size, and the per-k-level kernel cache
//! reproduces on-demand kernel entries exactly (the diffwrf §VII-B
//! invariant).

use wrf_offload_repro::prelude::*;

fn single(cfg: ModelConfig, steps: usize) -> SbmPatchState {
    let mut m = Model::single_rank(cfg);
    m.run(steps);
    m.state
}

/// Bitwise comparison of two same-patch states over T, QV, and all bins.
fn assert_states_equal(got: &SbmPatchState, want: &SbmPatchState, what: &str) {
    let p = got.patch;
    for j in p.jp.iter() {
        for k in p.kp.iter() {
            for i in p.ip.iter() {
                assert_eq!(
                    got.tt.get(i, k, j).to_bits(),
                    want.tt.get(i, k, j).to_bits(),
                    "T mismatch at ({i},{k},{j}): {what}"
                );
                assert_eq!(
                    got.qv.get(i, k, j).to_bits(),
                    want.qv.get(i, k, j).to_bits(),
                    "QV mismatch at ({i},{k},{j}): {what}"
                );
                for c in 0..NTYPES {
                    assert_eq!(
                        got.ff[c].bin_slice(i, k, j),
                        want.ff[c].bin_slice(i, k, j),
                        "bins mismatch class {c} at ({i},{k},{j}): {what}"
                    );
                }
            }
        }
    }
}

fn assert_matches_single(cfg: ModelConfig, ranks: usize, steps: usize) {
    let mut cfgn = cfg;
    cfgn.ranks = ranks;
    let par = run_parallel(cfgn, steps);
    let ser = single(cfg, steps);
    for st in &par.states {
        let p = st.patch;
        for j in p.jp.iter() {
            for k in p.kp.iter() {
                for i in p.ip.iter() {
                    assert_eq!(
                        st.tt.get(i, k, j),
                        ser.tt.get(i, k, j),
                        "T mismatch at ({i},{k},{j}) with {ranks} ranks"
                    );
                    assert_eq!(
                        st.qv.get(i, k, j),
                        ser.qv.get(i, k, j),
                        "QV mismatch at ({i},{k},{j})"
                    );
                    for c in 0..NTYPES {
                        assert_eq!(
                            st.ff[c].bin_slice(i, k, j),
                            ser.ff[c].bin_slice(i, k, j),
                            "bins mismatch class {c} at ({i},{k},{j})"
                        );
                    }
                }
            }
        }
    }
}

/// The rank drivers a single-rank `miniwrf` run takes for checkpoints
/// or shared devices give the single-rank loop's bits.
#[test]
fn one_rank_matches_single_rank_bitwise() {
    let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.05, 8);
    assert_matches_single(cfg, 1, 3);
}

#[test]
fn two_ranks_match_single_rank_bitwise() {
    let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.05, 8);
    assert_matches_single(cfg, 2, 3);
}

#[test]
fn four_ranks_match_single_rank_bitwise() {
    let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.06, 8);
    assert_matches_single(cfg, 4, 3);
}

#[test]
fn executor_is_bitwise_equal_to_serial_across_workers_and_chunks() {
    // Seed execution path: serial static partition, on-demand kernels.
    let mut ser_cfg = ModelConfig::functional(SbmVersion::OffloadCollapse2, 0.05, 8);
    ser_cfg.sched = ExecMode::StaticTiles;
    ser_cfg.device_workers = Some(1);
    ser_cfg.cached_kernels = false;
    let ser = single(ser_cfg, 3);

    for workers in [2usize, 5] {
        let mut cfg = ser_cfg;
        cfg.device_workers = Some(workers);
        cfg.sched = ExecMode::work_steal();
        assert_states_equal(&single(cfg, 3), &ser, &format!("workers={workers}"));
    }

    // The collapse(3) kernel goes through the point-compacted queue.
    let mut c3_ser = ser_cfg;
    c3_ser.version = SbmVersion::OffloadCollapse3;
    let want = single(c3_ser, 3);
    let mut c3_ws = c3_ser;
    c3_ws.device_workers = Some(4);
    c3_ws.sched = ExecMode::work_steal();
    assert_states_equal(&single(c3_ws, 3), &want, "collapse3 ws+compaction");
}

#[test]
fn cached_kernels_equal_ondemand_exactly() {
    // The diffwrf §VII-B invariant extended to the kernel cache: same
    // bits out, same metered work, for a serial CPU version and an
    // offloaded one under the executor.
    for version in [SbmVersion::Lookup, SbmVersion::OffloadCollapse2] {
        let mut on_demand = ModelConfig::functional(version, 0.05, 8);
        on_demand.cached_kernels = false;
        let mut cached = on_demand;
        cached.cached_kernels = true;

        let mut m_ref = Model::single_rank(on_demand);
        let rep_ref = m_ref.run(3);
        let mut m_cached = Model::single_rank(cached);
        let rep_cached = m_cached.run(3);

        assert_states_equal(
            &m_cached.state,
            &m_ref.state,
            &format!("{version:?} cached"),
        );
        assert_eq!(
            rep_cached.sbm_work, rep_ref.sbm_work,
            "metered work must not depend on the kernel cache ({version:?})"
        );
        assert_eq!(rep_cached.coal_entries, rep_ref.coal_entries);
    }
}

#[test]
fn parallel_ranks_report_executor_summaries() {
    let mut cfg = ModelConfig::functional(SbmVersion::OffloadCollapse2, 0.06, 8);
    cfg.ranks = 4;
    let out = run_parallel(cfg, 2);
    for (rank, rep) in out.reports.iter().enumerate() {
        let ex = rep.exec.as_ref().expect("executor summary per rank");
        assert_eq!(ex.mode, "work-stealing+compaction");
        assert!(ex.workers >= 1, "rank {rank} pool exists");
        assert!(ex.epochs > 0, "rank {rank} dispatched work");
        assert!(
            ex.active_fraction > 0.0 && ex.active_fraction < 1.0,
            "rank {rank} activity in (0,1): {}",
            ex.active_fraction
        );
        // The summary renders through prof-sim.
        assert!(ex.one_line().starts_with("exec: work-stealing+compaction"));
    }
}

#[test]
fn work_is_imbalanced_but_total_is_conserved() {
    // The Table I / §VIII premise: ranks see very different microphysics
    // loads, but the global work equals the single-rank run's.
    let cfg = ModelConfig::functional(SbmVersion::Lookup, 0.08, 10);
    let mut cfg4 = cfg;
    cfg4.ranks = 4;
    let par = run_parallel(cfg4, 2);
    let mut m = Model::single_rank(cfg);
    let ser = m.run(2);

    let per_rank: Vec<u64> = par.reports.iter().map(|r| r.sbm_work.coal.flops).collect();
    let total: u64 = per_rank.iter().sum();
    assert_eq!(total, ser.sbm_work.coal.flops, "global collision work");
    let max = *per_rank.iter().max().unwrap();
    let min = *per_rank.iter().min().unwrap();
    assert!(
        max > min,
        "storms cluster, so ranks should differ: {per_rank:?}"
    );
}
