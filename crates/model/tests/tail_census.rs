//! The bin-tail floor holds through every driver. After every step of
//! every case at gate depth, no bin value of a rank's compute region is
//! subnormal or positive below `N_FLOOR`: in both layouts at one and two
//! workers (the plain and the pooled transport), on two ranks blocking
//! and overlapped, and in the nest child. The floor also has to have
//! done something: on the supercell case its counters read more than
//! zero.

use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::{Layout, SbmVersion};
use fsbm_core::state::{SbmPatchState, TailCensus};
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use miniwrf::nest::run_nested;
use miniwrf::parallel::run_parallel;
use mpi_sim::CommMode;
use wrf_cases::CaseKind;

fn cfg(kind: CaseKind, workers: usize) -> ModelConfig {
    ModelConfig::case_gate(
        kind,
        SbmVersion::OffloadCollapse3,
        ExecMode::work_steal(),
        workers,
    )
}

fn assert_clean(state: &SbmPatchState, what: &str) {
    let census = state.tail_census();
    assert_eq!(census, TailCensus::default(), "{what}");
}

#[test]
fn solo_steps_leave_no_bin_tail() {
    for kind in CaseKind::ALL {
        for layout in Layout::ALL {
            for workers in [1, 2] {
                let mut c = cfg(kind, workers);
                c.layout = layout;
                let mut model = Model::single_rank(c);
                let mut floored = 0;
                for step in 1..=ModelConfig::GATE_STEPS {
                    let rep = model.step();
                    floored += rep.rk3.floored.values + rep.sbm.floored.values;
                    let what = format!("{kind:?} {layout:?} w={workers} step {step}");
                    assert_clean(&model.state, &what);
                }
                if kind == CaseKind::Supercell {
                    assert!(floored > 0, "{layout:?} w={workers}: nothing floored");
                }
            }
        }
    }
}

#[test]
fn two_rank_steps_leave_no_bin_tail() {
    for kind in CaseKind::ALL {
        for comm in [CommMode::Blocking, CommMode::Overlapped] {
            let mut c = cfg(kind, 2);
            c.ranks = 2;
            c.comm = comm;
            for steps in 1..=ModelConfig::GATE_STEPS {
                let run = run_parallel(c, steps);
                for (rank, state) in run.states.iter().enumerate() {
                    let what = format!("{kind:?} {} rank {rank} step {steps}", comm.name());
                    assert_clean(state, &what);
                }
                let floored: u64 = run.reports.iter().map(|r| r.floored.values).sum();
                if kind == CaseKind::Supercell {
                    assert!(floored > 0, "{} step {steps}: nothing floored", comm.name());
                }
            }
        }
    }
}

#[test]
fn nest_child_steps_leave_no_bin_tail() {
    for kind in CaseKind::ALL {
        let mut c = cfg(kind, 1);
        c.nest = Some(ModelConfig::GATE_NEST);
        for steps in 1..=ModelConfig::GATE_STEPS {
            let run = run_nested(c, steps).expect("the gate nest fits");
            assert_clean(&run.child, &format!("{kind:?} child step {steps}"));
            assert_clean(&run.parent, &format!("{kind:?} parent step {steps}"));
        }
    }
}
