//! Synthetic zoo rows and searches for the gate's unit tests, and the
//! real zoo gate's rows built once per test process.

use crate::tables::{Table7Arm, Table7Row, Table7Times, GPUS};
use crate::tune::{auto_bitwise_check, family_ranking, AutoBitwise, FamilyBest, Search};
use crate::zoo::{backend_rows, ranking_of, BackendRow, VersionTime};
use crate::ReproContext;
use fsbm_core::scheme::SbmVersion;

/// The best schedule of `family`, at `secs`, with `geom`'s
/// `(collapse, regs, stack bytes)`.
fn synth_family(family: &'static str, secs: f64, geom: (usize, u32, u64)) -> FamilyBest {
    FamilyBest {
        family,
        label: format!("order=j,k,i collapse={} {family}", geom.0),
        secs,
        collapse: geom.0,
        regs: geom.1,
        stack_bytes: geom.2,
        unfissioned_secs: secs,
    }
}

/// `(collapse, regs, stack bytes)` of `version`'s kernel.
pub fn geometry(version: SbmVersion) -> (usize, u32, u64) {
    let s = version.kernel_spec().unwrap();
    (
        s.collapse as usize,
        s.regs_per_thread,
        s.stack_bytes_per_thread,
    )
}

/// A search whose family seconds scale with `scale`.
pub fn synth_search(scale: f64) -> Search {
    let v2 = geometry(SbmVersion::OffloadCollapse2);
    let v3 = geometry(SbmVersion::OffloadCollapse3);
    let families = vec![
        synth_family("stack", 15.0e-3 * scale, v2),
        synth_family("slab[pt,bin]", 5.5e-3 * scale, v3),
        synth_family("slab[bin,pt]", 1.7e-3 * scale, v3),
    ];
    Search {
        searched: 96,
        unschedulable: 0,
        winner: "order=j,k,i collapse=3 slab[bin,pt]".to_string(),
        winner_secs: 1.7e-3 * scale,
        ranking: family_ranking(&families),
        families,
        auto_version: SbmVersion::OffloadCollapse3,
    }
}

/// A passing bitwise arm whose two runs both end at `checksum`.
pub fn auto_bitwise(checksum: u64) -> AutoBitwise {
    AutoBitwise {
        check_steps: 4,
        explicit: "v4".into(),
        auto_checksum: checksum,
        explicit_checksum: checksum,
        violations: Vec::new(),
    }
}

/// One sweep row at matched decomposition on the 16-GPU pool.
fn sweep_row(ranks: usize, cpu_secs: f64, gpu_secs: f64) -> Table7Row {
    let arm = Table7Arm {
        label: "synthetic",
        cpu_ranks: ranks,
        gpu_ranks: ranks,
        gpus: GPUS,
    };
    let times = Table7Times {
        baseline: cpu_secs,
        lookup: cpu_secs,
        gpu: gpu_secs,
        queue_secs: 0.0,
        devices: Vec::new(),
    };
    (arm, times)
}

/// A passing row whose Table V times scale with `v4`, admitting
/// `cap` members per device.
pub fn synth_row(backend: &'static str, v4: f64, cap: usize) -> BackendRow {
    let versions = vec![
        VersionTime {
            version: "baseline",
            secs: 4.0 * v4,
            speedup: 1.0,
        },
        VersionTime {
            version: "lookup",
            secs: 3.0 * v4,
            speedup: 4.0 / 3.0,
        },
        VersionTime {
            version: "collapse2",
            secs: 2.0 * v4,
            speedup: 2.0,
        },
        VersionTime {
            version: "collapse3",
            secs: v4,
            speedup: 4.0,
        },
    ];
    let ranking = ranking_of(&versions);
    BackendRow {
        backend,
        is_cpu: false,
        versions,
        ranking,
        sweep: vec![
            sweep_row(16, 8.0 * v4, 4.0 * v4),
            sweep_row(32, 4.5 * v4, 2.5 * v4),
            sweep_row(64, 3.0 * v4, 2.0 * v4),
        ],
        walls: Vec::new(),
        member_cap: cap,
        search: synth_search(v4 / 100.0),
        violations: Vec::new(),
    }
}

/// The gate's rows and bitwise arm, built once per test process.
pub fn gate_run() -> &'static (Vec<BackendRow>, AutoBitwise) {
    static RUN: std::sync::OnceLock<(Vec<BackendRow>, AutoBitwise)> = std::sync::OnceLock::new();
    RUN.get_or_init(|| {
        let rows = backend_rows(ReproContext::quick_shared());
        (rows, auto_bitwise_check(SbmVersion::OffloadCollapse3, 4))
    })
}
