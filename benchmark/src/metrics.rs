//! The declared metrics: the single list `BENCHMARK.json`, the result
//! line, the ledger table, `results.json` and `--compare` agree on
//! (a unit test holds `BENCHMARK.json` to it).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `--compare` treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured: compared by median against a bound, with spread.
    Measured,
    /// Counted by the program: must repeat exactly on one commit.
    Count,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which it may worsen (end-to-end
    /// metrics only; per-layer metrics explain, they do not gate).
    pub bound: Option<f64>,
    /// Measured or counted.
    pub kind: Kind,
}

/// Bound `--compare` applies to measured per-layer metrics, which
/// declare none.
pub const LAYER_BOUND: f64 = 0.10;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Measured,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
        kind: Kind::Measured,
    }
}

const fn count(name: &'static str) -> Decl {
    Decl {
        name,
        unit: "count",
        better: Better::Lower,
        bound: None,
        kind: Kind::Count,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, the same five on every workload.
/// Times are calibrated seconds (see `calib`); `setup_s` keeps the name
/// the benchmark contract fixes.
pub const END_TO_END: &[Decl] = &[
    e2e("cal_run_wall_s", "s", Lower, 0.25),
    e2e("cal_points_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("digits_min", "digits", Higher, 0.05),
];

/// One layer each; layer = crate. A layer a workload never enters
/// reports 0 there.
pub const PER_LAYER: &[Decl] = &[
    // The uncalibrated view of the end-to-end numbers, and how far the
    // host was from the reference while they were taken.
    layer("raw.run_wall_s", "s", Lower),
    layer("raw.points_per_s", "1/s", Higher),
    layer("raw.setup_s", "s", Lower),
    layer("host.speed_factor", "x", Lower),
    layer("fail_ratio", "ratio", Lower),
    // miniwrf::model
    layer("model.step_ms_p50", "ms", Lower),
    layer("model.step_ms_p90", "ms", Lower),
    layer("model.dyn_ms", "ms", Lower),
    layer("model.sbm_ms", "ms", Lower),
    layer("model.dyn_share", "ratio", Lower),
    count("model.scalars_advected"),
    layer("model.dyn_residual_ms", "ms", Lower),
    // wrf-dycore
    layer("dycore.wind_fill_us", "us", Lower),
    layer("dycore.rk3_scalar_us", "us", Lower),
    layer("dycore.rk3_overlap_scalar_us", "us", Lower),
    layer("dycore.tend_us", "us", Lower),
    layer("dycore.update_us", "us", Lower),
    layer("dycore.tend_ns_per_point", "ns", Lower),
    layer("dycore.diffusion_us", "us", Lower),
    count("dycore.tend_flops"),
    // wrf-grid
    layer("grid.halo_pack_us", "us", Lower),
    layer("grid.halo_unpack_us", "us", Lower),
    layer("grid.periodic_refresh_us", "us", Lower),
    count("grid.halo_bytes_per_refresh"),
    // mpi-sim
    layer("mpi.pingpong_us", "us", Lower),
    layer("mpi.allreduce_us", "us", Lower),
    count("mpi.msgs_per_step"),
    count("mpi.bytes_per_step"),
    // miniwrf::parallel
    layer("parallel.rank_imbalance", "ratio", Lower),
    layer("parallel.wait_share", "ratio", Lower),
    layer("parallel.efficiency", "ratio", Higher),
    // wrf-exec
    layer("exec.epoch_us", "us", Lower),
    layer("exec.steals_per_step", "1/step", Lower),
    layer("exec.chunks_per_step", "1/step", Lower),
    layer("exec.balance", "ratio", Higher),
    layer("exec.model_over_measured", "ratio", Lower),
    // fsbm-core
    layer("sbm.step_ms_p50", "ms", Lower),
    layer("sbm.step_ms_p90", "ms", Lower),
    layer("sbm.coal_ms", "ms", Lower),
    layer("sbm.noncoal_ms", "ms", Lower),
    layer("sbm.coal_ns_per_entry", "ns", Lower),
    layer("sbm.table_build_ms", "ms", Lower),
    layer("sbm.coal_ms_w1", "ms", Lower),
    layer("sbm.coal_scaling_1to2", "x", Higher),
    layer("sbm.v0_step_ms", "ms", Lower),
    layer("sbm.v1_step_ms", "ms", Lower),
    layer("sbm.v2_step_ms", "ms", Lower),
    layer("sbm.v3_step_ms", "ms", Lower),
    layer("sbm.aos_step_ms", "ms", Lower),
    count("sbm.points"),
    count("sbm.active_points"),
    count("sbm.coal_points"),
    count("sbm.activity_fraction"),
    count("sbm.coal_entries"),
    count("sbm.coal_flops"),
    count("sbm.kcache_hit_rate"),
    // fsbm-core::digest, wrf-cases
    layer("core.digest_ms", "ms", Lower),
    layer("cases.init_state_ms", "ms", Lower),
    layer("cases.diffwrf_ms", "ms", Lower),
    layer("cases.restart_write_ms", "ms", Lower),
    layer("cases.restart_read_ms", "ms", Lower),
    count("cases.restart_bytes"),
    count("restart.checkpoint_writes"),
    // the process
    layer("proc.cpu_s", "s", Lower),
    layer("proc.cpu_per_wall", "ratio", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// Looks a declared metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` sits one directory up in the repo; a checkout
    /// that holds only this package has nothing to compare against.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("no BENCHMARK.json beside the package; skipping");
            return;
        };
        let doc = Json::parse(&text).unwrap();
        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), decls.len(), "{key} length");
            for (j, d) in listed.iter().zip(decls) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.word()),
                    "{}",
                    d.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let w = doc.get("workloads").unwrap().items();
        assert_eq!(w.len(), Workload::ALL.len());
        for (j, wl) in w.iter().zip(Workload::ALL) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(wl.name()));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(wl.why()));
        }
    }
}
