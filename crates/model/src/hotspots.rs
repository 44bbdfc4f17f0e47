//! Table I: the gprof / Nsight-Systems hotspot comparison.
//!
//! gprof aggregates self time over *all* ranks; the NVTX/Nsight column
//! profiles the single rank the authors selected (a heavily loaded one).
//! Because FSBM work is spatially clustered, the two views disagree —
//! `fast_sbm` is ~51 % in the aggregate but ~77 % on the storm-heavy
//! rank. Both views are the same share, taken over different ranks of
//! the same per-rank modeled times.

use crate::perfmodel::{ExperimentResult, RankStepTime};

/// The routines of one step, in the order the step runs them: the Table I
/// names plus the residual categories.
pub const ROUTINES: [&str; 5] = [
    "rk_scalar_tend",
    "rk_update_scalar",
    "solve_em_other",
    "fast_sbm",
    "mpi_halo",
];

fn routine_secs(t: &RankStepTime, name: &str) -> f64 {
    match name {
        "fast_sbm" => t.fast_sbm,
        "rk_scalar_tend" => t.rk_scalar_tend,
        "rk_update_scalar" => t.rk_update_scalar,
        "solve_em_other" => t.other_dyn,
        "mpi_halo" => t.comm,
        _ => 0.0,
    }
}

/// `routine`'s share (%) of the seconds `ranks` spend in [`ROUTINES`].
fn share(ranks: &[RankStepTime], routine: &str) -> f64 {
    let secs = |name: &str| ranks.iter().map(|t| routine_secs(t, name)).sum::<f64>();
    100.0 * secs(routine) / ROUTINES.iter().map(|r| secs(r)).sum::<f64>()
}

/// Three steps of the heavy rank as an Nsight-Systems-style timeline: a
/// `solve_em` lane over each whole step, then one lane per routine. Each
/// lane is `(name, busy seconds, bar)`, the bar `width` characters across
/// the capture with `#` where the lane is busy; `solve_em`'s seconds are
/// the capture's.
pub fn timeline(exp: &ExperimentResult, width: usize) -> Vec<(&'static str, f64, String)> {
    let rank = exp.critical();
    // (lane, start, end) on one running clock: a range opens where the
    // last one closed.
    let mut ranges = Vec::new();
    let mut clock = 0.0f64;
    for _ in 0..3 {
        let step_start = clock;
        for name in ROUTINES {
            let start = clock;
            clock += routine_secs(rank, name);
            ranges.push((name, start, clock));
        }
        ranges.push(("solve_em", step_start, clock));
    }
    let span = clock.max(1e-12);
    let lanes = std::iter::once("solve_em").chain(ROUTINES);
    lanes
        .map(|lane| {
            let mut row = vec![b'.'; width];
            let mut busy = 0.0;
            for &(_, start, end) in ranges.iter().filter(|r| r.0 == lane) {
                let a = (start / span * width as f64).floor() as usize;
                let b = (end / span * width as f64).ceil() as usize;
                row[a.min(width)..b.min(width)].fill(b'#');
                busy += end - start;
            }
            (lane, busy, String::from_utf8(row).expect("ascii"))
        })
        .collect()
}

/// The Table I rows: `(routine, gprof %, nsys %)` — the share over all
/// ranks, and on the heaviest rank alone.
pub fn table1(exp: &ExperimentResult) -> Vec<(String, f64, f64)> {
    let heavy = std::slice::from_ref(exp.critical());
    ["fast_sbm", "rk_scalar_tend", "rk_update_scalar"]
        .iter()
        .map(|r| (r.to_string(), share(&exp.per_rank, r), share(heavy, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfmodel::{experiment, ExperimentConfig, PerfParams};
    use fsbm_core::scheme::SbmVersion;
    use wrf_cases::ConusParams;

    #[test]
    fn views_cover_all_routines() {
        let (coeffs, traffic) = *crate::perfmodel::test_fixture();
        let pp = PerfParams::default();
        let exp = experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version: SbmVersion::Baseline,
                ranks: 16,
                gpus: 0,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        );
        let heavy = std::slice::from_ref(exp.critical());
        for ranks in [&exp.per_rank[..], heavy] {
            let total_pct: f64 = ROUTINES.iter().map(|r| share(ranks, r)).sum();
            assert!(
                (total_pct - 100.0).abs() < 1e-6,
                "the view covers everything"
            );
        }
        // The timeline has every lane; solve_em wraps every step and
        // lasts as long as the routines together.
        let t = timeline(&exp, 60);
        let lanes: Vec<&str> = t.iter().map(|l| l.0).collect();
        assert_eq!(lanes[1..], ROUTINES);
        assert_eq!((lanes[0], t[0].2.as_str()), ("solve_em", &*"#".repeat(60)));
        let routines: f64 = t[1..].iter().map(|l| l.1).sum();
        assert!((t[0].1 / routines - 1.0).abs() < 1e-12, "{t:?}");
    }

    #[test]
    fn table1_shape_reproduced() {
        let (coeffs, traffic) = *crate::perfmodel::test_fixture();
        let pp = PerfParams::default();
        let exp = experiment(
            &ExperimentConfig {
                case: ConusParams::full(),
                version: SbmVersion::Baseline,
                ranks: 16,
                gpus: 0,
                minutes: 10.0,
            },
            &coeffs,
            &pp,
            &traffic,
        );
        let rows = table1(&exp);
        let (name0, gprof_sbm, nsys_sbm) = &rows[0];
        assert_eq!(name0, "fast_sbm");
        // Paper: 51.4 % aggregate, 77.1 % on the heavy rank. Shape: the
        // heavy-rank share must exceed the aggregate share markedly, and
        // fast_sbm must be the top hotspot.
        assert!(
            nsys_sbm > &(gprof_sbm + 5.0),
            "imbalance must show: gprof {gprof_sbm:.1} vs nsys {nsys_sbm:.1}"
        );
        assert!(*gprof_sbm > 25.0, "fast_sbm aggregate {gprof_sbm:.1}%");
        let (_, gprof_tend, nsys_tend) = &rows[1];
        assert!(
            gprof_tend > nsys_tend,
            "advection share shrinks on the heavy rank"
        );
        // fast_sbm dominates rk_scalar_tend which dominates the update.
        assert!(gprof_sbm > gprof_tend);
        assert!(*gprof_tend > rows[2].1);
    }
}
