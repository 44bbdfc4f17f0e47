//! The communication gate (`repro comm`): comm-mode equivalence plus
//! overlap accounting.
//!
//! Two enforced claims about the nonblocking halo engine:
//!
//! * **Equivalence** — for every scheme version, the multi-rank gate
//!   case produces *bitwise-identical* per-rank digests under
//!   [`CommMode::Blocking`] and [`CommMode::Overlapped`]. The engine
//!   may only move message time off the critical path, never change a
//!   bit of the weather (the §VII-B `diffwrf` bar, applied to comm).
//! * **Overlap** — on a 16-rank case sized so every patch has an
//!   interior core, the replayed α–β cost model must hide at least
//!   [`MIN_HIDDEN_FRACTION`] of the posted halo time behind interior
//!   tendencies (3 of the 4 refreshes per panel have compute to hide
//!   behind, so ~75% is the ceiling).
//! * **One message per neighbour per round per panel** — every rank of
//!   the bench sent exactly `4 × panel refreshes` halo messages, the
//!   refreshes counted from the occupied-bin masks each step started
//!   from ([`panel_refreshes`]), not read back from the engine. A slide
//!   back to one message per scalar, or a panel that silently splits,
//!   is red.
//!
//! The report is written to `BENCH_comm.json` with per-rank overlap
//! stats; any violation makes `repro comm` exit nonzero.

use crate::golden::{compare_states, equivalence, equivalence_matrix, Arm, EquivRow, Sides};
use crate::report::{Cell, Check, Report, Table};
use fsbm_core::exec::ExecMode;
use fsbm_core::panels::LANES;
use fsbm_core::scheme::SbmVersion;
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use miniwrf::config::ModelConfig;
use miniwrf::model::occupied_masks;
use miniwrf::parallel::{run_parallel, CommStats, ParallelRun};
use mpi_sim::CommMode;

/// Ranks of the equivalence runs (the gate case decomposed).
const RANKS: usize = 4;
/// Horizontal scale of the overlap bench (large enough that every patch
/// keeps an interior core at [`BENCH_RANKS`]).
const BENCH_SCALE: f64 = 0.3;
/// Vertical levels of the overlap bench.
const BENCH_NZ: i32 = 8;
/// Ranks of the overlap bench (the paper's headline rank count).
const BENCH_RANKS: usize = 16;
/// Steps of the overlap bench.
const BENCH_STEPS: usize = 2;
/// Required fraction of posted halo seconds hidden behind interior
/// compute in the overlap bench.
pub const MIN_HIDDEN_FRACTION: f64 = 0.5;

/// The overlap bench's outcome: both arms' summed comm seconds and the
/// Overlapped arm's per-rank stats.
#[derive(Debug, Clone)]
pub struct OverlapBench {
    /// Whether the two arms agreed bitwise.
    pub bitwise: bool,
    /// Summed modeled comm seconds of the Blocking arm.
    pub blocking_secs: f64,
    /// Summed exposed comm seconds of the Overlapped arm.
    pub overlapped_secs: f64,
    /// `(rank, comm stats)` of the Overlapped arm.
    pub ranks: Vec<(usize, CommStats)>,
    /// Panel refreshes the bench's steps call for ([`panel_refreshes`]
    /// summed over them): a quarter of the messages every rank sends.
    pub panel_refreshes: u64,
}

impl OverlapBench {
    /// Aggregate hidden fraction across ranks.
    pub fn hidden_fraction(&self) -> f64 {
        let mut merged = mpi_sim::OverlapStats::default();
        self.ranks
            .iter()
            .for_each(|(_, r)| merged.merge(&r.overlap));
        merged.hidden_fraction()
    }
}

/// Halo refreshes of one step whose ranks start from `states`: the
/// occupied-bin masks OR-ed over the ranks, then four refreshes (three
/// stages and the post-update one) for each advected panel — θ, vapor,
/// and per class its occupied bins in panels of [`LANES`] — plus the one
/// ahead of vapor's diffusion. Each refresh is two rounds of two sides.
pub fn panel_refreshes(states: &[SbmPatchState]) -> u64 {
    let mut occupied = [[false; NKR]; NTYPES];
    for mask in states.iter().map(occupied_masks) {
        for (all, rank) in occupied.iter_mut().flatten().zip(mask.as_flattened()) {
            *all |= rank;
        }
    }
    let class_panels = |row: &[bool; NKR]| row.iter().filter(|&&b| b).count().div_ceil(LANES);
    let panels = 2 + occupied.iter().map(class_panels).sum::<usize>();
    4 * panels as u64 + 1
}

/// Assembles the comm report from the equivalence rows and the bench.
pub fn report(equiv: &[EquivRow], bench: &OverlapBench) -> Report {
    let (table, mut checks) = equivalence(
        "equivalence",
        "Blocking vs Overlapped digest equivalence",
        equiv,
    );
    let hidden = bench.hidden_fraction();
    checks.push(Check::new(
        "overlap bench arms bitwise",
        bench.bitwise,
        "overlap bench arms diverged bitwise",
    ));
    checks.push(
        Check::new(
            "hidden fraction",
            hidden >= MIN_HIDDEN_FRACTION,
            format!(
                "hidden fraction {hidden:.3} < required {MIN_HIDDEN_FRACTION:.3} at {BENCH_RANKS} ranks"
            ),
        )
        .bounded(hidden, MIN_HIDDEN_FRACTION),
    );
    let want_msgs = 4 * bench.panel_refreshes;
    let strays: Vec<String> = (bench.ranks.iter())
        .filter(|(_, r)| r.msgs != want_msgs)
        .map(|(rank, r)| format!("rank {rank} sent {}", r.msgs))
        .collect();
    checks.push(Check::new(
        "messages per rank = 4 × panel refreshes",
        strays.is_empty(),
        format!(
            "{} panel refreshes call for {want_msgs} messages a rank, but {}",
            bench.panel_refreshes,
            strays.join(", ")
        ),
    ));
    let overlap = Table::new(
        "overlap",
        "overlap bench: blocking comm vs overlapped exposed comm",
        [vec![
            ("bench_bitwise", bench.bitwise.into()),
            ("blocking_secs", Cell::num(bench.blocking_secs, 9)),
            ("overlapped_secs", Cell::num(bench.overlapped_secs, 9)),
            ("hidden_fraction", Cell::num(hidden, 6)),
        ]],
    );
    let ranks = Table::new(
        "ranks",
        "overlap bench: per-rank stats of the Overlapped arm",
        bench.ranks.iter().map(|(rank, r)| {
            let o = r.overlap;
            vec![
                ("rank", (*rank).into()),
                ("mode", r.mode.name().into()),
                ("msgs", r.msgs.into()),
                ("bytes", r.bytes.into()),
                ("posted", o.posted.into()),
                ("completed", o.completed.into()),
                ("posted_secs", Cell::num(o.posted_secs, 9)),
                ("hidden_secs", Cell::num(o.hidden_secs, 9)),
                ("exposed_secs", Cell::num(o.exposed_secs, 9)),
                ("hidden_fraction", Cell::num(o.hidden_fraction(), 6)),
            ]
        }),
    );
    Report {
        gate: "comm",
        case: vec![
            ("ranks", RANKS.into()),
            ("bench_scale", BENCH_SCALE.into()),
            ("bench_nz", BENCH_NZ.into()),
            ("bench_ranks", BENCH_RANKS.into()),
            ("bench_steps", BENCH_STEPS.into()),
            ("min_hidden_fraction", MIN_HIDDEN_FRACTION.into()),
        ],
        checks,
        tables: vec![table, overlap, ranks],
    }
}

/// The two sides of every comparison here.
const SIDES: &str = "Blocking vs Overlapped";

/// Runs one case in both comm modes: `(blocking, overlapped)`.
pub(crate) fn both_modes(mut cfg: ModelConfig, steps: usize) -> (ParallelRun, ParallelRun) {
    cfg.comm = CommMode::Blocking;
    let blocking = run_parallel(cfg, steps);
    cfg.comm = CommMode::Overlapped;
    (blocking, run_parallel(cfg, steps))
}

/// Runs the comm gate: per-version equivalence on the gate case, then
/// the overlap bench.
pub fn run() -> Report {
    let arms = SbmVersion::ALL.map(|v| Arm::version(v, vec![("ranks", RANKS.into())]));
    let equiv = equivalence_matrix(SIDES, arms, |&version| {
        let mut cfg = ModelConfig::gate(version, ExecMode::work_steal(), 3);
        cfg.ranks = RANKS;
        let (blocking, overlapped) = both_modes(cfg, ModelConfig::GATE_STEPS);
        Sides::of_states(&blocking.states, &overlapped.states)
    });

    let mut cfg = ModelConfig::functional(SbmVersion::Lookup, BENCH_SCALE, BENCH_NZ);
    cfg.ranks = BENCH_RANKS;
    let (blocking, overlapped) = both_modes(cfg, BENCH_STEPS);
    let secs = |run: &ParallelRun| -> f64 {
        (run.reports.iter())
            .filter_map(|r| r.comm.map(|c| c.secs))
            .sum()
    };
    // The state step `s` starts from is where a run of `s` steps ends.
    let panel_refreshes = (0..BENCH_STEPS)
        .map(|s| panel_refreshes(&run_parallel(cfg, s).states))
        .sum();
    let bench = OverlapBench {
        panel_refreshes,
        bitwise: compare_states(&blocking.states, &overlapped.states).bitwise,
        blocking_secs: secs(&blocking),
        overlapped_secs: secs(&overlapped),
        ranks: (overlapped.reports.iter().enumerate())
            .filter_map(|(rank, r)| Some((rank, r.comm?)))
            .collect(),
    };
    report(&equiv, &bench)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::StateAgreement;
    use mpi_sim::OverlapStats;

    fn parts(hidden: f64, posted: f64, bitwise: bool) -> (Vec<EquivRow>, OverlapBench) {
        let agreement = StateAgreement {
            bitwise,
            min_digits: if bitwise { 15 } else { 3 },
            worst_field: if bitwise { String::new() } else { "T".into() },
            worst_ulp: 0,
        };
        let equiv = vec![EquivRow {
            arm: "baseline".into(),
            cells: vec![("version", "baseline".into()), ("ranks", 4usize.into())],
            violations: agreement
                .violation("Blocking vs Overlapped")
                .into_iter()
                .collect(),
            agreement,
        }];
        let stats = CommStats {
            mode: CommMode::Overlapped,
            msgs: 8,
            bytes: 4096,
            secs: posted - hidden,
            overlap: OverlapStats {
                posted: 8,
                completed: 8,
                posted_secs: posted,
                hidden_secs: hidden,
                exposed_secs: posted - hidden,
            },
        };
        let bench = OverlapBench {
            bitwise: true,
            blocking_secs: posted,
            overlapped_secs: posted - hidden,
            ranks: vec![(0, stats)],
            panel_refreshes: 2,
        };
        (equiv, bench)
    }

    fn report_with(hidden: f64, posted: f64, bitwise: bool) -> Report {
        let (equiv, bench) = parts(hidden, posted, bitwise);
        report(&equiv, &bench)
    }

    #[test]
    fn hidden_fraction_threshold_gates() {
        assert!(report_with(0.8e-3, 1.0e-3, true).pass());
        let low = report_with(0.2e-3, 1.0e-3, true);
        assert!(!low.pass());
        assert!(low.violations().iter().any(|v| v.contains("hidden")));
    }

    #[test]
    fn digest_divergence_gates() {
        let bad = report_with(0.8e-3, 1.0e-3, false);
        assert!(!bad.pass());
        assert!(bad.violations().iter().any(|v| v.contains("digests")));
        let (equiv, mut bench) = parts(0.8e-3, 1.0e-3, true);
        bench.bitwise = false;
        let v = report(&equiv, &bench).violations();
        assert!(v.iter().any(|x| x.contains("bench arms")), "{v:?}");
    }

    #[test]
    fn a_rank_off_the_panel_count_gates() {
        let (equiv, mut bench) = parts(0.8e-3, 1.0e-3, true);
        assert!(report(&equiv, &bench).pass());
        // One message per scalar again: eight lanes' worth.
        bench.ranks[0].1.msgs = 64;
        let v = report(&equiv, &bench).violations();
        assert!(
            v.iter()
                .any(|x| x.contains("rank 0 sent 64") && x.contains("8 messages")),
            "{v:?}"
        );
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn json_and_rendering_carry_the_verdict() {
        let rep = report_with(0.8e-3, 1.0e-3, true);
        let json = rep.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"hidden_fraction\": 0.8"), "{json}");
        assert!(json.contains("\"rank\": 0"));
        assert!(json.contains("\"min_hidden_fraction\": 0.5"));
        assert!(rep.rendered().contains("0.800000"));
    }

    /// The assertion inventory of the real gate, exactly.
    #[test]
    fn gate_run_makes_exactly_these_assertions() {
        let rep = run();
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        let mut want: Vec<String> = SbmVersion::ALL
            .iter()
            .map(|v| format!("equivalence: {}", v.label()))
            .collect();
        want.extend([
            "overlap bench arms bitwise".into(),
            "hidden fraction".into(),
            "messages per rank = 4 × panel refreshes".into(),
        ]);
        assert_eq!(labels, want);
    }
}
