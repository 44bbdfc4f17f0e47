#![warn(missing_docs)]

//! `wrf-gate` — the reproduction harness (`repro`).
//!
//! The paper defends its port on two fronts: `diffwrf` digit agreement
//! between CPU and GPU outputs (§VII-B) and measured performance tables
//! (Tables III–VII). This crate holds both, once:
//!
//! * **The paper's numbers** — one function per table and figure
//!   ([`tables`], [`figures`], [`ablations`], [`future`], [`verify`]),
//!   all priced from one measured plane, [`ReproContext`]. Each returns
//!   rows; the `paper` gate ([`paper`]) lays them out as one report next
//!   to the paper's values and checks the shapes the paper claims, and
//!   the other gates and the tests read the same rows (mapping:
//!   DESIGN.md §4; paper-vs-model discussion: EXPERIMENTS.md).
//! * **Fixture verification** ([`cases`]) — every library case and the
//!   one-way nest is run across every scheme version × layout ×
//!   scheduling mode, end states are digested ([`fsbm_core::digest`])
//!   and compared against one committed fixture per state
//!   (`goldens/case_*.golden`, [`fixture`]) with diffwrf-style
//!   statistics ([`golden`]): digits of agreement, max relative error,
//!   ULP distance.
//!
//! Nothing here reads a clock: what a gate emits or enforces is a
//! function of the source tree (`./ci.sh clock_free`). Measured seconds
//! are the ledger's (`benchmark/`), on a recorded host.
//!
//! Seven gates ([`paper`], [`execbench`], [`comm`], [`fault`],
//! [`share`], [`zoo`], [`cases`]) enforce the paper's
//! shapes and the claims of the layers built on top, one gate per
//! claim. Every gate produces the same [`Report`] —
//! labelled checks and tables — whose verdict, text and JSON envelope
//! are written once in [`report`]; every digest-equivalence table comes
//! from one loop, [`golden::equivalence_matrix`]. `repro <gate>` writes
//! the report to the gate's report file and exits nonzero on any
//! violation; `repro cases --bless` regenerates the golden fixtures.
//!
//! A committed report is checked the way the fixtures are: by
//! regenerating it. Nothing here reads one back — `ci.sh` fails a gate
//! whose run left its committed report file changed and prints the diff.

pub mod ablations;
pub mod cases;
pub mod comm;
pub mod context;
pub mod execbench;
pub mod fault;
pub mod figures;
pub mod fixture;
pub mod future;
pub mod golden;
pub mod json;
pub mod paper;
pub mod report;
pub mod share;
#[cfg(test)]
mod synth;
mod table;
pub mod tables;
pub mod tune;
pub mod verify;
pub mod zoo;

pub use context::ReproContext;
pub use fixture::GoldenFixture;
pub use report::{Cell, Check, Report, Table};

use miniwrf::config::ModelConfig;

/// How hard the gates push: the values that differ between a PR run
/// and the nightly reference run. These two sets are the only
/// configurations that exist; `repro <gate> --nightly` (CI:
/// `CI_NIGHTLY`) selects the second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Depth {
    /// Horizontal scales of the cases gate's activity sweep.
    pub cases_sweep: &'static [f64],
}

impl Depth {
    /// What PR CI enforces: the cases sweep at the gate scale alone.
    pub const PR: Depth = Depth {
        cases_sweep: &[ModelConfig::GATE_SCALE],
    };

    /// The reference depth, enforced nightly.
    pub const NIGHTLY: Depth = Depth {
        cases_sweep: &[0.05, 0.1, 0.2],
    };

    /// The set `--nightly` selects.
    pub fn of(nightly: bool) -> Depth {
        if nightly {
            Depth::NIGHTLY
        } else {
            Depth::PR
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PR-event and nightly-event CI resolve to exactly these values.
    #[test]
    fn the_two_depths_are_what_ci_enforces() {
        let (pr, nightly) = (Depth::of(false), Depth::of(true));
        assert_eq!(pr.cases_sweep, &[0.05][..]);
        assert_eq!(nightly.cases_sweep, &[0.05, 0.1, 0.2][..]);
    }
}
