//! The shared-GPU gate (`repro share`): device-sharing equivalence,
//! memory-capped admission, and the Table VII / Fig. 4 scaling sweep.
//!
//! Three enforced claims about the shared-device scheduler:
//!
//! * **Equivalence** — for every scheme version, the multi-rank gate
//!   case produces *bitwise-identical* per-rank digests on exclusive
//!   devices and on a shared pool. Contention changes timing, never
//!   arithmetic (the §VII-B `diffwrf` bar, applied to sharing). For the
//!   offloaded versions the shared run must additionally price a
//!   nonzero exposed queue — sharing that costs nothing isn't modeled.
//! * **Admission** — the paper's memory wall (§VII-A) is typed and
//!   placed: 5 contexts fit one 80 GB A100 at 64 KiB stacks and the
//!   6th fails; the equal-resource 40-rank/8-GPU setup fits while
//!   48/8 fails at exactly rank 40 on device 0, with the
//!   [`gpu_sim::DeviceError`] naming rank, device, and bytes.
//! * **Scaling** — the 16-GPU × {16,32,64}-rank sweep reproduces
//!   Table VII's shape: absolute GPU time still improves with more
//!   ranks (581 → 360 → 303 s), but the speedup over the CPU base
//!   decays (2.08 → 1.82 → 1.56) because sharing queues kernels, and
//!   the equal-resource 2-node comparison crosses over (0.956×).
//!
//! The report is written to `BENCH_share.json`; any violation makes
//! `repro share` exit nonzero.

use crate::golden::{compare_states, equivalence, EquivRow, StateAgreement};
use crate::report::{Cell, Check, Report, Table};
use fsbm_core::exec::ExecMode;
use fsbm_core::scheme::SbmVersion;
use fsbm_core::types::NKR;
use gpu_sim::devicepool::{DevicePool, DeviceShare};
use gpu_sim::machine::A100;
use gpu_sim::DeviceError;
use miniwrf::config::ModelConfig;
use miniwrf::parallel::{run_parallel, run_parallel_checked};
use miniwrf::perfmodel::{
    rank_footprint, try_experiment, ExperimentConfig, ExperimentResult, MeasuredCoeffs, PerfParams,
    TrafficModel,
};
use wrf_cases::ConusParams;

/// Ranks of the equivalence runs (the gate case decomposed).
const RANKS: usize = 4;
/// Devices of the equivalence runs' shared pool (< [`RANKS`], so the
/// pool genuinely time-shares).
const DEVICES: usize = 2;
/// Ceiling on the equal-resource 2-node GPU/CPU speedup (the paper
/// measures 0.956× — the GPUs lose once the CPU side has 256 cores
/// against 8 heavily-shared devices).
pub const MAX_TWO_NODE_SPEEDUP: f64 = 1.05;

/// One admission scenario against the full-scale device pool.
#[derive(Debug, Clone)]
pub struct AdmissionCheck {
    /// What the scenario exercises.
    pub label: &'static str,
    /// Ranks admitted (or attempted).
    pub ranks: usize,
    /// Devices in the pool.
    pub devices: usize,
    /// Outcome description (the typed error's message on failures).
    pub detail: String,
    /// True when the outcome matched the paper's wall.
    pub pass: bool,
}

/// One row of the Table VII sweep: a CPU arm and a GPU arm at matched
/// decomposition.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Row label ("16 ranks", ..., "2 nodes").
    pub label: String,
    /// Ranks of the CPU arm.
    pub cpu_ranks: usize,
    /// Ranks of the GPU arm.
    pub gpu_ranks: usize,
    /// Devices the GPU arm's ranks share.
    pub gpus: usize,
    /// CPU-arm total seconds.
    pub cpu_secs: f64,
    /// GPU-arm total seconds.
    pub gpu_secs: f64,
    /// CPU/GPU speedup.
    pub speedup: f64,
    /// Critical rank's exposed device queue per step, seconds.
    pub queue_secs: f64,
}

/// The Table VII sweep's outcome.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// The rows that ran (16/32/64 ranks, then 2 nodes).
    pub rows: Vec<SweepRow>,
    /// Arms the pool refused (none are expected to be).
    pub rejected: Vec<String>,
    /// Per-device ledger of the most-shared arm (64 ranks on 16 GPUs),
    /// per step.
    pub devices: Vec<DeviceShare>,
}

/// Checks the paper's Table VII shape over the sweep rows (the first
/// three are the 16-GPU sweep in rank order, the last the 2-node
/// comparison): absolute GPU time improves while speedup decays with a
/// degrading scaling increment, queueing grows with sharing depth, and
/// the equal-resource comparison crosses over.
pub fn sweep_shape_violations(rows: &[SweepRow], max_two_node_speedup: f64) -> Vec<String> {
    let mut v = Vec::new();
    if rows.len() != 4 {
        v.push(format!("sweep produced {} rows, expected 4", rows.len()));
        return v;
    }
    let (r16, r32, r64, nodes) = (&rows[0], &rows[1], &rows[2], &rows[3]);
    if !(r32.gpu_secs < r16.gpu_secs && r64.gpu_secs < r32.gpu_secs) {
        v.push(format!(
            "GPU absolute time must keep improving 16→32→64 ranks (paper: 581→360→303 s), got \
             {:.1} → {:.1} → {:.1} s",
            r16.gpu_secs, r32.gpu_secs, r64.gpu_secs
        ));
    }
    if !(r32.speedup < r16.speedup && r64.speedup < r32.speedup) {
        v.push(format!(
            "GPU speedup must decay 16→32→64 ranks (paper: 2.08→1.82→1.56), got \
             {:.2} → {:.2} → {:.2}",
            r16.speedup, r32.speedup, r64.speedup
        ));
    }
    if r16.gpu_secs / r32.gpu_secs <= r32.gpu_secs / r64.gpu_secs {
        v.push(format!(
            "scaling increment must degrade: 16→32 gain {:.3} should exceed 32→64 gain {:.3}",
            r16.gpu_secs / r32.gpu_secs,
            r32.gpu_secs / r64.gpu_secs
        ));
    }
    if r16.queue_secs != 0.0 {
        v.push(format!(
            "exclusive 16-rank/16-GPU arm must not queue, got {:.3} s/step",
            r16.queue_secs
        ));
    }
    if !(r32.queue_secs > 0.0 && r64.queue_secs > r32.queue_secs) {
        v.push(format!(
            "queueing must grow with sharing depth: q32 {:.3} s, q64 {:.3} s",
            r32.queue_secs, r64.queue_secs
        ));
    }
    if nodes.speedup >= max_two_node_speedup {
        v.push(format!(
            "equal-resource 2-node speedup {:.3} must stay below {:.3} (paper: 0.956)",
            nodes.speedup, max_two_node_speedup
        ));
    }
    v
}

/// Assembles the share report from its three arms.
pub fn report(equiv: &[EquivRow], admission: &[AdmissionCheck], sweep: &Sweep) -> Report {
    let (equiv_table, mut checks) = equivalence(
        "equivalence",
        "exclusive vs shared-pool digest equivalence",
        equiv,
    );
    checks.extend(
        admission
            .iter()
            .map(|a| Check::new(format!("admission: {}", a.label), a.pass, a.detail.as_str())),
    );
    checks.push(Check::all_of("sweep arms admitted", &sweep.rejected));
    checks.push(Check::all_of(
        "sweep shape (Table VII)",
        &sweep_shape_violations(&sweep.rows, MAX_TWO_NODE_SPEEDUP),
    ));
    let admission = Table::new(
        "admission",
        "memory-capped admission (\u{a7}VII-A)",
        &["label", "ranks", "devices", "detail", "pass"],
        admission.iter().map(|a| {
            vec![
                a.label.into(),
                a.ranks.into(),
                a.devices.into(),
                a.detail.as_str().into(),
                a.pass.into(),
            ]
        }),
    );
    let rows = Table::new(
        "sweep",
        "Table VII sweep (16 GPUs; equal-resource 2 nodes)",
        &[
            "label",
            "cpu_ranks",
            "gpu_ranks",
            "gpus",
            "cpu_secs",
            "gpu_secs",
            "speedup",
            "queue_secs",
        ],
        sweep.rows.iter().map(|r| {
            vec![
                r.label.as_str().into(),
                r.cpu_ranks.into(),
                r.gpu_ranks.into(),
                r.gpus.into(),
                Cell::num(r.cpu_secs, 3),
                Cell::num(r.gpu_secs, 3),
                Cell::num(r.speedup, 4),
                Cell::num(r.queue_secs, 6),
            ]
        }),
    );
    let devices = Table::new(
        "devices",
        "per-device ledger of the 64-rank arm, per step",
        &[
            "device",
            "residents",
            "used_bytes",
            "capacity_bytes",
            "busy_secs",
            "slice_secs",
            "queue_secs",
        ],
        sweep.devices.iter().map(|d| {
            vec![
                d.device.into(),
                d.residents.into(),
                d.used_bytes.into(),
                d.capacity_bytes.into(),
                Cell::num(d.busy_secs, 9),
                Cell::num(d.slice_secs, 9),
                Cell::num(d.queue_secs, 9),
            ]
        }),
    );
    Report {
        gate: "share",
        case: vec![
            ("ranks", RANKS.into()),
            ("devices", DEVICES.into()),
            ("sweep_scale", crate::COEFF_SCALE.into()),
            ("sweep_nz", crate::COEFF_NZ.into()),
            ("sweep_steps", crate::COEFF_STEPS.into()),
            ("max_two_node_speedup", MAX_TWO_NODE_SPEEDUP.into()),
        ],
        checks,
        tables: vec![equiv_table, admission, rows, devices],
        lines: Vec::new(),
    }
}

/// Full-scale staged slab bytes for one of `ranks` patches of the
/// CONUS-12km domain (the same shape the perf model charges).
pub(crate) fn full_scale_slab_bytes(ranks: usize) -> u64 {
    let full = ConusParams::full();
    let points = (full.nx as u64 * full.ny as u64 * full.nz as u64).div_ceil(ranks as u64);
    7 * NKR as u64 * points * 4 + 4 * points * 4 + points
}

/// Prices `version` on the full CONUS-12km domain over `ranks` ranks
/// sharing `gpus` devices (0: CPU arm) on the perf plane `(pp, traffic)`,
/// [`crate::ensemble::MINUTES`] simulated minutes.
pub(crate) fn full_scale_experiment(
    version: SbmVersion,
    ranks: usize,
    gpus: usize,
    coeffs: &MeasuredCoeffs,
    (pp, traffic): (&PerfParams, &TrafficModel),
) -> Result<ExperimentResult, DeviceError> {
    let cfg = ExperimentConfig {
        case: ConusParams::full(),
        version,
        ranks,
        gpus,
        minutes: crate::ensemble::MINUTES,
    };
    try_experiment(&cfg, coeffs, pp, traffic)
}

/// Runs the admission scenarios against the full-scale pool.
fn run_admission_checks() -> Vec<AdmissionCheck> {
    let pp = PerfParams::default();
    let mut out = Vec::new();

    // How many contexts fit one 80 GB A100 at the paper's 64 KiB stack.
    let fp16 = rank_footprint(&pp, full_scale_slab_bytes(16));
    let mut pool = DevicePool::new(A100, 1);
    let mut cap = 0usize;
    let cap_err = loop {
        match pool.admit(cap, &fp16) {
            Ok(_) => cap += 1,
            Err(e) => break e,
        }
    };
    out.push(AdmissionCheck {
        label: "per-device cap",
        ranks: cap,
        devices: 1,
        detail: format!("{cap} contexts fit, 6th rejected: {cap_err}"),
        pass: cap == 5,
    });

    // The equal-resource 2-node setup: 40 ranks on 8 GPUs (5/device).
    let fp40 = rank_footprint(&pp, full_scale_slab_bytes(40));
    let mut pool = DevicePool::new(A100, 8);
    let ok = pool.admit_all(40, &fp40);
    out.push(AdmissionCheck {
        label: "40 ranks / 8 GPUs",
        ranks: 40,
        devices: 8,
        detail: match &ok {
            Ok(()) => "all admitted (5 per device)".into(),
            Err(e) => format!("unexpected rejection: {e}"),
        },
        pass: ok.is_ok() && (0..8).all(|d| pool.residents(d).len() == 5),
    });

    // One step beyond the wall: 48 ranks on 8 GPUs needs a 6th context
    // on device 0; rank 40 must be the one that fails.
    let fp48 = rank_footprint(&pp, full_scale_slab_bytes(48));
    let err = DevicePool::new(A100, 8).admit_all(48, &fp48);
    out.push(AdmissionCheck {
        label: "48 ranks / 8 GPUs",
        ranks: 48,
        devices: 8,
        detail: match &err {
            Ok(()) => "unexpectedly admitted".into(),
            Err(e) => e.to_string(),
        },
        pass: matches!(&err, Err(e) if e.rank == 40 && e.device == 0 && e.residents == 5),
    });
    out
}

/// One equivalence arm: exclusive devices vs a genuinely-shared pool.
pub fn equivalence_row(version: SbmVersion) -> EquivRow {
    let mut cfg = ModelConfig::gate(version, ExecMode::work_steal(), 3);
    cfg.ranks = RANKS;
    cfg.gpus = 0;
    let exclusive = run_parallel(cfg, ModelConfig::GATE_STEPS);
    cfg.gpus = DEVICES;
    let mut violations = Vec::new();
    let (mut agreement, mut queue_secs) = (StateAgreement::full(), 0.0f64);
    match run_parallel_checked(cfg, ModelConfig::GATE_STEPS) {
        Err(e) => violations.push(format!("gate pool rejected the run: {e}")),
        Ok(shared) => {
            agreement = compare_states(&exclusive.states, &shared.states);
            violations.extend(agreement.violation("exclusive vs shared"));
            queue_secs = (shared.reports.iter())
                .filter_map(|r| r.share.map(|s| s.queue_secs))
                .fold(0.0, f64::max);
            if version.offloaded() && queue_secs == 0.0 {
                violations.push("shared pool priced zero queueing for an offloaded version".into());
            }
        }
    }
    EquivRow {
        arm: version.label().to_string(),
        cells: vec![
            ("version", version.label().into()),
            ("ranks", RANKS.into()),
            ("devices", DEVICES.into()),
            ("queue_secs", Cell::num(queue_secs, 9)),
        ],
        agreement,
        violations,
    }
}

/// Runs the Table VII sweep on the modeled full-scale machine.
pub fn run_sweep(coeffs: &MeasuredCoeffs, traffic: &TrafficModel) -> Sweep {
    let pp = PerfParams::default();
    let run =
        |version, ranks, gpus| full_scale_experiment(version, ranks, gpus, coeffs, (&pp, traffic));
    let mut sweep = Sweep::default();
    for (label, cpu_ranks, gpu_ranks, gpus) in [
        ("16 ranks", 16, 16, 16),
        ("32 ranks", 32, 32, 16),
        ("64 ranks", 64, 64, 16),
        ("2 nodes", 256, 40, 8),
    ] {
        let cpu = run(SbmVersion::Baseline, cpu_ranks, 0);
        let gpu = run(SbmVersion::OffloadCollapse3, gpu_ranks, gpus);
        match (cpu, gpu) {
            (Ok(cpu), Ok(gpu)) => {
                if gpu_ranks == 64 {
                    if let Some(share) = &gpu.share {
                        sweep.devices = share.devices.clone();
                    }
                }
                sweep.rows.push(SweepRow {
                    label: label.to_string(),
                    cpu_ranks,
                    gpu_ranks,
                    gpus,
                    cpu_secs: cpu.total_secs,
                    gpu_secs: gpu.total_secs,
                    speedup: cpu.total_secs / gpu.total_secs,
                    queue_secs: gpu.critical().queue,
                });
            }
            (Err(e), _) | (_, Err(e)) => sweep
                .rejected
                .push(format!("sweep arm {label} failed admission: {e}")),
        }
    }
    sweep
}

/// Runs the share gate: per-version equivalence on the gate case, the
/// admission scenarios, then the Table VII sweep.
pub fn run() -> Report {
    let equiv: Vec<EquivRow> = SbmVersion::ALL.into_iter().map(equivalence_row).collect();
    let sweep = run_sweep(&crate::measure_gate_coeffs(), &TrafficModel::measure());
    report(&equiv, &run_admission_checks(), &sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(q: [f64; 3], gpu: [f64; 3], two_node_speedup: f64) -> Vec<SweepRow> {
        let cpu = [1211.45, 655.1, 471.7];
        let mut rows: Vec<SweepRow> = (0..3)
            .map(|i| SweepRow {
                label: format!("{} ranks", 16 << i),
                cpu_ranks: 16 << i,
                gpu_ranks: 16 << i,
                gpus: 16,
                cpu_secs: cpu[i],
                gpu_secs: gpu[i],
                speedup: cpu[i] / gpu[i],
                queue_secs: q[i],
            })
            .collect();
        rows.push(SweepRow {
            label: "2 nodes".into(),
            cpu_ranks: 256,
            gpu_ranks: 40,
            gpus: 8,
            cpu_secs: 379.8,
            gpu_secs: 379.8 / two_node_speedup,
            speedup: two_node_speedup,
            queue_secs: 1.5,
        });
        rows
    }

    #[test]
    fn paper_shape_passes() {
        // Table VII's own numbers satisfy every ordering.
        let v = sweep_shape_violations(&rows([0.0, 0.6, 1.8], [581.2, 360.1, 303.03], 0.956), 1.05);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn inverted_decay_is_caught() {
        // Speedup *growing* with rank count (the pre-scheduler known
        // deviation) must be flagged.
        let v = sweep_shape_violations(&rows([0.0, 0.6, 1.8], [610.0, 295.0, 145.0], 0.956), 1.05);
        assert!(v.iter().any(|x| x.contains("decay")), "{v:?}");
    }

    #[test]
    fn queue_and_two_node_orderings_gate() {
        // Exclusive arm queueing, shrinking queues, and a 2-node win
        // are each violations.
        let v = sweep_shape_violations(&rows([0.1, 0.6, 1.8], [581.2, 360.1, 303.03], 0.956), 1.05);
        assert!(v.iter().any(|x| x.contains("exclusive")), "{v:?}");
        let v = sweep_shape_violations(&rows([0.0, 1.8, 0.6], [581.2, 360.1, 303.03], 0.956), 1.05);
        assert!(v.iter().any(|x| x.contains("sharing depth")), "{v:?}");
        let v = sweep_shape_violations(&rows([0.0, 0.6, 1.8], [581.2, 360.1, 303.03], 1.2), 1.05);
        assert!(v.iter().any(|x| x.contains("2-node")), "{v:?}");
    }

    fn equiv_row(queue_secs: f64) -> EquivRow {
        EquivRow {
            arm: "offload_collapse3".into(),
            cells: vec![
                ("version", "offload_collapse3".into()),
                ("ranks", 4usize.into()),
                ("devices", 2usize.into()),
                ("queue_secs", Cell::num(queue_secs, 9)),
            ],
            agreement: StateAgreement::full(),
            violations: Vec::new(),
        }
    }

    fn admission(pass: bool) -> AdmissionCheck {
        AdmissionCheck {
            label: "48 ranks / 8 GPUs",
            ranks: 48,
            devices: 8,
            detail: "unexpectedly admitted".into(),
            pass,
        }
    }

    fn paper_sweep() -> Sweep {
        Sweep {
            rows: rows([0.0, 0.6, 1.8], [581.2, 360.1, 303.03], 0.956),
            rejected: Vec::new(),
            devices: vec![DeviceShare {
                device: 0,
                residents: 4,
                used_bytes: 60 << 30,
                capacity_bytes: 80 << 30,
                busy_secs: 1.0,
                slice_secs: 1.2,
                queue_secs: 2.5,
            }],
        }
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn report_verdict_flows_to_json_and_text() {
        let rep = report(&[equiv_row(0.61)], &[admission(true)], &paper_sweep());
        assert!(rep.pass(), "{:?}", rep.violations());
        let json = rep.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"label\": \"2 nodes\""));
        assert!(json.contains("\"device\": 0"));
        assert!(json.contains("\"queue_secs\": 0.61"));
        assert!(json.contains("\"max_two_node_speedup\": 1.05"));
        assert!(rep.rendered().contains("share gate: PASS"));
    }

    #[test]
    fn failed_admission_fails_the_report() {
        let rep = report(&[], &[admission(false)], &paper_sweep());
        assert!(!rep.pass());
        assert!(rep
            .violations()
            .iter()
            .any(|v| v.contains("unexpectedly admitted")));
        assert!(report(&[], &[admission(true)], &paper_sweep()).pass());
        // A refused sweep arm and a broken shape are violations too.
        let mut sweep = paper_sweep();
        sweep
            .rejected
            .push("sweep arm 64 ranks failed admission".into());
        sweep.rows.pop();
        let v = report(&[], &[], &sweep).violations();
        assert!(v.iter().any(|x| x.contains("sweep arms admitted")), "{v:?}");
        assert!(v.iter().any(|x| x.contains("sweep shape")), "{v:?}");
    }

    /// The assertion inventory of the real gate at its cheapest: one
    /// equivalence arm, the admission scenarios, and the sweep priced
    /// from the shared test coefficients.
    #[test]
    fn gate_arms_make_exactly_these_assertions() {
        let (coeffs, traffic) = miniwrf::perfmodel::test_fixture();
        let rep = report(
            &[equivalence_row(SbmVersion::OffloadCollapse2)],
            &run_admission_checks(),
            &run_sweep(coeffs, traffic),
        );
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "equivalence: offload collapse(2)",
                "admission: per-device cap",
                "admission: 40 ranks / 8 GPUs",
                "admission: 48 ranks / 8 GPUs",
                "sweep arms admitted",
                "sweep shape (Table VII)",
            ]
        );
    }
}
