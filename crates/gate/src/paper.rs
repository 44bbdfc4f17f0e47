//! The paper gate (`repro paper`): Tables I and III–VII, Figs. 2–4, the
//! three ablations, the §VIII projection, the §VII-B verification and
//! the Codee workflow as one [`Report`], priced from one full-fidelity
//! [`ReproContext`].
//!
//! Each table is the rows its generator returns, next to the paper's
//! numbers where the paper prints them; where a figure is a picture, its
//! bar is a text cell. The checks are the shape claims EXPERIMENTS.md
//! makes in words, each bound taken from the paper, never from today's
//! output; Table VII's full sharing-sweep shape is checked here and
//! nowhere else (the zoo gate keeps its decay half per backend). The
//! report is `BENCH_paper.json`, regenerated byte-identical
//! like every committed report, so a change that moves a modeled figure
//! shows in `git diff` as the rows that moved.

use crate::ablations::{ablation_block_size, ablation_latency_knee, ablation_registers, SweepRow};
use crate::context::{ReproContext, MINUTES};
use crate::figures::{fig2, fig3, fig4};
use crate::future::{project_cond_offload, CondOffloadProjection};
use crate::report::{Cell, Check, Report, Row, Table};
use crate::tables::{
    self, sweep_shape_violations, SpeedupRow, GPUS, MAX_TWO_NODE_SPEEDUP, RANKS, TABLE1_PAPER,
    TABLE7_PAPER,
};
use crate::verify::verify_versions;
use codee_sim::{corpus, rewrite_offload, screening};
use fsbm_core::scheme::SbmVersion;
use gpu_sim::ncu::KernelProfile;
use gpu_sim::roofline::{Roofline, RooflinePoint};
use gpu_sim::DeviceError;
use miniwrf::hotspots;
use wrf_cases::diffwrf::DiffReport;

/// `(scale, nz, steps)` of the §VII-B verification run.
const VERIFY: (f64, i32, usize) = (0.06, 12, 6);
/// The paper's lowest `diffwrf` agreement (§VII-B: 3–6 digits on the
/// state variables, 1–5 on microphysics).
pub const PAPER_DIGITS: (u32, u32) = (3, 1);

/// A Table VI metric: column name, accessor, and whether collapse(3)
/// rises on it in the paper (else it falls).
type Metric = (&'static str, fn(&KernelProfile) -> f64, bool);

/// Table VI's metrics.
const METRICS: [Metric; 6] = [
    ("time_ms", |p| p.time_ms, false),
    ("occupancy_pct", |p| p.achieved_occupancy_pct, true),
    ("l1_hit_pct", |p| p.l1_hit_pct, false),
    ("l2_hit_pct", |p| p.l2_hit_pct, false),
    ("dram_write_gb", |p| p.dram_write_gb, true),
    ("dram_read_gb", |p| p.dram_read_gb, true),
];

/// The paper's Table VI in [`METRICS`] order, `[collapse(2), collapse(3)]`.
pub const TABLE6_PAPER: [[f64; 6]; 2] = [
    [335.85, 4.63, 84.82, 95.84, 0.785, 0.654],
    [29.11, 35.67, 61.43, 69.28, 4.290, 10.24],
];

/// The violation when `what` does not go from `a` up to `b` (`rises`),
/// or down.
fn moves(what: &str, a: f64, b: f64, rises: bool) -> Option<String> {
    let way = if rises { "rise" } else { "fall" };
    ((b > a) != rises || a == b).then(|| format!("{what} must {way}: {a:.3} -> {b:.3}"))
}

/// Table I: `fast_sbm` (the first row) weighs more on the heavy rank
/// than over all ranks (paper: 51.39 % gprof < 77.07 % nsys).
pub fn table1_violations(rows: &[(String, f64, f64)]) -> Vec<String> {
    match rows.first() {
        Some((name, gprof, nsys)) if name == "fast_sbm" => {
            moves("fast_sbm share, gprof -> nsys", *gprof, *nsys, true)
                .into_iter()
                .collect()
        }
        _ => vec!["the first row must be fast_sbm".into()],
    }
}

/// Tables III–V: every current speedup is a win, and the rows fall in
/// table order (collision loop > `fast_sbm` > Overall): Amdahl.
pub fn speedup_violations(rows: &[SpeedupRow]) -> Vec<String> {
    let wins = rows
        .iter()
        .map(|r| moves(&format!("{} speedup", r.name), 1.0, r.current, true));
    let order = rows.windows(2).map(|w| {
        let what = format!("speedup {} -> {}", w[0].name, w[1].name);
        moves(&what, w[0].current, w[1].current, false)
    });
    wins.chain(order).flatten().collect()
}

/// Table VI: from collapse(2) to collapse(3) the time and both hit rates
/// fall while occupancy and DRAM reads and writes rise.
pub fn table6_violations([c2, c3]: [[f64; 6]; 2]) -> Vec<String> {
    (METRICS.iter().zip(c2).zip(c3))
        .filter_map(|(((name, _, rises), a), b)| moves(name, a, b, *rises))
        .collect()
}

/// Fig. 3: both collapse(3) points sit left of their ridge, and per
/// precision the full collapse lowers arithmetic intensity while it
/// raises GFLOP/s.
pub fn fig3_violations(points: &[RooflinePoint], roof: &Roofline) -> Vec<String> {
    let mut v = Vec::new();
    for (precision, double) in [("f32", false), ("f64", true)] {
        let at = |c| (points.iter()).find(|p| p.label == format!("collapse({c}) {precision}"));
        let (Some(c2), Some(c3)) = (at(2), at(3)) else {
            v.push(format!("missing a collapse {precision} point"));
            continue;
        };
        if !roof.memory_bound(c3.ai, double) {
            v.push(format!(
                "{}: AI {:.3} is right of the ridge",
                c3.label, c3.ai
            ));
        }
        v.extend(moves(&format!("{precision} AI"), c2.ai, c3.ai, false));
        v.extend(moves(
            &format!("{precision} GF/s"),
            c2.gflops,
            c3.gflops,
            true,
        ));
    }
    v
}

/// §VIII registers: limiting 255 → 64 speeds the kernel up, and going
/// below 64 changes nothing.
pub fn registers_violations(rows: &[SweepRow]) -> Vec<String> {
    let at = |regs| rows.iter().find(|r| r.value == regs).map(|r| r.time_ms);
    let (Some(t255), Some(t64)) = (at(255.0), at(64.0)) else {
        return vec!["the sweep must hold 255 and 64 registers".into()];
    };
    let below = (rows.iter().filter(|r| r.value < 64.0 && r.time_ms != t64)).map(|r| {
        format!(
            "{} registers moved the time: {t64:.3} -> {:.3} ms",
            r.value, r.time_ms
        )
    });
    (moves("time_ms, 255 -> 64 registers", t255, t64, false).into_iter())
        .chain(below)
        .collect()
}

/// The Codee rewrite verdicts, `(nest id, dependences blocking its
/// rewrite)`: the baseline grid loop is blocked, `kernals_ks` and the
/// fissioned collision loop are rewritten.
pub fn codee_violations(nests: &[(String, usize)]) -> Vec<String> {
    let expect = [
        (corpus::kernals_ks_nest().id, true),
        (corpus::grid_loop_baseline().id, false),
        (corpus::coal_fission_loop().id, true),
    ];
    let verdict = |rewritten| if rewritten { "rewritten" } else { "blocked" };
    (expect.into_iter())
        .filter(|(id, rewritten)| {
            !nests
                .iter()
                .any(|(n, b)| n == id && (*b == 0) == *rewritten)
        })
        .map(|(id, rewritten)| format!("{id} must be {}", verdict(rewritten)))
        .collect()
}

/// §VIII: offloading condensation as well gains over today's
/// collapse(3) version.
pub fn future_check(p: &CondOffloadProjection) -> Check {
    let x = p.additional_speedup;
    Check::new(
        "future: condensation offload gains",
        x > 1.0,
        format!("{x:.3}x is no gain"),
    )
    .bounded(x, 1.0)
}

/// §VII-B: every version agrees with the baseline to at least `floor`
/// `digits` (the paper's lowest).
pub fn verify_check(
    what: &str,
    digits: fn(&DiffReport) -> u32,
    floor: u32,
    reports: &[(SbmVersion, DiffReport)],
) -> Check {
    let min = reports.iter().map(|(_, r)| digits(r)).min().unwrap_or(0);
    let label = format!("verify: {what} digits");
    Check::new(label, min >= floor, format!("{min} digits < {floor}"))
        .bounded(min.into(), floor.into())
}

/// Screening totals and findings per check id, then each screened nest's
/// rewrite verdict (`count`: the dependences that block it), and the
/// verdicts as [`codee_violations`] reads them.
fn codee() -> (Table, Vec<(String, usize)>) {
    let mut subs = corpus::fsbm_subprograms(false);
    subs.extend(corpus::dynamics_subprograms());
    let nests = [
        corpus::kernals_ks_nest(),
        corpus::grid_loop_baseline(),
        corpus::grid_loop_lookup(),
        corpus::coal_fission_loop(),
    ];
    let s = screening(&subs, &nests);
    let totals = [
        ("files", s.files),
        ("subprograms", s.subprograms),
        ("loc", s.loc as usize),
        ("loop nests", s.loops),
        ("warnings", s.warnings),
        ("recommendations", s.infos),
        ("opportunities", s.opportunities),
    ];
    let blocked: Vec<(String, usize)> = (nests.iter())
        .map(|n| {
            (
                n.id.clone(),
                rewrite_offload(n).err().map_or(0, |e| e.reasons.len()),
            )
        })
        .collect();
    let verdict = |n: usize| if n == 0 { "rewritten" } else { "blocked" };
    let rows = (totals.iter().map(|&(id, n)| ("screening", id, n, None)))
        .chain(s.by_check.iter().map(|(id, &n)| ("check", *id, n, None)))
        .chain(
            blocked
                .iter()
                .map(|(id, n)| ("rewrite", id.as_str(), *n, Some(verdict(*n)))),
        )
        .map(|(kind, id, count, verdict)| -> Row {
            vec![
                ("kind", kind.into()),
                ("id", id.into()),
                ("count", count.into()),
                ("verdict", verdict.into()),
            ]
        });
    let title = "Codee workflow (Listings 2-6): screening findings and rewrite verdicts";
    (Table::new("codee", title, rows), blocked)
}

fn speedups(key: &'static str, title: &str, rows: &[SpeedupRow]) -> Table {
    let row = |r: &SpeedupRow| -> Row {
        vec![
            ("row", r.name.into()),
            ("current", Cell::num(r.current, 2)),
            ("cumulative", Cell::num(r.cumulative, 2)),
            ("paper", Cell::num(r.paper.0, 2)),
            ("paper_cumulative", Cell::num(r.paper.1, 2)),
        ]
    };
    Table::new(key, title, rows.iter().map(row))
}

fn sweep(key: &'static str, title: &str, param: &'static str, rows: &[SweepRow]) -> Table {
    let row = |r: &SweepRow| -> Row {
        vec![
            (param, Cell::num(r.value, 0)),
            ("time_ms", Cell::num(r.time_ms, 3)),
            ("occupancy_pct", Cell::num(r.occupancy_pct, 2)),
            ("waves", r.waves.into()),
        ]
    };
    Table::new(key, title, rows.iter().map(row))
}

/// The report of every paper table priced on `ctx`; an arm the
/// context's device cannot admit is the typed error.
pub fn report(ctx: &ReproContext) -> Result<Report, DeviceError> {
    let t1 = tables::table1(ctx)?;
    let (t3, t4, t5) = (
        tables::table3(ctx)?,
        tables::table4(ctx)?,
        tables::table5(ctx)?,
    );
    let t6 = tables::table6(ctx)?.map(|p| METRICS.map(|(_, metric, _)| metric(&p)));
    let t7 = tables::table7(ctx)?;
    let (points, roof) = (fig3(ctx)?, Roofline::of(&ctx.pp.gpu));
    let regs = ablation_registers(ctx);
    let future = project_cond_offload(ctx)?;
    let (scale, nz, steps) = VERIFY;
    let verify = verify_versions(scale, nz, steps);
    let (codee, verdicts) = codee();
    let digits = |what, digits, floor| verify_check(what, digits, floor, &verify);
    let checks = vec![
        Check::all_of("table1: fast_sbm gprof < nsys", &table1_violations(&t1)),
        Check::all_of("table3: speedups", &speedup_violations(&t3)),
        Check::all_of("table4: speedups", &speedup_violations(&t4)),
        Check::all_of("table5: speedups", &speedup_violations(&t5)),
        Check::all_of("table6: collapse(3) profile", &table6_violations(t6)),
        Check::all_of(
            "table7: sharing sweep shape",
            &sweep_shape_violations(&t7, MAX_TWO_NODE_SPEEDUP),
        ),
        Check::all_of("fig3: roofline", &fig3_violations(&points, &roof)),
        Check::all_of("registers: -maxregcount", &registers_violations(&regs)),
        future_check(&future),
        digits("state", DiffReport::min_state_digits, PAPER_DIGITS.0),
        digits(
            "microphysics",
            DiffReport::min_microphysics_digits,
            PAPER_DIGITS.1,
        ),
        Check::all_of("codee: rewrite verdicts", &codee_violations(&verdicts)),
    ];

    let t1_rows = t1
        .iter()
        .zip(TABLE1_PAPER)
        .map(|((routine, gprof, nsys), (_, pg, pn))| {
            vec![
                ("routine", routine.as_str().into()),
                ("gprof", Cell::num(*gprof, 2)),
                ("nsys", Cell::num(*nsys, 2)),
                ("paper_gprof", Cell::num(pg, 2)),
                ("paper_nsys", Cell::num(pn, 2)),
            ]
        });
    let headline = tables::headline(ctx, SbmVersion::Baseline)?;
    let timeline = hotspots::timeline(&headline, 100)
        .into_iter()
        .map(|(lane, secs, bar)| {
            vec![
                ("lane", lane.into()),
                ("secs", Cell::num(secs, 4)),
                ("bar", bar.into()),
            ]
        });
    let t6_rows = (METRICS.iter().enumerate()).map(|(i, (metric, ..))| {
        vec![
            ("metric", (*metric).into()),
            ("collapse2", Cell::num(t6[0][i], 3)),
            ("collapse3", Cell::num(t6[1][i], 3)),
            ("paper_collapse2", TABLE6_PAPER[0][i].into()),
            ("paper_collapse3", TABLE6_PAPER[1][i].into()),
        ]
    });
    let t7_rows = t7.iter().zip(TABLE7_PAPER).map(|((arm, t), (pb, pg, px))| {
        vec![
            ("config", arm.label.into()),
            ("base_secs", Cell::num(t.baseline, 1)),
            ("gpu_secs", Cell::num(t.gpu, 1)),
            ("speedup", Cell::num(t.speedup(), 2)),
            ("queue_secs", Cell::num(t.queue_secs, 6)),
            ("paper_base_secs", Cell::num(pb, 1)),
            ("paper_gpu_secs", Cell::num(pg, 1)),
            ("paper_speedup", Cell::num(px, 2)),
        ]
    });
    // The deepest arm of the sharing sweep: the last one at matched
    // decomposition.
    let deepest = t7.iter().rfind(|(arm, _)| arm.in_sweep());
    let device_rows = deepest.iter().flat_map(|(_, t)| &t.devices).map(|d| {
        vec![
            ("device", d.device.into()),
            ("residents", d.residents.into()),
            ("used_bytes", d.used_bytes.into()),
            ("capacity_bytes", d.capacity_bytes.into()),
            ("busy_secs", Cell::num(d.busy_secs, 9)),
            ("slice_secs", Cell::num(d.slice_secs, 9)),
            ("queue_secs", Cell::num(d.queue_secs, 9)),
        ]
    });
    // Fig. 2: each scheme's water and cost, then the bin spectrum.
    let f2 = fig2();
    let fig2_rows = (f2
        .water
        .map(|(row, q, flops)| (row, None, q, flops, None))
        .into_iter())
    .chain(
        f2.spectrum
            .iter()
            .map(|(r, n, bar)| ("bin n /kg", Some(*r), *n, None, Some(bar.as_str()))),
    )
    .map(|(row, r_um, x, flops, bar)| {
        vec![
            ("row", row.into()),
            ("radius_um", r_um.map(|r| Cell::num(r.into(), 1)).into()),
            ("amount", Cell::sci(x.into(), 3)),
            ("flops", flops.into()),
            ("bar", bar.into()),
        ]
    });
    let fig3_rows = points.iter().map(|p| {
        let region = if roof.memory_bound(p.ai, false) {
            "memory-bound"
        } else {
            "compute-bound"
        };
        vec![
            ("point", p.label.as_str().into()),
            ("ai", Cell::num(p.ai, 3)),
            ("gflops", Cell::num(p.gflops, 1)),
            (
                "pct_of_fp32_roof",
                Cell::num(100.0 * roof.efficiency(p, false), 1),
            ),
            ("fp32_region", region.into()),
        ]
    });
    // Fig. 4's bars come three an arm; the paper draws baseline and GPU.
    let paper_bars = TABLE7_PAPER
        .iter()
        .flat_map(|&(base, gpu, _)| [Some(base), None, Some(gpu)]);
    let fig4_rows =
        fig4(&t7)
            .into_iter()
            .zip(paper_bars)
            .map(|((config, side, secs, bar), paper)| {
                vec![
                    ("config", config.into()),
                    ("side", side.into()),
                    ("secs", Cell::num(secs, 1)),
                    ("paper_secs", paper.map(|x| Cell::num(x, 0)).into()),
                    ("bar", bar.into()),
                ]
            });
    let knee = ablation_latency_knee(ctx)
        .into_iter()
        .map(|(knee, c2, c3)| {
            vec![
                ("knee", Cell::num(knee, 0)),
                ("c2_ms", Cell::num(c2, 3)),
                ("c3_ms", Cell::num(c3, 3)),
                ("ratio", Cell::num(c2 / c3, 1)),
            ]
        });
    let future_row = vec![
        (
            "host_cond_secs_per_step",
            Cell::num(future.host_cond_secs, 3),
        ),
        ("kernel_ms_per_step", Cell::num(future.cond_kernel_ms, 3)),
        ("occupancy_pct", Cell::num(future.cond_occupancy_pct, 1)),
        ("coal_only_secs", Cell::num(future.coal_only_secs, 1)),
        ("with_cond_secs", Cell::num(future.with_cond_secs, 1)),
        (
            "additional_speedup",
            Cell::num(future.additional_speedup, 2),
        ),
    ];
    let verify_rows = verify.iter().map(|(version, r)| {
        vec![
            ("version", version.label().into()),
            ("state_digits", r.min_state_digits().into()),
            ("micro_digits", r.min_microphysics_digits().into()),
            ("bitwise", r.identical().into()),
        ]
    });
    let tables = vec![
        Table::new(
            "table1",
            "Table I: time contribution (%) of the top hotspots",
            t1_rows,
        ),
        Table::new(
            "timeline",
            "Nsight-Systems-style view of the heavy rank (3 steps)",
            timeline,
        ),
        speedups(
            "table3",
            "Table III: removal of kernals_ks (baseline -> lookup)",
            &t3,
        ),
        speedups(
            "table4",
            "Table IV: offload of the collision loop, collapse(2)",
            &t4,
        ),
        speedups(
            "table5",
            "Table V: full collapse(3) via temp_arrays slabs",
            &t5,
        ),
        Table::new(
            "table6",
            "Table VI: Nsight Compute metrics of the collision kernel",
            t6_rows,
        ),
        Table::new(
            "table7",
            "Table VII: total times, baseline vs final GPU version",
            t7_rows,
        ),
        Table::new(
            "table7_devices",
            "Table VII: per-device ledger of the 64-rank arm, per step",
            device_rows,
        ),
        Table::new(
            "fig2",
            "Figure 2 (executable): bulk vs bin microphysics, one parcel",
            fig2_rows,
        ),
        Table::new(
            "fig3",
            "Figure 3: GPU roofline of the collision kernel",
            fig3_rows,
        ),
        Table::new(
            "fig4",
            "Figure 4: total elapsed time (baseline / lookup / GPU)",
            fig4_rows,
        ),
        sweep(
            "ablation_registers",
            "Ablation: -maxregcount of the collapse(3) kernel",
            "regs",
            &regs,
        ),
        Table::new(
            "ablation_knee",
            "Ablation: latency-hiding knee (warps/SM to peak issue)",
            knee,
        ),
        sweep(
            "ablation_block",
            "Ablation: threads per block, collapse(3)",
            "block",
            &ablation_block_size(ctx),
        ),
        Table::new(
            "future",
            "Projection (\u{a7}VIII): offloading onecond1/onecond2",
            [future_row],
        ),
        Table::new("verify", "diffwrf verification (vs baseline)", verify_rows),
        codee,
    ];
    let (ctx_scale, ctx_nz, ctx_steps) = ctx.fidelity;
    Ok(Report {
        gate: "paper",
        case: vec![
            ("ranks", RANKS.into()),
            ("gpus", GPUS.into()),
            ("minutes", MINUTES.into()),
            ("ctx_scale", ctx_scale.into()),
            ("ctx_nz", ctx_nz.into()),
            ("ctx_steps", ctx_steps.into()),
            ("gpu_fp32_gflops", Cell::num(roof.fp32_gflops, 0)),
            ("gpu_fp64_gflops", Cell::num(roof.fp64_gflops, 0)),
            ("gpu_dram_gbs", Cell::num(roof.bw_gbs, 0)),
            ("verify_scale", scale.into()),
            ("verify_nz", nz.into()),
            ("verify_steps", steps.into()),
        ],
        checks,
        tables,
    })
}

/// Runs the paper gate on the full-fidelity context.
pub fn run() -> Result<Report, String> {
    report(&ReproContext::full()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrf_cases::diffwrf::FieldDiff;

    /// The report on the quick context passes and makes exactly these
    /// assertions over exactly these tables, so the shapes hold at both
    /// fidelities (the committed report is the full one).
    #[test]
    fn quick_context_report_passes() {
        let rep = report(ReproContext::quick_shared()).unwrap();
        assert!(rep.pass(), "{:?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "table1: fast_sbm gprof < nsys",
                "table3: speedups",
                "table4: speedups",
                "table5: speedups",
                "table6: collapse(3) profile",
                "table7: sharing sweep shape",
                "fig3: roofline",
                "registers: -maxregcount",
                "future: condensation offload gains",
                "verify: state digits",
                "verify: microphysics digits",
                "codee: rewrite verdicts",
            ]
        );
        let keys: Vec<&str> = rep.tables.iter().map(|t| t.key).collect();
        assert_eq!(
            keys,
            [
                "table1",
                "timeline",
                "table3",
                "table4",
                "table5",
                "table6",
                "table7",
                "table7_devices",
                "fig2",
                "fig3",
                "fig4",
                "ablation_registers",
                "ablation_knee",
                "ablation_block",
                "future",
                "verify",
                "codee",
            ]
        );
        // The 64-rank arm's ledger: one row a device of the 16.
        let devices = rep.tables.iter().find(|t| t.key == "table7_devices");
        assert_eq!(devices.map(|t| t.rows.len()), Some(GPUS));
    }

    #[test]
    fn table1_claim_is_gprof_below_nsys() {
        let row = |gprof, nsys| vec![("fast_sbm".to_string(), gprof, nsys)];
        assert!(table1_violations(&row(51.39, 77.07)).is_empty());
        let v = table1_violations(&row(77.07, 51.39));
        assert_eq!(
            v,
            ["fast_sbm share, gprof -> nsys must rise: 77.070 -> 51.390"]
        );
        assert_eq!(table1_violations(&[]), ["the first row must be fast_sbm"]);
    }

    /// Table IV's paper rows, with `current` overridden.
    fn speedup_rows(current: [f64; 3]) -> Vec<SpeedupRow> {
        let names = ["coal_bott_new loop", "fast_sbm", "Overall"];
        (names.into_iter().zip(current))
            .map(|(name, current)| SpeedupRow {
                name,
                current,
                cumulative: current,
                paper: (current, current),
            })
            .collect()
    }

    #[test]
    fn speedups_must_win_and_fall_down_the_table() {
        assert!(speedup_violations(&speedup_rows([6.47, 1.54, 1.33])).is_empty());
        let v = speedup_violations(&speedup_rows([6.47, 1.54, 0.98]));
        assert_eq!(v, ["Overall speedup must rise: 1.000 -> 0.980"]);
        let v = speedup_violations(&speedup_rows([1.3, 1.54, 1.33]));
        assert_eq!(
            v,
            ["speedup coal_bott_new loop -> fast_sbm must fall: 1.300 -> 1.540"]
        );
    }

    #[test]
    fn table6_directions_are_the_papers() {
        assert!(table6_violations(TABLE6_PAPER).is_empty());
        let [c2, c3] = TABLE6_PAPER;
        let v = table6_violations([c3, c2]);
        assert_eq!(v.len(), METRICS.len(), "{v:?}");
        assert!(v[0].starts_with("time_ms must fall"), "{v:?}");
        assert!(v[1].starts_with("occupancy_pct must rise"), "{v:?}");
        // A metric that does not move breaks its claim too.
        let mut flat = TABLE6_PAPER;
        flat[1][3] = flat[0][3];
        assert_eq!(
            table6_violations(flat),
            ["l2_hit_pct must fall: 95.840 -> 95.840"]
        );
    }

    fn point(label: &str, ai: f64, gflops: f64) -> RooflinePoint {
        RooflinePoint {
            label: label.into(),
            ai,
            gflops,
        }
    }

    #[test]
    fn fig3_claims_memory_bound_c3_with_lower_ai_and_more_flops() {
        let roof = Roofline::of(&gpu_sim::machine::A100);
        let points = |c3_ai: f64, c3_gflops: f64| {
            vec![
                point("collapse(2) f32", 2.0, 50.0),
                point("collapse(2) f64", 1.0, 20.0),
                point("collapse(3) f32", c3_ai, c3_gflops),
                point("collapse(3) f64", c3_ai / 2.0, c3_gflops / 2.0),
            ]
        };
        assert!(fig3_violations(&points(0.3, 600.0), &roof).is_empty());
        let v = fig3_violations(&points(0.3, 30.0), &roof);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("f32 GF/s must rise"), "{v:?}");
        let v = fig3_violations(&points(3.0, 600.0), &roof);
        assert!(v.iter().any(|x| x.starts_with("f32 AI must fall")), "{v:?}");
        let v = fig3_violations(&points(40.0, 600.0), &roof);
        assert!(v.iter().any(|x| x.contains("right of the ridge")), "{v:?}");
        let v = fig3_violations(&points(0.3, 600.0)[..3], &roof);
        assert_eq!(v, ["missing a collapse f64 point"]);
    }

    fn regs(times: [f64; 4]) -> Vec<SweepRow> {
        ([255.0, 128.0, 64.0, 32.0].into_iter().zip(times))
            .map(|(value, time_ms)| SweepRow {
                value,
                time_ms,
                occupancy_pct: 50.0,
                waves: 4,
            })
            .collect()
    }

    #[test]
    fn registers_speed_up_to_64_and_no_further() {
        assert!(registers_violations(&regs([8.7, 5.5, 5.5, 5.5])).is_empty());
        let v = registers_violations(&regs([5.5, 5.5, 5.5, 5.5]));
        assert_eq!(
            v,
            ["time_ms, 255 -> 64 registers must fall: 5.500 -> 5.500"]
        );
        let v = registers_violations(&regs([8.7, 5.5, 5.5, 5.0]));
        assert_eq!(v, ["32 registers moved the time: 5.500 -> 5.000 ms"]);
        assert_eq!(
            registers_violations(&regs([8.7, 5.5, 5.5, 5.5])[..2]).len(),
            1
        );
    }

    #[test]
    fn future_must_gain() {
        let p = |additional_speedup| CondOffloadProjection {
            host_cond_secs: 0.8,
            coal_only_secs: 544.0,
            with_cond_secs: 544.0 / additional_speedup,
            additional_speedup,
            cond_kernel_ms: 1.7,
            cond_occupancy_pct: 31.0,
        };
        assert!(future_check(&p(1.21)).pass);
        let c = future_check(&p(0.97));
        assert!(!c.pass && c.detail == "0.970x is no gain", "{c:?}");
    }

    #[test]
    fn verify_holds_the_papers_lowest_digits() {
        let field = |name: &str, digits| FieldDiff {
            name: name.into(),
            max_rel: 0.0,
            max_abs: 0.0,
            rms: 0.0,
            nonfinite: 0,
            digits,
        };
        let reports = |t, ff| {
            let fields = vec![field("T", t), field("FF1", ff)];
            vec![(SbmVersion::Lookup, DiffReport { fields })]
        };
        let state =
            |(t, ff)| verify_check("state", DiffReport::min_state_digits, 3, &reports(t, ff));
        let micro = |(t, ff)| {
            verify_check(
                "microphysics",
                DiffReport::min_microphysics_digits,
                1,
                &reports(t, ff),
            )
        };
        assert!(state((3, 1)).pass && micro((3, 1)).pass);
        let c = state((2, 1));
        assert_eq!((c.pass, c.detail.as_str()), (false, "2 digits < 3"));
        let c = micro((3, 0));
        assert_eq!((c.pass, c.measured, c.bound), (false, Some(0.0), Some(1.0)));
    }

    #[test]
    fn codee_verdicts_name_the_nest_that_broke() {
        let (_, verdicts) = codee();
        assert!(codee_violations(&verdicts).is_empty(), "{verdicts:?}");
        let flipped: Vec<_> = (verdicts.iter())
            .map(|(id, n)| (id.clone(), if *n == 0 { 1 } else { 0 }))
            .collect();
        let v = codee_violations(&flipped);
        assert_eq!(v.len(), 3, "{v:?}");
        assert_eq!(v[1], "module_mp_fast_sbm.f90:2486 must be blocked");
        assert_eq!(codee_violations(&[]).len(), 3);
    }
}
