//! One run of one workload: repeat the fixed unit for the time budget,
//! check the outputs against the oracle, and (traced) probe the layers.

use crate::calib::{Clock, Timing};
use crate::host;
use crate::json::{obj, Json};
use crate::metrics::{self, Decl, Kind, END_TO_END, PER_LAYER};
use crate::probes::{self, Prober};
use crate::stats::{median, percentile, Summary};
use crate::trace::Recorder;
use crate::workloads::{all_finite, Bench, Checks, Sizes, Unit, Workload, THREADS};
use fsbm_core::digest::StateDigest;
use fsbm_core::state::SbmPatchState;
use miniwrf::Model;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use wrf_cases::wrfout;
use wrf_dycore::advect::TEND_FLOPS_PER_POINT;

/// How long to keep repeating the unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many seconds have been measured (the driver's mode).
    Seconds(f64),
    /// Exactly this many repeats (the ledger's mode).
    Repeats(usize),
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time or repeat budget.
    pub budget: Budget,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Plumbing-check sizes.
    pub smoke: bool,
    /// Directory for trace files and scratch, inside the checkout.
    pub out_dir: PathBuf,
}

/// Repeats a time-budgeted run makes at least: three samples are the
/// fewest a median means anything for.
const MIN_REPEATS: usize = 3;
/// Share of the time budget the traced pass spends repeating the
/// workload; the probes take the rest of a comparable run length.
const TRACED_LOOP_SHARE: f64 = 0.6;

/// One metric as measured by one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The run's value (a median where samples exist).
    pub value: f64,
    /// The samples behind it (empty for single readings).
    pub samples: Vec<f64>,
    /// Samples the value was drawn from (percentiles keep no samples
    /// of their own but still say how many they were picked from).
    pub n: usize,
}

/// Result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The options it ran with.
    pub opts: RunOpts,
    /// Every declared metric of the pass, in declaration order.
    pub metrics: Vec<Measured>,
    /// Output checks.
    pub checks: Checks,
    /// Repeats executed.
    pub repeats: usize,
    /// More runnable threads than cores: timings are not comparable.
    pub oversubscribed: bool,
    /// Calibrated unit walls of the recorder-on repeats (traced pass
    /// only), which the ledger compares with the untraced pass.
    pub traced_walls: Vec<f64>,
    /// Uncalibrated unit walls of the same repeats as the headline
    /// numbers, kept beside them in `results.json`.
    pub raw_walls: Vec<f64>,
}

impl RunResult {
    /// True when checks ran and every one passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The last line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = obj([("value", m.value.into()), ("unit", m.unit.into())]);
                (m.name.to_string(), entry)
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Full detail for `results.json`.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .metrics
            .iter()
            .map(|m| {
                let d = metrics::find(m.name).expect("declared metric");
                let s = Summary::of(if m.samples.is_empty() {
                    std::slice::from_ref(&m.value)
                } else {
                    &m.samples
                });
                obj([
                    ("name", m.name.into()),
                    ("unit", m.unit.into()),
                    ("better", d.better.word().into()),
                    ("bound", d.bound.map_or(Json::Null, Json::Num)),
                    ("count", (d.kind == Kind::Count).into()),
                    ("value", m.value.into()),
                    ("n", m.n.into()),
                    ("min", s.min.into()),
                    ("q1", s.q1.into()),
                    ("median", s.median.into()),
                    ("q3", s.q3.into()),
                    ("max", s.max.into()),
                    ("samples", nums(&m.samples)),
                ])
            })
            .collect();
        obj([
            ("workload", self.opts.workload.name().into()),
            ("why", self.opts.workload.why().into()),
            ("traced", self.opts.trace.into()),
            ("seed", self.opts.seed.into()),
            ("repeats", self.repeats.into()),
            ("oversubscribed", self.oversubscribed.into()),
            ("correct", self.correct().into()),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("traced_walls", nums(&self.traced_walls)),
            ("raw_walls", nums(&self.raw_walls)),
            ("metrics", metrics.into()),
        ])
    }
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| x.into()).collect())
}

/// Metric values by declared name, as the run works them out:
/// `(value, samples, n)`.
#[derive(Default)]
struct Values(BTreeMap<&'static str, (f64, Vec<f64>, usize)>);

impl Values {
    /// A single reading.
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, Vec::new(), 1));
    }
    /// The median of `samples`, keeping them for `results.json`.
    fn put_median(&mut self, name: &'static str, samples: Vec<f64>) {
        let n = samples.len();
        self.0.insert(name, (median(&samples), samples, n));
    }
    /// A value that is not the plain median of the samples kept with it.
    fn put_with_samples(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        let n = samples.len();
        self.0.insert(name, (value, samples, n));
    }
    /// The nearest-rank 90th percentile of `samples`.
    fn put_p90(&mut self, name: &'static str, samples: &[f64]) {
        self.0
            .insert(name, (percentile(samples, 90.0), Vec::new(), samples.len()));
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }
}

/// Everything the repeat loop gathered.
struct Gathered {
    /// Units behind this pass's numbers (recorder-on repeats in a
    /// traced pass); only the last keeps its final states.
    units: Vec<Unit>,
    /// Calibrated walls of the recorder-off repeats of a traced pass:
    /// the baseline tracing overhead is measured against.
    untraced_walls: Vec<f64>,
    setups: Vec<Timing>,
    /// Peak resident set after the first repeat, MiB.
    first_peak_mb: f64,
    loop_wall_s: f64,
    loop_cpu_s: f64,
}

fn check_repeat(
    checks: &mut Checks,
    repeat: usize,
    unit: &Unit,
    first: &mut Option<Vec<StateDigest>>,
) {
    checks.op(
        &format!("repeat {repeat}: every output value finite"),
        unit.finals.iter().all(all_finite),
    );
    let digests: Vec<_> = unit.finals.iter().map(SbmPatchState::digest).collect();
    match first {
        None => *first = Some(digests),
        Some(f) => checks.op(
            &format!("repeat {repeat}: output identical to repeat 0"),
            *f == digests,
        ),
    }
}

fn repeat_loop(
    bench: &mut Bench,
    opts: &RunOpts,
    clock: &mut Clock,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Gathered {
    let mut off = Recorder::new(opts.workload.name(), false);
    let mut g = Gathered {
        units: Vec::new(),
        untraced_walls: Vec::new(),
        setups: Vec::new(),
        first_peak_mb: 0.0,
        loop_wall_s: 0.0,
        loop_cpu_s: 0.0,
    };
    let mut first_digest = None;
    let started = Instant::now();
    let cpu0 = host::cpu_seconds();
    for repeat in 0.. {
        let done = match opts.budget {
            Budget::Repeats(n) => repeat >= n.max(1),
            Budget::Seconds(s) => {
                let s = if opts.trace { s * TRACED_LOOP_SHARE } else { s };
                repeat >= MIN_REPEATS && started.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        // A traced pass alternates recorder-on and recorder-off repeats:
        // their difference is what tracing costs.
        let traced = !opts.trace || repeat % 2 == 0;
        let r = if traced { &mut *rec } else { &mut off };
        let rid = r.open("repeat", Some(repeat), None);
        let unit = bench.unit(clock, r, repeat);
        if repeat == 0 {
            // What one forecast needs, from a cold process: read before
            // anything else has run. Later repeats and the set-up
            // samples only add what the allocator retains between them.
            g.first_peak_mb = host::peak_rss_mb();
        }
        for _ in 0..bench.setups_per_repeat() {
            g.setups.push(bench.setup_once(clock, r));
        }
        r.close(rid);
        check_repeat(checks, repeat, &unit, &mut first_digest);
        if traced {
            // Final states are large; only the newest is needed again.
            if let Some(prev) = g.units.last_mut() {
                prev.finals = Vec::new();
            }
            g.units.push(unit);
        } else {
            g.untraced_walls.push(unit.cal_s());
        }
    }
    g.loop_wall_s = started.elapsed().as_secs_f64();
    g.loop_cpu_s = host::cpu_seconds() - cpu0;
    g
}

/// The typical wall of one unit: each operation's median across the
/// repeats, summed over the unit's operations. One disturbed operation
/// then costs its own sample, not its whole repeat's.
fn typical_wall(units: &[Unit], pick: fn(&Timing) -> f64) -> f64 {
    let ops = units.iter().map(|u| u.ops.len()).min().unwrap_or(0);
    (0..ops)
        .map(|i| median(&units.iter().map(|u| pick(&u.ops[i])).collect::<Vec<_>>()))
        .sum()
}

/// The restart round trip every ranks2 run checks: what the unit's
/// checkpoints rely on.
fn check_restart_round_trip(checks: &mut Checks, state: &SbmPatchState) {
    let mut bytes = Vec::new();
    let ok = wrfout::write_restart(&mut bytes, 8, 40.0, state).is_ok()
        && wrfout::read_restart(&mut bytes.as_slice()).is_ok_and(|(step, time, back)| {
            step == 8 && time == 40.0 && back.digest() == state.digest()
        });
    checks.op("restart record round-trips bitwise", ok);
}

/// Restart files one ranks2 unit writes: one per rank at every interval
/// boundary short of the last step.
fn expected_checkpoint_writes(sizes: &Sizes) -> u64 {
    let boundaries = sizes.model_steps.saturating_sub(1) / sizes.restart_interval.max(1);
    (boundaries * THREADS) as u64
}

/// Runs one workload once.
pub fn run(opts: RunOpts) -> RunResult {
    let w = opts.workload;
    let sizes = if opts.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let tmp = opts
        .out_dir
        .join(format!("tmp_{}_{}", w.name(), std::process::id()));
    let mut rec = Recorder::new(w.name(), opts.trace);
    let mut clock = Clock::new(w.busy_threads());
    let mut checks = Checks::new();

    let root = rec.open("workload", None, None);
    let mut bench = Bench::new(w, sizes, opts.seed, &tmp, &mut rec);
    let g = repeat_loop(&mut bench, &opts, &mut clock, &mut rec, &mut checks);

    let vid = rec.open("verify", None, None);
    let want = bench.oracle();
    let last = g.units.last().expect("at least one repeat");
    checks.against_oracle("oracle", &last.finals, &want);
    drop(want);
    if w == Workload::Ranks2Squall {
        check_restart_round_trip(&mut checks, &last.finals[0]);
        checks.op(
            "ranks2 unit wrote its checkpoints",
            last.checkpoint_writes == expected_checkpoint_writes(&sizes),
        );
    }
    rec.close(vid);

    // End-to-end numbers: both passes work them out, the untraced pass
    // reports them.
    let mut v = Values::default();
    let work = (bench.points() * bench.steps()) as f64;
    let cal_walls: Vec<f64> = g.units.iter().map(Unit::cal_s).collect();
    let cal_wall = typical_wall(&g.units, |t| t.cal_s);
    v.put_with_samples("cal_run_wall_s", cal_wall, cal_walls.clone());
    v.put_with_samples(
        "cal_points_per_s",
        work / cal_wall,
        cal_walls.iter().map(|w| work / w).collect(),
    );
    v.put_median("setup_s", g.setups.iter().map(|t| t.cal_s).collect());
    v.put("peak_rss_mb", g.first_peak_mb);
    v.put("digits_min", f64::from(checks.digits_min));

    if opts.trace {
        let raw_wall = typical_wall(&g.units, |t| t.raw_s);
        v.put("raw.points_per_s", work / raw_wall);
        v.put_with_samples(
            "raw.run_wall_s",
            raw_wall,
            g.units.iter().map(Unit::raw_s).collect(),
        );
        v.put_median("raw.setup_s", g.setups.iter().map(|t| t.raw_s).collect());
        let ops = g.units.iter().flat_map(|u| &u.ops);
        v.put_median("host.speed_factor", ops.map(|t| t.factor).collect());
        v.put("proc.cpu_s", g.loop_cpu_s);
        v.put("proc.cpu_per_wall", g.loop_cpu_s / g.loop_wall_s);
        let base = median(&g.untraced_walls);
        let overhead = if base > 0.0 {
            (cal_wall / base - 1.0) * 100.0
        } else {
            0.0
        };
        v.put("trace_overhead_pct", overhead);
        let means = layer_metrics_from_units(&mut v, &bench, &g.units);

        // Probes run on the workload's own patch and evolved state.
        let state = match bench.snapshot() {
            Some(s) => s.clone(),
            None => last.finals[0].clone(),
        };
        let mut p = Prober::new(&mut clock, &mut rec, sizes.probe_calls);
        probes::dycore_and_grid(&mut p, &bench.cfg, &state);
        probes::mpi(&mut p, &state.patch);
        probes::exec(&mut p);
        probes::sbm(&mut p, &bench.cfg, &state);
        probes::cases(&mut p, &bench.cfg, &state, &tmp);
        for (name, (value, samples)) in std::mem::take(&mut p.out) {
            if samples.is_empty() {
                v.put(name, value);
            } else {
                v.put_with_samples(name, value, samples);
            }
        }
        if w == Workload::Ranks2Squall {
            let eff = parallel_efficiency(&bench, &mut clock, &mut rec, cal_wall);
            v.put("parallel.efficiency", eff);
        }
        if !bench.is_dwarf() {
            // What the wind fill and the advected scalars account for at
            // the probed per-call cost; the rest of the dynamics wall is
            // θ conversion, bin gather/scatter and diffusion, which no
            // dycore entry point isolates.
            let rk3_us = v.get(if w == Workload::Ranks2Squall {
                "dycore.rk3_overlap_scalar_us"
            } else {
                "dycore.rk3_scalar_us"
            });
            let explained_us = v.get("dycore.wind_fill_us") + means.scalars * rk3_us;
            v.put("model.dyn_residual_ms", means.dyn_ms - explained_us / 1e3);
        }
    }
    rec.close(root);
    if opts.trace {
        let nesting = rec.well_nested();
        checks.op(
            &format!("trace spans well nested: {nesting:?}"),
            nesting.is_ok(),
        );
        if let Err(e) = write_trace(&opts, &rec) {
            eprintln!("warning: could not write the trace file: {e}");
        }
    }
    v.put(
        "fail_ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(&tmp);

    let decls: &[Decl] = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = decls
        .iter()
        .map(|d| {
            // A layer the workload never enters reports 0.
            let (value, samples, n) = v.0.remove(d.name).unwrap_or((0.0, Vec::new(), 0));
            Measured {
                name: d.name,
                unit: d.unit,
                value,
                samples,
                n,
            }
        })
        .collect();
    RunResult {
        repeats: g.units.len() + g.untraced_walls.len(),
        oversubscribed: host::available_parallelism() < THREADS,
        traced_walls: if opts.trace { cal_walls } else { Vec::new() },
        raw_walls: g.units.iter().map(Unit::raw_s).collect(),
        opts,
        metrics,
        checks,
    }
}

fn write_trace(opts: &RunOpts, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts
        .out_dir
        .join(format!("trace_{}.json", opts.workload.name()));
    std::fs::write(path, rec.chrome_json().render())
}

/// Strong-scaling efficiency of the ranks2 unit: the same forecast on
/// one rank with one worker, over twice the two-rank wall.
fn parallel_efficiency(
    bench: &Bench,
    clock: &mut Clock,
    rec: &mut Recorder,
    ranks2_cal_wall: f64,
) -> f64 {
    let mut cfg = bench.cfg;
    cfg.ranks = 1;
    let id = rec.open("probe.model.solo_same_case", None, None);
    let mut model = Model::single_rank(cfg);
    let mut wall = 0.0;
    for _ in 0..bench.sizes.model_steps {
        wall += clock.time(|| model.step()).1.cal_s;
    }
    rec.close(id);
    wall / (THREADS as f64 * ranks2_cal_wall)
}

/// One step as the program reported it, in calibrated milliseconds.
struct StepRow {
    step_ms: f64,
    dyn_ms: f64,
    sbm_ms: f64,
    coal_ms: f64,
}

/// Per-step means over the first repeat that the dynamics residual is
/// worked out from (means, because the residual is an accounting
/// identity over the whole unit, not a typical step).
struct StepMeans {
    /// Scalars advected per step.
    scalars: f64,
    /// Dynamics wall per step, calibrated ms (all repeats).
    dyn_ms: f64,
}

/// Per-layer numbers that come from the repeats themselves (program-
/// reported walls and counters) rather than from probes.
fn layer_metrics_from_units(v: &mut Values, bench: &Bench, units: &[Unit]) -> StepMeans {
    let steps = bench.steps() as f64;
    let parallel = bench.workload == Workload::Ranks2Squall;
    let first = &units[0];

    // Counters come from one fixed place — the first repeat — so they
    // repeat exactly on one commit.
    let mut mean_scalars = 0.0;
    let stats = if parallel {
        let r0 = &first.ranks[0];
        // Masks are OR-reduced, so every rank advects the same scalars;
        // each costs three full-patch tendency sweeps.
        let rank0 = units
            .last()
            .and_then(|u| u.finals.first())
            .expect("rank 0 state");
        let points = rank0.patch.compute_points() as f64;
        mean_scalars =
            r0.rk3.tend.flops as f64 / (3.0 * points * TEND_FLOPS_PER_POINT as f64) / steps;
        if let Some(c) = r0.comm {
            v.put("mpi.msgs_per_step", c.msgs as f64 / steps);
            v.put("mpi.bytes_per_step", c.bytes as f64 / steps);
        }
        r0.last_sbm.clone()
    } else {
        if !bench.is_dwarf() {
            mean_scalars = first.steps.iter().map(|s| s.scalars as f64).sum::<f64>() / steps;
        }
        first.steps.last().map(|s| s.sbm.clone())
    };
    if !bench.is_dwarf() {
        v.put("model.scalars_advected", mean_scalars);
    }
    if let Some(s) = &stats {
        v.put("sbm.points", s.points as f64);
        v.put("sbm.active_points", s.active_points as f64);
        v.put("sbm.coal_points", s.coal_points as f64);
        v.put(
            "sbm.activity_fraction",
            s.coal_points as f64 / s.points.max(1) as f64,
        );
        v.put("sbm.coal_entries", s.coal_entries as f64);
        v.put("sbm.coal_flops", s.work.coal.flops as f64);
    }
    if let Some(e) = &first.exec {
        v.put("sbm.kcache_hit_rate", e.cache_hit_rate);
    }
    v.put("restart.checkpoint_writes", first.checkpoint_writes as f64);

    // Program-reported walls are calibrated with the factor of the
    // operation they happened in.
    let mut rows = Vec::new();
    let (mut entries, mut coal_s) = (0u64, 0.0);
    let (mut steals, mut chunks, mut balance) = (Vec::new(), Vec::new(), Vec::new());
    let (mut imbalance, mut wait) = (Vec::new(), Vec::new());
    for u in units {
        if parallel {
            // The call is monolithic: a step is the slowest rank's mean.
            let f = u.ops[0].factor;
            let busy: Vec<f64> = u.ranks.iter().map(|r| r.wall.0 + r.wall.1).collect();
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            let (slowest, max) = busy
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("ranks");
            imbalance.push(max / mean);
            wait.push(1.0 - mean / u.raw_s());
            let r = &u.ranks[slowest];
            let per_step_ms = |s: f64| s / f / steps * 1e3;
            rows.push(StepRow {
                step_ms: per_step_ms(max),
                dyn_ms: per_step_ms(r.wall.0),
                sbm_ms: per_step_ms(r.wall.1),
                coal_ms: per_step_ms(r.coal_wall),
            });
            entries += r.coal_entries;
            coal_s += r.coal_wall / f;
        }
        for s in &u.steps {
            let f = s.wall.factor;
            rows.push(StepRow {
                step_ms: s.wall.cal_s * 1e3,
                dyn_ms: s.dyn_s / f * 1e3,
                sbm_ms: s.sbm_s / f * 1e3,
                coal_ms: s.sbm.coal_wall / f * 1e3,
            });
            entries += s.sbm.coal_entries;
            coal_s += s.sbm.coal_wall / f;
        }
        if let Some(e) = &u.exec {
            steals.push(e.steals as f64 / steps);
            chunks.push(e.chunks as f64 / steps);
            balance.push(e.balance);
        }
    }
    let col = |f: fn(&StepRow) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    let mut mean_dyn_ms = 0.0;
    let (step_ms, dyn_ms, sbm_ms, coal_ms) = (
        col(|r| r.step_ms),
        col(|r| r.dyn_ms),
        col(|r| r.sbm_ms),
        col(|r| r.coal_ms),
    );
    if !bench.is_dwarf() {
        let mean = |x: &[f64]| x.iter().sum::<f64>() / x.len().max(1) as f64;
        v.put_p90("model.step_ms_p90", &step_ms);
        v.put("model.dyn_share", mean(&dyn_ms) / mean(&step_ms));
        mean_dyn_ms = mean(&dyn_ms);
        v.put_median("model.step_ms_p50", step_ms);
        v.put_median("model.dyn_ms", dyn_ms);
        v.put_median("model.sbm_ms", sbm_ms.clone());
    }
    if parallel {
        v.put_median("parallel.rank_imbalance", imbalance);
        v.put_median("parallel.wait_share", wait);
    }
    v.put_p90("sbm.step_ms_p90", &sbm_ms);
    v.put("sbm.noncoal_ms", median(&sbm_ms) - median(&coal_ms));
    v.put_median("sbm.step_ms_p50", sbm_ms);
    v.put_median("sbm.coal_ms", coal_ms);
    let ns_per_entry = if entries > 0 {
        coal_s * 1e9 / entries as f64
    } else {
        0.0
    };
    v.put("sbm.coal_ns_per_entry", ns_per_entry);
    v.put_median("exec.steals_per_step", steals);
    v.put_median("exec.chunks_per_step", chunks);
    v.put_median("exec.balance", balance);
    StepMeans {
        scalars: mean_scalars,
        dyn_ms: mean_dyn_ms,
    }
}
