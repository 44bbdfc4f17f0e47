//! `repro` — regenerates every table and figure of the paper and runs
//! the CI gates.
//!
//! `repro [TARGET]` prints a paper target ([`TARGETS`]; default `all`).
//! Building the context runs the functional model for a few steps to
//! measure work coefficients; use a release build.
//!
//! `repro GATE [FLAGS]` runs one gate of the registry ([`GATES`]): it
//! prints the gate's report, writes it to the gate's report file, and
//! exits 0 on pass, 1 on any violation, 2 on a usage or I/O error. The
//! flags ([`FLAGS`]) are the same for every gate; `repro help` prints
//! both tables.

use gpu_sim::DeviceError;
use std::path::PathBuf;
use wrf_gate::ablations::{ablation_block_size, ablation_latency_knee, ablation_registers};
use wrf_gate::figures::{fig2, fig3, fig4};
use wrf_gate::future::project_cond_offload;
use wrf_gate::tables::{headline, table1, table3, table4, table5, table6, table7};
use wrf_gate::verify::verify_versions;
use wrf_gate::{Depth, Report, ReproContext};

fn listings() -> String {
    use codee_sim::{corpus, rewrite_offload, screening};
    let mut s = String::new();
    s.push_str("=== Codee workflow (Listings 2-6) ===\n\n");
    s.push_str("$ codee screening --config compile_commands.json\n");
    let mut subs = corpus::fsbm_subprograms(false);
    subs.extend(corpus::dynamics_subprograms());
    let nests = vec![
        corpus::kernals_ks_nest(),
        corpus::grid_loop_baseline(),
        corpus::grid_loop_lookup(),
        corpus::coal_fission_loop(),
    ];
    s.push_str(&screening(&subs, &nests).to_string());
    for (command, nest) in [
        (
            "--in-place module_mp_fast_sbm.f90:6293:4",
            corpus::kernals_ks_nest(),
        ),
        (
            "module_mp_fast_sbm.f90:2486 (baseline grid loop)",
            corpus::grid_loop_baseline(),
        ),
        (
            "(fissioned collision loop, Listing 6)",
            corpus::coal_fission_loop(),
        ),
    ] {
        s.push_str(&format!("\n$ codee rewrite --offload omp {command}\n"));
        match rewrite_offload(&nest) {
            Ok(code) => s.push_str(&code),
            Err(e) => s.push_str(&format!("BLOCKED: {e}\n")),
        }
    }
    s
}

/// How a paper target produces its text.
enum Emit {
    /// From the measured reproduction context (a configuration the
    /// context's device cannot admit is the typed error).
    Ctx(fn(&ReproContext) -> Result<String, DeviceError>),
    /// Standalone.
    Free(fn() -> String),
}

/// The paper targets, in the order `all` prints them.
const TARGETS: &[(&str, Emit)] = &[
    ("table1", Emit::Ctx(table1)),
    ("timeline", Emit::Ctx(timeline)),
    ("table3", Emit::Ctx(|c| Ok(table3(c)?.rendered))),
    ("table4", Emit::Ctx(|c| Ok(table4(c)?.rendered))),
    ("table5", Emit::Ctx(|c| Ok(table5(c)?.rendered))),
    ("table6", Emit::Ctx(|c| Ok(table6(c)?.2))),
    ("table7", Emit::Ctx(|c| Ok(table7(c)?.1))),
    ("fig2", Emit::Free(fig2)),
    ("fig3", Emit::Ctx(|c| Ok(fig3(c)?.1))),
    ("fig4", Emit::Ctx(|c| Ok(fig4(c)?.1))),
    ("ablation", Emit::Ctx(ablation)),
    ("future", Emit::Ctx(|c| Ok(project_cond_offload(c)?.1))),
    ("verify", Emit::Free(|| verify_versions(0.06, 12, 6).1)),
    ("listings", Emit::Free(listings)),
];

fn timeline(ctx: &ReproContext) -> Result<String, DeviceError> {
    let exp = headline(ctx, fsbm_core::scheme::SbmVersion::Baseline)?;
    Ok(format!(
        "Nsight-Systems-style view of the heavy rank (3 steps):\n{}",
        miniwrf::hotspots::nsys_timeline(&exp, 100)
    ))
}

fn ablation(ctx: &ReproContext) -> Result<String, DeviceError> {
    Ok([
        ablation_registers(ctx).1,
        ablation_latency_knee(ctx).1,
        ablation_block_size(ctx).1,
    ]
    .join("\n\n"))
}

/// One gate invocation's settings, parsed once from [`FLAGS`].
struct Env {
    /// Where the report is written.
    report: PathBuf,
    /// Directory of the committed golden fixtures.
    goldens: PathBuf,
    /// Regenerate the gate's committed fixtures instead of gating.
    bless: bool,
    /// Run at the nightly reference depth ([`Depth::NIGHTLY`]).
    nightly: bool,
}

/// The shared flags: spelling, value placeholder, help, and setter.
type Flag = (
    &'static str,
    Option<&'static str>,
    &'static str,
    fn(&mut Env, PathBuf),
);
const FLAGS: &[Flag] = &[
    ("--report", Some("PATH"), "write the report here instead of the gate's report file", |e, v| e.report = v),
    ("--goldens", Some("DIR"), "golden fixture directory (default goldens)", |e, v| e.goldens = v),
    ("--bless", None, "regenerate the gate's committed fixtures instead of gating", |e, _| e.bless = true),
    ("--nightly", None, "reference depth: the longer tune bitwise check and the deep cases sweep (default: PR depth)", |e, _| e.nightly = true),
];

type Bless = fn(&Env) -> Result<Vec<PathBuf>, String>;

/// One registry entry: everything `repro <name>` needs.
struct Gate {
    name: &'static str,
    /// Default of `--report`.
    report_file: &'static str,
    about: &'static str,
    run: fn(&Env) -> Result<Report, String>,
    /// Regenerates what the gate has committed; returns the paths written.
    bless: Option<Bless>,
}

/// The gate registry. Every report is a deterministic function of the
/// source tree. `gate`'s is the git-ignored `gate_report.json` only
/// because it restates `goldens/`; the others are committed, and a run
/// that changes one shows in `git diff` (`ci.sh` fails on it).
const GATES: &[Gate] = &[
    Gate {
        name: "gate",
        report_file: "gate_report.json",
        about: "golden matrix (versions x modes x workers, production layout, plus each fixture's blessing arm) vs goldens/",
        run: |e| wrf_gate::run_gate(&e.goldens),
        bless: Some(|e| wrf_gate::bless(&e.goldens)),
    },
    Gate {
        name: "bench-exec",
        report_file: "BENCH_executor.json",
        about: "executor scaling: static tiles vs work stealing + compaction, schedule replay of the metered collision work",
        run: |_| Ok(wrf_gate::execbench::run()),
        bless: None,
    },
    Gate {
        name: "comm",
        report_file: "BENCH_comm.json",
        about: "Blocking vs Overlapped digest equivalence per version, then the 16-rank overlap bench",
        run: |_| Ok(wrf_gate::comm::run()),
        bless: None,
    },
    Gate {
        name: "fault",
        report_file: "BENCH_fault.json",
        about: "kill a rank mid-run, recover from the newest checkpoint set, bitwise vs uninterrupted, per version x comm mode",
        run: |_| Ok(wrf_gate::fault::run(wrf_gate::fault::TIMEOUT)),
        bless: None,
    },
    Gate {
        name: "share",
        report_file: "BENCH_share.json",
        about: "shared-pool vs exclusive digest equivalence, memory-capped admission, the Table VII sharing sweep",
        run: |_| Ok(wrf_gate::share::run()),
        bless: None,
    },
    Gate {
        name: "ensemble",
        report_file: "BENCH_ensemble.json",
        about: "served members vs solo runs per version, memory-capped packing walls",
        run: |_| Ok(wrf_gate::ensemble::run()),
        bless: None,
    },
    Gate {
        name: "zoo",
        report_file: "BENCH_zoo.json",
        about: "every zoo backend priced end to end: version ranking, Table VII decay, capacity-tracking packing",
        run: |_| Ok(wrf_gate::zoo::run()),
        bless: None,
    },
    Gate {
        name: "tune",
        report_file: "BENCH_tune.json",
        about: "schedule search per backend recovers the hand-derived v2/v3 kernels; schedule='auto' bitwise",
        run: |e| Ok(wrf_gate::tune::run(Depth::of(e.nightly).tune_check_steps)),
        bless: None,
    },
    Gate {
        name: "cases",
        report_file: "BENCH_cases.json",
        about: "every library case and the one-way nest vs goldens/case_*.golden, activity bands, nested-vs-solo floors",
        run: |e| wrf_gate::cases::run(&e.goldens, Depth::of(e.nightly).cases_sweep),
        bless: Some(|e| wrf_gate::cases::bless_cases(&e.goldens)),
    },
];

/// A flag as typed: `--report PATH`, `--bless`.
fn spelled((name, value, _, _): &Flag) -> String {
    value.map_or(name.to_string(), |v| format!("{name} {v}"))
}

fn usage() -> String {
    let targets: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
    let mut s = format!(
        "usage: repro [TARGET]        print a paper target (default all)\n       \
         repro GATE [FLAGS]   run a gate: exit 0 pass, 1 violation, 2 error\n\n\
         targets: {}|all\n\ngates (report file):\n",
        targets.join("|")
    );
    for g in GATES {
        s.push_str(&format!(
            "  {:<11} {:<20} {}\n",
            g.name, g.report_file, g.about
        ));
    }
    s.push_str("\nflags:\n");
    for flag in FLAGS {
        s.push_str(&format!("  {:<16} {}\n", spelled(flag), flag.2));
    }
    s
}

/// Parses the shared flags over the gate's defaults.
fn parse_env(gate: &Gate, args: &[String]) -> Result<Env, String> {
    let mut env = Env {
        report: gate.report_file.into(),
        goldens: "goldens".into(),
        bless: false,
        nightly: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some((_, value, _, set)) = FLAGS.iter().find(|f| f.0 == arg) else {
            let flags: Vec<String> = FLAGS.iter().map(spelled).collect();
            return Err(format!("unknown flag {arg}; flags: {}", flags.join(" ")));
        };
        let value = match value {
            Some(_) => it.next().ok_or(format!("{arg} needs a value"))?.into(),
            None => PathBuf::new(),
        };
        set(&mut env, value);
    }
    Ok(env)
}

/// Runs (or blesses) one gate and returns the process exit code.
fn run_gate(gate: &Gate, args: &[String]) -> i32 {
    let fail = |e: String| {
        eprintln!("repro {}: {e}", gate.name);
        2
    };
    let env = match parse_env(gate, args) {
        Ok(env) => env,
        Err(e) => return fail(e),
    };
    if env.bless {
        let Some(bless) = gate.bless else {
            return fail("--bless: this gate has nothing committed to regenerate".into());
        };
        return match bless(&env) {
            Ok(written) => {
                written
                    .iter()
                    .for_each(|p| println!("blessed {}", p.display()));
                0
            }
            Err(e) => fail(e),
        };
    }
    eprintln!("[repro] {}: {}...", gate.name, gate.about);
    let report = match (gate.run)(&env) {
        Ok(report) => report,
        Err(e) => return fail(e),
    };
    print!("{}", report.rendered());
    if let Err(e) = std::fs::write(&env.report, report.to_json()) {
        return fail(format!("could not write {}: {e}", env.report.display()));
    }
    eprintln!(
        "[repro] {} report written to {}",
        gate.name,
        env.report.display()
    );
    if report.pass() {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map_or("all", String::as_str);
    if let Some(gate) = GATES.iter().find(|g| g.name == what) {
        std::process::exit(run_gate(gate, &args[1..]));
    }
    let selected: Vec<_> = TARGETS
        .iter()
        .filter(|(name, _)| *name == what || what == "all")
        .collect();
    if selected.is_empty() {
        if what == "help" || what == "--help" {
            print!("{}", usage());
            return;
        }
        eprint!("unknown target `{what}`\n{}", usage());
        std::process::exit(2);
    }
    let mut ctx = None;
    for (name, emit) in selected {
        let text = match emit {
            Emit::Free(f) => Ok(f()),
            Emit::Ctx(f) => f(ctx.get_or_insert_with(|| {
                eprintln!("[repro] measuring work coefficients (functional model)...");
                let ctx = ReproContext::full();
                // One-line scheduling report of the measurement run (prof-sim
                // format): mode, steals, active fraction, kernel-cache hit rate.
                eprintln!("[repro] {}", ctx.coeffs.exec.one_line());
                ctx
            })),
        };
        match text {
            Ok(text) => println!("{text}\n"),
            Err(e) => {
                eprintln!("repro {name}: {e}");
                std::process::exit(2);
            }
        }
    }
}
