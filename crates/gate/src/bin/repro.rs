//! `repro` — runs the gates: the paper's tables and figures (`paper`)
//! and the CI gates built on the same code.
//!
//! `repro GATE [FLAGS]` runs one gate of the registry ([`GATES`]): it
//! prints the gate's report, writes it to the gate's report file, and
//! exits 0 on pass, 1 on any violation, 2 on a usage or I/O error. The
//! flags ([`FLAGS`]) are the same for every gate; `repro help` prints
//! both tables. Use a release build.

use std::path::PathBuf;
use wrf_gate::{Depth, Report};

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
    ("--nightly", None, "reference depth: the longer zoo 'auto' bitwise check and the deep cases sweep (default: PR depth)", |e, _| e.nightly = true),
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
/// source tree and committed: a run that changes one shows in `git diff`
/// (`ci.sh` fails on it).
const GATES: &[Gate] = &[
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
        about: "shared-pool vs exclusive digest equivalence, memory-capped admission",
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
        about: "every zoo backend priced and searched: version ranking, Table VII decay, packing, v2/v3 recovery, schedule='auto' bitwise",
        run: |e| Ok(wrf_gate::zoo::run(Depth::of(e.nightly).tune_check_steps)),
        bless: None,
    },
    Gate {
        name: "cases",
        report_file: "BENCH_cases.json",
        about: "golden verification: every case and the nest, versions x layouts x schedulers bitwise vs goldens/, activity bands, nest floors",
        run: |e| wrf_gate::cases::run(&e.goldens, Depth::of(e.nightly).cases_sweep),
        bless: Some(|e| wrf_gate::cases::bless_cases(&e.goldens)),
    },
    Gate {
        name: "paper",
        report_file: "BENCH_paper.json",
        about: "Tables I, III-VII, Figs. 2-4, ablations, \u{a7}VIII projection, diffwrf, Codee: the paper's shape claims",
        run: |_| wrf_gate::paper::run(),
        bless: None,
    },
];

/// A flag as typed: `--report PATH`, `--bless`.
fn spelled((name, value, _, _): &Flag) -> String {
    value.map_or(name.to_string(), |v| format!("{name} {v}"))
}

fn usage() -> String {
    let mut s = String::from(
        "usage: repro GATE [FLAGS]   run a gate: exit 0 pass, 1 violation, 2 error\n\n\
         gates (report file):\n",
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
    let what = args.first().map_or("", String::as_str);
    if let Some(gate) = GATES.iter().find(|g| g.name == what) {
        std::process::exit(run_gate(gate, &args[1..]));
    }
    if what == "help" || what == "--help" {
        print!("{}", usage());
        return;
    }
    if !what.is_empty() {
        eprintln!("unknown gate `{what}`");
    }
    eprint!("{}", usage());
    std::process::exit(2);
}
