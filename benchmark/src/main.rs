//! Command line of the ledger. Three modes:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload (the benchmark driver's mode); the last stdout line is
//!   the result object the benchmark contract defines.
//! * no `--workload` — the whole ledger: every workload untraced, then
//!   traced; prints the metric table, writes `out/results.json` and
//!   `out/trace_<workload>.json`. `--smoke` shrinks it to a plumbing check.
//! * `--compare A.json B.json` — verdict per (metric, workload).

use std::path::PathBuf;
use std::process::ExitCode;
use wrf_ledger::json::Json;
use wrf_ledger::ledger::{self, table_header, table_line, LedgerOpts};
use wrf_ledger::run::{self, Budget, RunOpts};
use wrf_ledger::workloads::Workload;
use wrf_ledger::{compare, host};

const USAGE: &str = "usage:
  wrf-ledger --workload <name> [--seed N] [--seconds S | --repeats R] [--trace 0|1] [--smoke] [--out DIR] [--emit FILE]
  wrf-ledger [--seed N] [--repeats R] [--smoke] [--out DIR]
  wrf-ledger --compare A.json B.json
workloads: solo_supercell ranks2_squall sbm_dense sbm_sparse";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    repeats: Option<usize>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    emit: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    fn value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => a.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => {
                let s: f64 = number(flag, value(flag, &mut it)?)?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 3600]"));
                }
                a.seconds = Some(s);
            }
            "--repeats" => {
                let r: usize = number(flag, value(flag, &mut it)?)?;
                if !(1..=10_000).contains(&r) {
                    return Err(format!("--repeats: {r} is outside 1..=10000"));
                }
                a.repeats = Some(r);
            }
            "--trace" => {
                a.trace = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value(flag, &mut it)?.into()),
            "--emit" => a.emit = Some(value(flag, &mut it)?.into()),
            "--compare" => {
                let x = value(flag, &mut it)?.into();
                let y = value(flag, &mut it)?.into();
                a.compare = Some((x, y));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_some() && a.repeats.is_some() {
        return Err("--seconds and --repeats exclude each other".into());
    }
    Ok(a)
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&load(a)?, &load(b)?)?;
        let (text, worse) = compare::report(&rows);
        print!("{text}");
        return Ok(!worse);
    }

    // Everything the benchmark writes stays under its own directory.
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let Some(name) = &args.workload else {
        let opts = LedgerOpts {
            seed: args.seed,
            repeats: args.repeats.unwrap_or(if args.smoke { 1 } else { 5 }),
            smoke: args.smoke,
            out_dir,
        };
        return ledger::run(&opts);
    };

    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let budget = match (args.seconds, args.repeats) {
        (Some(s), _) => Budget::Seconds(s),
        (None, Some(r)) => Budget::Repeats(r),
        (None, None) if args.smoke => Budget::Repeats(1),
        (None, None) => Budget::Seconds(10.0),
    };
    let result = run::run(RunOpts {
        workload,
        seed: args.seed,
        budget,
        trace: args.trace,
        smoke: args.smoke,
        out_dir,
    });

    println!(
        "# {} seed {} {} repeats {} cores {} load {:.2}{}",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        result.repeats,
        host::available_parallelism(),
        host::loadavg_1m(),
        if result.oversubscribed {
            " OVERSUBSCRIBED"
        } else {
            ""
        },
    );
    println!("{}", table_header());
    for m in &result.metrics {
        println!(
            "{}",
            table_line(workload.name(), m.name, m.unit, m.value, m.n)
        );
    }
    println!(
        "# checks: {} attempted, {} failed, digits_min {}",
        result.checks.attempted, result.checks.failed, result.checks.digits_min
    );
    if let Some(path) = &args.emit {
        std::fs::write(path, result.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The contract's result object is the last line of stdout.
    println!("{}", result.contract_line());
    Ok(result.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) if e.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
