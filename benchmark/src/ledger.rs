//! The whole ledger in one command: every workload untraced (end-to-end
//! numbers), then every workload traced (per-layer numbers and a trace
//! file), one child process per run so peak memory does not mix and at
//! most two threads are ever runnable.

use crate::compare::{judge, metric, samples_of, Verdict};
use crate::host;
use crate::json::{obj, Json};
use crate::metrics::{self, Better};
use crate::stats::reportable;
use crate::workloads::{Workload, THREADS};
use std::path::PathBuf;
use std::process::Command;

/// Options of a ledger run.
#[derive(Debug, Clone)]
pub struct LedgerOpts {
    /// Input seed.
    pub seed: u64,
    /// Repeats per run.
    pub repeats: usize,
    /// Plumbing-check sizes.
    pub smoke: bool,
    /// Where `results.json` and the traces go.
    pub out_dir: PathBuf,
}

/// One table line: `metric unit workload value n`; a `~` after the
/// count marks a percentile with fewer than ten samples beyond it.
pub fn table_line(workload: &str, name: &str, unit: &str, value: f64, n: usize) -> String {
    let indicative = name.ends_with("_p90") && !reportable(n, 90.0);
    format!(
        "{name:<30} {unit:<7} {workload:<16} {value:>16.6} {n:>4}{}",
        if indicative { "~" } else { "" }
    )
}

/// Header of the metric table.
pub fn table_header() -> String {
    format!(
        "{:<30} {:<7} {:<16} {:>16} {:>4}",
        "metric", "unit", "workload", "value", "n"
    )
}

fn run_child(opts: &LedgerOpts, w: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let emit = opts
        .out_dir
        .join(format!("run_{}_{}.json", w.name(), u8::from(trace)));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--repeats", &opts.repeats.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .arg("--emit")
        .arg(&emit);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // The child's own table goes nowhere; its diagnostics stay visible.
    let out = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start {} run: {e}", w.name()))?;
    let text = std::fs::read_to_string(&emit)
        .map_err(|e| format!("{} run left no result: {e}", w.name()))?;
    let _ = std::fs::remove_file(&emit);
    let doc = Json::parse(&text)?;
    if !out.success() {
        eprintln!("{} (trace {}) exited with {out}", w.name(), u8::from(trace));
    }
    Ok(doc)
}

/// Runs the ledger, prints the table, writes `results.json`. Returns
/// false when any run failed a check.
pub fn run(opts: &LedgerOpts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let host_meta = host::metadata();
    let mut runs = Vec::new();
    for trace in [false, true] {
        for w in Workload::ALL {
            eprintln!(
                "[ledger] {} ({})",
                w.name(),
                if trace { "traced" } else { "untraced" }
            );
            runs.push(run_child(opts, w, trace)?);
        }
    }

    println!("{}", table_header());
    let mut all_correct = true;
    for run in &runs {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for m in run.list("metrics") {
            println!(
                "{}",
                table_line(
                    workload,
                    m.get("name").and_then(Json::as_str).unwrap_or("?"),
                    m.get("unit").and_then(Json::as_str).unwrap_or("?"),
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("n").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                )
            );
        }
        all_correct &= run.get("correct") == Some(&Json::Bool(true));
    }

    // Tracing must not change what it measures: the traced repeats'
    // walls against the untraced pass, by the compare rule.
    let bound = metrics::find("cal_run_wall_s")
        .and_then(|d| d.bound)
        .expect("declared bound");
    let mut trace_checks = Vec::new();
    for w in Workload::ALL {
        let find = |traced: bool| {
            runs.iter().find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(w.name())
                    && r.get("traced") == Some(&Json::Bool(traced))
            })
        };
        let (Some(untraced), Some(traced)) = (find(false), find(true)) else {
            continue;
        };
        let a = metric(untraced, "cal_run_wall_s").map_or(Vec::new(), samples_of);
        let b = traced.numbers("traced_walls");
        let verdict = judge(&a, &b, Better::Lower, bound);
        println!(
            "trace check: {:<16} traced vs untraced cal_run_wall_s: {}",
            w.name(),
            verdict.word()
        );
        if matches!(verdict, Verdict::Worse | Verdict::Better) {
            eprintln!(
                "warning: tracing moved {}'s wall beyond the bound",
                w.name()
            );
        }
        trace_checks.push(obj([
            ("workload", w.name().into()),
            ("verdict", verdict.word().into()),
        ]));
    }

    let doc = obj([
        ("schema", 1usize.into()),
        ("host", host_meta),
        (
            "oversubscribed",
            (host::available_parallelism() < THREADS).into(),
        ),
        ("seed", opts.seed.into()),
        ("repeats", opts.repeats.into()),
        ("smoke", opts.smoke.into()),
        ("trace_checks", trace_checks.into()),
        ("runs", runs.into()),
    ]);
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
