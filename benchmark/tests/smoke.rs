//! End-to-end plumbing test: the whole ledger at `--smoke` sizes, then
//! `--compare` on its own output, and the driver-facing single-run mode.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wrf_ledger::json::Json;
use wrf_ledger::metrics::{find, END_TO_END, PER_LAYER};
use wrf_ledger::workloads::Workload;

fn ledger(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wrf-ledger"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run wrf-ledger")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn smoke_ledger_reports_every_declared_metric_once_per_workload() {
    let out = scratch("smoke_ledger");
    let run = ledger(&["--smoke", "--seed", "1"], &out);
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "smoke ledger failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The table: `metric unit workload value n`, one line per pair.
    let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 5 && find(f[0]).is_some() {
            assert!(Workload::from_name(f[2]).is_some(), "workload in `{line}`");
            assert!(f[3].parse::<f64>().is_ok(), "value in `{line}`");
            *seen
                .entry((f[0].to_string(), f[2].to_string()))
                .or_default() += 1;
        }
    }
    for w in Workload::ALL {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let n = seen
                .get(&(d.name.to_string(), w.name().to_string()))
                .copied()
                .unwrap_or(0);
            assert_eq!(n, 1, "{} on {} appears {n} times", d.name, w.name());
        }
    }
    assert_eq!(
        seen.len(),
        Workload::ALL.len() * (END_TO_END.len() + PER_LAYER.len())
    );

    // results.json: host metadata, eight runs, all correct and bitwise.
    let results = out.join("results.json");
    let doc = Json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let host = doc.get("host").unwrap();
    for key in [
        "available_parallelism",
        "cpu_model",
        "rustc",
        "profile",
        "git_commit",
        "loadavg_1m_at_start",
    ] {
        assert!(host.get(key).is_some(), "host.{key}");
    }
    let runs = doc.get("runs").unwrap().items();
    assert_eq!(runs.len(), 2 * Workload::ALL.len());
    for r in runs {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(r.get("seed").and_then(Json::as_f64), Some(1.0));
    }
    let digits: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.get("metrics").unwrap().items())
        .filter(|m| m.get("name").and_then(Json::as_str) == Some("digits_min"))
        .filter_map(|m| m.get("value").and_then(Json::as_f64))
        .collect();
    assert_eq!(digits, vec![15.0; Workload::ALL.len()]);

    // One well-formed Chrome trace per workload, probes included.
    for w in Workload::ALL {
        let text = std::fs::read_to_string(out.join(format!("trace_{}.json", w.name()))).unwrap();
        let trace = Json::parse(&text).unwrap();
        let events = trace.get("traceEvents").unwrap().items();
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        assert_eq!(named("workload"), 1);
        assert_eq!(named("verify"), 1);
        assert!(named("setup") >= 1 && named("probe.dycore.rk_scalar_tend") == 1);
    }

    // A results file compared with itself is all `same`, exit 0.
    let same = ledger(
        &[
            "--compare",
            results.to_str().unwrap(),
            results.to_str().unwrap(),
        ],
        &out,
    );
    let text = String::from_utf8(same.stdout).unwrap();
    assert!(same.status.success(), "{text}");
    assert!(text.contains(" 0 worse"), "{text}");
}

#[test]
fn single_run_ends_with_the_contract_line() {
    let out = scratch("smoke_single");
    for (trace, decls) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let run = ledger(
            &[
                "--workload",
                "sbm_sparse",
                "--seed",
                "2",
                "--smoke",
                "--trace",
                trace,
            ],
            &out,
        );
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).unwrap();
        let doc = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let Json::Obj(keys) = &doc else {
            panic!("result line is not an object")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = decls.iter().map(|d| d.name).collect();
        assert_eq!(
            got, want,
            "--trace {trace} reports exactly its declared list"
        );
        for (d, (_, m)) in decls.iter().zip(metrics) {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{}",
                d.name
            );
        }
    }
    // No scratch left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp_"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn bad_arguments_exit_with_usage_not_a_result() {
    let out = scratch("smoke_args");
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "-1", "--workload", "sbm_dense"],
        &["--trace", "2", "--workload", "sbm_dense"],
        &["--frobnicate"],
        &["--compare", "/nonexistent/a.json", "/nonexistent/b.json"],
    ] {
        let run = ledger(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
