//! The `repro` command line and the three lists that must agree with
//! its gate registry: the usage text it generates, the `GATES` rows of
//! `ci.sh`, and the gate matrix of `.github/workflows/ci.yml`. Adding a
//! gate is one line in each; this test fails when one is forgotten, or
//! when its report file is not committed. Three committed reports are
//! regenerated here and compared byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn repo_file(name: &str) -> String {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, report file)` of every registry entry, parsed from the
/// generated usage text (`  name  report_file  about`).
fn registry(usage: &str) -> Vec<(String, String)> {
    usage
        .lines()
        .skip_while(|l| !l.starts_with("gates"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let mut words = l.split_whitespace();
            let mut word = || words.next().expect("name and report file").to_string();
            (word(), word())
        })
        .collect()
}

#[test]
fn unknown_target_prints_the_generated_usage_and_exits_2() {
    let out = repro(&["nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(usage.contains("unknown gate `nonsense`"), "{usage}");
    // The gate list comes from the registry (the hand-written message
    // had lost `cases`).
    let names: Vec<String> = registry(&usage).into_iter().map(|g| g.0).collect();
    assert_eq!(names.len(), 7, "{names:?}");
    assert!(names.iter().any(|n| n == "cases"), "{names:?}");
    assert!(
        !usage.contains("   -") && !usage.contains("\t"),
        "no broken continuations"
    );
    // The paper's tables are one gate now: the old print targets, and
    // the bare command that printed them all, are usage errors.
    for gone in [&["all"][..], &["table3"], &["listings"], &[]] {
        assert_eq!(repro(gone).status.code(), Some(2), "{gone:?}");
    }
    assert!(!usage.contains("targets"), "{usage}");
}

#[test]
fn unknown_flag_names_the_shared_flags_and_exits_2() {
    let out = repro(&["comm", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("repro comm: unknown flag --bogus"), "{err}");
    assert!(
        err.contains("; flags: --report PATH --goldens DIR --bless --nightly\n"),
        "{err}"
    );
    // The wall-clock gate and its flag are gone with the per-gate ones.
    assert!(!err.contains("--check"), "{err}");
    assert_eq!(repro(&["bench-host"]).status.code(), Some(2));
    assert_eq!(repro(&["cases", "--check"]).status.code(), Some(2));
    // The per-gate flags are gone, not merely undocumented.
    for gone in [
        ["comm", "--ranks"],
        ["cases", "--loose-tol"],
        ["zoo", "--check-steps"],
    ] {
        let out = repro(&[gone[0], gone[1], "1"]);
        assert_eq!(out.status.code(), Some(2), "{gone:?}");
    }
    // A flag missing its value, and --bless on a gate with nothing to
    // bless, are usage errors too.
    assert_eq!(repro(&["cases", "--goldens"]).status.code(), Some(2));
    assert_eq!(repro(&["comm", "--bless"]).status.code(), Some(2));
}

/// Runs `repro <gate> --report <tmp>` and holds the written report to
/// the committed file byte for byte — the rule `ci.sh` applies to every
/// committed report, here on three of them at PR depth.
fn regenerates_the_committed_bytes(gate: &str, report_file: &str) {
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join(report_file);
    let out = repro(&[gate, "--report", written.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let fresh = std::fs::read_to_string(&written).expect("report written");
    let committed = repo_file(report_file);
    let first = fresh.lines().zip(committed.lines()).find(|(f, c)| f != c);
    assert!(
        fresh == committed,
        "repro {gate} no longer writes the committed {report_file} \
         (first differing line, fresh vs committed: {first:?}); \
         regenerate it and review the diff"
    );
}

#[test]
fn bench_exec_regenerates_the_committed_bytes() {
    regenerates_the_committed_bytes("bench-exec", "BENCH_executor.json");
}

/// The zoo gate absorbed the tune gate; the test keeps its name.
#[test]
fn tune_regenerates_the_committed_bytes() {
    regenerates_the_committed_bytes("zoo", "BENCH_zoo.json");
}

#[test]
fn paper_regenerates_the_committed_bytes() {
    regenerates_the_committed_bytes("paper", "BENCH_paper.json");
}

#[test]
fn report_write_failure_is_exit_2() {
    // zoo is a cheap gate (modeled accounting over a short coefficient run).
    let out = repro(&["zoo", "--report", "/nonexistent-dir/BENCH_zoo.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("could not write"), "{err}");
}

#[test]
fn ci_lists_match_the_registry() {
    let usage = String::from_utf8(repro(&["help"]).stdout).unwrap();
    let registry = registry(&usage);
    assert_eq!(registry.len(), 7, "{usage}");
    assert!(!usage.contains("bench-host") && !usage.contains("--check"));
    // The golden gate folded into `cases`: one fixture check, one bless.
    assert!(registry.iter().all(|(name, _)| name != "gate"), "{usage}");
    assert_eq!(repro(&["gate"]).status.code(), Some(2));
    // The tune gate folded into `zoo` (one pass prices and searches);
    // the ensemble gate went with the ensemble service.
    for gone in ["tune", "ensemble"] {
        assert!(registry.iter().all(|(name, _)| name != gone), "{usage}");
        let out = repro(&[gone]);
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("unknown gate `{gone}`")), "{err}");
    }

    // ci.sh: `"step;repro arguments;report file;summary section"` rows.
    let ci_sh = repo_file("ci.sh");
    let rows: Vec<Vec<&str>> = ci_sh
        .lines()
        .skip_while(|l| *l != "GATES=(")
        .skip(1)
        .take_while(|l| *l != ")")
        .map(|l| l.trim().trim_matches('"').split(';').collect())
        .collect();
    assert_eq!(
        rows.len(),
        registry.len(),
        "one ci.sh row per registry entry"
    );
    for (row, (name, report_file)) in rows.iter().zip(&registry) {
        assert_eq!(row.len(), 4, "{row:?}");
        let invoked = row[1].split_whitespace().next().unwrap();
        assert_eq!(
            invoked, name,
            "ci.sh row {row:?} must invoke its registry entry"
        );
        assert_eq!(
            row[2], report_file,
            "ci.sh row {row:?} must name the gate's report file"
        );
    }
    assert!(rows.iter().all(|r| r[0] != "host"), "{rows:?}");
    // ci.sh's byte check sees a report only when it is tracked.
    for (_, report_file) in &registry {
        let tracked = Command::new("git")
            .current_dir(repo_root())
            .args(["ls-files", "--error-unmatch", "--"])
            .arg(report_file)
            .output()
            .expect("git runs");
        assert!(tracked.status.success(), "{report_file} is not committed");
    }
    // ci.sh runs the one harness crate.
    assert!(ci_sh.contains("-p wrf-gate --bin repro"), "{ci_sh}");
    assert!(!ci_sh.contains("wrf-bench") && !ci_sh.contains("crates/bench"));

    // ci.yml: the `gate:` block list of the matrix.
    let ci_yml = repo_file(".github/workflows/ci.yml");
    let matrix: Vec<&str> = ci_yml
        .lines()
        .skip_while(|l| l.trim() != "gate:")
        .skip(1)
        .map_while(|l| l.trim().strip_prefix("- "))
        .collect();
    let steps: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(
        matrix, steps,
        "ci.yml matrix must equal the ci.sh gate list"
    );
}
