//! The `miniwrf` command line: what it refuses, and that a single-rank
//! namelist asking for checkpoints or shared devices gets them. Each
//! case runs the binary in a directory of its own on a gate-sized grid
//! for three steps.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A gate-sized domain (21 × 15 × 8, three 5 s steps) followed by
/// `extra` namelist blocks.
fn namelist(extra: &str) -> String {
    format!(
        "&domains\n  e_we = 21, e_sn = 15, e_vert = 8,\n  dt = 5.0, run_minutes = 0.25,\n/\n{extra}"
    )
}

/// A fresh working directory named after `case`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(case: &str) -> WorkDir {
        let dir = std::env::temp_dir().join(format!("miniwrf_cli_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the working directory");
        WorkDir(dir)
    }

    /// Writes `text` as `namelist.input` and runs `miniwrf` on it with
    /// `flags`.
    fn run(&self, text: &str, flags: &[&str]) -> Output {
        std::fs::write(self.0.join("namelist.input"), text).expect("write the namelist");
        self.miniwrf(&[&["namelist.input"], flags].concat())
    }

    fn miniwrf(&self, args: &[&str]) -> Output {
        std::process::Command::new(env!("CARGO_BIN_EXE_miniwrf"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("miniwrf runs")
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unreadable_namelist_exits_1() {
    let dir = WorkDir::new("unreadable");
    let out = dir.miniwrf(&["no_such_namelist.input"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot read `no_such_namelist.input`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_parallel_key_exits_1_naming_it() {
    let dir = WorkDir::new("unknown_key");
    let out = dir.run(
        &namelist("&parallel\n  nproc = 1, backennd = 'v100',\n/\n"),
        &[],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("`backennd`"), "{}", stderr(&out));
    assert!(!dir.path().join("wrfout_d01.bin").exists(), "no run");
}

/// `nproc = 1` with `restart_interval` runs under the checkpointing
/// supervisor, as more ranks do: rank 0's restart files are left behind
/// and the recovery line is printed.
#[test]
fn single_rank_run_writes_its_checkpoints() {
    let dir = WorkDir::new("restart");
    let text = namelist("&time_control\n  restart_interval = 1,\n/\n&parallel\n  nproc = 1,\n/\n");
    let out = dir.run(&text, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let sets: Vec<String> = std::fs::read_dir(dir.path().join("restart"))
        .expect("a restart directory")
        .map(|e| {
            e.expect("a directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("restart_r0000_s") && n.ends_with(".bin"))
        .collect();
    assert!(!sets.is_empty(), "no checkpoint: {}", stdout(&out));
    assert!(stdout(&out).contains("recovery:"), "{}", stdout(&out));
}

/// `nproc = 1` with `gpus` goes through device admission and prints its
/// share line.
#[test]
fn single_rank_run_shares_its_device() {
    let dir = WorkDir::new("gpus");
    let text = namelist(
        "&physics\n  mp_physics = 'fsbm_collapse3',\n/\n&parallel\n  nproc = 1, gpus = 1,\n/\n",
    );
    let out = dir.run(&text, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("share: device 0/1"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn autocompare_beyond_the_single_rank_loop_exits_1() {
    let dir = WorkDir::new("autocompare");
    let out = dir.run(
        &namelist("&parallel\n  nproc = 2,\n/\n"),
        &["--autocompare"],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("--autocompare"), "{}", stderr(&out));
}

/// A nested run has one rank and neither checkpoints nor shared
/// devices: a nest asking for them is refused before anything runs,
/// where it used to run to exit 0 and drop both.
#[test]
fn nested_run_with_checkpoints_exits_1() {
    let dir = WorkDir::new("nest_restart");
    let text = namelist(
        "&case\n  name = 'squall_line', nest_ratio = 3, nest_i = 7, nest_j = 5, \
         nest_w = 8, nest_h = 6,\n/\n\
         &time_control\n  restart_interval = 1,\n/\n\
         &physics\n  mp_physics = 'fsbm_collapse3',\n/\n\
         &parallel\n  nproc = 1, gpus = 1,\n/\n",
    );
    let out = dir.run(&text, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("restart_interval"),
        "{}",
        stderr(&out)
    );
    for name in ["wrfout_d01.bin", "wrfout_d02.bin", "restart"] {
        assert!(!dir.path().join(name).exists(), "{name} left behind");
    }
}
