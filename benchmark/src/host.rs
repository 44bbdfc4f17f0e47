//! Host facts and process counters, read from `/proc` (Linux only;
//! every reader degrades to "unknown"/0 elsewhere rather than failing
//! the run).

use crate::json::{obj, Json};
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` CPU times
/// (`USER_HZ`, fixed at 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process and its joined threads.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 0, utime 11, stime 12.
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// CPU model string of the first processor.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

/// Cores the OS lets this process use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata recorded with every results file.
pub fn metadata() -> Json {
    obj([
        ("available_parallelism", available_parallelism().into()),
        ("cpu_model", cpu_model().into()),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        // A benchmark checkout need not be a git repository.
        (
            "git_commit",
            first_line_of("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("loadavg_1m_at_start", loadavg_1m().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(available_parallelism() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.5, "a running test has a resident set");
            assert!(cpu_seconds() >= 0.0);
            assert!(!cpu_model().is_empty());
        }
        let m = metadata();
        assert!(m.get("rustc").and_then(Json::as_str).is_some());
        assert!(m.get("profile").and_then(Json::as_str).is_some());
    }
}
