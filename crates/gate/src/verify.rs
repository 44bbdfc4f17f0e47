//! §VII-B output verification: the four versions agree (`diffwrf`).
//!
//! This is the *demonstration* surface (`repro verify`); the *enforced*
//! form of the same claim is `repro gate`, which pins every version ×
//! scheduling mode to the committed golden fixtures under `goldens/`
//! (see the `wrf-gate` crate and DESIGN.md §5.6).

use fsbm_core::scheme::SbmVersion;
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use std::fmt::Write as _;
use wrf_cases::diffwrf::{diffwrf, DiffReport};

/// Runs all four versions on the same reduced-scale case and compares
/// each against the baseline with `diffwrf`. Returns the three reports
/// (lookup, collapse2, collapse3 vs baseline) and a rendered summary.
pub fn verify_versions(scale: f64, nz: i32, steps: usize) -> (Vec<(String, DiffReport)>, String) {
    let run = |version: SbmVersion| {
        let mut m = Model::single_rank(ModelConfig::functional(version, scale, nz));
        m.run(steps);
        m.state
    };
    let baseline = run(SbmVersion::Baseline);
    let mut out = Vec::new();
    let mut s = format!("diffwrf verification after {steps} steps (vs baseline):\n");
    for v in SbmVersion::ALL.into_iter().skip(1) {
        let st = run(v);
        let report = diffwrf(&baseline, &st);
        let _ = writeln!(
            s,
            "  {:<34} state digits >= {:<2} microphysics digits >= {:<2} bitwise {}",
            v.label(),
            report.min_state_digits(),
            report.min_microphysics_digits(),
            if report.identical() { "yes" } else { "no" }
        );
        out.push((v.label().to_string(), report));
    }
    s.push_str("paper: 3-6 digits on state variables, 1-5 on microphysics (3 h run)\n");
    (out, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_agree_to_many_digits() {
        let (reports, s) = verify_versions(0.05, 8, 4);
        assert_eq!(reports.len(), 3);
        for (name, r) in &reports {
            // The Rust versions share every arithmetic path, so they agree
            // far beyond the paper's Fortran/GPU 3–6 digits.
            assert!(
                r.min_state_digits() >= 5,
                "{name}: state digits {}",
                r.min_state_digits()
            );
            assert!(
                r.min_microphysics_digits() >= 4,
                "{name}: micro digits {}",
                r.min_microphysics_digits()
            );
        }
        assert!(s.contains("diffwrf"));
        assert!(s.contains("bitwise yes"));
    }
}
