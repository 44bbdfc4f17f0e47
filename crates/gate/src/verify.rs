//! §VII-B output verification: the four versions agree (`diffwrf`).
//!
//! This is the *demonstration* surface (`repro paper`'s `verify` table);
//! the bitwise form of the same claim is `repro cases`, which pins every version ×
//! layout × scheduling mode to the committed golden fixtures under `goldens/`
//! (see the `wrf-gate` crate and DESIGN.md §5.6).

use fsbm_core::scheme::SbmVersion;
use miniwrf::config::ModelConfig;
use miniwrf::model::Model;
use wrf_cases::diffwrf::{diffwrf, DiffReport};

/// Runs all four versions on the same reduced-scale case and compares
/// each against the baseline with `diffwrf`. Returns the three reports
/// (lookup, collapse2, collapse3 vs baseline).
pub fn verify_versions(scale: f64, nz: i32, steps: usize) -> Vec<(SbmVersion, DiffReport)> {
    let run = |version: SbmVersion| {
        let mut m = Model::single_rank(ModelConfig::functional(version, scale, nz));
        m.run(steps);
        m.state
    };
    let baseline = run(SbmVersion::Baseline);
    (SbmVersion::ALL.into_iter().skip(1))
        .map(|v| (v, diffwrf(&baseline, &run(v))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_agree_to_many_digits() {
        let reports = verify_versions(0.05, 8, 4);
        assert_eq!(reports.len(), 3);
        for (name, r) in &reports {
            // The Rust versions share every arithmetic path, so they agree
            // far beyond the paper's Fortran/GPU 3–6 digits.
            assert!(
                r.min_state_digits() >= 5,
                "{name:?}: state digits {}",
                r.min_state_digits()
            );
            assert!(
                r.min_microphysics_digits() >= 4,
                "{name:?}: micro digits {}",
                r.min_microphysics_digits()
            );
        }
        assert!(reports.iter().all(|(_, r)| r.identical()));
    }
}
