//! Project-level screening report (`codee screening`).

use crate::checks::{run_checks, Severity};
use crate::ir::{LoopNest, Subprogram};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate screening of a project, like the report Codee produces from
/// a `compile_commands.json` capture (Listing 2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningReport {
    /// Number of source files seen.
    pub files: usize,
    /// Number of subprograms analyzed.
    pub subprograms: usize,
    /// Total lines of code.
    pub loc: u64,
    /// Number of loop nests analyzed.
    pub loops: usize,
    /// Findings per check id.
    pub by_check: BTreeMap<&'static str, usize>,
    /// Findings per severity.
    pub warnings: usize,
    /// Info-level findings.
    pub infos: usize,
    /// Performance opportunities (offload/simd).
    pub opportunities: usize,
}

/// Runs the full analysis and aggregates (`codee screening --config ...`).
pub fn screening(subs: &[Subprogram], nests: &[LoopNest]) -> ScreeningReport {
    let mut by_check: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut warnings, mut infos, mut opportunities) = (0, 0, 0);
    for f in run_checks(subs, nests) {
        *by_check.entry(f.check).or_insert(0) += 1;
        match f.severity {
            Severity::Warning => warnings += 1,
            Severity::Info => infos += 1,
            Severity::Opportunity => opportunities += 1,
        }
    }
    let files = {
        let mut v: Vec<&str> = subs.iter().map(|s| s.file.as_str()).collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    ScreeningReport {
        files,
        subprograms: subs.len(),
        loc: subs.iter().map(|s| s.loc as u64).sum(),
        loops: nests.len(),
        by_check,
        warnings,
        infos,
        opportunities,
    }
}

impl fmt::Display for ScreeningReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CODEE SCREENING REPORT")?;
        writeln!(
            f,
            "  {} files, {} subprograms, {} LoC, {} loop nests",
            self.files, self.subprograms, self.loc, self.loops
        )?;
        writeln!(
            f,
            "  {} warnings, {} recommendations, {} optimization opportunities",
            self.warnings, self.infos, self.opportunities
        )?;
        writeln!(f, "  findings by check:")?;
        for (id, n) in &self.by_check {
            writeln!(f, "    {id}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn screening_of_fsbm_corpus() {
        let subs = corpus::fsbm_subprograms(false);
        let nests = vec![
            corpus::kernals_ks_nest(),
            corpus::grid_loop_baseline(),
            corpus::grid_loop_lookup(),
        ];
        let r = screening(&subs, &nests);
        assert_eq!(r.files, 1);
        assert_eq!(r.subprograms, 6);
        assert_eq!(r.loops, 3);
        assert!(r.loc > 5000);
        // Legacy constructs present (onecond*, kernals_ks).
        assert!(*r.by_check.get("PWR007").unwrap_or(&0) >= 3);
        assert!(*r.by_check.get("PWR068").unwrap_or(&0) >= 2);
        // Offload opportunities exist (kernals + lookup grid loop).
        assert!(*r.by_check.get("PWR050").unwrap_or(&0) >= 2);
        // The automatic-array device-stack warning fires for coal_bott_new.
        assert!(*r.by_check.get("PWR035").unwrap_or(&0) >= 1);
        assert!(r.warnings > 0 && r.opportunities > 0);
    }

    #[test]
    fn slab_refactor_clears_stack_warning() {
        let before = screening(&corpus::fsbm_subprograms(false), &[]);
        let after = screening(&corpus::fsbm_subprograms(true), &[]);
        assert!(before.by_check.contains_key("PWR035"));
        assert!(!after.by_check.contains_key("PWR035"));
    }

    #[test]
    fn display_renders() {
        let r = screening(
            &corpus::fsbm_subprograms(true),
            &[corpus::kernals_ks_nest()],
        );
        let s = r.to_string();
        assert!(s.contains("CODEE SCREENING REPORT"));
        assert!(s.contains("PWR050"));
    }
}
