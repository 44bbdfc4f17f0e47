//! Modernization/optimization checks, modeled on the Open Catalog of Best
//! Practices the paper cites ([17]). The paper uses exactly these to
//! detect legacy constructs in FSBM ("assumed-shape arrays and dummy
//! argument intents in other subroutines like onecond") and to flag
//! offload opportunities.

use crate::depend::analyze;
use crate::ir::{LoopNest, Subprogram};

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/maintainability.
    Info,
    /// Likely correctness or portability hazard.
    Warning,
    /// Performance opportunity.
    Opportunity,
}

/// A catalog check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Catalog id (PWR### in the Open Catalog).
    pub id: &'static str,
    /// Short title.
    pub title: &'static str,
    /// Severity class.
    pub severity: Severity,
}

/// All implemented checks.
pub const CATALOG: &[Check] = &[
    Check {
        id: "PWR001",
        title: "Declare global variables as function parameters",
        severity: Severity::Warning,
    },
    Check {
        id: "PWR007",
        title: "Disable implicit declaration of variables (implicit none)",
        severity: Severity::Warning,
    },
    Check {
        id: "PWR008",
        title: "Declare the intent for each procedure argument",
        severity: Severity::Warning,
    },
    Check {
        id: "PWR068",
        title: "Avoid assumed-size arrays in procedure arguments",
        severity: Severity::Warning,
    },
    Check {
        id: "PWR069",
        title: "Declare pure the procedures without side effects",
        severity: Severity::Info,
    },
    Check {
        id: "PWR035",
        title: "Avoid automatic arrays in offloaded procedures (device stack)",
        severity: Severity::Opportunity,
    },
    Check {
        id: "PWR050",
        title: "Consider applying offloading parallelism to the loop",
        severity: Severity::Opportunity,
    },
    Check {
        id: "PWR053",
        title: "Consider applying vectorization to the innermost loop",
        severity: Severity::Opportunity,
    },
    Check {
        id: "RMK010",
        title: "Loop carries dependences that block parallelization",
        severity: Severity::Warning,
    },
];

/// One finding of a check at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Catalog id.
    pub check: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Location (file:line or nest id / subprogram name).
    pub location: String,
    /// Message.
    pub message: String,
}

fn check(id: &'static str) -> &'static Check {
    CATALOG.iter().find(|c| c.id == id).expect("known check id")
}

/// Runs the subprogram-metadata checks.
pub fn run_subprogram_checks(subs: &[Subprogram]) -> Vec<Finding> {
    let mut out = Vec::new();
    for s in subs {
        let loc = format!("{}:{}", s.file, s.name);
        if !s.implicit_none {
            out.push(Finding {
                check: "PWR007",
                severity: check("PWR007").severity,
                location: loc.clone(),
                message: format!("subroutine `{}` lacks `implicit none`", s.name),
            });
        }
        for (arg, has_intent, assumed_size) in &s.args {
            if !has_intent {
                out.push(Finding {
                    check: "PWR008",
                    severity: check("PWR008").severity,
                    location: loc.clone(),
                    message: format!("dummy argument `{arg}` of `{}` has no intent", s.name),
                });
            }
            if *assumed_size {
                out.push(Finding {
                    check: "PWR068",
                    severity: check("PWR068").severity,
                    location: loc.clone(),
                    message: format!("dummy argument `{arg}` of `{}` is assumed-size", s.name),
                });
            }
        }
        if s.writes_module_vars {
            out.push(Finding {
                check: "PWR001",
                severity: check("PWR001").severity,
                location: loc.clone(),
                message: format!(
                    "`{}` writes module-scope state; pass it as arguments to enable \
                     parallelization",
                    s.name
                ),
            });
        }
        if !s.writes_module_vars && !s.pure_decl {
            out.push(Finding {
                check: "PWR069",
                severity: check("PWR069").severity,
                location: loc.clone(),
                message: format!("`{}` has no side effects; declare it `pure`", s.name),
            });
        }
        if s.declare_target && s.automatic_bytes > 4096 {
            out.push(Finding {
                check: "PWR035",
                severity: check("PWR035").severity,
                location: loc.clone(),
                message: format!(
                    "device-callable `{}` declares {} B of automatic arrays; this \
                     consumes device stack (NV_ACC_CUDA_STACKSIZE) and limits collapse",
                    s.name, s.automatic_bytes
                ),
            });
        }
    }
    out
}

/// Runs the loop checks (offload / simd opportunities, dependence
/// remarks) over a set of nests.
pub fn run_loop_checks(nests: &[LoopNest]) -> Vec<Finding> {
    let mut out = Vec::new();
    for n in nests {
        let a = analyze(n);
        if a.collapsible > 0 {
            out.push(Finding {
                check: "PWR050",
                severity: check("PWR050").severity,
                location: n.id.clone(),
                message: format!(
                    "loop nest is parallelizable over `{}` (collapse({}) possible); \
                     consider `omp target teams distribute parallel do`",
                    a.parallelizable_vars.join(", "),
                    a.collapsible
                ),
            });
        }
        if let Some(inner) = n.vars.last() {
            if a.parallelizable_vars.contains(&inner.name) && n.vars.len() > 1 {
                out.push(Finding {
                    check: "PWR053",
                    severity: check("PWR053").severity,
                    location: n.id.clone(),
                    message: format!(
                        "innermost loop over `{}` is vectorizable; consider `omp simd`",
                        inner.name
                    ),
                });
            }
        }
        for d in &a.dependences {
            out.push(Finding {
                check: "RMK010",
                severity: check("RMK010").severity,
                location: n.id.clone(),
                message: format!(
                    "{:?} dependence on `{}` carried by `{}`: {}",
                    d.kind, d.array, d.var, d.reason
                ),
            });
        }
    }
    out
}

/// Runs everything (`codee checks`).
pub fn run_checks(subs: &[Subprogram], nests: &[LoopNest]) -> Vec<Finding> {
    let mut out = run_subprogram_checks(subs);
    out.extend(run_loop_checks(nests));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Affine, ArrayRef, LoopVar, Stmt};

    fn legacy_sub() -> Subprogram {
        Subprogram {
            name: "onecond1".into(),
            file: "module_mp_fast_sbm.f90".into(),
            loc: 900,
            implicit_none: false,
            args: vec![("tt".into(), false, false), ("qq".into(), true, true)],
            automatic_bytes: 0,
            writes_module_vars: false,
            pure_decl: false,
            declare_target: false,
        }
    }

    #[test]
    fn legacy_constructs_detected() {
        let f = run_subprogram_checks(&[legacy_sub()]);
        let ids: Vec<&str> = f.iter().map(|x| x.check).collect();
        assert!(ids.contains(&"PWR007")); // implicit none
        assert!(ids.contains(&"PWR008")); // missing intent on tt
        assert!(ids.contains(&"PWR068")); // assumed-size qq
        assert!(ids.contains(&"PWR069")); // pure candidate
    }

    #[test]
    fn module_state_flagged() {
        let mut s = legacy_sub();
        s.writes_module_vars = true;
        let f = run_subprogram_checks(&[s]);
        assert!(f.iter().any(|x| x.check == "PWR001"));
        assert!(!f.iter().any(|x| x.check == "PWR069"));
    }

    #[test]
    fn automatic_arrays_in_device_code_flagged() {
        let mut s = legacy_sub();
        s.declare_target = true;
        s.automatic_bytes = 20 * 1024;
        let f = run_subprogram_checks(&[s]);
        assert!(f
            .iter()
            .any(|x| x.check == "PWR035" && x.message.contains("NV_ACC_CUDA_STACKSIZE")));
    }

    #[test]
    fn parallel_nest_yields_offload_and_simd() {
        let nest = LoopNest {
            id: "k.f90:1".into(),
            vars: vec![LoopVar::new("j", 1, 33), LoopVar::new("i", 1, 33)],
            body: vec![Stmt::Access(ArrayRef::write(
                "cwls",
                vec![Affine::var("i"), Affine::var("j")],
            ))],
        };
        let f = run_loop_checks(&[nest]);
        assert!(f.iter().any(|x| x.check == "PWR050"));
        assert!(f.iter().any(|x| x.check == "PWR053"));
        assert!(!f.iter().any(|x| x.check == "RMK010"));
    }

    #[test]
    fn dependence_remark_emitted() {
        let nest = LoopNest {
            id: "k.f90:2".into(),
            vars: vec![LoopVar::new("i", 1, 100)],
            body: vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::linear("i", 1, -1)])),
            ],
        };
        let f = run_loop_checks(&[nest]);
        assert!(f.iter().any(|x| x.check == "RMK010"));
        assert!(!f.iter().any(|x| x.check == "PWR050"));
    }

    #[test]
    fn catalog_ids_unique() {
        let mut ids: Vec<&str> = CATALOG.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
