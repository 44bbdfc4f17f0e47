//! Directive rewriting: `codee rewrite --offload omp --in-place`.
//!
//! Given a nest whose analysis proves parallelism, emits the annotated
//! pseudo-Fortran the real tool inserts — Listing 4 of the paper: an
//! `omp target teams distribute parallel do` on the outer loop with
//! `private`/`map(from:)` clauses derived from the analysis, and an
//! `omp simd` on the innermost loop.

use crate::depend::{analyze, LoopAnalysis};
use crate::ir::LoopNest;

/// Error when a rewrite is not licensed by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteBlocked {
    /// Nest that was refused.
    pub nest_id: String,
    /// The blocking dependences, rendered.
    pub reasons: Vec<String>,
}

impl std::fmt::Display for RewriteBlocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rewrite of {} blocked: {}",
            self.nest_id,
            self.reasons.join("; ")
        )
    }
}

/// Emits the OpenMP-offload-annotated loop for `nest`, or refuses when
/// carried dependences exist on the outer loop.
pub fn rewrite_offload(nest: &LoopNest) -> Result<String, RewriteBlocked> {
    let a = analyze(nest);
    if a.collapsible == 0 {
        return Err(RewriteBlocked {
            nest_id: nest.id.clone(),
            reasons: a
                .dependences
                .iter()
                .map(|d| {
                    format!(
                        "{:?} dependence on `{}` carried by `{}`",
                        d.kind, d.array, d.var
                    )
                })
                .collect(),
        });
    }
    Ok(render(nest, &a))
}

fn clause_list(items: &[String]) -> String {
    items.join(", ")
}

fn render(nest: &LoopNest, a: &LoopAnalysis) -> String {
    let mut s = String::new();
    s.push_str("! Codee: Loop modified\n");
    s.push_str("!$omp target teams distribute &\n");
    // Deeper nests keep the innermost loop out of the collapse for simd
    // (Listing 4 structure); a 2-deep fully-parallel nest collapses both
    // loops, with simd applied to the innermost collapsed loop.
    let collapse_depth = if nest.vars.len() > 2 {
        a.collapsible.min(nest.vars.len() - 1)
    } else {
        a.collapsible
    };
    if collapse_depth > 1 {
        s.push_str(&format!("!$omp parallel do collapse({collapse_depth}) &\n"));
    } else {
        s.push_str("!$omp parallel do &\n");
    }
    if !a.private_scalars.is_empty() {
        s.push_str(&format!(
            "!$omp private({}) &\n",
            clause_list(&a.private_scalars)
        ));
    }
    if !a.map_to.is_empty() {
        s.push_str(&format!("!$omp map(to: {}) &\n", clause_list(&a.map_to)));
    }
    if !a.map_tofrom.is_empty() {
        s.push_str(&format!(
            "!$omp map(tofrom: {}) &\n",
            clause_list(&a.map_tofrom)
        ));
    }
    if !a.dead_on_entry.is_empty() {
        s.push_str(&format!(
            "!$omp map(from: {})\n",
            clause_list(&a.dead_on_entry)
        ));
    } else {
        // Terminate the continuation.
        let cut = s.trim_end_matches(" &\n").len();
        s.truncate(cut);
        s.push('\n');
    }

    let n = nest.vars.len();
    for (depth, v) in nest.vars.iter().enumerate() {
        if depth == n - 1 && a.parallelizable_vars.contains(&v.name) {
            s.push_str(&indent(depth));
            s.push_str("! Codee: Loop modified\n");
            s.push_str(&indent(depth));
            s.push_str("!$omp simd\n");
        }
        s.push_str(&indent(depth));
        s.push_str(&format!("do {} = {}, {}\n", v.name, v.lo, v.hi));
    }
    s.push_str(&indent(n));
    s.push_str("... body ...\n");
    for depth in (0..n).rev() {
        s.push_str(&indent(depth));
        s.push_str("enddo\n");
    }
    s
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Affine, ArrayRef, LoopVar, Stmt};

    fn kernals_like() -> LoopNest {
        LoopNest {
            id: "module_mp_fast_sbm.f90:6293".into(),
            vars: vec![LoopVar::new("j", 1, 33), LoopVar::new("i", 1, 33)],
            body: vec![
                Stmt::ScalarWrite {
                    name: "ckern_1".into(),
                    reads: vec![],
                },
                Stmt::Access(ArrayRef::read(
                    "ywls_750mb",
                    vec![Affine::var("i"), Affine::var("j"), Affine::constant(1)],
                )),
                Stmt::Access(ArrayRef::write(
                    "cwls",
                    vec![Affine::var("i"), Affine::var("j")],
                )),
                Stmt::Access(ArrayRef::write(
                    "cwlg",
                    vec![Affine::var("i"), Affine::var("j")],
                )),
            ],
        }
    }

    #[test]
    fn listing4_shape() {
        let out = rewrite_offload(&kernals_like()).unwrap();
        assert!(out.contains("!$omp target teams distribute"));
        // Regression: the 2-deep kernals nest is fully collapsible and
        // must get collapse(2), not a bare `parallel do` (Listing 4).
        assert!(out.contains("!$omp parallel do collapse(2)"), "{out}");
        assert!(out.contains("private(ckern_1)"));
        assert!(out.contains("map(from: cwlg, cwls)"));
        assert!(out.contains("map(to: ywls_750mb)"));
        assert!(out.contains("!$omp simd"));
        assert!(out.contains("do j = 1, 33"));
        assert!(out.contains("do i = 1, 33"));
        assert_eq!(out.matches("enddo").count(), 2);
    }

    /// Regression: a single-loop parallelizable nest used to miss its
    /// `!$omp simd` because the emitter required at least two loops.
    #[test]
    fn single_loop_nest_gets_simd() {
        let nest = LoopNest {
            id: "one.f90:1".into(),
            vars: vec![LoopVar::new("i", 1, 100)],
            body: vec![Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")]))],
        };
        let out = rewrite_offload(&nest).unwrap();
        assert!(out.contains("!$omp parallel do"), "{out}");
        assert!(!out.contains("collapse("), "{out}");
        assert!(out.contains("!$omp simd"), "{out}");
        assert_eq!(out.matches("enddo").count(), 1);
    }

    #[test]
    fn blocked_rewrite_reports_dependences() {
        let nest = LoopNest {
            id: "bad.f90:1".into(),
            vars: vec![LoopVar::new("i", 1, 100)],
            body: vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::linear("i", 1, -1)])),
            ],
        };
        let err = rewrite_offload(&nest).unwrap_err();
        assert_eq!(err.nest_id, "bad.f90:1");
        assert!(err.to_string().contains("carried by `i`"));
    }

    #[test]
    fn three_deep_nest_collapses() {
        let nest = LoopNest {
            id: "grid.f90:1".into(),
            vars: vec![
                LoopVar::new("j", 1, 75),
                LoopVar::new("k", 1, 50),
                LoopVar::new("i", 1, 106),
            ],
            body: vec![Stmt::Access(ArrayRef::write(
                "out",
                vec![Affine::var("i"), Affine::var("k"), Affine::var("j")],
            ))],
        };
        let out = rewrite_offload(&nest).unwrap();
        assert!(out.contains("collapse(2)"), "{out}");
        assert!(out.contains("!$omp simd"));
    }
}
