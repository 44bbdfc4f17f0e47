//! Fortran modernization AutoFix (`codee rewrite` without `--offload`).
//!
//! The paper: "Codee also has the ability to automatically rewrite
//! Fortran code to enforce Fortran modernization best practices, which is
//! strongly recommended by experts before starting code optimization
//! efforts" — and §VIII reports using exactly these checks on `onecond`.
//! Given a [`Subprogram`]'s metadata, this module emits the modernized
//! interface block: `implicit none` inserted, every dummy argument given
//! an explicit `intent`, assumed-size arguments converted to
//! assumed-shape, and side-effect-free procedures declared `pure`.

use crate::ir::Subprogram;

/// Result of modernizing one subprogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Modernized {
    /// Catalog ids of the fixes applied, in order (empty when the code
    /// was already modern).
    pub fixes: Vec<&'static str>,
    /// The rewritten interface, pseudo-Fortran.
    pub interface: String,
}

/// Applies the modernization AutoFix to a subprogram's interface.
pub fn modernize(sub: &Subprogram) -> Modernized {
    let mut fixes = Vec::new();
    let mut lines = Vec::new();

    let pure_prefix = if !sub.writes_module_vars && !sub.pure_decl {
        fixes.push("PWR069");
        "pure "
    } else if sub.pure_decl {
        "pure "
    } else {
        ""
    };

    let arg_list: Vec<&str> = sub.args.iter().map(|(n, _, _)| n.as_str()).collect();
    lines.push(format!(
        "{pure_prefix}subroutine {}({})",
        sub.name,
        arg_list.join(", ")
    ));

    if !sub.implicit_none {
        fixes.push("PWR007");
    }
    lines.push("  implicit none".to_string());

    for (name, has_intent, assumed_size) in &sub.args {
        // Without flow information the safe modernization is
        // `intent(inout)`; Codee infers tighter intents when it can.
        if !has_intent {
            fixes.push("PWR008");
        }
        let shape = if *assumed_size {
            fixes.push("PWR068");
            "(:)"
        } else {
            ""
        };
        lines.push(format!("  real, intent(inout) :: {name}{shape}"));
    }
    lines.push("  ! ... body unchanged ...".to_string());
    lines.push(format!("end subroutine {}", sub.name));

    Modernized {
        fixes,
        interface: lines.join("\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn onecond_gets_all_three_fixes() {
        let subs = corpus::fsbm_subprograms(false);
        let onecond = subs.iter().find(|s| s.name == "onecond1").unwrap();
        let m = modernize(onecond);
        assert!(m.fixes.contains(&"PWR007"), "implicit none");
        assert!(m.fixes.contains(&"PWR008"), "intents");
        assert!(m.fixes.contains(&"PWR068"), "assumed-shape");
        assert!(m.interface.contains("implicit none"));
        assert!(m.interface.contains("intent(inout) :: tps(:)"));
        assert!(m.interface.starts_with("pure subroutine onecond1"));
    }

    #[test]
    fn modern_code_needs_nothing() {
        let sub = Subprogram {
            name: "clean".into(),
            file: "x.f90".into(),
            loc: 10,
            implicit_none: true,
            args: vec![("a".into(), true, false)],
            automatic_bytes: 0,
            writes_module_vars: true, // not a pure candidate
            pure_decl: false,
            declare_target: false,
        };
        let m = modernize(&sub);
        assert!(m.fixes.is_empty(), "{:?}", m.fixes);
        assert!(m.interface.contains("subroutine clean(a)"));
    }

    #[test]
    fn side_effect_free_subprogram_becomes_pure() {
        let subs = corpus::fsbm_subprograms(false);
        let coal = subs.iter().find(|s| s.name == "coal_bott_new").unwrap();
        let m = modernize(coal);
        assert!(m.interface.starts_with("pure subroutine"));
        // kernals_ks writes module state: must NOT become pure.
        let kern = subs.iter().find(|s| s.name == "kernals_ks").unwrap();
        let mk = modernize(kern);
        assert!(!mk.interface.starts_with("pure"));
    }
}
