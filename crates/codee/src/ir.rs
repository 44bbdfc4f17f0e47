//! Loop intermediate representation for the dependence analyzer.
//!
//! Subscripts are affine forms over loop variables; a reference whose
//! subscript the front-end cannot resolve (e.g. a subroutine writing a
//! whole module array) is marked [`Affine::unknown`], which the analyzer
//! treats conservatively as "may touch any element".

use std::collections::BTreeMap;

/// An affine subscript `Σ cᵥ·v + offset` over loop variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    /// Coefficients per loop variable (absent = 0).
    pub terms: BTreeMap<String, i64>,
    /// Constant offset.
    pub offset: i64,
    /// True when the subscript is statically unresolvable; overlaps
    /// everything.
    pub unknown: bool,
}

impl Affine {
    /// The constant subscript `c`.
    pub fn constant(c: i64) -> Self {
        Affine {
            terms: BTreeMap::new(),
            offset: c,
            unknown: false,
        }
    }

    /// The identity subscript `v`.
    pub fn var(v: &str) -> Self {
        Self::linear(v, 1, 0)
    }

    /// The subscript `c·v + off`.
    pub fn linear(v: &str, c: i64, off: i64) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(v.to_string(), c);
        }
        Affine {
            terms,
            offset: off,
            unknown: false,
        }
    }

    /// A statically unresolvable subscript.
    pub fn unknown() -> Self {
        Affine {
            terms: BTreeMap::new(),
            offset: 0,
            unknown: true,
        }
    }

    /// Coefficient on loop variable `v`.
    pub fn coeff(&self, v: &str) -> i64 {
        self.terms.get(v).copied().unwrap_or(0)
    }
}

/// One array reference inside a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// Referenced array.
    pub array: String,
    /// One affine subscript per dimension.
    pub subs: Vec<Affine>,
    /// True for stores.
    pub write: bool,
    /// True when the reference sits under a data-dependent conditional
    /// (a *may* access; disables write-first privatization).
    pub guarded: bool,
}

impl ArrayRef {
    /// Unguarded read.
    pub fn read(array: &str, subs: Vec<Affine>) -> Self {
        ArrayRef {
            array: array.to_string(),
            subs,
            write: false,
            guarded: false,
        }
    }

    /// Unguarded write.
    pub fn write(array: &str, subs: Vec<Affine>) -> Self {
        ArrayRef {
            array: array.to_string(),
            subs,
            write: true,
            guarded: false,
        }
    }

    /// Marks the reference as conditional.
    pub fn guarded(mut self) -> Self {
        self.guarded = true;
        self
    }
}

/// A loop body statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Direct array access.
    Access(ArrayRef),
    /// Scalar assignment `name = f(reads...)` (for privatization).
    ScalarWrite {
        /// Assigned scalar.
        name: String,
        /// Scalars read on the right-hand side.
        reads: Vec<String>,
    },
    /// Scalar read without an enclosing assignment in this body.
    ScalarRead(String),
    /// Call with summarized memory effects.
    Call {
        /// Callee name (for reports).
        callee: String,
        /// Array effects of the call.
        accesses: Vec<ArrayRef>,
    },
}

/// One loop variable with constant inclusive bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopVar {
    /// Induction variable name.
    pub name: String,
    /// Lower bound.
    pub lo: i64,
    /// Upper bound.
    pub hi: i64,
}

impl LoopVar {
    /// Creates a loop variable.
    pub fn new(name: &str, lo: i64, hi: i64) -> Self {
        LoopVar {
            name: name.to_string(),
            lo,
            hi,
        }
    }

    /// Trip count.
    pub fn trips(&self) -> i64 {
        (self.hi - self.lo + 1).max(0)
    }
}

/// A perfect loop nest with a flat body (outer variable first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Source location id, e.g. `module_mp_fast_sbm.f90:6293`.
    pub id: String,
    /// Loop variables, outermost first.
    pub vars: Vec<LoopVar>,
    /// Body statements in program order.
    pub body: Vec<Stmt>,
}

impl LoopNest {
    /// All array references in program order (calls flattened).
    pub fn all_refs(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        for s in &self.body {
            match s {
                Stmt::Access(r) => out.push(r),
                Stmt::Call { accesses, .. } => out.extend(accesses.iter()),
                _ => {}
            }
        }
        out
    }
}

/// Fortran subprogram metadata for the modernization checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subprogram {
    /// Subprogram name.
    pub name: String,
    /// Source file.
    pub file: String,
    /// Lines of code.
    pub loc: u32,
    /// Has `implicit none`.
    pub implicit_none: bool,
    /// Dummy arguments: `(name, has intent, assumed-size)`.
    pub args: Vec<(String, bool, bool)>,
    /// Bytes of automatic (stack) arrays.
    pub automatic_bytes: u64,
    /// Writes module-scope variables.
    pub writes_module_vars: bool,
    /// Declared `pure`.
    pub pure_decl: bool,
    /// Marked `!$omp declare target` (device-callable).
    pub declare_target: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_builders() {
        let a = Affine::linear("i", 2, 1);
        assert_eq!(a.coeff("i"), 2);
        assert_eq!(a.coeff("j"), 0);
        assert_eq!(a.offset, 1);
        assert!(Affine::unknown().unknown);
        assert_eq!(Affine::var("k"), Affine::linear("k", 1, 0));
    }

    #[test]
    fn zero_coefficient_not_stored() {
        let a = Affine::linear("i", 0, 3);
        assert!(a.terms.is_empty());
        assert_eq!(a.offset, 3);
    }

    #[test]
    fn nest_flattens_call_refs() {
        let nest = LoopNest {
            id: "t".into(),
            vars: vec![LoopVar::new("i", 1, 10)],
            body: vec![
                Stmt::Access(ArrayRef::read("a", vec![Affine::var("i")])),
                Stmt::Call {
                    callee: "f".into(),
                    accesses: vec![ArrayRef::write("b", vec![Affine::var("i")])],
                },
            ],
        };
        assert_eq!(nest.all_refs().len(), 2);
    }

    #[test]
    fn loop_var_trips() {
        assert_eq!(LoopVar::new("i", 1, 33).trips(), 33);
        assert_eq!(LoopVar::new("i", 5, 4).trips(), 0);
    }
}
