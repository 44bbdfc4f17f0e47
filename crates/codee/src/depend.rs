//! Loop-carried dependence analysis.
//!
//! Implements the analyses Codee performs on the FSBM loops (Section
//! VI-A): per-variable dependence testing of affine subscript pairs
//! (coefficient matching and a GCD test), scalar privatization, and
//! write-first ("dead on entry") array detection — the property that
//! licenses `map(from: cwlg, cwls, ...)` in Listing 4 and ultimately the
//! removal of `kernals_ks`.

use crate::ir::{ArrayRef, LoopNest, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Kind of a detected dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceKind {
    /// Write then read (true dependence).
    Flow,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

/// One loop-carried dependence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Array (or scalar) involved.
    pub array: String,
    /// Loop variable carrying the dependence.
    pub var: String,
    /// Kind.
    pub kind: DependenceKind,
    /// Human-readable justification.
    pub reason: String,
}

/// Analysis result for one nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopAnalysis {
    /// All loop-carried dependences found.
    pub dependences: Vec<Dependence>,
    /// Loop variables free of carried dependences, outermost first.
    pub parallelizable_vars: Vec<String>,
    /// Scalars assigned before read in every iteration → `private`.
    pub private_scalars: Vec<String>,
    /// Arrays fully overwritten before any read → `map(from: ...)`.
    pub dead_on_entry: Vec<String>,
    /// Read-only arrays → `map(to: ...)`.
    pub map_to: Vec<String>,
    /// Read-write arrays that are live on entry → `map(tofrom: ...)`.
    pub map_tofrom: Vec<String>,
    /// Number of contiguous outermost parallelizable loops (max
    /// `collapse` depth).
    pub collapsible: usize,
}

impl LoopAnalysis {
    /// True when every loop variable is parallelizable.
    pub fn fully_parallel(&self) -> bool {
        self.dependences.is_empty()
    }

    /// Dependences carried by `var`.
    pub fn carried_by(&self, var: &str) -> Vec<&Dependence> {
        self.dependences.iter().filter(|d| d.var == var).collect()
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Can refs `a` and `b` of the same array touch the same element in two
/// *different* iterations of loop `var` (other loop variables equal)?
fn may_conflict_across(a: &ArrayRef, b: &ArrayRef, var: &str, trips: i64) -> bool {
    if a.subs.iter().any(|s| s.unknown) || b.subs.iter().any(|s| s.unknown) {
        return true;
    }
    if a.subs.len() != b.subs.len() {
        return true; // malformed; be conservative
    }
    let mut var_appears = false;
    for (sa, sb) in a.subs.iter().zip(&b.subs) {
        let (ca, cb) = (sa.coeff(var), sb.coeff(var));
        if ca == 0 && cb == 0 {
            continue;
        }
        var_appears = true;
        // Other-variable coefficient mismatches act as a free offset; be
        // conservative and skip the dimension unless they match.
        let others_match = {
            let mut vs: BTreeSet<&String> = sa.terms.keys().chain(sb.terms.keys()).collect();
            vs.remove(&var.to_string());
            vs.iter().all(|v| sa.coeff(v) == sb.coeff(v))
        };
        if !others_match {
            continue;
        }
        let diff = sb.offset - sa.offset;
        if ca == cb {
            // ca·(v_a − v_b) = diff
            if diff == 0 {
                // Same element only in the same iteration: this dimension
                // proves independence across `var`.
                return false;
            }
            if diff % ca != 0 {
                return false; // no integer solution in this dimension
            }
            let dist = (diff / ca).abs();
            if dist >= trips {
                return false; // distance exceeds the iteration space
            }
            // A possible carried dependence with distance `dist`; keep
            // scanning — a later dimension may still disprove it.
        } else {
            // GCD test for ca·v_a − cb·v_b = diff.
            let g = gcd(ca, cb);
            if g != 0 && diff % g != 0 {
                return false;
            }
            // Possible solution; keep scanning.
        }
    }
    // Either `var` never appears (every iteration touches the same
    // elements) or no dimension could disprove the conflict.
    let _ = var_appears;
    true
}

fn kind_of(first_write: bool, second_write: bool) -> DependenceKind {
    match (first_write, second_write) {
        (true, true) => DependenceKind::Output,
        (true, false) => DependenceKind::Flow,
        (false, true) => DependenceKind::Anti,
        (false, false) => unreachable!("read-read pairs are not dependences"),
    }
}

/// Runs the full analysis on a nest.
pub fn analyze(nest: &LoopNest) -> LoopAnalysis {
    // ---- Scalars: privatization and carried scalar dependences --------
    let mut first_use: BTreeMap<String, bool /*write first*/> = BTreeMap::new();
    let mut scalar_written: BTreeSet<String> = BTreeSet::new();
    for s in &nest.body {
        match s {
            Stmt::ScalarWrite { name, reads } => {
                for r in reads {
                    first_use.entry(r.clone()).or_insert(false);
                }
                first_use.entry(name.clone()).or_insert(true);
                scalar_written.insert(name.clone());
            }
            Stmt::ScalarRead(name) => {
                first_use.entry(name.clone()).or_insert(false);
            }
            _ => {}
        }
    }
    let mut private_scalars: Vec<String> = Vec::new();
    let mut scalar_deps: Vec<String> = Vec::new();
    for (name, write_first) in &first_use {
        if *write_first {
            private_scalars.push(name.clone());
        } else if scalar_written.contains(name) {
            // Read-before-write of a scalar also written: carried.
            scalar_deps.push(name.clone());
        }
    }

    // ---- Arrays: classification --------------------------------------
    // Program-order list of (ref index, ref).
    let refs: Vec<&ArrayRef> = nest.all_refs();
    let arrays: BTreeSet<&str> = refs.iter().map(|r| r.array.as_str()).collect();
    let mut dead_on_entry = Vec::new();
    let mut map_to = Vec::new();
    let mut map_tofrom = Vec::new();
    for name in arrays.iter() {
        let mine: Vec<(usize, &&ArrayRef)> = refs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.array == *name)
            .collect();
        let any_write = mine.iter().any(|(_, r)| r.write);
        if !any_write {
            map_to.push(name.to_string());
            continue;
        }
        // Dead on entry: the first reference is an unguarded, resolvable
        // write, and every read has a textually earlier write with
        // identical subscripts (the per-element write-first pattern of
        // kernals_ks).
        let first = mine[0].1;
        let write_first = first.write && !first.guarded && !first.subs.iter().any(|s| s.unknown);
        let reads_covered = mine.iter().all(|(idx, r)| {
            if r.write {
                return true;
            }
            mine.iter()
                .any(|(widx, w)| w.write && !w.guarded && widx < idx && w.subs == r.subs)
        });
        if write_first && reads_covered {
            dead_on_entry.push(name.to_string());
        } else {
            map_tofrom.push(name.to_string());
        }
    }

    // ---- Dependence testing per loop variable -------------------------
    let mut dependences: Vec<Dependence> = Vec::new();
    for v in &nest.vars {
        for name in arrays.iter() {
            let mine: Vec<(usize, &&ArrayRef)> = refs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.array == *name)
                .collect();
            let mut found: Option<Dependence> = None;
            'pairs: for (ai, a) in &mine {
                for (bi, b) in &mine {
                    if bi < ai || (!a.write && !b.write) {
                        continue;
                    }
                    if may_conflict_across(a, b, &v.name, v.trips()) {
                        let (first, second) = if ai <= bi { (a, b) } else { (b, a) };
                        found = Some(Dependence {
                            array: name.to_string(),
                            var: v.name.clone(),
                            kind: kind_of(first.write, second.write),
                            reason: format!(
                                "references of `{name}` may touch the same element in \
                                 different `{}` iterations",
                                v.name
                            ),
                        });
                        break 'pairs;
                    }
                }
            }
            if let Some(d) = found {
                dependences.push(d);
            }
        }
        for s in &scalar_deps {
            dependences.push(Dependence {
                array: s.clone(),
                var: v.name.clone(),
                kind: DependenceKind::Flow,
                reason: format!("scalar `{s}` is read before it is written"),
            });
        }
    }

    let parallelizable_vars: Vec<String> = nest
        .vars
        .iter()
        .map(|v| v.name.clone())
        .filter(|v| !dependences.iter().any(|d| &d.var == v))
        .collect();
    let mut collapsible = 0;
    for v in &nest.vars {
        if parallelizable_vars.contains(&v.name) {
            collapsible += 1;
        } else {
            break;
        }
    }

    LoopAnalysis {
        dependences,
        parallelizable_vars,
        private_scalars,
        dead_on_entry,
        map_to,
        map_tofrom,
        collapsible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Affine, ArrayRef, LoopNest, LoopVar, Stmt};

    fn nest(vars: Vec<LoopVar>, body: Vec<Stmt>) -> LoopNest {
        LoopNest {
            id: "test".into(),
            vars,
            body,
        }
    }

    #[test]
    fn elementwise_update_is_parallel() {
        // a(i) = a(i) + 1 → no carried dependence.
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![
                Stmt::Access(ArrayRef::read("a", vec![Affine::var("i")])),
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
            ],
        );
        let r = analyze(&n);
        assert!(r.fully_parallel(), "{:?}", r.dependences);
        assert_eq!(r.parallelizable_vars, vec!["i"]);
        assert_eq!(r.collapsible, 1);
    }

    #[test]
    fn stencil_shift_carries_flow() {
        // a(i) = a(i-1): flow dependence with distance 1.
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::linear("i", 1, -1)])),
            ],
        );
        let r = analyze(&n);
        assert!(!r.fully_parallel());
        assert_eq!(r.carried_by("i").len(), 1);
        assert_eq!(r.carried_by("i")[0].kind, DependenceKind::Flow);
        assert_eq!(r.collapsible, 0);
    }

    #[test]
    fn gcd_disproves_even_odd() {
        // a(2i) = a(2i+1): strides never overlap.
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::linear("i", 2, 0)])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::linear("i", 2, 1)])),
            ],
        );
        let r = analyze(&n);
        assert!(r.fully_parallel(), "{:?}", r.dependences);
    }

    #[test]
    fn distance_beyond_trip_count_is_independent() {
        // a(i) and a(i+200) on a 100-trip loop never meet.
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::linear("i", 1, 200)])),
            ],
        );
        assert!(analyze(&n).fully_parallel());
    }

    #[test]
    fn broadcast_write_carries_output_dependence() {
        // a(5) = ... in a loop over i: every iteration writes element 5.
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![Stmt::Access(ArrayRef::write(
                "a",
                vec![Affine::constant(5)],
            ))],
        );
        let r = analyze(&n);
        assert_eq!(r.carried_by("i")[0].kind, DependenceKind::Output);
    }

    #[test]
    fn unknown_subscript_is_conservative() {
        let n = nest(
            vec![LoopVar::new("j", 1, 10)],
            vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::unknown()])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::unknown()])),
            ],
        );
        let r = analyze(&n);
        assert!(!r.fully_parallel());
    }

    #[test]
    fn scalar_write_first_is_private() {
        // ckern_1 = ywls(i,j); use it: private, no dependence.
        let n = nest(
            vec![LoopVar::new("i", 1, 33)],
            vec![
                Stmt::ScalarWrite {
                    name: "ckern_1".into(),
                    reads: vec![],
                },
                Stmt::ScalarWrite {
                    name: "tmp".into(),
                    reads: vec!["ckern_1".into()],
                },
            ],
        );
        let r = analyze(&n);
        assert!(r.private_scalars.contains(&"ckern_1".to_string()));
        assert!(r.private_scalars.contains(&"tmp".to_string()));
        assert!(r.fully_parallel());
    }

    #[test]
    fn scalar_accumulator_blocks() {
        // s = s + a(i): read-before-write scalar.
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![Stmt::ScalarWrite {
                name: "s".into(),
                reads: vec!["s".into()],
            }],
        );
        let r = analyze(&n);
        assert!(!r.fully_parallel());
        assert!(r.dependences.iter().any(|d| d.array == "s"));
    }

    #[test]
    fn write_first_array_is_dead_on_entry() {
        // cw(i) = ...; x = cw(i): map(from: cw).
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
                Stmt::Access(ArrayRef::read("a", vec![Affine::var("i")])),
            ],
        );
        let r = analyze(&n);
        assert_eq!(r.dead_on_entry, vec!["a"]);
        assert!(r.map_tofrom.is_empty());
    }

    #[test]
    fn guarded_write_is_not_dead_on_entry() {
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")]).guarded()),
                Stmt::Access(ArrayRef::read("a", vec![Affine::var("i")])),
            ],
        );
        let r = analyze(&n);
        assert!(r.dead_on_entry.is_empty());
        assert_eq!(r.map_tofrom, vec!["a"]);
    }

    #[test]
    fn read_only_arrays_map_to() {
        let n = nest(
            vec![LoopVar::new("i", 1, 100)],
            vec![Stmt::Access(ArrayRef::read("a", vec![Affine::var("i")]))],
        );
        let r = analyze(&n);
        assert_eq!(r.map_to, vec!["a"]);
    }

    #[test]
    fn two_d_identity_nest_collapsible() {
        // b(i,j) = f(y(i,j)): fully parallel, collapse 2.
        let n = LoopNest {
            id: "k".into(),
            vars: vec![LoopVar::new("j", 1, 33), LoopVar::new("i", 1, 33)],
            body: vec![
                Stmt::Access(ArrayRef::read(
                    "y",
                    vec![Affine::var("i"), Affine::var("j")],
                )),
                Stmt::Access(ArrayRef::write(
                    "b",
                    vec![Affine::var("i"), Affine::var("j")],
                )),
            ],
        };
        let r = analyze(&n);
        assert_eq!(r.collapsible, 2);
        assert_eq!(r.dead_on_entry, vec!["b"]);
    }

    #[test]
    fn dependence_in_inner_only_still_collapses_outer() {
        // a(i,j) = a(i-1,j): carried by i (inner), not by j (outer).
        let n = LoopNest {
            id: "k".into(),
            vars: vec![LoopVar::new("j", 1, 10), LoopVar::new("i", 1, 10)],
            body: vec![
                Stmt::Access(ArrayRef::write(
                    "a",
                    vec![Affine::var("i"), Affine::var("j")],
                )),
                Stmt::Access(ArrayRef::read(
                    "a",
                    vec![Affine::linear("i", 1, -1), Affine::var("j")],
                )),
            ],
        };
        let r = analyze(&n);
        assert_eq!(r.parallelizable_vars, vec!["j"]);
        assert_eq!(r.collapsible, 1);
    }
}
