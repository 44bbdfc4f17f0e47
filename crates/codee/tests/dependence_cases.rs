//! Harder dependence-analysis cases: coupled subscripts, transposes,
//! partially parallel nests — the analyzer must neither hallucinate
//! parallelism nor refuse obviously independent loops.

use codee_sim::depend::{analyze, DependenceKind};
use codee_sim::ir::{Affine, ArrayRef, LoopNest, LoopVar, Stmt};
use codee_sim::rewrite_offload;

fn nest(vars: Vec<LoopVar>, body: Vec<Stmt>) -> LoopNest {
    LoopNest {
        id: "case".into(),
        vars,
        body,
    }
}

/// `a(i+j) = a(i+j-1)`: a coupled diagonal recurrence — carried by both
/// loops.
#[test]
fn coupled_diagonal_recurrence_blocks_both() {
    let mut wsub = Affine::var("i");
    wsub.terms.insert("j".into(), 1);
    let mut rsub = Affine::linear("i", 1, -1);
    rsub.terms.insert("j".into(), 1);
    let n = nest(
        vec![LoopVar::new("j", 1, 50), LoopVar::new("i", 1, 50)],
        vec![
            Stmt::Access(ArrayRef::write("a", vec![wsub])),
            Stmt::Access(ArrayRef::read("a", vec![rsub])),
        ],
    );
    let r = analyze(&n);
    assert!(r
        .carried_by("i")
        .iter()
        .any(|d| d.kind == DependenceKind::Flow));
    assert!(!r.carried_by("j").is_empty());
    assert_eq!(r.collapsible, 0);
}

/// Transposed access `b(i,j) = a(j,i)` on *different* arrays: fully
/// parallel (no same-array pair).
#[test]
fn transpose_between_arrays_is_parallel() {
    let n = nest(
        vec![LoopVar::new("j", 1, 40), LoopVar::new("i", 1, 40)],
        vec![
            Stmt::Access(ArrayRef::read(
                "a",
                vec![Affine::var("j"), Affine::var("i")],
            )),
            Stmt::Access(ArrayRef::write(
                "b",
                vec![Affine::var("i"), Affine::var("j")],
            )),
        ],
    );
    let r = analyze(&n);
    assert!(r.fully_parallel(), "{:?}", r.dependences);
    assert_eq!(r.collapsible, 2);
}

/// In-place transpose `a(i,j) = a(j,i)`: the analyzer must be
/// conservative (mismatched per-dimension coefficients).
#[test]
fn inplace_transpose_is_conservative() {
    let n = nest(
        vec![LoopVar::new("j", 1, 40), LoopVar::new("i", 1, 40)],
        vec![
            Stmt::Access(ArrayRef::read(
                "a",
                vec![Affine::var("j"), Affine::var("i")],
            )),
            Stmt::Access(ArrayRef::write(
                "a",
                vec![Affine::var("i"), Affine::var("j")],
            )),
        ],
    );
    let r = analyze(&n);
    assert!(
        !r.fully_parallel(),
        "in-place transpose must not parallelize"
    );
}

/// Red-black style `a(2i) = f(a(2i+1))`: even writes never meet odd
/// reads (GCD), regardless of distance.
#[test]
fn red_black_split_is_parallel() {
    let n = nest(
        vec![LoopVar::new("i", 1, 64)],
        vec![
            Stmt::Access(ArrayRef::read("a", vec![Affine::linear("i", 2, 1)])),
            Stmt::Access(ArrayRef::write("a", vec![Affine::linear("i", 2, 0)])),
        ],
    );
    assert!(analyze(&n).fully_parallel());
}

/// Reduction into a 1-D array indexed by the *outer* loop only: the
/// inner loop carries an output dependence, the outer does not.
#[test]
fn histogram_by_outer_index() {
    let n = nest(
        vec![LoopVar::new("j", 1, 30), LoopVar::new("i", 1, 30)],
        vec![
            Stmt::Access(ArrayRef::read("a", vec![Affine::var("j")])),
            Stmt::Access(ArrayRef::write("a", vec![Affine::var("j")])),
        ],
    );
    let r = analyze(&n);
    assert!(r.parallelizable_vars.contains(&"j".to_string()));
    assert!(!r.parallelizable_vars.contains(&"i".to_string()));
    // Outermost loop is parallel → collapse(1) and a rewrite succeeds.
    assert_eq!(r.collapsible, 1);
    assert!(rewrite_offload(&n).is_ok());
}

/// A guarded (conditional) write forbids the dead-on-entry claim but not
/// parallelism when subscripts are identity.
#[test]
fn guarded_identity_write_parallel_but_live() {
    let n = nest(
        vec![LoopVar::new("i", 1, 100)],
        vec![Stmt::Access(
            ArrayRef::write("a", vec![Affine::var("i")]).guarded(),
        )],
    );
    let r = analyze(&n);
    assert!(r.fully_parallel());
    assert!(r.dead_on_entry.is_empty());
    assert_eq!(r.map_tofrom, vec!["a".to_string()]);
}

/// Mixed verdicts across arrays: one clean array must not mask another's
/// dependence.
#[test]
fn one_bad_array_blocks_the_nest() {
    let n = nest(
        vec![LoopVar::new("i", 1, 100)],
        vec![
            Stmt::Access(ArrayRef::write("clean", vec![Affine::var("i")])),
            Stmt::Access(ArrayRef::write("accum", vec![Affine::constant(0)])),
        ],
    );
    let r = analyze(&n);
    assert!(!r.fully_parallel());
    assert!(r.dependences.iter().all(|d| d.array == "accum"));
}

/// The rewriter refuses and reports each blocking array exactly once per
/// loop variable.
#[test]
fn blocked_rewrite_lists_reasons() {
    let n = nest(
        vec![LoopVar::new("i", 1, 100)],
        vec![Stmt::Access(ArrayRef::write(
            "s",
            vec![Affine::constant(3)],
        ))],
    );
    let err = rewrite_offload(&n).unwrap_err();
    assert_eq!(err.reasons.len(), 1);
    assert!(err.to_string().contains("`s`"));
}

/// Empty-body nests are trivially parallel and rewrite cleanly.
#[test]
fn empty_body_is_parallel() {
    let n = nest(
        vec![LoopVar::new("j", 1, 4), LoopVar::new("i", 1, 4)],
        vec![],
    );
    let r = analyze(&n);
    assert!(r.fully_parallel());
    assert!(rewrite_offload(&n).is_ok());
}
