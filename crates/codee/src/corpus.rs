//! The paper's FSBM loop nests and subprogram inventory, encoded as IR.
//!
//! These are the inputs the analyses run on in the examples, tests, and
//! the `repro` harness: Listing 1 (the baseline grid loop whose global
//! collision arrays block parallelization), Listing 3 (`kernals_ks`),
//! Listing 6 (the fissioned collision loop that offloads cleanly), and
//! the two loops §VIII names as next: the nucleation/condensation sweep
//! and sedimentation.

use crate::ir::{Affine, ArrayRef, LoopNest, LoopVar, Stmt, Subprogram};
use gpu_sim::schedule::Storage;

/// Number of mass bins (`nkr` in FSBM).
pub const NKR: i64 = 33;

/// The 20 pairwise collision arrays of `kernals_ks` (water `l`, snow `s`,
/// graupel `g`, hail `h`, three ice-crystal habits `i1..i3`).
pub fn collision_array_names() -> Vec<String> {
    [
        "cwll", "cwls", "cwlg", "cwlh", "cwli1", "cwli2", "cwli3", "cwsl", "cwss", "cwsg", "cwsi1",
        "cwsi2", "cwsi3", "cwgl", "cwgs", "cwgg", "cwhl", "cwi1l", "cwi2l", "cwi3l",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Kernel lookup tables read by `kernals_ks` (two pressure levels each).
pub fn kernel_table_names() -> Vec<String> {
    collision_array_names()
        .iter()
        .flat_map(|c| {
            let pair = &c[2..];
            vec![format!("yw{pair}_750mb"), format!("yw{pair}_500mb")]
        })
        .collect()
}

/// Listing 3: the `kernals_ks` bin-pair loops filling the 20 collision
/// arrays from pressure-interpolated lookup tables.
pub fn kernals_ks_nest() -> LoopNest {
    let mut body = vec![
        Stmt::ScalarWrite {
            name: "ckern_1".into(),
            reads: vec![],
        },
        Stmt::ScalarWrite {
            name: "ckern_2".into(),
            reads: vec![],
        },
    ];
    for (c, t750) in collision_array_names().iter().zip(
        kernel_table_names()
            .chunks(2)
            .map(|p| (p[0].clone(), p[1].clone())),
    ) {
        body.push(Stmt::Access(ArrayRef::read(
            &t750.0,
            vec![Affine::var("i"), Affine::var("j"), Affine::constant(1)],
        )));
        body.push(Stmt::Access(ArrayRef::read(
            &t750.1,
            vec![Affine::var("i"), Affine::var("j"), Affine::constant(1)],
        )));
        body.push(Stmt::Access(ArrayRef::write(
            c,
            vec![Affine::var("i"), Affine::var("j")],
        )));
    }
    LoopNest {
        id: "module_mp_fast_sbm.f90:6293".into(),
        vars: vec![LoopVar::new("j", 1, NKR), LoopVar::new("i", 1, NKR)],
        body,
    }
}

fn per_point_state_accesses(guarded: bool) -> Vec<ArrayRef> {
    let ikj = || vec![Affine::var("i"), Affine::var("k"), Affine::var("j")];
    let mut v = vec![
        ArrayRef::read("t_old", ikj()),
        ArrayRef::read("qv", ikj()),
        ArrayRef::write("tt", ikj()),
        ArrayRef::write("qv", ikj()),
    ];
    if guarded {
        for r in &mut v {
            r.guarded = true;
        }
    }
    v
}

/// Listing 1: the baseline grid-point loop. `coal_bott_new` (via
/// `kernals_ks`) rewrites the *global* collision arrays at every grid
/// point — an output dependence across grid iterations that blocks
/// parallelization of `i`, `k`, and `j`.
pub fn grid_loop_baseline() -> LoopNest {
    let mut coal_accesses: Vec<ArrayRef> = Vec::new();
    for c in collision_array_names() {
        // Internal bin subscripts are invisible at this level: the call
        // summary is "writes and reads the whole global array".
        let mut w = ArrayRef::write(&c, vec![Affine::unknown(), Affine::unknown()]);
        w.guarded = true;
        let mut r = ArrayRef::read(&c, vec![Affine::unknown(), Affine::unknown()]);
        r.guarded = true;
        coal_accesses.push(w);
        coal_accesses.push(r);
    }
    coal_accesses.extend(per_point_state_accesses(true));

    LoopNest {
        id: "module_mp_fast_sbm.f90:2486".into(),
        vars: vec![
            LoopVar::new("j", 1, 75),
            LoopVar::new("k", 1, 50),
            LoopVar::new("i", 1, 106),
        ],
        body: vec![
            Stmt::Access(ArrayRef::read(
                "t_old",
                vec![Affine::var("i"), Affine::var("k"), Affine::var("j")],
            )),
            Stmt::Call {
                callee: "jernucl01_ks".into(),
                accesses: per_point_state_accesses(true),
            },
            Stmt::Call {
                callee: "onecond1".into(),
                accesses: per_point_state_accesses(true),
            },
            Stmt::Call {
                callee: "coal_bott_new".into(),
                accesses: coal_accesses,
            },
        ],
    }
}

/// The same grid loop after the Section VI-A lookup refactor:
/// `kernals_ks` and the global arrays are gone; `coal_bott_new` reads the
/// constant kernel tables and touches only per-grid-point state.
pub fn grid_loop_lookup() -> LoopNest {
    let mut coal_accesses = per_point_state_accesses(true);
    for t in kernel_table_names() {
        let mut r = ArrayRef::read(
            &t,
            vec![Affine::unknown(), Affine::unknown(), Affine::constant(1)],
        );
        r.guarded = true;
        coal_accesses.push(r);
    }
    LoopNest {
        id: "module_mp_fast_sbm.f90:2486+lookup".into(),
        vars: vec![
            LoopVar::new("j", 1, 75),
            LoopVar::new("k", 1, 50),
            LoopVar::new("i", 1, 106),
        ],
        body: vec![
            Stmt::Access(ArrayRef::read(
                "t_old",
                vec![Affine::var("i"), Affine::var("k"), Affine::var("j")],
            )),
            Stmt::Call {
                callee: "jernucl01_ks".into(),
                accesses: per_point_state_accesses(true),
            },
            Stmt::Call {
                callee: "coal_bott_new".into(),
                accesses: coal_accesses,
            },
        ],
    }
}

/// Listing 6: the fissioned collision loop guarded by the predicate array
/// `call_coal_bott_new(i,k,j)`.
pub fn coal_fission_loop() -> LoopNest {
    let ikj = || vec![Affine::var("i"), Affine::var("k"), Affine::var("j")];
    let mut coal = per_point_state_accesses(true);
    for t in kernel_table_names().into_iter().take(6) {
        let mut r = ArrayRef::read(
            &t,
            vec![Affine::unknown(), Affine::unknown(), Affine::constant(1)],
        );
        r.guarded = true;
        coal.push(r);
    }
    LoopNest {
        id: "module_mp_fast_sbm.f90:coal_fission".into(),
        vars: vec![
            LoopVar::new("j", 1, 75),
            LoopVar::new("k", 1, 50),
            LoopVar::new("i", 1, 106),
        ],
        body: vec![
            Stmt::Access(ArrayRef::read("call_coal_bott_new", ikj())),
            Stmt::Call {
                callee: "coal_bott_new".into(),
                accesses: coal,
            },
        ],
    }
}

/// Reads and writes of all seven bin-resolved distributions (`ff1` …
/// `ff5`) at `(i, k + dk, j)`. `kr`, the bin index, is no loop of these
/// nests: it stands for the point's whole `1:nkr` section, which is how
/// the per-point routines see it.
fn distribution_accesses(dk: i64, write: bool) -> Vec<ArrayRef> {
    ["ff1", "ff2c", "ff2p", "ff2d", "ff3", "ff4", "ff5"]
        .iter()
        .flat_map(|ff| {
            let at = || {
                vec![
                    Affine::var("i"),
                    Affine::linear("k", 1, dk),
                    Affine::var("j"),
                    Affine::var("kr"),
                ]
            };
            let read = ArrayRef::read(ff, at()).guarded();
            let write = write.then(|| ArrayRef::write(ff, at()).guarded());
            std::iter::once(read).chain(write)
        })
        .collect()
}

/// §VIII's first loop, the sweep Listing 6 fissioned the collision call
/// out of: per grid point, nucleation (`jernucl01_ks`) and the two
/// condensation branches (`onecond1`, `onecond2`) update `t`, `qv` and
/// the point's own bins from supersaturations computed per point, then
/// the predicate `call_coal_bott_new(i,k,j)` is stored for the collision
/// kernel. Nothing is read from another point: the privatization
/// argument of Listing 4 → 6 applies unchanged.
pub fn condensation_sweep_loop() -> LoopNest {
    let ikj = || vec![Affine::var("i"), Affine::var("k"), Affine::var("j")];
    let mut point = per_point_state_accesses(true);
    point.extend(distribution_accesses(0, true));
    let call = |callee: &str| Stmt::Call {
        callee: callee.into(),
        accesses: point.clone(),
    };
    let supersaturation = |name: &str| Stmt::ScalarWrite {
        name: name.into(),
        reads: vec![],
    };
    LoopNest {
        id: "module_mp_fast_sbm.f90:cond_sweep".into(),
        vars: vec![
            LoopVar::new("j", 1, 75),
            LoopVar::new("k", 1, 50),
            LoopVar::new("i", 1, 106),
        ],
        body: vec![
            Stmt::Access(ArrayRef::read("t_old", ikj())),
            supersaturation("del1n"),
            supersaturation("del2n"),
            call("jernucl01_ks"),
            call("onecond1"),
            call("onecond2"),
            Stmt::Access(ArrayRef::write("call_coal_bott_new", ikj())),
        ],
    }
}

/// §VIII's other loop: sedimentation. Level `k` gains what falls out of
/// level `k + 1` and the lowest level drains into `rainnc(i,j)`, so the
/// fall carries a dependence from level to level — and on nothing else.
pub fn sedimentation_loop() -> LoopNest {
    let mut body = vec![Stmt::Access(ArrayRef::read(
        "rho",
        vec![Affine::var("i"), Affine::var("k"), Affine::var("j")],
    ))];
    body.extend(
        distribution_accesses(1, false)
            .into_iter()
            .map(Stmt::Access),
    );
    body.extend(distribution_accesses(0, true).into_iter().map(Stmt::Access));
    let ij = || vec![Affine::var("i"), Affine::var("j")];
    body.push(Stmt::Access(ArrayRef::read("rainnc", ij())));
    body.push(Stmt::Access(ArrayRef::write("rainnc", ij())));
    LoopNest {
        id: "module_mp_fast_sbm.f90:falfluxhucm".into(),
        vars: vec![
            LoopVar::new("j", 1, 75),
            LoopVar::new("i", 1, 106),
            LoopVar::new("k", 1, 50),
        ],
        body,
    }
}

/// The FSBM subprogram inventory with its legacy constructs, in the two
/// stages of the port: `slab_refactor = false` is the original code
/// (automatic arrays inside `coal_bott_new`); `true` is the Listing 8
/// pointer/slab version.
pub fn fsbm_subprograms(slab_refactor: bool) -> Vec<Subprogram> {
    let file = "module_mp_fast_sbm.f90".to_string();
    vec![
        Subprogram {
            name: "fast_sbm".into(),
            file: file.clone(),
            loc: 2200,
            implicit_none: true,
            args: vec![("tt".into(), true, false), ("qv".into(), true, false)],
            automatic_bytes: 0,
            writes_module_vars: true,
            pure_decl: false,
            declare_target: false,
        },
        Subprogram {
            name: "coal_bott_new".into(),
            file: file.clone(),
            loc: 1400,
            implicit_none: true,
            args: vec![("g1".into(), true, false), ("g2".into(), true, false)],
            // The automatic arrays that overflowed the default device
            // stack (§VI-B), or what is left of them after Listing 8.
            automatic_bytes: if slab_refactor {
                Storage::SlabPointMajor
            } else {
                Storage::Stack
            }
            .stack_bytes_per_thread(),
            writes_module_vars: false,
            pure_decl: false,
            declare_target: true,
        },
        Subprogram {
            name: "kernals_ks".into(),
            file: file.clone(),
            loc: 350,
            implicit_none: false,
            args: vec![("pressure".into(), false, false)],
            automatic_bytes: 0,
            writes_module_vars: true,
            pure_decl: false,
            declare_target: false,
        },
        Subprogram {
            name: "onecond1".into(),
            file: file.clone(),
            loc: 800,
            implicit_none: false,
            args: vec![("tps".into(), false, true), ("qps".into(), false, true)],
            automatic_bytes: 4 * 1024,
            writes_module_vars: false,
            pure_decl: false,
            declare_target: false,
        },
        Subprogram {
            name: "onecond2".into(),
            file: file.clone(),
            loc: 950,
            implicit_none: false,
            args: vec![("tps".into(), false, true)],
            automatic_bytes: 6 * 1024,
            writes_module_vars: false,
            pure_decl: false,
            declare_target: false,
        },
        Subprogram {
            name: "jernucl01_ks".into(),
            file,
            loc: 420,
            implicit_none: true,
            args: vec![("ff1".into(), true, false)],
            automatic_bytes: 512,
            writes_module_vars: false,
            pure_decl: false,
            declare_target: false,
        },
    ]
}

/// The dynamics-side subprograms of the screening corpus (a second file,
/// `module_advect_em.f90`): modern code that screening should mostly
/// leave alone — it exists so `codee screening` exercises a multi-file
/// project like the real `compile_commands.json` capture.
pub fn dynamics_subprograms() -> Vec<Subprogram> {
    let file = "module_advect_em.f90".to_string();
    vec![
        Subprogram {
            name: "rk_scalar_tend".into(),
            file: file.clone(),
            loc: 1150,
            implicit_none: true,
            args: vec![
                ("scalar".into(), true, false),
                ("tend".into(), true, false),
                ("u".into(), true, false),
                ("w".into(), true, false),
            ],
            automatic_bytes: 2048,
            writes_module_vars: false,
            pure_decl: false,
            declare_target: false,
        },
        Subprogram {
            name: "rk_update_scalar".into(),
            file: file.clone(),
            loc: 240,
            implicit_none: true,
            args: vec![("scalar".into(), true, false), ("tend".into(), true, false)],
            automatic_bytes: 0,
            writes_module_vars: false,
            pure_decl: true,
            declare_target: false,
        },
        Subprogram {
            name: "advect_scalar_pd".into(),
            file,
            loc: 860,
            implicit_none: false, // one legacy straggler
            args: vec![("scalar".into(), true, true)],
            automatic_bytes: 1024,
            writes_module_vars: false,
            pure_decl: false,
            declare_target: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze;
    use crate::rewrite::rewrite_offload;

    #[test]
    fn twenty_collision_arrays_forty_tables() {
        assert_eq!(collision_array_names().len(), 20);
        assert_eq!(kernel_table_names().len(), 40);
    }

    /// The paper's core insight (§VI-A): Codee proves `kernals_ks` has no
    /// loop-carried dependencies and its outputs are dead on entry.
    #[test]
    fn kernals_ks_is_fully_parallel_with_dead_outputs() {
        let a = analyze(&kernals_ks_nest());
        assert!(a.fully_parallel(), "{:?}", a.dependences);
        assert_eq!(a.collapsible, 2);
        assert_eq!(a.dead_on_entry.len(), 20);
        assert!(a.private_scalars.contains(&"ckern_1".to_string()));
        assert_eq!(a.map_to.len(), 40);
    }

    /// Listing 4 reproduced: the rewrite carries map(from:) of the
    /// collision arrays and an inner simd.
    #[test]
    fn kernals_rewrite_matches_listing4() {
        let out = rewrite_offload(&kernals_ks_nest()).unwrap();
        assert!(out.contains("map(from: cwgg, cwgl"));
        assert!(out.contains("!$omp simd"));
        assert!(out.contains("private(ckern_1, ckern_2)"));
    }

    /// The baseline grid loop is blocked by the global collision arrays.
    #[test]
    fn baseline_grid_loop_blocked_by_globals() {
        let a = analyze(&grid_loop_baseline());
        assert_eq!(a.collapsible, 0);
        assert!(a
            .dependences
            .iter()
            .any(|d| d.array.starts_with("cw") && d.var == "j"));
        assert!(rewrite_offload(&grid_loop_baseline()).is_err());
    }

    /// After the lookup refactor the same loop is fully parallel.
    #[test]
    fn lookup_grid_loop_fully_parallel() {
        let a = analyze(&grid_loop_lookup());
        assert!(a.fully_parallel(), "{:?}", a.dependences);
        assert_eq!(a.collapsible, 3);
    }

    /// The fissioned loop of Listing 6 offloads cleanly.
    #[test]
    fn fission_loop_offloadable() {
        let a = analyze(&coal_fission_loop());
        assert_eq!(a.collapsible, 3);
        let out = rewrite_offload(&coal_fission_loop()).unwrap();
        assert!(out.contains("collapse(2)"));
    }

    /// §VIII, first loop: the condensation sweep is as parallel as the
    /// collision loop it was fissioned from — every grid variable, with
    /// the per-point supersaturations privatized and the predicate a pure
    /// output. One launch unit can be any slice of the grid (a row, in
    /// `fsbm-core`).
    #[test]
    fn condensation_sweep_is_parallel_in_every_grid_variable() {
        let a = analyze(&condensation_sweep_loop());
        assert!(a.fully_parallel(), "{:?}", a.dependences);
        assert_eq!(a.parallelizable_vars, ["j", "k", "i"]);
        assert_eq!(a.collapsible, 3);
        assert_eq!(a.private_scalars, ["del1n", "del2n"]);
        assert_eq!(a.dead_on_entry, ["call_coal_bott_new"]);
        assert!(a.map_tofrom.contains(&"ff1".to_string()));
        assert!(rewrite_offload(&condensation_sweep_loop()).is_ok());
    }

    /// §VIII, second loop: sedimentation carries its dependence on `k`
    /// alone (the level-to-level fall, and the `rainnc` accumulation), so
    /// columns are independent and the `k` recurrence stays inside a
    /// launch unit.
    #[test]
    fn sedimentation_carries_a_dependence_on_k_only() {
        let a = analyze(&sedimentation_loop());
        assert_eq!(a.parallelizable_vars, ["j", "i"]);
        assert_eq!(a.collapsible, 2);
        assert!(a.carried_by("i").is_empty() && a.carried_by("j").is_empty());
        let on_k: Vec<&str> = a.carried_by("k").iter().map(|d| d.array.as_str()).collect();
        assert!(
            on_k.contains(&"ff1") && on_k.contains(&"rainnc"),
            "{on_k:?}"
        );
        assert_eq!(a.map_to, ["rho"]);
    }

    #[test]
    fn two_file_screening_corpus() {
        let mut subs = fsbm_subprograms(false);
        subs.extend(dynamics_subprograms());
        let files: std::collections::BTreeSet<&str> =
            subs.iter().map(|s| s.file.as_str()).collect();
        assert_eq!(files.len(), 2);
        let r = crate::screening::screening(&subs, &[]);
        assert_eq!(r.files, 2);
        assert_eq!(r.subprograms, 9);
    }

    #[test]
    fn subprogram_inventory_stages() {
        let legacy = fsbm_subprograms(false);
        let slab = fsbm_subprograms(true);
        let coal_legacy = legacy.iter().find(|s| s.name == "coal_bott_new").unwrap();
        let coal_slab = slab.iter().find(|s| s.name == "coal_bott_new").unwrap();
        assert!(coal_legacy.automatic_bytes > 4096);
        assert!(coal_slab.automatic_bytes <= 4096);
        assert!(coal_legacy.declare_target);
    }
}
