//! The Codee workflow of Section V-A / VI-A, end to end:
//! screening → checks → dependence analysis → directive rewriting
//! (Listings 2–6; `repro paper`'s `codee` table holds the findings per
//! check and each rewrite's verdict).
//!
//! ```sh
//! cargo run --release --example codee_workflow
//! ```

use codee_sim::checks::run_checks;
use codee_sim::{analyze, corpus, rewrite_offload, screening};

fn main() {
    let subs = corpus::fsbm_subprograms(false);
    let nests = vec![
        corpus::kernals_ks_nest(),
        corpus::grid_loop_baseline(),
        corpus::grid_loop_lookup(),
        corpus::coal_fission_loop(),
    ];

    // Listing 2: `codee screening` over the captured build.
    println!("$ codee screening --config compile_commands.json\n");
    println!("{}", screening(&subs, &nests));

    // `codee checks`: the per-finding view (legacy constructs in onecond*
    // and kernals_ks, exactly what §VIII reports).
    println!("$ codee checks (selected findings)\n");
    for f in run_checks(&subs, &nests)
        .iter()
        .filter(|f| f.check != "RMK010")
        .take(12)
    {
        println!("  [{}] {}: {}", f.check, f.location, f.message);
    }

    // The dependence analysis that licensed the §VI-A refactor.
    println!("\n--- dependence analysis of kernals_ks (Listing 3) ---");
    let a = analyze(&corpus::kernals_ks_nest());
    println!(
        "parallelizable over: {:?} (collapse({}) possible)",
        a.parallelizable_vars, a.collapsible
    );
    println!(
        "dead-on-entry arrays (=> map(from:)): {} collision tables",
        a.dead_on_entry.len()
    );
    println!("private scalars: {:?}", a.private_scalars);

    println!("\n--- the same analysis on the baseline grid loop (Listing 1) ---");
    let b = analyze(&corpus::grid_loop_baseline());
    println!(
        "parallelizable over: {:?} — blocked by {} dependences on the global cw** arrays",
        b.parallelizable_vars,
        b.dependences.len()
    );

    println!("\n--- and after the lookup refactor ---");
    let c = analyze(&corpus::grid_loop_lookup());
    println!(
        "parallelizable over: {:?} (collapse({}))",
        c.parallelizable_vars, c.collapsible
    );

    // Listing 4: the rewrite Codee applies; the same request on the
    // baseline grid loop is refused (its dependences, above); Listing 6:
    // the fissioned collision loop the offload started from.
    for (command, nest) in [
        (
            "--in-place module_mp_fast_sbm.f90:6293:4",
            corpus::kernals_ks_nest(),
        ),
        (
            "module_mp_fast_sbm.f90:2486 (baseline grid loop)",
            corpus::grid_loop_baseline(),
        ),
        (
            "(fissioned collision loop, Listing 6)",
            corpus::coal_fission_loop(),
        ),
    ] {
        println!("\n$ codee rewrite --offload omp {command}\n");
        match rewrite_offload(&nest) {
            Ok(code) => println!("{code}"),
            Err(e) => println!(
                "BLOCKED: {} dependences, e.g. {}",
                e.reasons.len(),
                e.reasons[0]
            ),
        }
    }
}
