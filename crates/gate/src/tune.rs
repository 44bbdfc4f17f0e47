//! The schedule-search half of the zoo gate's backend rows.
//!
//! Hybrid Fortran (arXiv:1710.08616) argues that the loop order and
//! storage a target wants can be searched per target instead of
//! hand-written. [`crate::zoo`] runs [`codee_sim::tune`] over the corpus
//! collision nest on every backend it prices; this module holds what
//! that search yields and what the gate checks of it: the best schedule
//! of each storage family ([`FamilyBest`]), their slowest → fastest
//! ranking and the version `schedule = 'auto'` resolves to ([`Search`]),
//! exact recovery of the hand-derived v2/v3 kernels on the paper's
//! machine ([`recovery_violations`]), the search's stability against a
//! reference backend ([`search_flips`]), and the functional
//! auto-vs-explicit bitwise arm ([`auto_bitwise_check`]).

use crate::golden::combined_checksum;
use crate::zoo::{ranking_flip, slowest_first};
use codee_sim::tune::{NestWork, TuneReport};
use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::Backend;
use gpu_sim::schedule::Storage;
use miniwrf::model::Model;
use miniwrf::namelist::schedule_name;
use miniwrf::schedule::{tune_backend_with, version_for};

/// The best schedule of one storage family on one backend.
#[derive(Debug, Clone)]
pub struct FamilyBest {
    /// Family label ([`Storage::label`]).
    pub family: &'static str,
    /// Schedule label of the family's fastest variant.
    pub label: String,
    /// Its modeled seconds.
    pub secs: f64,
    /// Geometry of the family's fastest *unfissioned* variant — the
    /// shape comparable to the paper's hand-derived kernels (the corpus
    /// nest is the already-fissioned Listing 6 loop).
    pub collapse: usize,
    /// Registers per thread of the unfissioned best.
    pub regs: u32,
    /// Stack bytes per thread of the unfissioned best.
    pub stack_bytes: u64,
    /// Seconds of the unfissioned best.
    pub unfissioned_secs: f64,
}

/// The schedule search of one backend.
#[derive(Debug, Clone)]
pub struct Search {
    /// Variants enumerated (schedulable + skipped).
    pub searched: usize,
    /// Variants unschedulable on this target.
    pub unschedulable: usize,
    /// Label of the searched-best schedule.
    pub winner: String,
    /// Its modeled seconds.
    pub winner_secs: f64,
    /// Family winners, [`Storage::ALL`] order (a family missing from
    /// the schedulable set is absent).
    pub families: Vec<FamilyBest>,
    /// Families ordered slowest → fastest (ties keep [`Storage::ALL`]
    /// order) — the cross-backend stability witness.
    pub ranking: Vec<&'static str>,
    /// Version `schedule = 'auto'` resolves to on this backend.
    pub auto_version: SbmVersion,
}

/// Outcome of the functional auto-vs-explicit arm.
#[derive(Debug, Clone)]
pub struct AutoBitwise {
    /// Steps both runs integrated.
    pub check_steps: usize,
    /// Explicit schedule name the winner maps to (`'v4'`…).
    pub explicit: String,
    /// Combined state checksum of the `schedule = 'auto'` run.
    pub auto_checksum: u64,
    /// Combined state checksum of the explicit run.
    pub explicit_checksum: u64,
    /// Violations (version mismatch, digest divergence, parse failure).
    pub violations: Vec<String>,
}

/// Orders the present families slowest → fastest; equal prices keep
/// [`Storage::ALL`] order, so a CPU-class tie between the two slab layouts
/// reports the same ordering as a GPU where the transposition wins by a
/// margin smaller than the stack deficit.
pub fn family_ranking(families: &[FamilyBest]) -> Vec<&'static str> {
    slowest_first(families.iter().map(|f| (f.family, f.secs)))
}

/// The fastest variant of the `storage` family in `rep`, and the fastest
/// unfissioned one (`None` when the family is entirely unschedulable).
pub(crate) fn family_best(rep: &TuneReport, storage: Storage) -> Option<FamilyBest> {
    let best = rep.family_winner(storage)?;
    let un = rep
        .ranked
        .iter()
        .find(|p| p.variant.storage == storage && p.variant.fission_at.is_none())?;
    Some(FamilyBest {
        family: storage.label(),
        label: best.label.clone(),
        secs: best.secs,
        collapse: un.variant.collapse,
        regs: un.spec.regs_per_thread,
        stack_bytes: un.spec.stack_bytes_per_thread,
        unfissioned_secs: un.secs,
    })
}

/// Searches `backend` for the collision nest at `work`'s density, and
/// checks the per-backend search claims: the search, and its violations.
pub(crate) fn search_backend(backend: &Backend, work: &NestWork) -> (Search, Vec<String>) {
    let rep = tune_backend_with(backend, work);
    let families: Vec<FamilyBest> = Storage::ALL
        .into_iter()
        .filter_map(|s| family_best(&rep, s))
        .collect();
    let winner = rep.winner();
    let mut v = Vec::new();
    // §VI-C portability: the slab refactor's full-collapse schedule wins
    // on every backend — CPU class included, where it wins on occupancy
    // alone since the scatter penalty is flat.
    if !winner.variant.storage.is_slab() {
        v.push(format!(
            "searched-best schedule is not a slab one: {}",
            winner.label
        ));
    }
    if winner.variant.collapse != 3 {
        v.push(format!(
            "searched-best schedule does not fully collapse: {}",
            winner.label
        ));
    }
    let fam = |name: &str| families.iter().find(|f| f.family == name);
    match (fam("stack"), fam("slab[pt,bin]")) {
        (Some(stack), Some(slab)) => {
            if slab.unfissioned_secs >= stack.unfissioned_secs {
                v.push(format!(
                    "v3-shaped schedule must beat v2-shaped on every backend: {:.3e} >= {:.3e}",
                    slab.unfissioned_secs, stack.unfissioned_secs
                ));
            }
        }
        _ => v.push("a storage family is entirely unschedulable".to_string()),
    }
    let search = Search {
        searched: rep.ranked.len() + rep.unschedulable,
        unschedulable: rep.unschedulable,
        winner: winner.label.clone(),
        winner_secs: winner.secs,
        ranking: family_ranking(&families),
        families,
        auto_version: version_for(&rep),
    };
    (search, v)
}

/// Checks the paper machine's search for exact recovery of the
/// hand-derived kernels: the best unfissioned schedule of each offloaded
/// version's storage family has that version's `kernel_spec()` geometry.
pub fn recovery_violations(search: &Search) -> Vec<String> {
    let mut v = Vec::new();
    let fam = |name: &str| search.families.iter().find(|f| f.family == name);
    for (version, short, kernel) in [
        (SbmVersion::OffloadCollapse2, "stack", "v2"),
        (SbmVersion::OffloadCollapse3, "slab", "v3"),
    ] {
        let offload = version.plan().offload.expect("an offloaded version");
        let Some(best) = fam(offload.storage.label()) else {
            v.push(format!("{short} family unschedulable on a100-80gb"));
            continue;
        };
        let spec = version.kernel_spec().expect("an offloaded version");
        let got = (best.collapse as u32, best.regs, best.stack_bytes);
        let want = (
            spec.collapse,
            spec.regs_per_thread,
            spec.stack_bytes_per_thread,
        );
        if got != want {
            v.push(format!(
                "{short}-family best is not the hand-derived {kernel} kernel: \
                 (collapse, regs, stack) = {got:?}, want {want:?}"
            ));
        }
    }
    if let (Some(slab), Some(tr)) = (fam("slab[pt,bin]"), fam("slab[bin,pt]")) {
        if tr.secs > slab.secs {
            v.push(format!(
                "transposed slab must match or beat v3 (the space contains it): \
                 {:.3e} > {:.3e}",
                tr.secs, slab.secs
            ));
        }
    }
    v
}

/// Checks `got`, searched on `backend`, against the `reference` backend's
/// search `want`: the family ranking and the `'auto'` resolution must be
/// identical.
pub fn search_flips(reference: &str, want: &Search, backend: &str, got: &Search) -> Vec<String> {
    let mut v: Vec<String> =
        ranking_flip("family", reference, &want.ranking, backend, &got.ranking)
            .into_iter()
            .collect();
    if got.auto_version != want.auto_version {
        v.push(format!(
            "'auto' resolves differently on {backend}: {} vs {}",
            want.auto_version.label(),
            got.auto_version.label()
        ));
    }
    v
}

/// The functional auto-vs-explicit arm: builds one config through
/// `&parallel schedule = 'auto'` and one through the explicit name of
/// the resolved version, runs both for `check_steps`, and compares the
/// end states bitwise.
pub fn auto_bitwise_check(auto: SbmVersion, check_steps: usize) -> AutoBitwise {
    let explicit = schedule_name(auto).to_string();
    let mut violations = Vec::new();
    let domains = "&domains\n e_we = 24, e_sn = 18, e_vert = 8, dt = 5.0\n/\n";
    let run = |schedule: &str| -> Result<(SbmVersion, u64), String> {
        let text = format!("{domains}&parallel\n schedule = '{schedule}'\n/\n");
        let mut cfg = miniwrf::config_from_namelist(&text).map_err(|e| e.to_string())?;
        cfg.device_workers = Some(2);
        let mut m = Model::single_rank(cfg);
        m.run(check_steps.max(1));
        Ok((cfg.version, combined_checksum(&m.state.digest())))
    };
    let (mut auto_checksum, mut explicit_checksum) = (0, 0);
    match (run("auto"), run(&explicit)) {
        (Ok((va, ca)), Ok((ve, ce))) => {
            auto_checksum = ca;
            explicit_checksum = ce;
            if va != ve {
                violations.push(format!(
                    "'auto' resolved {} but '{}' selects {}",
                    va.label(),
                    explicit,
                    ve.label()
                ));
            }
            if ca != ce {
                violations.push(format!(
                    "'auto' run diverges bitwise from explicit '{explicit}': \
                     {ca:016x} != {ce:016x}"
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => violations.push(format!("bitwise arm failed: {e}")),
    }
    AutoBitwise {
        check_steps,
        explicit,
        auto_checksum,
        explicit_checksum,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{auto_bitwise, gate_run, geometry, synth_row, synth_search};
    use crate::zoo::{cross_backend_violations, report, BackendRow, MIN_BACKENDS};
    use crate::ReproContext;
    use gpu_sim::machine::ZOO;
    use miniwrf::schedule::coal_nest_work_from;
    use proptest::prelude::*;

    #[test]
    fn family_ranking_orders_slowest_first_with_stable_ties() {
        let search = synth_search(1.0);
        assert_eq!(
            search.ranking,
            vec!["stack", "slab[pt,bin]", "slab[bin,pt]"]
        );
        // An exact slab tie (CPU class) keeps canonical order.
        let mut tied = search.families.clone();
        tied[2].secs = tied[1].secs;
        assert_eq!(
            family_ranking(&tied),
            vec!["stack", "slab[pt,bin]", "slab[bin,pt]"]
        );
    }

    #[test]
    fn recovery_checks_pin_the_hand_derived_geometry() {
        let good = synth_search(1.0);
        assert!(recovery_violations(&good).is_empty());
        // Wrong collapse depth in the stack family.
        let mut bad = good.clone();
        bad.families[0].collapse = 3;
        let v = recovery_violations(&bad);
        assert!(
            v.iter().any(|x| x.contains("not the hand-derived v2")),
            "{v:?}"
        );
        // Wrong registers in the slab family.
        let mut bad = good.clone();
        bad.families[1].regs = 168;
        let v = recovery_violations(&bad);
        assert!(
            v.iter().any(|x| x.contains("not the hand-derived v3")),
            "{v:?}"
        );
        // A transposed layout slower than v3 is a discovery failure.
        let mut bad = good.clone();
        bad.families[2].secs = bad.families[1].secs * 2.0;
        let v = recovery_violations(&bad);
        assert!(v.iter().any(|x| x.contains("match or beat v3")), "{v:?}");
    }

    #[test]
    fn cross_checks_catch_instability() {
        let (a, b) = (synth_search(1.0), synth_search(1.3));
        assert!(search_flips("a", &a, "b", &b).is_empty());
        // A flip on one backend.
        let mut flipped = b.clone();
        flipped.families[0].secs = 1.0e-6;
        flipped.ranking = family_ranking(&flipped.families);
        let v = search_flips("a", &a, "b", &flipped);
        assert!(
            v.iter().any(|x| x.contains("family ranking flips on b")),
            "{v:?}"
        );
        // A diverging auto resolution.
        let mut diverged = b;
        diverged.auto_version = SbmVersion::OffloadCollapse2;
        let v = search_flips("a", &a, "b", &diverged);
        assert!(
            v.iter()
                .any(|x| x.contains("'auto' resolves differently on b")),
            "{v:?}"
        );
        // Both reach the gate's one cross-backend check, beside its floor.
        let mut rows: Vec<BackendRow> = [("a", 100.0, 4), ("b", 130.0, 2), ("c", 90.0, 7)]
            .iter()
            .map(|&(n, t, c)| synth_row(n, t, c))
            .collect();
        assert!(cross_backend_violations(&rows, 3).is_empty());
        let v = cross_backend_violations(&rows, 5);
        assert!(v.iter().any(|x| x.contains("requires 5")), "{v:?}");
        rows[1].search = flipped;
        rows[2].search.auto_version = SbmVersion::OffloadCollapse2;
        let v = cross_backend_violations(&rows, 3);
        assert!(
            v.iter().any(|x| x.contains("family ranking flips on b")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.contains("'auto' resolves differently on c")),
            "{v:?}"
        );
    }

    /// The search's keys and printed digits survive the zoo report's
    /// envelope.
    #[test]
    fn report_verdict_flows_to_json_and_text() {
        let mut rows: Vec<BackendRow> = [
            ("a100-80gb", 100.0, 4),
            ("v100-32gb", 130.0, 1),
            ("mi", 90.0, 3),
        ]
        .iter()
        .map(|&(n, t, c)| synth_row(n, t, c))
        .collect();
        let rep = report(&rows, &auto_bitwise(0xabc), 3);
        assert!(rep.pass(), "{:?}", rep.violations());
        let json = rep.to_json();
        assert!(json.contains("\"family_ranking\": [\"stack\""));
        assert!(json.contains("\"winner\": \"order=j,k,i collapse=3 slab[bin,pt]\""));
        assert!(json.contains("\"explicit\": \"v4\""));
        assert!(json.contains("\"auto_checksum\": \"0000000000000abc\""));
        assert!(json.contains("\"stack_bytes\": 20480"));
        let text = rep.rendered();
        assert!(text.contains("=== repro zoo: storage-family winners per backend ==="));
        // A diverging bitwise arm is its own check's.
        let mut diverged = auto_bitwise(0xabc);
        diverged.violations.push("diverges".into());
        let v = report(&rows, &diverged, 3).violations();
        assert_eq!(v, ["zoo: auto bitwise vs explicit: diverges"]);
        // A failed search check fails its backend's row.
        rows[0].violations.extend(recovery_violations(&Search {
            families: Vec::new(),
            ..synth_search(1.0)
        }));
        let failing = report(&rows, &auto_bitwise(0xabc), 3);
        assert!(!failing.pass());
        assert!(failing
            .violations()
            .iter()
            .any(|v| v.contains("backend: a100-80gb: stack family unschedulable")));
    }

    /// The real gate's search, end to end: the paper's hand-derived
    /// kernels fall out of the search on the paper's machine, the winner
    /// is a slab schedule everywhere, and the functional 'auto' arm is
    /// bitwise-identical to the explicit winner. This is the empirical
    /// pin on the search claim (the pricing half:
    /// `zoo::tests::zoo_gate_passes_end_to_end`).
    #[test]
    fn tune_gate_passes_end_to_end() {
        let (rows, bitwise) = gate_run();
        let rep = report(rows, bitwise, MIN_BACKENDS);
        assert!(rep.pass(), "{:#?}", rep.violations());
        assert_eq!(rows.len(), ZOO.len());
        for (row, backend) in rows.iter().zip(ZOO.iter()) {
            assert_eq!(row.backend, backend.name);
            let winner = &row.search.winner;
            assert!(winner.contains("collapse=3 slab["), "{winner}");
            assert_eq!(row.search.ranking, rows[0].search.ranking);
        }
        let a100 = &rows[0];
        assert_eq!(a100.backend, "a100-80gb");
        let search = &a100.search;
        assert_eq!(search.auto_version, SbmVersion::OffloadCollapse3);
        assert_eq!(
            search.searched, 96,
            "3! perms × 3 collapses × storages × fission"
        );
        let family = |name: &str| search.families.iter().find(|f| f.family == name).unwrap();
        let (stack, slab) = (family("stack"), family("slab[pt,bin]"));
        assert_eq!(
            (stack.collapse, stack.regs, stack.stack_bytes),
            geometry(SbmVersion::OffloadCollapse2)
        );
        assert_eq!(
            (slab.collapse, slab.regs, slab.stack_bytes),
            geometry(SbmVersion::OffloadCollapse3)
        );
        assert!(slab.unfissioned_secs < stack.unfissioned_secs);
        // And the bitwise arm really ran.
        assert_eq!(bitwise.explicit, "v4");
        assert_eq!(bitwise.auto_checksum, bitwise.explicit_checksum);
        assert_ne!(bitwise.auto_checksum, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The family ranking and auto resolution are invariant to the
        /// measured work density: scaling flops and memory together
        /// never flips a conclusion on any backend.
        #[test]
        fn conclusions_stable_under_work_scaling(scale in 0.25f64..4.0) {
            let coeffs = &ReproContext::quick_shared().coeffs;
            let mut work = coal_nest_work_from(coeffs);
            work.flops_per_point *= scale;
            work.mem_ops_per_point *= scale;
            let mut rankings = Vec::new();
            for b in ZOO.iter() {
                let rep = tune_backend_with(b, &work);
                prop_assert!(rep.winner().variant.storage.is_slab(), "{}", b.name);
                let families: Vec<FamilyBest> =
                    Storage::ALL.into_iter().filter_map(|s| family_best(&rep, s)).collect();
                rankings.push(family_ranking(&families));
            }
            for (n, r) in rankings.iter().enumerate().skip(1) {
                prop_assert_eq!(r, &rankings[0], "backend {} flips", ZOO[n].name);
            }
        }
    }
}
