//! The schedule-search half of the zoo gate's backend rows.
//!
//! Hybrid Fortran (arXiv:1710.08616) argues that the loop order and
//! storage a target wants can be searched per target instead of
//! hand-written. [`crate::zoo`] runs [`codee_sim::tune`] over the corpus
//! collision nest on every backend it prices; this module holds what
//! that search yields and what the gate checks of it: the best schedule
//! of each storage family ([`FamilyBest`]), their slowest → fastest
//! ranking and the version `mp_physics = 'fsbm_auto'` resolves to
//! ([`Search`]), exact recovery of the hand-derived v2/v3 kernels on the
//! paper's machine ([`recovery_violations`]), the search's stability
//! against a reference backend ([`search_flips`]), and the namelist's
//! `fsbm_auto` resolving as the gate's search did ([`auto_violation`]).

use crate::zoo::{ranking_flip, slowest_first};
use codee_sim::tune::{NestWork, TuneReport};
use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::Backend;
use gpu_sim::schedule::Storage;
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
    /// Version the winner maps to: what `fsbm_auto` should resolve to
    /// on this backend.
    pub auto_version: SbmVersion,
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

/// Checks that `&physics mp_physics = 'fsbm_auto'` with `&parallel
/// backend = '<backend>'` parses to the version `search` maps its winner
/// to. The two sides differ in the work density searched at: the parse
/// takes the nominal `coal_nest_work()`, the gate's search the density
/// measured from the functional run (`coal_nest_work_from`). No model
/// runs.
pub fn auto_violation(backend: &str, search: &Search) -> Option<String> {
    let text =
        format!("&parallel\n backend = '{backend}'\n/\n&physics\n mp_physics = 'fsbm_auto'\n/\n");
    match miniwrf::config_from_namelist(&text) {
        Ok(cfg) if cfg.version == search.auto_version => None,
        Ok(cfg) => Some(format!(
            "{backend}: 'fsbm_auto' parses to {} but the search resolved {}",
            cfg.version.label(),
            search.auto_version.label()
        )),
        Err(e) => Some(format!("{backend}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{gate_run, geometry, synth_row, synth_search};
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
        let rep = report(&rows, 3);
        assert!(rep.pass(), "{:?}", rep.violations());
        let json = rep.to_json();
        assert!(json.contains("\"family_ranking\": [\"stack\""));
        assert!(json.contains("\"winner\": \"order=j,k,i collapse=3 slab[bin,pt]\""));
        assert!(json.contains("\"auto\": \"offload collapse(3) w/ pointers\""));
        assert!(json.contains("\"stack_bytes\": 20480"));
        let text = rep.rendered();
        assert!(text.contains("=== repro zoo: storage-family winners per backend ==="));
        // A search resolving a version the namelist's `fsbm_auto` does not
        // parse to is its own check's (on every row alike, so the
        // cross-backend check sees no flip).
        let mut mismatched = rows.clone();
        for row in &mut mismatched {
            row.search.auto_version = SbmVersion::OffloadCollapse2;
        }
        let v = report(&mismatched, 3).violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with(
                "zoo: auto resolves as searched: a100-80gb: 'fsbm_auto' parses to \
                 offload collapse(3) w/ pointers but the search resolved offload collapse(2)"
            ),
            "{v:?}"
        );
        assert!(v[0].contains("; mi: "), "{v:?}");
        // A failed search check fails its backend's row.
        rows[0].violations.extend(recovery_violations(&Search {
            families: Vec::new(),
            ..synth_search(1.0)
        }));
        let failing = report(&rows, 3);
        assert!(!failing.pass());
        assert!(failing
            .violations()
            .iter()
            .any(|v| v.contains("backend: a100-80gb: stack family unschedulable")));
    }

    /// The real gate's search, end to end: the paper's hand-derived
    /// kernels fall out of the search on the paper's machine, the winner
    /// is a slab schedule everywhere, and every backend's `fsbm_auto`
    /// parses to the version its measured-density search resolved. This
    /// is the empirical pin on the search claim (the pricing half:
    /// `zoo::tests::zoo_gate_passes_end_to_end`).
    #[test]
    fn tune_gate_passes_end_to_end() {
        let rows = gate_run();
        let rep = report(rows, MIN_BACKENDS);
        assert!(rep.pass(), "{:#?}", rep.violations());
        assert_eq!(rows.len(), ZOO.len());
        for (row, backend) in rows.iter().zip(ZOO.iter()) {
            assert_eq!(row.backend, backend.name);
            let winner = &row.search.winner;
            assert!(winner.contains("collapse=3 slab["), "{winner}");
            assert_eq!(row.search.ranking, rows[0].search.ranking);
            assert_eq!(auto_violation(row.backend, &row.search), None);
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
        // And the check really parsed: an unknown backend is a violation.
        let v = auto_violation("h100", search).expect("unknown backend");
        assert!(v.starts_with("h100: namelist error"), "{v}");
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
