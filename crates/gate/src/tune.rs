//! The autotuner gate (`repro tune`): the schedule search must recover
//! the paper's hand-derived kernels.
//!
//! The strongest validation available for a schedule autotuner is a
//! known-good answer: the paper's §VI-B collapse(2) kernel with
//! automatic arrays on the raised device stack ("v2") and the §VI-C
//! slab-refactored full-collapse kernel ("v3") were derived by hand,
//! measured, and published. This gate runs [`codee_sim::tune`] over the
//! corpus collision nest on every zoo backend — rates and work density
//! taken from the same measured coefficients the perf plane prices
//! experiments with — and checks
//!
//! * **Recovery** — on `a100-80gb`, the best unfissioned schedule of
//!   each offloaded version's storage family has exactly that version's
//!   `kernel_spec()` geometry (collapse depth, registers, stack bytes:
//!   the stack family v2's, the point-major slab family v3's), with v3
//!   priced faster than v2 — Table IV's ordering;
//! * **Discovery** — the overall winner on every backend is a slab
//!   schedule at full collapse, at least as fast as v3 (the searched
//!   space contains the hand-derived answer, so the winner can only
//!   match or beat it);
//! * **Stability** — the slowest→fastest ordering of the three storage
//!   families is identical on all five backends, CPU class included;
//! * **Auto** — `&parallel schedule = 'auto'` resolves to the version
//!   implementing the winning geometry, and a functional run under
//!   `'auto'` is bitwise-identical to the same run under the explicit
//!   version name.
//!
//! The report is written to the committed `BENCH_tune.json`, which
//! `ci.sh` regenerates and diffs: a winner, ranking or `'auto'`
//! resolution that drifted is a changed line there. Any violation makes
//! `repro tune` exit nonzero.

use crate::context::ReproContext;
use crate::golden::combined_checksum;
use crate::report::{Cell, Check, Report, Table};
use crate::zoo::{ranking_violations, slowest_first};
use codee_sim::tune::{PricedVariant, TuneReport};
use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::ZOO;
use gpu_sim::schedule::Storage;
use miniwrf::model::Model;
use miniwrf::namelist::schedule_name;
use miniwrf::schedule::{coal_nest_work_from, tune_backend_with, version_for};

/// Minimum number of backends the gate must search.
pub const MIN_BACKENDS: usize = 5;

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

/// Everything the gate searched on one backend.
#[derive(Debug, Clone)]
pub struct TuneBackendRow {
    /// Backend name (a [`ZOO`] entry).
    pub backend: &'static str,
    /// True for self-hosted CPU-class backends.
    pub is_cpu: bool,
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
    /// Per-backend violations.
    pub violations: Vec<String>,
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

/// The fastest variant of the `storage` family in `rep`, and the fastest
/// unfissioned one (`None` when the family is entirely unschedulable).
fn family_best(rep: &TuneReport, storage: Storage) -> Option<FamilyBest> {
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

/// Orders the present families slowest → fastest; equal prices keep
/// [`Storage::ALL`] order, so a CPU-class tie between the two slab layouts
/// reports the same ordering as a GPU where the transposition wins by a
/// margin smaller than the stack deficit.
pub fn family_ranking(families: &[FamilyBest]) -> Vec<&'static str> {
    slowest_first(families.iter().map(|f| (f.family, f.secs)))
}

/// Checks one backend's searched table for the per-backend claims.
fn backend_violations(row: &TuneBackendRow, winner: &PricedVariant) -> Vec<String> {
    let mut v = Vec::new();
    if row.searched == 0 {
        v.push("search enumerated no variants".to_string());
        return v;
    }
    // §VI-C portability: the slab refactor's full-collapse schedule wins
    // on every backend — CPU class included, where it wins on occupancy
    // alone since the scatter penalty is flat.
    if !winner.variant.storage.is_slab() {
        v.push(format!(
            "searched-best schedule is not a slab one: {}",
            row.winner
        ));
    }
    if winner.variant.collapse != 3 {
        v.push(format!(
            "searched-best schedule does not fully collapse: {}",
            row.winner
        ));
    }
    let fam = |name: &str| row.families.iter().find(|f| f.family == name);
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
    v
}

/// Checks the `a100-80gb` row for exact recovery of the hand-derived
/// kernels: the best unfissioned schedule of each offloaded version's
/// storage family has that version's `kernel_spec()` geometry.
pub fn recovery_violations(row: &TuneBackendRow) -> Vec<String> {
    let mut v = Vec::new();
    let fam = |name: &str| row.families.iter().find(|f| f.family == name);
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

/// Checks the cross-backend stability claim over the finished rows.
pub fn cross_backend_violations(rows: &[TuneBackendRow], min_backends: usize) -> Vec<String> {
    let ranked = rows.iter().map(|r| (r.backend, &r.ranking[..]));
    let mut v = ranking_violations("family", ranked, min_backends);
    for row in rows.iter().skip(1) {
        if row.auto_version != rows[0].auto_version {
            v.push(format!(
                "'auto' resolves differently on {}: {} vs {}",
                row.backend,
                rows[0].auto_version.label(),
                row.auto_version.label()
            ));
        }
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

/// Assembles the tune report; `min_backends` is the floor of
/// [`cross_backend_violations`].
pub fn report(rows: &[TuneBackendRow], bitwise: &AutoBitwise, min_backends: usize) -> Report {
    let class = |r: &TuneBackendRow| if r.is_cpu { "cpu" } else { "gpu" };
    let mut checks: Vec<Check> = rows
        .iter()
        .map(|r| Check::all_of(format!("backend: {}", r.backend), &r.violations))
        .collect();
    checks.push(Check::all_of(
        "auto bitwise vs explicit",
        &bitwise.violations,
    ));
    checks.push(Check::all_of(
        "cross-backend",
        &cross_backend_violations(rows, min_backends),
    ));
    let backends = Table::new(
        "backends",
        "searched-best schedule per backend",
        rows.iter().map(|r| {
            vec![
                ("backend", r.backend.into()),
                ("class", class(r).into()),
                ("searched", r.searched.into()),
                ("unschedulable", r.unschedulable.into()),
                ("winner", r.winner.as_str().into()),
                ("winner_secs", Cell::sci(r.winner_secs, 6)),
                ("auto", r.auto_version.label().into()),
                ("ranking", Cell::strs(&r.ranking)),
                ("pass", r.violations.is_empty().into()),
            ]
        }),
    );
    let families = Table::new(
        "families",
        "storage-family winners per backend",
        rows.iter().flat_map(|r| {
            r.families.iter().map(|f| {
                vec![
                    ("backend", r.backend.into()),
                    ("family", f.family.into()),
                    ("label", f.label.as_str().into()),
                    ("secs", Cell::sci(f.secs, 6)),
                    ("collapse", f.collapse.into()),
                    ("regs", f.regs.into()),
                    ("stack_bytes", f.stack_bytes.into()),
                ]
            })
        }),
    );
    let checksum = |x: u64| Cell::from(format!("{x:016x}"));
    let auto = Table::new(
        "bitwise",
        "schedule = 'auto' vs the explicit winner, end-state checksums",
        [vec![
            ("explicit", bitwise.explicit.as_str().into()),
            ("auto_checksum", checksum(bitwise.auto_checksum)),
            ("explicit_checksum", checksum(bitwise.explicit_checksum)),
            ("pass", bitwise.violations.is_empty().into()),
        ]],
    );
    let (scale, nz, steps) = ReproContext::QUICK;
    Report {
        gate: "tune",
        case: vec![
            ("coeff_scale", scale.into()),
            ("coeff_nz", nz.into()),
            ("coeff_steps", steps.into()),
            ("min_backends", min_backends.into()),
            ("check_steps", bitwise.check_steps.into()),
        ],
        checks,
        tables: vec![backends, families, auto],
    }
}

/// Searches one backend and assembles its row.
fn run_backend_row(
    backend: &'static gpu_sim::machine::Backend,
    ctx: &ReproContext,
) -> TuneBackendRow {
    let work = coal_nest_work_from(&ctx.coeffs);
    let rep = tune_backend_with(backend, &work);
    let families: Vec<FamilyBest> = Storage::ALL
        .into_iter()
        .filter_map(|s| family_best(&rep, s))
        .collect();
    let winner = rep.winner().clone();
    let mut row = TuneBackendRow {
        backend: backend.name,
        is_cpu: backend.is_cpu(),
        searched: rep.ranked.len() + rep.unschedulable,
        unschedulable: rep.unschedulable,
        winner: winner.label.clone(),
        winner_secs: winner.secs,
        ranking: family_ranking(&families),
        families,
        auto_version: version_for(&rep),
        violations: Vec::new(),
    };
    row.violations = backend_violations(&row, &winner);
    row
}

/// Searches every [`ZOO`] backend from `ctx`'s measured coefficients,
/// with recovery checked on the paper's machine (the first row).
pub fn backend_rows(ctx: &ReproContext) -> Vec<TuneBackendRow> {
    let mut rows: Vec<TuneBackendRow> = ZOO.iter().map(|b| run_backend_row(b, ctx)).collect();
    let recovery = recovery_violations(&rows[0]);
    rows[0].violations.extend(recovery);
    rows
}

/// Runs the tune gate: coefficients measured once on the functional
/// plane, every backend searched, stability checked across the zoo, and
/// the functional `'auto'` arm run bitwise for `check_steps`.
pub fn run(check_steps: usize) -> Report {
    let rows = backend_rows(&ReproContext::quick());
    let bitwise = auto_bitwise_check(rows[0].auto_version, check_steps);
    report(&rows, &bitwise, MIN_BACKENDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn synth_family(family: &'static str, secs: f64, geom: (usize, u32, u64)) -> FamilyBest {
        FamilyBest {
            family,
            label: format!("order=j,k,i collapse={} {family}", geom.0),
            secs,
            collapse: geom.0,
            regs: geom.1,
            stack_bytes: geom.2,
            unfissioned_secs: secs,
        }
    }

    /// `(collapse, regs, stack bytes)` of `version`'s kernel.
    fn geometry(version: SbmVersion) -> (usize, u32, u64) {
        let s = version.kernel_spec().unwrap();
        (
            s.collapse as usize,
            s.regs_per_thread,
            s.stack_bytes_per_thread,
        )
    }

    fn synth_row(backend: &'static str, scale: f64) -> TuneBackendRow {
        let v2 = geometry(SbmVersion::OffloadCollapse2);
        let v3 = geometry(SbmVersion::OffloadCollapse3);
        let families = vec![
            synth_family("stack", 15.0e-3 * scale, v2),
            synth_family("slab[pt,bin]", 5.5e-3 * scale, v3),
            synth_family("slab[bin,pt]", 1.7e-3 * scale, v3),
        ];
        TuneBackendRow {
            backend,
            is_cpu: false,
            searched: 96,
            unschedulable: 0,
            winner: "order=j,k,i collapse=3 slab[bin,pt]".to_string(),
            winner_secs: 1.7e-3 * scale,
            ranking: family_ranking(&families),
            families,
            auto_version: SbmVersion::OffloadCollapse3,
            violations: Vec::new(),
        }
    }

    #[test]
    fn family_ranking_orders_slowest_first_with_stable_ties() {
        let row = synth_row("a", 1.0);
        assert_eq!(row.ranking, vec!["stack", "slab[pt,bin]", "slab[bin,pt]"]);
        // An exact slab tie (CPU class) keeps canonical order.
        let mut tied = row.families.clone();
        tied[2].secs = tied[1].secs;
        assert_eq!(
            family_ranking(&tied),
            vec!["stack", "slab[pt,bin]", "slab[bin,pt]"]
        );
    }

    #[test]
    fn recovery_checks_pin_the_hand_derived_geometry() {
        let good = synth_row("a100-80gb", 1.0);
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
        let rows: Vec<TuneBackendRow> = [("a", 1.0), ("b", 1.3), ("c", 0.9)]
            .map(|(n, s)| synth_row(n, s))
            .to_vec();
        assert!(cross_backend_violations(&rows, 3).is_empty());
        let v = cross_backend_violations(&rows, 5);
        assert!(v.iter().any(|x| x.contains("requires 5")), "{v:?}");
        // A flip on one backend.
        let mut flipped = rows.clone();
        flipped[1].families[0].secs = 1.0e-6;
        flipped[1].ranking = family_ranking(&flipped[1].families);
        let v = cross_backend_violations(&flipped, 3);
        assert!(v.iter().any(|x| x.contains("ranking flips on b")), "{v:?}");
        // A diverging auto resolution.
        let mut diverged = rows;
        diverged[2].auto_version = SbmVersion::OffloadCollapse2;
        let v = cross_backend_violations(&diverged, 3);
        assert!(
            v.iter().any(|x| x.contains("'auto' resolves differently")),
            "{v:?}"
        );
    }

    fn auto_bitwise(checksum: u64) -> AutoBitwise {
        AutoBitwise {
            check_steps: 4,
            explicit: "v4".into(),
            auto_checksum: checksum,
            explicit_checksum: checksum,
            violations: Vec::new(),
        }
    }

    /// The parent format's keys and printed digits survive the envelope.
    #[test]
    fn report_verdict_flows_to_json_and_text() {
        let mut rows: Vec<TuneBackendRow> = [("a100-80gb", 1.0), ("v100-32gb", 1.2)]
            .map(|(n, s)| synth_row(n, s))
            .to_vec();
        let rep = report(&rows, &auto_bitwise(0xabc), 2);
        assert!(rep.pass(), "{:?}", rep.violations());
        let json = rep.to_json();
        assert!(json.contains("\"gate\": \"tune\""));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"winner\": \"order=j,k,i collapse=3 slab[bin,pt]\""));
        assert!(json.contains("\"explicit\": \"v4\""));
        assert!(json.contains("\"auto_checksum\": \"0000000000000abc\""));
        assert!(json.contains("\"stack_bytes\": 20480"));
        let text = rep.rendered();
        assert!(text.contains("tune gate: PASS"));
        assert!(text.contains("=== repro tune: storage-family winners per backend ==="));

        rows[0].violations.push("synthetic".into());
        let failing = report(&rows, &auto_bitwise(0xabc), 2);
        assert!(!failing.pass());
        assert!(failing
            .violations()
            .iter()
            .any(|v| v.contains("backend: a100-80gb: synthetic")));
    }

    /// The real gate, end to end: the paper's hand-derived kernels fall
    /// out of the search on the paper's machine, the winner is a slab
    /// schedule everywhere, the family ranking is zoo-stable, and the
    /// functional 'auto' arm is bitwise-identical to the explicit
    /// winner. This is the empirical pin on the tentpole claim — and on
    /// the gate's assertion inventory.
    #[test]
    fn tune_gate_passes_end_to_end() {
        let rows = backend_rows(ReproContext::quick_shared());
        let bitwise = auto_bitwise_check(SbmVersion::OffloadCollapse3, 4);
        let rep = report(&rows, &bitwise, MIN_BACKENDS);
        assert!(rep.pass(), "{:#?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        let mut want: Vec<String> = ZOO.iter().map(|b| format!("backend: {}", b.name)).collect();
        want.extend(["auto bitwise vs explicit".into(), "cross-backend".into()]);
        assert_eq!(labels, want);
        assert!(rows.len() >= 5);
        let a100 = &rows[0];
        assert_eq!(a100.backend, "a100-80gb");
        assert_eq!(a100.auto_version, SbmVersion::OffloadCollapse3);
        assert_eq!(
            a100.searched, 96,
            "3! perms × 3 collapses × storages × fission"
        );
        let stack = a100.families.iter().find(|f| f.family == "stack").unwrap();
        assert_eq!(
            (stack.collapse, stack.regs, stack.stack_bytes),
            geometry(SbmVersion::OffloadCollapse2)
        );
        let slab = a100
            .families
            .iter()
            .find(|f| f.family == "slab[pt,bin]")
            .unwrap();
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
            let mut work = miniwrf::schedule::coal_nest_work_from(coeffs);
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
