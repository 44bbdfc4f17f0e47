//! The device-zoo gate (`repro zoo`): cross-backend portability of the
//! paper's conclusions, every backend priced and searched in one pass.
//!
//! The paper measures one machine — A100s behind EPYC hosts. Davis et
//! al. (arXiv:2010.09454) make the portability argument for OpenMP
//! offload: absolute kernel times vary widely across devices and
//! compilers, but the *relative* conclusions — which refactor wins,
//! how sharing decays — are stable. Hybrid Fortran (arXiv:1710.08616)
//! makes the matching argument for schedules: the loop order and storage
//! a target wants can be searched per target instead of hand-written.
//! This gate enforces both over the backend zoo ([`ZOO`]) from one
//! measured context: every backend prices the same functional workload
//! on its own plane ([`ReproContext::on_backend`]) — the same Table V
//! and Table VII code `repro paper` reports as `table5` / `table7`,
//! re-priced — and runs [`codee_sim::tune`] over the corpus collision
//! nest with the same measured work density (the search half of a row
//! is [`crate::tune`]'s). One row per backend; the gate checks
//!
//! * **Divergence** — the offloaded gate workload lands at a genuinely
//!   different absolute time on every backend (no accidental A100
//!   clones slipping into the zoo);
//! * **Ranking** — the Table V version ordering (v1 → v4) is identical
//!   on every backend, the CPU-class one included;
//! * **Decay** — the Table VII shared-GPU sweep keeps its shape
//!   everywhere: absolute time still improves 16 → 32 → 64 ranks while
//!   the speedup over the matched CPU base decays;
//! * **Packing** — the per-device cap on full-scale ensemble members,
//!   read from [`gpu_sim::DevicePool::admit`], tracks each backend's
//!   memory capacity (the caps genuinely differ);
//! * **Recovery** — on the paper's machine (`a100-80gb`), the best
//!   unfissioned schedule of each offloaded version's storage family has
//!   exactly that version's `kernel_spec()` geometry (collapse depth,
//!   registers, stack bytes: the stack family v2's, the point-major slab
//!   family v3's), with v3 priced faster than v2 — Table IV's ordering;
//! * **Discovery** — the searched-best schedule on every backend is a
//!   slab schedule at full collapse (the searched space contains the
//!   hand-derived answer, so the winner can only match or beat it);
//! * **Stability** — the slowest→fastest ordering of the three storage
//!   families, and the version `'auto'` resolves to, are identical on
//!   every backend;
//! * **Auto** — `&parallel schedule = 'auto'` resolves to the version
//!   implementing the winning geometry, and a functional run under
//!   `'auto'` is bitwise-identical to the same run under the explicit
//!   version name ([`crate::Depth::tune_check_steps`] steps).
//!
//! The report is written to `BENCH_zoo.json`; any violation makes
//! `repro zoo` exit nonzero.

use crate::context::{ReproContext, MINUTES};
use crate::ensemble::member_cap;
use crate::report::{Cell, Check, Report, Table};
use crate::share::full_scale_slab_bytes;
use crate::tables::{decay_violations, table7_arms, version_times, Table7Row, GPUS, RANKS};
use crate::tune::{
    auto_bitwise_check, recovery_violations, search_backend, search_flips, AutoBitwise, Search,
};
use codee_sim::tune::NestWork;
use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::{default_backend, Backend, ZOO};
use miniwrf::perfmodel::rank_footprint;
use miniwrf::schedule::coal_nest_work_from;

/// Minimum number of backends the gate must price and search.
pub const MIN_BACKENDS: usize = 5;

/// One scheme version priced on one backend.
#[derive(Debug, Clone)]
pub struct VersionTime {
    /// Scheme version label.
    pub version: &'static str,
    /// Modeled end-to-end seconds.
    pub secs: f64,
    /// Speedup over the same backend's v1 baseline.
    pub speedup: f64,
}

/// Everything the gate priced and searched on one backend.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend name (a [`ZOO`] entry).
    pub backend: &'static str,
    /// True for self-hosted CPU-class backends.
    pub is_cpu: bool,
    /// Table V version times, [`SbmVersion::ALL`] order.
    pub versions: Vec<VersionTime>,
    /// Version labels ordered slowest → fastest on this backend.
    pub ranking: Vec<&'static str>,
    /// Table VII sweep rows (the feasible 16/32/64-rank arms on the
    /// shared pool; small-capacity backends lose the deepest arms to
    /// the memory wall).
    pub sweep: Vec<Table7Row>,
    /// Sweep arms the §VII-A memory wall rejected, exactly as the
    /// capacity arithmetic predicted (informational, not violations).
    pub walls: Vec<String>,
    /// Full-scale ensemble members one device admits.
    pub member_cap: usize,
    /// The collision nest's schedule search on this backend.
    pub search: Search,
    /// Per-backend violations (empty when the paper's conclusions
    /// hold on this backend).
    pub violations: Vec<String>,
}

/// Orders labelled times slowest → fastest. Ties keep the given order,
/// so a tie can never mask a ranking flip as agreement without also
/// failing the divergence check (and backends that price two entries
/// equal still report a deterministic, comparable ordering).
pub fn slowest_first(timed: impl IntoIterator<Item = (&'static str, f64)>) -> Vec<&'static str> {
    let mut timed: Vec<(&'static str, f64)> = timed.into_iter().collect();
    timed.sort_by(|a, b| b.1.total_cmp(&a.1));
    timed.into_iter().map(|(label, _)| label).collect()
}

/// Orders the version labels of one backend slowest → fastest.
pub fn ranking_of(versions: &[VersionTime]) -> Vec<&'static str> {
    slowest_first(versions.iter().map(|t| (t.version, t.secs)))
}

/// Names a ranking flip: `backend` orders `got` where the `reference`
/// backend orders `want` (`None` when the two agree).
pub fn ranking_flip(
    what: &str,
    reference: &str,
    want: &[&str],
    backend: &str,
    got: &[&str],
) -> Option<String> {
    (got != want).then(|| {
        format!(
            "{what} ranking flips on {backend}: {reference} orders [{}], {backend} orders [{}]",
            want.join(" > "),
            got.join(" > ")
        )
    })
}

/// Checks the cross-backend claims over the finished rows: at least
/// `min_backends` of them, the version ranking, the family ranking and
/// the `'auto'` resolution identical everywhere, genuinely distinct
/// absolute times on the most-offloaded version, and genuinely distinct
/// per-device member caps.
pub fn cross_backend_violations(rows: &[BackendRow], min_backends: usize) -> Vec<String> {
    if rows.len() < min_backends {
        return vec![format!(
            "only {} backends ranked, gate requires {min_backends}",
            rows.len()
        )];
    }
    let Some((reference, rest)) = rows.split_first() else {
        return Vec::new();
    };
    let mut v = Vec::new();
    for row in rest {
        v.extend(ranking_flip(
            "version",
            reference.backend,
            &reference.ranking,
            row.backend,
            &row.ranking,
        ));
        v.extend(search_flips(
            reference.backend,
            &reference.search,
            row.backend,
            &row.search,
        ));
    }
    // Divergence on the most-offloaded version: CPU-only versions may
    // legitimately tie between backends sharing a host (the two A100s),
    // but the offloaded arm touches the device on every backend.
    if let Some(last) = reference.versions.last() {
        let mut times: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.versions.last().map(|t| t.secs))
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        if times.len() != rows.len() {
            v.push(format!(
                "absolute {} times collide across backends ({} distinct of {}) — \
                 a zoo entry is an accidental clone",
                last.version,
                times.len(),
                rows.len()
            ));
        }
    }
    if !rows.iter().any(|r| r.sweep.len() == 3) {
        v.push(
            "no backend clears the memory wall at full sweep depth — the Table VII \
             shape is nowhere fully observable"
                .to_string(),
        );
    }
    let mut caps: Vec<usize> = rows.iter().map(|r| r.member_cap).collect();
    caps.sort_unstable();
    caps.dedup();
    if caps.len() < 3 {
        v.push(format!(
            "per-device member caps are degenerate across the zoo ({caps:?}) — \
             capacity differences must change packing"
        ));
    }
    v
}

/// Assembles the zoo report from the per-backend rows and the bitwise
/// arm; `min_backends` is the floor of [`cross_backend_violations`].
pub fn report(rows: &[BackendRow], bitwise: &AutoBitwise, min_backends: usize) -> Report {
    let class = |r: &BackendRow| if r.is_cpu { "cpu" } else { "gpu" };
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
        "ranking, packing, searched-best schedule and verdict per backend",
        rows.iter().map(|r| {
            vec![
                ("backend", r.backend.into()),
                ("class", class(r).into()),
                ("ranking", Cell::strs(&r.ranking)),
                ("member_cap", r.member_cap.into()),
                ("searched", r.search.searched.into()),
                ("unschedulable", r.search.unschedulable.into()),
                ("winner", r.search.winner.as_str().into()),
                ("winner_secs", Cell::sci(r.search.winner_secs, 6)),
                ("auto", r.search.auto_version.label().into()),
                ("family_ranking", Cell::strs(&r.search.ranking)),
                ("pass", r.violations.is_empty().into()),
            ]
        }),
    );
    let versions = Table::new(
        "versions",
        "Table V version times per backend",
        rows.iter().flat_map(|r| {
            r.versions.iter().map(|t| {
                vec![
                    ("backend", r.backend.into()),
                    ("version", t.version.into()),
                    ("secs", Cell::num(t.secs, 3)),
                    ("speedup", Cell::num(t.speedup, 4)),
                ]
            })
        }),
    );
    let sweep = Table::new(
        "sweep",
        "Table VII decay shape per backend (arms past the memory wall are absent)",
        rows.iter().flat_map(|r| {
            r.sweep.iter().map(|(arm, t)| {
                vec![
                    ("backend", r.backend.into()),
                    ("ranks", arm.gpu_ranks.into()),
                    ("cpu_secs", Cell::num(t.baseline, 3)),
                    ("gpu_secs", Cell::num(t.gpu, 3)),
                    ("speedup", Cell::num(t.speedup(), 4)),
                ]
            })
        }),
    );
    let walls = Table::new(
        "memory_walls",
        "sweep arms the \u{a7}VII-A memory wall rejected, as the capacity arithmetic predicted",
        rows.iter().flat_map(|r| {
            let wall =
                |w: &String| vec![("backend", r.backend.into()), ("walls", w.as_str().into())];
            r.walls.iter().map(wall)
        }),
    );
    let families = Table::new(
        "families",
        "storage-family winners per backend",
        rows.iter().flat_map(|r| {
            r.search.families.iter().map(|f| {
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
        gate: "zoo",
        case: vec![
            ("ranks", RANKS.into()),
            ("gpus", GPUS.into()),
            ("minutes", MINUTES.into()),
            ("min_backends", min_backends.into()),
            ("coeff_scale", scale.into()),
            ("coeff_nz", nz.into()),
            ("coeff_steps", steps.into()),
            ("check_steps", bitwise.check_steps.into()),
        ],
        checks,
        tables: vec![backends, versions, sweep, walls, families, auto],
    }
}

/// Prices and searches one backend: `base` re-priced on `backend`'s
/// plane, the collision nest searched at `work`'s density.
fn run_backend_row(backend: &'static Backend, base: &ReproContext, work: &NestWork) -> BackendRow {
    let ctx = base.on_backend(backend);
    let mut violations = Vec::new();

    // Table V: the four scheme versions at the paper's decomposition.
    let versions: Vec<VersionTime> = match version_times(&ctx) {
        Ok(v) => (SbmVersion::ALL.iter().zip(&v))
            .map(|(version, t)| VersionTime {
                version: version.label(),
                secs: t.overall,
                speedup: v[0].overall / t.overall,
            })
            .collect(),
        Err(e) => {
            violations.push(format!("a Table V arm failed admission: {e}"));
            Vec::new()
        }
    };
    let ranking = ranking_of(&versions);

    // Table VII: the shared-pool sweep against a matched CPU base.
    // Deep sharing hits the paper's §VII-A memory wall on small-capacity
    // devices — that is part of the portability claim, so the wall is
    // *asserted*: an arm must fail admission exactly when the capacity
    // arithmetic over `RankFootprint::charged_bytes` says its contexts
    // cannot fit, and run when it says they can.
    let mut sweep = Vec::new();
    let mut walls = Vec::new();
    let pp = &ctx.pp;
    for (arm, times) in table7_arms(&ctx).into_iter().filter(|(a, _)| a.in_sweep()) {
        let ranks = arm.gpu_ranks;
        let per_device = ranks.div_ceil(arm.gpus) as u64;
        let charged = rank_footprint(pp, full_scale_slab_bytes(ranks))
            .charged_bytes(&pp.gpu)
            .unwrap_or(u64::MAX);
        let fits = charged
            .checked_mul(per_device)
            .is_some_and(|need| need <= pp.gpu.hbm_bytes);
        match times {
            Ok(times) => {
                if !fits {
                    violations.push(format!(
                        "{ranks}-rank arm was admitted but the capacity arithmetic says \
                         {per_device} × {charged} B cannot fit {} B",
                        pp.gpu.hbm_bytes
                    ));
                }
                sweep.push((arm, times));
            }
            Err(e) if fits => {
                violations.push(format!("sweep arm {ranks} ranks failed admission: {e}"));
            }
            Err(e) => walls.push(format!(
                "{ranks} ranks: memory wall ({per_device} × {charged} B > {} B): {e}",
                pp.gpu.hbm_bytes
            )),
        }
    }
    violations.extend(decay_violations(&sweep));

    // The schedule search; recovery of the hand-derived kernels is
    // checked on the paper's machine.
    let (search, search_violations) = search_backend(backend, work);
    violations.extend(search_violations);
    if std::ptr::eq(backend, default_backend()) {
        violations.extend(recovery_violations(&search));
    }

    BackendRow {
        backend: backend.name,
        is_cpu: backend.is_cpu(),
        versions,
        ranking,
        sweep,
        walls,
        member_cap: member_cap(backend).0,
        search,
        violations,
    }
}

/// Prices and searches every [`ZOO`] backend from one measured context
/// (the coefficients are backend-independent; each backend swaps in its
/// own perf plane and search target).
pub fn backend_rows(base: &ReproContext) -> Vec<BackendRow> {
    let work = coal_nest_work_from(&base.coeffs);
    ZOO.iter()
        .map(|b| run_backend_row(b, base, &work))
        .collect()
}

/// Runs the zoo gate: coefficients measured once on the functional
/// plane, every backend priced and searched, the cross-backend claims
/// checked, and the functional `'auto'` arm run bitwise for
/// `check_steps`.
pub fn run(check_steps: usize) -> Report {
    let rows = backend_rows(&ReproContext::quick());
    let bitwise = auto_bitwise_check(rows[0].search.auto_version, check_steps);
    report(&rows, &bitwise, MIN_BACKENDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::full_scale_footprint;
    use crate::synth::{auto_bitwise, gate_run, synth_row};
    use miniwrf::perfmodel::{try_experiment, ExperimentConfig};
    use miniwrf::service::member_batches;
    use proptest::prelude::*;

    #[test]
    fn ranking_orders_slowest_first() {
        let rows = synth_row("a", 100.0, 4);
        assert_eq!(
            rows.ranking,
            vec!["baseline", "lookup", "collapse2", "collapse3"]
        );
    }

    #[test]
    fn cross_checks_catch_flips_ties_and_degenerate_caps() {
        let rows: Vec<BackendRow> = [("a", 100.0, 4), ("b", 130.0, 2), ("c", 90.0, 7)]
            .iter()
            .map(|&(n, t, c)| synth_row(n, t, c))
            .collect();
        assert!(cross_backend_violations(&rows, 3).is_empty());

        // Too few backends.
        let v = cross_backend_violations(&rows, 5);
        assert!(v.iter().any(|x| x.contains("requires 5")), "{v:?}");

        // A version ranking flip on one backend.
        let mut flipped = rows.clone();
        let (s2, s3) = (flipped[1].versions[2].secs, flipped[1].versions[3].secs);
        flipped[1].versions[2].secs = s3;
        flipped[1].versions[3].secs = s2;
        flipped[1].ranking = ranking_of(&flipped[1].versions);
        let v = cross_backend_violations(&flipped, 3);
        assert!(
            v.iter().any(|x| x.contains("version ranking flips on b")),
            "{v:?}"
        );

        // An accidental clone (identical offloaded time).
        let mut cloned = rows.clone();
        cloned[2] = synth_row("c", 100.0, 7);
        let v = cross_backend_violations(&cloned, 3);
        assert!(v.iter().any(|x| x.contains("collide")), "{v:?}");

        // Degenerate caps.
        let caps: Vec<BackendRow> = [("a", 100.0, 4), ("b", 130.0, 4), ("c", 90.0, 4)]
            .iter()
            .map(|&(n, t, c)| synth_row(n, t, c))
            .collect();
        let v = cross_backend_violations(&caps, 3);
        assert!(v.iter().any(|x| x.contains("degenerate")), "{v:?}");
    }

    #[test]
    fn sweep_shape_catches_broken_decay() {
        let good = synth_row("a", 100.0, 4);
        assert!(decay_violations(&good.sweep).is_empty());
        let mut bad = good.clone();
        bad.sweep[2].1.gpu = bad.sweep[1].1.gpu * 1.5;
        let v = decay_violations(&bad.sweep);
        assert!(v.iter().any(|x| x.contains("keep improving")), "{v:?}");
        let mut bad = good.clone();
        bad.sweep[1].1.baseline = 2.5 * bad.sweep[1].1.gpu;
        let v = decay_violations(&bad.sweep);
        assert!(v.iter().any(|x| x.contains("decay")), "{v:?}");
        // A two-row feasible prefix (post-memory-wall) is still checkable…
        let mut walled = good.clone();
        walled.sweep.truncate(2);
        assert!(decay_violations(&walled.sweep).is_empty());
        // …but a single surviving arm has no observable shape.
        walled.sweep.truncate(1);
        let v = decay_violations(&walled.sweep);
        assert!(v.iter().any(|x| x.contains("at least 2")), "{v:?}");
    }

    /// The parent format's keys and printed digits survive the envelope.
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
        assert!(json.contains("\"gate\": \"zoo\""));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"backend\": \"v100-32gb\""));
        assert!(json.contains("\"ranking\": [\"baseline\""));
        assert!(json.contains("\"member_cap\": 1"));
        let text = rep.rendered();
        assert!(text.contains("zoo gate: PASS"));
        assert!(text.contains("=== repro zoo: Table V version times per backend ==="));

        rows[0].violations.push("synthetic".into());
        let failing = report(&rows, &auto_bitwise(0xabc), 3);
        assert!(!failing.pass());
        assert!(failing
            .violations()
            .iter()
            .any(|v| v.contains("backend: a100-80gb: synthetic")));
        // Too few backends is the cross-backend check's to catch.
        let v = report(&rows[1..], &auto_bitwise(0xabc), 3).violations();
        assert!(
            v.iter().any(|x| x.contains("zoo: cross-backend: only 2")),
            "{v:?}"
        );
    }

    /// The real gate, end to end: five backends priced, ranking stable,
    /// decay shape everywhere, caps tracking capacity (the search half:
    /// `tune::tests::tune_gate_passes_end_to_end`). This is the empirical
    /// pin on the portability claim — and on the gate's assertion
    /// inventory.
    #[test]
    fn zoo_gate_passes_end_to_end() {
        let (rows, bitwise) = gate_run();
        let rep = report(rows, bitwise, MIN_BACKENDS);
        assert!(rep.pass(), "{:#?}", rep.violations());
        let labels: Vec<&str> = rep.checks.iter().map(|c| c.label.as_str()).collect();
        let mut want: Vec<String> = ZOO.iter().map(|b| format!("backend: {}", b.name)).collect();
        want.extend(["auto bitwise vs explicit".into(), "cross-backend".into()]);
        assert_eq!(labels, want);
        let keys: Vec<&str> = rep.tables.iter().map(|t| t.key).collect();
        assert_eq!(
            keys,
            [
                "backends",
                "versions",
                "sweep",
                "memory_walls",
                "families",
                "bitwise"
            ]
        );
        assert!(rows.len() >= 5);
        let a100 = &rows[0];
        assert_eq!(a100.backend, "a100-80gb");
        assert_eq!(a100.member_cap, 4, "full-scale cap on 80 GB must stay 4");
        assert_eq!(a100.sweep.len(), 3, "80 GB fits the whole sweep");
        assert!(a100.walls.is_empty());
        let v100 = rows.iter().find(|r| r.backend == "v100-32gb").unwrap();
        assert!(v100.member_cap < a100.member_cap);
        // The §VII-A memory wall moves with capacity: the 64-rank arm
        // (4 contexts/device) no longer fits 40 or 32 GB.
        for name in ["a100-40gb", "v100-32gb"] {
            let r = rows.iter().find(|r| r.backend == name).unwrap();
            assert_eq!(r.sweep.len(), 2, "{name} loses exactly the 64-rank arm");
            assert_eq!(r.walls.len(), 1, "{name} records the wall");
            assert!(r.walls[0].starts_with("64 ranks"), "{:?}", r.walls);
        }
        let grace = rows.iter().find(|r| r.is_cpu).unwrap();
        assert!(grace.member_cap > a100.member_cap);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The v1→v4 ranking is identical across every zoo backend
        /// while the offloaded absolute times stay pairwise distinct,
        /// for any integration length — scaling the forecast window
        /// must never flip a conclusion on any backend.
        #[test]
        fn ranking_is_stable_across_backends(minutes in 2.0f64..40.0) {
            let mut rankings = Vec::new();
            let mut offload_secs = Vec::new();
            for b in ZOO.iter() {
                let ctx = ReproContext::quick_shared().on_backend(b);
                let mut versions = Vec::new();
                for version in SbmVersion::ALL {
                    let gpus = if version.offloaded() { GPUS } else { 0 };
                    let r = try_experiment(
                        &ExperimentConfig {
                            case: ctx.case,
                            version,
                            ranks: RANKS,
                            gpus,
                            minutes,
                        },
                        &ctx.coeffs,
                        &ctx.pp,
                        &ctx.traffic,
                    ).unwrap();
                    versions.push(VersionTime {
                        version: version.label(),
                        secs: r.total_secs,
                        speedup: 1.0,
                    });
                }
                offload_secs.push(versions.last().unwrap().secs);
                rankings.push(ranking_of(&versions));
            }
            for (n, r) in rankings.iter().enumerate().skip(1) {
                prop_assert_eq!(r, &rankings[0], "backend {} flips the ranking", ZOO[n].name);
            }
            offload_secs.sort_by(f64::total_cmp);
            offload_secs.dedup();
            prop_assert_eq!(offload_secs.len(), ZOO.len());
        }

        /// Per-backend member packing follows `charged_bytes` exactly:
        /// `admit` fills a device with ⌊hbm / charged⌋ members, so the
        /// service needs ⌈members / (cap × devices)⌉ batches, and no
        /// device of any batch goes over its capacity.
        #[test]
        fn member_packing_matches_charged_bytes(
            members in 1usize..12,
            devices in 1usize..4,
            which in 0..ZOO.len(),
        ) {
            let backend = &ZOO[which];
            let fp = full_scale_footprint();
            let dev = backend.device_params();
            let charged = fp.charged_bytes(&dev).unwrap();
            let cap = (dev.hbm_bytes / charged) as usize;
            prop_assert!(cap > 0, "every zoo device fits at least one member");
            prop_assert_eq!(member_cap(backend).0, cap);

            let placed = member_batches(&fp, backend, devices, members).unwrap();
            let batches = placed.last().map_or(0, |&(batch, _)| batch + 1);
            prop_assert_eq!(batches, members.div_ceil(cap * devices));
            for slot in &placed {
                let residents = placed.iter().filter(|p| *p == slot).count();
                prop_assert!(residents <= cap);
                prop_assert!(residents as u64 * charged <= dev.hbm_bytes);
            }
        }
    }
}
