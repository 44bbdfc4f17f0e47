//! Backend-aware schedule autotuner: `codee autotune --target <backend>`.
//!
//! The paper hand-derived its offload schedules: fission the collision
//! loop (Listing 6), offload with `collapse(2)` and per-thread automatic
//! arrays (§VI-B, "v2" here), then refactor the automatics into
//! preallocated slabs to unlock full `collapse(3)` (§VI-C, Listing 8,
//! "v3"). In the spirit of Hybrid Fortran's per-target storage-order and
//! granularity search (Müller & Aoki), this module *discovers* such
//! schedules: it enumerates every transformation of an analyzed
//! [`LoopNest`] that the dependence analysis licenses — loop
//! interchange, collapse depth, fission points, stack-vs-slab placement
//! of automatic arrays, and slab storage transposition — prices each
//! candidate through `gpu-sim`'s occupancy/launch/roofline model for a
//! concrete [`Backend`], and returns the deterministic ranked table.
//!
//! The search is exhaustive over a bounded variant space (loop
//! permutations of the parallel prefix × collapse depths × capped
//! fission points × storage placements), so results are reproducible
//! bit-for-bit: ties are broken by enumeration order, and enumeration
//! order is documented below.
//!
//! The storage axis, its DRAM rates and the collision kernel's geometry
//! are `gpu_sim::schedule`'s — the values the scheme runs — so a winner's
//! placement names the version that runs it (`miniwrf::schedule`).

use crate::depend::{analyze, LoopAnalysis};
use crate::ir::{LoopNest, Stmt};
use crate::rewrite::RewriteBlocked;
use gpu_sim::launch::{launch_modeled_with, Bound, KernelSpec, KernelWork};
use gpu_sim::machine::Backend;
use gpu_sim::schedule::{Collapse, Storage, TrafficRates, BLOCK_THREADS};

/// At most this many licensed fission points are priced per schedule
/// (first, middle, last of the licensed set): bodies like `kernals_ks`
/// have dozens of splittable boundaries that all price alike.
pub const FISSION_CAP: usize = 3;

/// Work density of the nest being tuned, per iteration point of the
/// *full* trip space, plus the per-thread storage demands the schedule
/// moves around. The perf-plane callers derive these from measured
/// coefficients; the corpus defaults are nominal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NestWork {
    /// Single-precision FLOPs per iteration point.
    pub flops_per_point: f64,
    /// Counted 4-byte memory operands per point (loads + stores).
    pub mem_ops_per_point: f64,
    /// Per-thread automatic-array footprint with stack placement
    /// (`coal_bott_new`: [`Storage::stack_bytes_per_thread`] of
    /// [`Storage::Stack`], the §VI-B stack-size story).
    pub automatic_bytes: u64,
    /// Per-thread residue after the Listing 8 slab refactor.
    pub slab_bytes: u64,
    /// Warp-lane efficiency when the sparse point dimension is inside
    /// the collapse (full collapse: the cloud-sparsity predicate
    /// diverges lane-by-lane).
    pub warp_eff_full: f64,
    /// Lane efficiency when the innermost loop stays serial per thread.
    pub warp_eff_outer: f64,
    /// Registers per thread the compiler assigns to fat threads that
    /// carry a serial remainder loop (the measured NVHPC allocation of the
    /// `collapse(2)` collision kernel).
    pub regs_serial: u32,
    /// Registers per thread for thin one-point threads (the
    /// `collapse(3)` collision kernel).
    pub regs_point: u32,
}

impl NestWork {
    /// A divergence-free, storage-free workload with the given density —
    /// what the monotonicity properties run on.
    pub fn uniform(flops_per_point: f64, mem_ops_per_point: f64) -> NestWork {
        NestWork {
            flops_per_point,
            mem_ops_per_point,
            automatic_bytes: 0,
            slab_bytes: 0,
            warp_eff_full: 1.0,
            warp_eff_outer: 1.0,
            regs_serial: Collapse::Two.regs_per_thread(),
            regs_point: Collapse::Three.regs_per_thread(),
        }
    }
}

/// The machine a search prices against: a zoo backend plus the traffic
/// rates measured for it (`miniwrf::perfmodel::traffic_rates`) and the
/// per-thread stack limit the runtime is configured with
/// (`NV_ACC_CUDA_STACKSIZE`; the paper raises it to 64 KiB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneTarget<'a> {
    /// Hardware bundle to price on.
    pub backend: &'a Backend,
    /// DRAM rates per lane behaviour on this backend.
    pub rates: TrafficRates,
    /// Per-thread device stack limit, bytes. A schedule whose kernel
    /// needs more ([`KernelSpec::check_stack`]) is unschedulable.
    pub stack_limit: u64,
}

impl<'a> TuneTarget<'a> {
    /// A target with the paper's raised 64 KiB stack limit.
    pub fn new(backend: &'a Backend, rates: TrafficRates) -> TuneTarget<'a> {
        TuneTarget {
            backend,
            rates,
            stack_limit: 64 * 1024,
        }
    }
}

/// One legal transformation of an analyzed nest: a loop order, a
/// collapse depth, an optional fission point, and a storage placement.
/// Variants are only ever constructed by [`enumerate_variants`], which
/// licenses each axis against the dependence analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleVariant {
    /// Loop order, outermost first, as indices into `nest.vars`. Only
    /// the parallelizable prefix is permuted; sequential loops keep
    /// their original positions after it.
    pub order: Vec<usize>,
    /// Number of leading loops collapsed into the launch iteration
    /// space (`1..=collapsible`).
    pub collapse: usize,
    /// Body split: statements `[0, s)` and `[s, len)` become two
    /// kernels launched back-to-back.
    pub fission_at: Option<usize>,
    /// Automatic-array placement.
    pub storage: Storage,
}

impl ScheduleVariant {
    /// Renders the schedule as a compact label, e.g.
    /// `order=j,k,i collapse=3 slab[pt,bin]`.
    pub fn label(&self, nest: &LoopNest) -> String {
        let names: Vec<&str> = self
            .order
            .iter()
            .map(|&i| nest.vars[i].name.as_str())
            .collect();
        let mut s = format!(
            "order={} collapse={} {}",
            names.join(","),
            self.collapse,
            self.storage.label()
        );
        if let Some(at) = self.fission_at {
            s.push_str(&format!(" fission@{at}"));
        }
        s
    }
}

/// A variant with its modeled price on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedVariant {
    /// The schedule.
    pub variant: ScheduleVariant,
    /// Rendered label (see [`ScheduleVariant::label`]).
    pub label: String,
    /// Kernel geometry of the (first) launch.
    pub spec: KernelSpec,
    /// Modeled seconds for the whole nest (both kernels when fissioned).
    pub secs: f64,
    /// Binding resource of the slowest launch.
    pub bound: Bound,
    /// Achieved occupancy of the slowest launch.
    pub occupancy: f64,
    /// Position in enumeration order (the deterministic tie-breaker).
    pub index: usize,
}

/// The ranked schedule table of one nest on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// All schedulable variants, fastest first; ties keep enumeration
    /// order, so equal-priced variants rank identically on every
    /// backend that prices them equally.
    pub ranked: Vec<PricedVariant>,
    /// Variants enumerated but unschedulable on this target (stack
    /// limit, launch validation).
    pub unschedulable: usize,
}

impl TuneReport {
    /// The searched-best schedule.
    pub fn winner(&self) -> &PricedVariant {
        &self.ranked[0]
    }

    /// The best schedule within one storage family, if any is
    /// schedulable.
    pub fn family_winner(&self, storage: Storage) -> Option<&PricedVariant> {
        self.ranked.iter().find(|p| p.variant.storage == storage)
    }
}

/// Lexicographic permutations of `0..n` (small `n`; the parallel prefix
/// of a loop nest is at most a handful deep).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    rec(&mut Vec::new(), &mut items, &mut out);
    out
}

/// Scalars written by a statement.
fn scalar_writes(stmt: &Stmt) -> Option<&str> {
    match stmt {
        Stmt::ScalarWrite { name, .. } => Some(name),
        _ => None,
    }
}

/// Scalars read by a statement.
fn scalar_reads(stmt: &Stmt) -> Vec<&str> {
    match stmt {
        Stmt::ScalarWrite { reads, .. } => reads.iter().map(String::as_str).collect(),
        Stmt::ScalarRead(name) => vec![name.as_str()],
        _ => Vec::new(),
    }
}

/// Fission points the analysis licenses: loop distribution of a
/// dependence-free parallel loop is always legal *between* statements,
/// unless a privatized scalar written before the split is read after it
/// (that value would need a cross-kernel expansion). Returns at most
/// [`FISSION_CAP`] points (first, middle, last of the licensed set).
pub fn licensed_fission_points(nest: &LoopNest, a: &LoopAnalysis) -> Vec<usize> {
    let n = nest.body.len();
    let mut points = Vec::new();
    for s in 1..n {
        let live_scalar = nest.body[..s]
            .iter()
            .filter_map(scalar_writes)
            .filter(|w| a.private_scalars.iter().any(|p| p == w))
            .any(|w| {
                nest.body[s..]
                    .iter()
                    .any(|stmt| scalar_reads(stmt).contains(&w))
            });
        if !live_scalar {
            points.push(s);
        }
    }
    if points.len() > FISSION_CAP {
        points = vec![
            points[0],
            points[points.len() / 2],
            points[points.len() - 1],
        ];
        points.dedup();
    }
    points
}

/// Enumerates every schedule of `nest` the analysis licenses, in the
/// deterministic order: loop permutations of the parallelizable prefix
/// (lexicographic) × collapse depth (increasing) × storage placement
/// (stack, slab point-major, slab bin-major) × fission point (none
/// first, then increasing).
///
/// Licensing rules:
/// - Only the contiguous parallelizable prefix found by [`analyze`] may
///   be permuted or collapsed; loops carrying dependences keep their
///   position and order, and are never brought into the collapse.
/// - Fission points are restricted by privatized-scalar liveness
///   ([`licensed_fission_points`]).
/// - Slab placements (and their transposition) exist only when the nest
///   has automatic arrays to hoist; they are licensed because those
///   arrays are thread-private (dead on entry per point).
/// - With stack placement, the innermost loop never joins the collapse
///   when automatic arrays are present: procedure-scope automatics
///   cannot be instantiated per *point* thread — the §VI-C blocker the
///   Listing 8 slab refactor exists to remove.
pub fn enumerate_variants(
    nest: &LoopNest,
    a: &LoopAnalysis,
    work: &NestWork,
) -> Vec<ScheduleVariant> {
    let prefix = a.collapsible;
    let n = nest.vars.len();
    if prefix == 0 {
        return Vec::new();
    }
    let suffix: Vec<usize> = (prefix..n).collect();
    let storages: &[Storage] = if work.automatic_bytes > 0 {
        &Storage::ALL
    } else {
        &[Storage::Stack]
    };
    let fission = licensed_fission_points(nest, a);
    let mut out = Vec::new();
    for perm in permutations(prefix) {
        let mut order = perm.clone();
        order.extend(suffix.iter().copied());
        for collapse in 1..=prefix {
            for &storage in storages {
                if storage == Storage::Stack && work.automatic_bytes > 0 && collapse == n {
                    continue;
                }
                for f in std::iter::once(None).chain(fission.iter().map(|&s| Some(s))) {
                    out.push(ScheduleVariant {
                        order: order.clone(),
                        collapse,
                        fission_at: f,
                        storage,
                    });
                }
            }
        }
    }
    out
}

/// Prices one variant on the target; `None` when unschedulable there
/// (stack limit exceeded, or the launch model rejects the geometry).
pub fn price_variant(
    nest: &LoopNest,
    v: &ScheduleVariant,
    work: &NestWork,
    target: &TuneTarget,
) -> Option<PricedVariant> {
    let dev = target.backend.device_params();
    let trips: Vec<u64> = v
        .order
        .iter()
        .map(|&i| nest.vars[i].trips() as u64)
        .collect();
    let launch_iters: u64 = trips[..v.collapse].iter().product();
    let serial: u64 = trips[v.collapse..].iter().product::<u64>().max(1);
    let total = (launch_iters * serial) as f64;
    let thin = serial == 1;

    let stack_bytes = if v.storage.is_slab() {
        work.slab_bytes
    } else {
        work.automatic_bytes
    };
    let base_regs = if thin {
        work.regs_point
    } else {
        work.regs_serial
    };
    // Fission shrinks each kernel's live ranges; model as a 3/4 cut.
    let regs = if v.fission_at.is_some() {
        (base_regs * 3 / 4).max(48)
    } else {
        base_regs
    };
    // The point-major slab strides the collapsed thread index across
    // bins (scattered lanes, the Table VI penalty).
    let (r_rate, w_rate) = target.rates.for_storage(v.storage);
    let warp_eff = if v.collapse == nest.vars.len() {
        work.warp_eff_full
    } else {
        work.warp_eff_outer
    };

    // One kernel, or two when fissioned (work split by statement count,
    // plus a streamed per-point intermediate each side of the cut).
    let nstmt = nest.body.len().max(1) as f64;
    let segments: Vec<(f64, f64)> = match v.fission_at {
        None => vec![(1.0, 0.0)],
        Some(s) => {
            let frac = s as f64 / nstmt;
            vec![(frac, 1.0), (1.0 - frac, 1.0)]
        }
    };
    let mut secs = 0.0;
    let mut worst: Option<(f64, Bound, f64)> = None;
    let mut spec0 = None;
    for (k, (frac, spill)) in segments.iter().enumerate() {
        let mem_ops = work.mem_ops_per_point * total * frac + spill * total;
        let spec = KernelSpec {
            name: format!("{}_k{k}", nest.id),
            block_threads: BLOCK_THREADS,
            regs_per_thread: regs,
            smem_per_block: 0,
            stack_bytes_per_thread: stack_bytes,
            collapse: v.collapse as u32,
        };
        let kw = KernelWork {
            iters: launch_iters,
            flops_f32: work.flops_per_point * total * frac,
            flops_f64: 0.0,
            mem_ops,
            dram_read_bytes: work.mem_ops_per_point * total * frac * r_rate + spill * total * 4.0,
            dram_write_bytes: work.mem_ops_per_point * total * frac * w_rate + spill * total * 4.0,
            warp_efficiency: warp_eff,
        };
        spec.check_stack(target.stack_limit).ok()?;
        let stats = launch_modeled_with(&dev, &spec, &kw, &target.backend.calib).ok()?;
        secs += stats.time_secs;
        if worst.is_none_or(|(t, _, _)| stats.time_secs > t) {
            worst = Some((stats.time_secs, stats.bound, stats.occupancy.achieved));
        }
        if spec0.is_none() {
            spec0 = Some(spec);
        }
    }
    let (_, bound, occupancy) = worst?;
    Some(PricedVariant {
        label: v.label(nest),
        variant: v.clone(),
        spec: spec0?,
        secs,
        bound,
        occupancy,
        index: 0,
    })
}

/// Searches the full licensed schedule space of `nest` on `target` and
/// returns the ranked table, fastest first. Deterministic: enumeration
/// order breaks ties. Fails like [`crate::rewrite_offload`] when the
/// analysis licenses no parallel schedule at all.
pub fn tune(
    nest: &LoopNest,
    work: &NestWork,
    target: &TuneTarget,
) -> Result<TuneReport, RewriteBlocked> {
    let a = analyze(nest);
    let variants = enumerate_variants(nest, &a, work);
    if variants.is_empty() {
        return Err(RewriteBlocked {
            nest_id: nest.id.clone(),
            reasons: a
                .dependences
                .iter()
                .map(|d| {
                    format!(
                        "{:?} dependence on `{}` carried by `{}`",
                        d.kind, d.array, d.var
                    )
                })
                .collect(),
        });
    }
    let mut ranked: Vec<PricedVariant> = Vec::new();
    let mut unschedulable = 0;
    for (i, v) in variants.iter().enumerate() {
        match price_variant(nest, v, work, target) {
            Some(mut p) => {
                p.index = i;
                ranked.push(p);
            }
            None => unschedulable += 1,
        }
    }
    ranked.sort_by(|x, y| x.secs.total_cmp(&y.secs).then(x.index.cmp(&y.index)));
    Ok(TuneReport {
        ranked,
        unschedulable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{
        coal_fission_loop, condensation_sweep_loop, grid_loop_baseline, kernals_ks_nest,
        sedimentation_loop,
    };
    use gpu_sim::machine::{backend_by_name, default_backend, ZOO};
    use proptest::prelude::*;

    /// Nominal collision-loop work (the gate re-checks with measured
    /// coefficients; orderings are insensitive across this range).
    fn coal_work() -> NestWork {
        NestWork {
            automatic_bytes: Storage::Stack.stack_bytes_per_thread(),
            slab_bytes: Storage::SlabPointMajor.stack_bytes_per_thread(),
            warp_eff_full: 0.6,
            warp_eff_outer: 0.9,
            ..NestWork::uniform(2.0e4, 1.5e3)
        }
    }

    /// Equal rates for every lane behaviour (a CPU-class backend).
    fn flat_rates(read: f64, write: f64) -> TrafficRates {
        TrafficRates {
            coalesced_read: read,
            coalesced_write: write,
            scattered_read: read,
            scattered_write: write,
        }
    }

    /// Analytic stand-in for the measured rates: a 128-byte line serves
    /// a couple of coalesced operands' misses, while scattered lanes
    /// waste most of each line.
    fn analytic_rates() -> TrafficRates {
        TrafficRates {
            coalesced_read: 2.0,
            coalesced_write: 1.0,
            scattered_read: 12.0,
            scattered_write: 6.0,
        }
    }

    fn a100_target() -> TuneTarget<'static> {
        TuneTarget::new(default_backend(), analytic_rates())
    }

    #[test]
    fn blocked_nest_is_refused() {
        let err = tune(&grid_loop_baseline(), &coal_work(), &a100_target()).unwrap_err();
        assert!(!err.reasons.is_empty());
    }

    /// The paper's hand-derived schedules fall out of the search: the
    /// stack family peaks at the fat collapse(2) kernel (§VI-B, v2) and
    /// the point-major slab family at thin collapse(3) (§VI-C, v3).
    #[test]
    fn coal_search_recovers_v2_and_v3() {
        let rep = tune(&coal_fission_loop(), &coal_work(), &a100_target()).unwrap();
        let v2 = rep
            .family_winner(Storage::Stack)
            .expect("stack schedulable");
        assert_eq!(v2.variant.collapse, 2, "{}", v2.label);
        assert_eq!(v2.spec.regs_per_thread, 168);
        assert_eq!(v2.spec.stack_bytes_per_thread, 20 * 1024);
        let v3 = rep.family_winner(Storage::SlabPointMajor).expect("slab");
        assert_eq!(v3.variant.collapse, 3, "{}", v3.label);
        assert_eq!(v3.spec.regs_per_thread, 80);
        assert_eq!(v3.spec.stack_bytes_per_thread, 640);
        assert!(v3.secs < v2.secs, "v3 {} !< v2 {}", v3.secs, v2.secs);
        // The overall winner is a slab schedule at full collapse — the
        // transposed refinement the authors never tried is allowed to
        // beat v3, never to lose to v2.
        let w = rep.winner();
        assert!(w.variant.storage.is_slab(), "{}", w.label);
        assert_eq!(w.variant.collapse, 3);
    }

    /// Stack placement never brings the innermost loop into the
    /// collapse while automatic arrays are present (§VI-C licensing).
    #[test]
    fn stack_family_never_fully_collapses_with_automatics() {
        let nest = coal_fission_loop();
        let a = crate::depend::analyze(&nest);
        for v in enumerate_variants(&nest, &a, &coal_work()) {
            if v.storage == Storage::Stack {
                assert!(v.collapse < nest.vars.len(), "{v:?}");
            }
        }
    }

    /// The 2-deep kernals nest has no automatic arrays: only stack
    /// variants exist and full collapse(2) wins.
    #[test]
    fn kernals_search_prefers_full_collapse() {
        let work = NestWork::uniform(5.0e3, 4.0e2);
        let rep = tune(&kernals_ks_nest(), &work, &a100_target()).unwrap();
        assert!(rep
            .ranked
            .iter()
            .all(|p| p.variant.storage == Storage::Stack));
        assert_eq!(rep.winner().variant.collapse, 2);
    }

    /// CPU-class backends drop the warp-scatter penalty: with flat
    /// rates, the point-major and bin-major slab layouts price equal
    /// and keep enumeration order; on the A100 the transposition wins.
    #[test]
    fn cpu_backends_do_not_price_the_scatter_penalty() {
        let grace = backend_by_name("grace-cpu").unwrap();
        let rep = tune(
            &coal_fission_loop(),
            &coal_work(),
            &TuneTarget::new(grace, flat_rates(2.0, 1.0)),
        )
        .unwrap();
        let id = rep.family_winner(Storage::SlabPointMajor).unwrap();
        let tr = rep.family_winner(Storage::SlabBinMajor).unwrap();
        assert!(
            (id.secs - tr.secs).abs() < 1e-15,
            "{} vs {}",
            id.secs,
            tr.secs
        );
        let gpu = tune(&coal_fission_loop(), &coal_work(), &a100_target()).unwrap();
        let id = gpu.family_winner(Storage::SlabPointMajor).unwrap();
        let tr = gpu.family_winner(Storage::SlabBinMajor).unwrap();
        assert!(tr.secs < id.secs);
    }

    /// §VIII's two loops price on a CPU-class backend: the condensation
    /// sweep has schedules at every collapse depth, and no sedimentation
    /// schedule ever brings the level loop into the thread space.
    #[test]
    fn section_viii_nests_rank_on_a_cpu_backend() {
        let grace = backend_by_name("grace-cpu").unwrap();
        let target = TuneTarget::new(grace, flat_rates(2.0, 1.0));
        // Twelve condensation substeps over seven 33-bin classes.
        let cond = tune(
            &condensation_sweep_loop(),
            &NestWork::uniform(3.0e4, 6.0e3),
            &target,
        )
        .unwrap();
        assert!(!cond.ranked.is_empty());
        assert!(cond.ranked.iter().any(|p| p.variant.collapse == 3));

        let sed = sedimentation_loop();
        let rep = tune(&sed, &NestWork::uniform(3.0e3, 1.0e3), &target).unwrap();
        assert!(!rep.ranked.is_empty());
        for p in &rep.ranked {
            assert!(p.variant.collapse <= 2, "{}", p.label);
            assert_eq!(sed.vars[p.variant.order[2]].name, "k", "{}", p.label);
        }
    }

    #[test]
    fn stack_limit_gates_stack_schedules() {
        let mut target = a100_target();
        target.stack_limit = 1024; // the CUDA default that overflowed
        let rep = tune(&coal_fission_loop(), &coal_work(), &target).unwrap();
        assert!(rep.family_winner(Storage::Stack).is_none());
        assert!(rep.unschedulable > 0);
        assert!(rep.winner().variant.storage.is_slab());
    }

    #[test]
    fn fission_points_respect_scalar_liveness() {
        use crate::ir::{Affine, ArrayRef, LoopVar};
        // s=1 would split the private scalar's def from its use.
        let nest = LoopNest {
            id: "f.f90:1".into(),
            vars: vec![LoopVar::new("i", 1, 64)],
            body: vec![
                Stmt::ScalarWrite {
                    name: "t".into(),
                    reads: vec![],
                },
                Stmt::ScalarRead("t".into()),
                Stmt::Access(ArrayRef::write("a", vec![Affine::var("i")])),
            ],
        };
        let a = crate::depend::analyze(&nest);
        let pts = licensed_fission_points(&nest, &a);
        assert!(!pts.contains(&1), "{pts:?}");
        assert!(pts.contains(&2), "{pts:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Searches are deterministic: two runs return identical tables.
        #[test]
        fn search_is_deterministic(
            flops in 1.0e2f64..1.0e6,
            mem in 1.0e1f64..1.0e4,
            backend_ix in 0usize..ZOO.len(),
        ) {
            let work = NestWork { automatic_bytes: 20 * 1024, slab_bytes: 640, ..NestWork::uniform(flops, mem) };
            let target = TuneTarget::new(&ZOO[backend_ix], analytic_rates());
            let a = tune(&coal_fission_loop(), &work, &target).unwrap();
            let b = tune(&coal_fission_loop(), &work, &target).unwrap();
            prop_assert_eq!(a, b);
        }

        /// Every enumerated variant is licensed by the analysis: only
        /// parallelizable loops are permuted or collapsed, and no loop
        /// carrying a dependence ever enters the thread space.
        #[test]
        fn variants_are_licensed(seed in 0u8..2) {
            let nest = if seed == 0 { coal_fission_loop() } else { kernals_ks_nest() };
            let a = crate::depend::analyze(&nest);
            let work = coal_work();
            for v in enumerate_variants(&nest, &a, &work) {
                // The order is a permutation of all loops...
                let mut sorted = v.order.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&sorted, &(0..nest.vars.len()).collect::<Vec<_>>());
                // ...that leaves the sequential suffix in place...
                prop_assert_eq!(&v.order[a.collapsible..], &sorted[a.collapsible..]);
                // ...and every collapsed loop is parallelizable.
                prop_assert!(v.collapse <= a.collapsible);
                for &ix in &v.order[..v.collapse] {
                    let name = &nest.vars[ix].name;
                    prop_assert!(a.parallelizable_vars.contains(name), "{} not parallel", name);
                }
            }
        }

        /// With no storage pressure and flat traffic, pricing is
        /// monotone non-increasing in collapse depth whenever achieved
        /// occupancy is monotone non-decreasing (more parallelism never
        /// hurts when the memory system cannot punish it).
        #[test]
        fn pricing_monotone_in_collapse_where_occupancy_grows(
            flops in 1.0e2f64..1.0e5,
            mem in 1.0e1f64..1.0e3,
        ) {
            let nest = coal_fission_loop();
            let a = crate::depend::analyze(&nest);
            let work = NestWork::uniform(flops, mem);
            let target = a100_target();
            let ident: Vec<usize> = (0..nest.vars.len()).collect();
            let mut prev: Option<PricedVariant> = None;
            for collapse in 1..=a.collapsible {
                let v = ScheduleVariant {
                    order: ident.clone(),
                    collapse,
                    fission_at: None,
                    storage: Storage::Stack,
                };
                let p = price_variant(&nest, &v, &work, &target).unwrap();
                if let Some(q) = &prev {
                    if p.occupancy >= q.occupancy - 1e-12 {
                        prop_assert!(
                            p.secs <= q.secs * (1.0 + 1e-9),
                            "collapse {} slower: {} > {}",
                            collapse, p.secs, q.secs
                        );
                    }
                }
                prev = Some(p);
            }
        }
    }
}
