//! Pairwise collision-coalescence kernels: the `cw**` tables and their
//! on-demand replacement.
//!
//! `kernals_ks` in FSBM fills 20 dense `nkr × nkr` collision-kernel
//! arrays per grid point by interpolating pre-computed tables at 750 mb
//! and 500 mb to the local pressure (Listing 3). Section VI-A of the
//! paper deletes that subroutine and the global arrays, replacing each
//! access by a `pure` function computing one entry on demand (Listing 5).
//! Both paths share the same math here, so the refactor is numerically
//! identity-preserving — exactly what the paper's `diffwrf` verification
//! relies on.

use crate::bins::{all_grids, density_factor, BinGrid};
use crate::constants::{P_500MB, P_750MB};
use crate::meter::PointWork;
use crate::thermo::air_density;
use crate::types::{HydroClass, NKR};

/// One collision interaction: classes `a` collects with `b`, producing
/// `outcome` mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionPair {
    /// First collider (by convention the collector class).
    pub a: HydroClass,
    /// Second collider.
    pub b: HydroClass,
    /// Class receiving the merged particle.
    pub outcome: HydroClass,
}

use HydroClass::*;

/// The 20 interactions whose kernels `kernals_ks` tabulates (the `cwll`,
/// `cwls`, `cwlg`, ... arrays of Listing 3/4).
pub const COLLISION_PAIRS: [CollisionPair; 20] = [
    CollisionPair {
        a: Water,
        b: Water,
        outcome: Water,
    },
    CollisionPair {
        a: Water,
        b: Snow,
        outcome: Snow,
    },
    CollisionPair {
        a: Water,
        b: Graupel,
        outcome: Graupel,
    },
    CollisionPair {
        a: Water,
        b: Hail,
        outcome: Hail,
    },
    CollisionPair {
        a: Water,
        b: IceColumns,
        outcome: Graupel,
    },
    CollisionPair {
        a: Water,
        b: IcePlates,
        outcome: Graupel,
    },
    CollisionPair {
        a: Water,
        b: IceDendrites,
        outcome: Graupel,
    },
    CollisionPair {
        a: Snow,
        b: Snow,
        outcome: Snow,
    },
    CollisionPair {
        a: Snow,
        b: Graupel,
        outcome: Graupel,
    },
    CollisionPair {
        a: Snow,
        b: Hail,
        outcome: Hail,
    },
    CollisionPair {
        a: Snow,
        b: IceColumns,
        outcome: Snow,
    },
    CollisionPair {
        a: Snow,
        b: IcePlates,
        outcome: Snow,
    },
    CollisionPair {
        a: Snow,
        b: IceDendrites,
        outcome: Snow,
    },
    CollisionPair {
        a: IceColumns,
        b: IceColumns,
        outcome: Snow,
    },
    CollisionPair {
        a: IcePlates,
        b: IcePlates,
        outcome: Snow,
    },
    CollisionPair {
        a: IceDendrites,
        b: IceDendrites,
        outcome: Snow,
    },
    CollisionPair {
        a: IceColumns,
        b: IcePlates,
        outcome: Snow,
    },
    CollisionPair {
        a: IceColumns,
        b: IceDendrites,
        outcome: Snow,
    },
    CollisionPair {
        a: IcePlates,
        b: IceDendrites,
        outcome: Snow,
    },
    CollisionPair {
        a: Graupel,
        b: Hail,
        outcome: Hail,
    },
];

/// FSBM-style table name of pair `p` (`cwls` = water×snow, ...).
pub fn pair_name(p: &CollisionPair) -> String {
    format!("cw{}{}", p.a.tag(), p.b.tag())
}

/// Collection efficiency for a pair of particles (dimensionless, 0–1).
/// A smooth size-dependent form in the spirit of the Long (1974) kernel
/// for water–water and constant plateaus for mixed-phase riming and
/// ice aggregation.
#[inline]
pub fn collection_efficiency(a: HydroClass, b: HydroClass, ra: f32, rb: f32) -> f32 {
    let r_large = ra.max(rb);
    let r_small = ra.min(rb);
    match (a.is_ice(), b.is_ice()) {
        (false, false) => {
            // Water–water: tiny droplets barely collect; efficiency
            // saturates near 1 for drizzle/rain collectors.
            let x = r_large / 50.0e-6;
            let e = (x * x).min(1.0);
            // Comparable sizes have reduced efficiency (wake capture
            // ignored).
            let ratio = (r_small / r_large.max(1e-9)).min(1.0);
            (e * (1.0 - 0.5 * ratio * ratio * ratio)).clamp(0.0, 1.0)
        }
        (true, true) => 0.2, // aggregation plateau
        _ => {
            // Riming: efficient once droplets exceed ~10 µm.
            let rw = if a.is_ice() { rb } else { ra };
            ((rw / 10.0e-6).min(1.0) * 0.8).clamp(0.0, 0.8)
        }
    }
}

/// Gravitational (hydrodynamic) collection kernel
/// `K = E · π (r_a + r_b)² · |v_a − v_b|` in m³/s, with fall speeds at
/// air density `rho_air`.
#[inline]
pub fn gravitational_kernel(ga: &BinGrid, gb: &BinGrid, i: usize, j: usize, rho_air: f32) -> f32 {
    kernel_at_factor(ga, gb, i, j, density_factor(rho_air))
}

/// [`gravitational_kernel`] with the air density given as its fall-speed
/// factor ([`density_factor`]), so a table fill at one density takes the
/// factor once.
#[inline]
fn kernel_at_factor(ga: &BinGrid, gb: &BinGrid, i: usize, j: usize, factor: f32) -> f32 {
    let ra = ga.radius[i];
    let rb = gb.radius[j];
    let va = ga.vt[i] * factor;
    let vb = gb.vt[j] * factor;
    let e = collection_efficiency(ga.class, gb.class, ra, rb);
    let sum_r = ra + rb;
    // A floor on |Δv| keeps equal-size pairs weakly interacting
    // (turbulence-induced relative motion), as FSBM's tables do.
    let dv = (va - vb).abs().max(0.01 * va.max(vb));
    e * std::f32::consts::PI * sum_r * sum_r * dv
}

/// Air densities of the two reference levels (ICAO-ish temperatures).
fn rho_750() -> f32 {
    air_density(268.0, P_750MB)
}
fn rho_500() -> f32 {
    air_density(253.0, P_500MB)
}

/// The static two-level kernel tables (`ywls_750mb`, `ywls_500mb`, ...):
/// 20 pairs × 2 pressure levels × `nkr²` entries, built once at model
/// start.
#[derive(Debug, Clone)]
pub struct KernelTables {
    /// `t750[pair][i * NKR + j]`.
    t750: Vec<Box<[f32]>>,
    /// `t500[pair][i * NKR + j]`.
    t500: Vec<Box<[f32]>>,
}

impl KernelTables {
    /// Builds the tables from the bin grids.
    pub fn new() -> Self {
        let grids = all_grids();
        let (f750, f500) = (density_factor(rho_750()), density_factor(rho_500()));
        let mut t750 = Vec::with_capacity(COLLISION_PAIRS.len());
        let mut t500 = Vec::with_capacity(COLLISION_PAIRS.len());
        for pair in &COLLISION_PAIRS {
            let ga = &grids[pair.a.index()];
            let gb = &grids[pair.b.index()];
            let mut a = vec![0.0f32; NKR * NKR].into_boxed_slice();
            let mut b = vec![0.0f32; NKR * NKR].into_boxed_slice();
            for i in 0..NKR {
                for j in 0..NKR {
                    a[i * NKR + j] = kernel_at_factor(ga, gb, i, j, f750);
                    b[i * NKR + j] = kernel_at_factor(ga, gb, i, j, f500);
                }
            }
            t750.push(a);
            t500.push(b);
        }
        KernelTables { t750, t500 }
    }

    /// The on-demand entry computation — the body of the paper's
    /// `get_cwlg(i, j, ...)` functions (Listing 5): read both reference
    /// tables and interpolate linearly to pressure `p`. Also the body of
    /// the `kernals_ks` inner statement (Listing 3); both versions share
    /// this math by construction.
    #[inline]
    pub fn entry(&self, pair: usize, i: usize, j: usize, p: f32, work: &mut PointWork) -> f32 {
        let ckern_1 = self.t750[pair][i * NKR + j];
        let ckern_2 = self.t500[pair][i * NKR + j];
        // Linear interpolation in pressure, clamped to the table range.
        let w = ((P_750MB - p) / (P_750MB - P_500MB)).clamp(0.0, 1.0);
        work.fm(4, 2);
        ckern_1 + w * (ckern_2 - ckern_1)
    }

    /// Bytes of the static tables (for data-environment accounting).
    pub fn bytes(&self) -> u64 {
        (self.t750.len() + self.t500.len()) as u64 * (NKR * NKR * 4) as u64
    }
}

impl Default for KernelTables {
    fn default() -> Self {
        Self::new()
    }
}

/// The 20 dense per-grid-point collision arrays — FSBM's *global module
/// state* (`cwll`, `cwls`, ...) that the baseline refills at every grid
/// point and that blocks parallelization of the grid loops.
#[derive(Debug, Clone)]
pub struct CollisionTables {
    /// `cw[pair][i * NKR + j]`.
    cw: Vec<Box<[f32]>>,
}

impl CollisionTables {
    /// Allocates zeroed tables.
    pub fn new() -> Self {
        CollisionTables {
            cw: (0..COLLISION_PAIRS.len())
                .map(|_| vec![0.0f32; NKR * NKR].into_boxed_slice())
                .collect(),
        }
    }

    /// Reads entry `(i, j)` of pair table `pair`.
    #[inline]
    pub fn get(&self, pair: usize, i: usize, j: usize, work: &mut PointWork) -> f32 {
        work.m(1);
        self.cw[pair][i * NKR + j]
    }

    /// Total bytes of the 20 arrays.
    pub fn bytes(&self) -> u64 {
        self.cw.len() as u64 * (NKR * NKR * 4) as u64
    }
}

impl Default for CollisionTables {
    fn default() -> Self {
        Self::new()
    }
}

/// `kernals_ks`: fills all 20 dense arrays for local pressure `p`
/// (Listing 3). The baseline calls this for **every grid point** inside
/// `coal_bott_new`; its cost and its write-to-global-state are the twin
/// problems Section VI-A removes.
pub fn kernals_ks(tables: &KernelTables, p: f32, out: &mut CollisionTables, work: &mut PointWork) {
    for pair in 0..COLLISION_PAIRS.len() {
        for j in 0..NKR {
            for i in 0..NKR {
                let v = tables.entry(pair, i, j, p, work);
                out.cw[pair][i * NKR + j] = v;
                work.m(1);
            }
        }
    }
}

/// One memoized k-level: the 20 pair tables interpolated to that level's
/// pressure.
#[derive(Debug)]
struct CacheLevel {
    /// Pressure the level was filled for, Pa.
    p: f32,
    /// `cw[pair][i * NKR + j]`, values bitwise-equal to
    /// [`KernelTables::entry`] at `p`.
    cw: Vec<Box<[f32]>>,
}

/// Per-k-level memoization of the interpolated collision kernels.
///
/// Pressure in the functional cases varies only with `k`, so the 20
/// interpolated pair tables are identical for every column at a given
/// level. [`KernelMode::Cached`] exploits that: each level's tables are
/// filled once per run (values computed by the same
/// [`KernelTables::entry`] math, so they are bitwise-identical to
/// `OnDemand`) and reads are plain loads afterwards. Accesses meter
/// `fm(4, 2)` exactly like `OnDemand` so every cross-version work-stat
/// invariant is preserved; only wall-clock changes.
#[derive(Debug)]
pub struct KernelCache {
    levels: Vec<Option<CacheLevel>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl KernelCache {
    /// An empty cache for `nz` vertical levels.
    pub fn new(nz: usize) -> Self {
        KernelCache {
            levels: (0..nz).map(|_| None).collect(),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of levels the cache covers.
    pub fn nz(&self) -> usize {
        self.levels.len()
    }

    /// Fills level `k` for pressure `p` unless already filled for
    /// exactly that pressure. The fill cost is amortized (a throwaway
    /// work meter), mirroring a one-time device-side table build; the
    /// per-access metering stays in [`KernelMode::get`].
    pub fn ensure_level(&mut self, k: usize, p: f32, tables: &KernelTables) {
        if k >= self.levels.len() {
            return;
        }
        let mut sink = PointWork::ZERO;
        match &mut self.levels[k] {
            Some(lvl) => {
                if lvl.p == p {
                    return;
                }
                // Refill the existing boxes in place: a pressure change
                // (profile refresh, perturbed rerun) must not re-allocate
                // the 20 NKR² arrays every time.
                for (pair, t) in lvl.cw.iter_mut().enumerate() {
                    for i in 0..NKR {
                        for j in 0..NKR {
                            t[i * NKR + j] = tables.entry(pair, i, j, p, &mut sink);
                        }
                    }
                }
                lvl.p = p;
            }
            slot @ None => {
                let cw = (0..COLLISION_PAIRS.len())
                    .map(|pair| {
                        let mut t = vec![0.0f32; NKR * NKR].into_boxed_slice();
                        for i in 0..NKR {
                            for j in 0..NKR {
                                t[i * NKR + j] = tables.entry(pair, i, j, p, &mut sink);
                            }
                        }
                        t
                    })
                    .collect();
                *slot = Some(CacheLevel { p, cw });
            }
        }
    }

    /// Cache hits since construction / [`KernelCache::reset_stats`].
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Cache misses (fallback to on-demand computation).
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Fraction of accesses served from the cache (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, std::sync::atomic::Ordering::Relaxed);
        self.misses.store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// Bulk-adds cache hits. Panel batches count accesses locally and
    /// flush once, replacing one atomic RMW per kernel access.
    pub fn add_hits(&self, n: u64) {
        if n > 0 {
            self.hits.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Bulk-adds cache misses (see [`KernelCache::add_hits`]).
    pub fn add_misses(&self, n: u64) {
        if n > 0 {
            self.misses
                .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Bytes held by filled levels (data-environment accounting).
    pub fn bytes(&self) -> u64 {
        self.levels
            .iter()
            .flatten()
            .map(|l| l.cw.len() as u64 * (NKR * NKR * 4) as u64)
            .sum()
    }
}

/// How a `coal_bott_new` invocation obtains kernel values: the dense
/// per-point tables (baseline), the on-demand pure function (lookup and
/// both offload versions), or the per-k-level memoized tables.
#[derive(Clone, Copy)]
pub enum KernelMode<'a> {
    /// Baseline: read the pre-filled global arrays.
    Dense(&'a CollisionTables),
    /// Lookup refactor: compute entries on demand at pressure `p`.
    OnDemand {
        /// The static two-level tables.
        tables: &'a KernelTables,
        /// Local pressure, Pa.
        p: f32,
    },
    /// Per-k-level memoized tables; falls back to on-demand when the
    /// level is absent or was filled for a different pressure.
    Cached {
        /// The shared per-level cache (pre-filled via
        /// [`KernelCache::ensure_level`]).
        cache: &'a KernelCache,
        /// The static two-level tables (fallback path).
        tables: &'a KernelTables,
        /// Vertical level of the access.
        level: usize,
        /// Local pressure, Pa.
        p: f32,
    },
}

impl<'a> KernelMode<'a> {
    /// Kernel value for `pair` at bins `(i, j)`, m³/s, metered and
    /// counted one access at a time: the reference that [`Self::peek`],
    /// [`Self::peek_row`] and [`Self::access_cost`] — what the panel
    /// kernels resolve through — are tested against.
    #[inline]
    pub fn get(&self, pair: usize, i: usize, j: usize, work: &mut PointWork) -> f32 {
        match self {
            KernelMode::Dense(t) => t.get(pair, i, j, work),
            KernelMode::OnDemand { tables, p } => tables.entry(pair, i, j, *p, work),
            KernelMode::Cached {
                cache,
                tables,
                level,
                p,
            } => {
                if let Some(Some(lvl)) = cache.levels.get(*level) {
                    if lvl.p == *p {
                        cache
                            .hits
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        // Meter exactly like `OnDemand` so work statistics
                        // stay bitwise-identical across kernel modes.
                        work.fm(4, 2);
                        return lvl.cw[pair][i * NKR + j];
                    }
                }
                cache
                    .misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                tables.entry(pair, i, j, *p, work)
            }
        }
    }

    /// Resolves the kernel value for `(pair, i, j)` without metering or
    /// hit/miss accounting — the SoA panel path resolves once per `(i, j)`
    /// for a pressure-uniform batch and applies [`Self::access_cost`] and
    /// [`KernelCache::add_hits`]/[`KernelCache::add_misses`] in bulk.
    /// Returns the value and whether a cached level served it.
    #[inline]
    pub fn peek(&self, pair: usize, i: usize, j: usize) -> (f32, bool) {
        match self {
            KernelMode::Dense(t) => (t.cw[pair][i * NKR + j], false),
            KernelMode::OnDemand { tables, p } => {
                let mut sink = PointWork::ZERO;
                (tables.entry(pair, i, j, *p, &mut sink), false)
            }
            KernelMode::Cached {
                cache,
                tables,
                level,
                p,
            } => {
                if let Some(Some(lvl)) = cache.levels.get(*level) {
                    if lvl.p == *p {
                        return (lvl.cw[pair][i * NKR + j], true);
                    }
                }
                let mut sink = PointWork::ZERO;
                (tables.entry(pair, i, j, *p, &mut sink), false)
            }
        }
    }

    /// Borrows the contiguous kernel row for `(pair, i)` when a resident
    /// table can serve it directly, plus whether the accesses count as
    /// cache hits (the hit test is j-independent, so the flag is uniform
    /// across the row). `None` means the caller must fall back to
    /// per-entry [`Self::peek`] (on-demand mode, or a cold/mismatched
    /// cache level).
    #[inline]
    pub fn peek_row(&self, pair: usize, i: usize) -> Option<(&'a [f32], bool)> {
        match self {
            KernelMode::Dense(t) => Some((&t.cw[pair][i * NKR..(i + 1) * NKR], false)),
            KernelMode::OnDemand { .. } => None,
            KernelMode::Cached {
                cache, level, p, ..
            } => match cache.levels.get(*level) {
                Some(Some(lvl)) if lvl.p == *p => {
                    Some((&lvl.cw[pair][i * NKR..(i + 1) * NKR], true))
                }
                _ => None,
            },
        }
    }

    /// The `(flops, mem_ops)` that [`Self::get`] meters per access in this
    /// mode: one load for the dense tables, the interpolation cost for the
    /// on-demand and cached paths (hit or miss meter identically).
    #[inline]
    pub fn access_cost(&self) -> (u64, u64) {
        match self {
            KernelMode::Dense(_) => (0, 1),
            _ => (4, 2),
        }
    }

    /// Flushes bulk-counted cached-kernel hits/misses; a no-op for the
    /// uncounted dense and on-demand modes.
    pub fn add_cached_counts(&self, hits: u64, misses: u64) {
        if let KernelMode::Cached { cache, .. } = self {
            cache.add_hits(hits);
            cache.add_misses(misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_pairs_with_unique_names() {
        assert_eq!(COLLISION_PAIRS.len(), 20);
        let mut names: Vec<String> = COLLISION_PAIRS.iter().map(pair_name).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.contains(&"cwls".to_string()));
        assert!(names.contains(&"cwlg".to_string()));
    }

    #[test]
    fn outcomes_conserve_phase_sense() {
        for p in &COLLISION_PAIRS {
            // Ice–ice collisions never produce liquid.
            if p.a.is_ice() && p.b.is_ice() {
                assert!(p.outcome.is_ice(), "{:?}", p);
            }
        }
    }

    #[test]
    fn efficiency_bounds() {
        let g = all_grids();
        for p in &COLLISION_PAIRS {
            for i in (0..NKR).step_by(4) {
                for j in (0..NKR).step_by(4) {
                    let e = collection_efficiency(
                        p.a,
                        p.b,
                        g[p.a.index()].radius[i],
                        g[p.b.index()].radius[j],
                    );
                    assert!((0.0..=1.0).contains(&e), "{e} for {:?}", p);
                }
            }
        }
    }

    #[test]
    fn tiny_droplets_barely_collect() {
        let e_small = collection_efficiency(Water, Water, 3.0e-6, 2.0e-6);
        let e_rain = collection_efficiency(Water, Water, 500.0e-6, 20.0e-6);
        assert!(e_small < 0.01);
        assert!(e_rain > 0.9);
    }

    #[test]
    fn kernel_grows_with_size_contrast() {
        let g = all_grids();
        let gw = &g[Water.index()];
        let k_close = gravitational_kernel(gw, gw, 20, 20, 1.0);
        let k_far = gravitational_kernel(gw, gw, 28, 10, 1.0);
        assert!(k_far > k_close);
        assert!(k_far > 0.0);
    }

    #[test]
    fn tables_interpolate_between_levels() {
        let t = KernelTables::new();
        let mut w = PointWork::ZERO;
        let at750 = t.entry(0, 25, 10, P_750MB, &mut w);
        let at500 = t.entry(0, 25, 10, P_500MB, &mut w);
        let mid = t.entry(0, 25, 10, 0.5 * (P_750MB + P_500MB), &mut w);
        assert!((mid - 0.5 * (at750 + at500)).abs() / mid.max(1e-30) < 1e-4);
        // Thinner air → faster fall speeds → larger kernels.
        assert!(at500 > at750);
        // Clamped outside the range.
        assert_eq!(t.entry(0, 25, 10, 101_325.0, &mut w), at750);
        assert_eq!(t.entry(0, 25, 10, 30_000.0, &mut w), at500);
    }

    #[test]
    fn entry_meters_work() {
        let t = KernelTables::new();
        let mut w = PointWork::ZERO;
        t.entry(3, 5, 7, 60_000.0, &mut w);
        assert_eq!(w.flops, 4);
        assert_eq!(w.mem_ops, 2);
    }

    #[test]
    fn kernals_ks_fills_everything_and_meters() {
        let t = KernelTables::new();
        let mut dense = CollisionTables::new();
        let mut w = PointWork::ZERO;
        kernals_ks(&t, 60_000.0, &mut dense, &mut w);
        // 20 pairs × 33² entries.
        let entries = 20 * NKR as u64 * NKR as u64;
        assert_eq!(w.flops, 4 * entries);
        assert_eq!(w.mem_ops, 3 * entries);
        // Every entry equals the on-demand value: the refactor is exact.
        let mut w2 = PointWork::ZERO;
        for pair in [0usize, 7, 19] {
            for i in (0..NKR).step_by(3) {
                for j in (0..NKR).step_by(5) {
                    assert_eq!(
                        dense.get(pair, i, j, &mut w2),
                        t.entry(pair, i, j, 60_000.0, &mut w2)
                    );
                }
            }
        }
    }

    #[test]
    fn dense_and_ondemand_modes_agree() {
        let t = KernelTables::new();
        let mut dense = CollisionTables::new();
        let mut w = PointWork::ZERO;
        let p = 55_000.0;
        kernals_ks(&t, p, &mut dense, &mut w);
        let dm = KernelMode::Dense(&dense);
        let om = KernelMode::OnDemand { tables: &t, p };
        for pair in 0..20 {
            for i in (0..NKR).step_by(7) {
                for j in (0..NKR).step_by(7) {
                    assert_eq!(dm.get(pair, i, j, &mut w), om.get(pair, i, j, &mut w));
                }
            }
        }
    }

    #[test]
    fn cached_mode_is_bitwise_identical_to_ondemand() {
        let t = KernelTables::new();
        let mut cache = KernelCache::new(3);
        let pressures = [70_000.0f32, 55_000.0, 42_000.0];
        for (k, &p) in pressures.iter().enumerate() {
            cache.ensure_level(k, p, &t);
        }
        for (k, &p) in pressures.iter().enumerate() {
            let cm = KernelMode::Cached {
                cache: &cache,
                tables: &t,
                level: k,
                p,
            };
            let om = KernelMode::OnDemand { tables: &t, p };
            for pair in 0..20 {
                for i in 0..NKR {
                    for j in 0..NKR {
                        let mut wc = PointWork::ZERO;
                        let mut wo = PointWork::ZERO;
                        let vc = cm.get(pair, i, j, &mut wc);
                        let vo = om.get(pair, i, j, &mut wo);
                        assert_eq!(vc.to_bits(), vo.to_bits());
                        // Work metering must match exactly too.
                        assert_eq!((wc.flops, wc.mem_ops), (wo.flops, wo.mem_ops));
                    }
                }
            }
        }
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hits(), 3 * 20 * (NKR * NKR) as u64);
        assert_eq!(cache.hit_rate(), 1.0);
    }

    #[test]
    fn cache_falls_back_on_pressure_mismatch_and_unfilled_level() {
        let t = KernelTables::new();
        let mut cache = KernelCache::new(2);
        cache.ensure_level(0, 60_000.0, &t);
        let mut w = PointWork::ZERO;
        // Filled level, different pressure: value still correct.
        let cm = KernelMode::Cached {
            cache: &cache,
            tables: &t,
            level: 0,
            p: 50_000.0,
        };
        assert_eq!(cm.get(4, 8, 8, &mut w), t.entry(4, 8, 8, 50_000.0, &mut w));
        // Unfilled level.
        let cm1 = KernelMode::Cached {
            cache: &cache,
            tables: &t,
            level: 1,
            p: 60_000.0,
        };
        assert_eq!(cm1.get(4, 8, 8, &mut w), t.entry(4, 8, 8, 60_000.0, &mut w));
        // Out-of-range level.
        let cm9 = KernelMode::Cached {
            cache: &cache,
            tables: &t,
            level: 9,
            p: 60_000.0,
        };
        assert_eq!(cm9.get(4, 8, 8, &mut w), t.entry(4, 8, 8, 60_000.0, &mut w));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        cache.reset_stats();
        assert_eq!(cache.misses(), 0);
        // Refill for the new pressure, then it hits.
        cache.ensure_level(0, 50_000.0, &t);
        let cm = KernelMode::Cached {
            cache: &cache,
            tables: &t,
            level: 0,
            p: 50_000.0,
        };
        cm.get(4, 8, 8, &mut w);
        assert_eq!(cache.hits(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn ensure_level_is_idempotent() {
        let t = KernelTables::new();
        let mut cache = KernelCache::new(1);
        cache.ensure_level(0, 60_000.0, &t);
        let before = cache.bytes();
        cache.ensure_level(0, 60_000.0, &t);
        assert_eq!(cache.bytes(), before);
    }

    #[test]
    fn ensure_level_refills_in_place_on_pressure_change() {
        let t = KernelTables::new();
        let mut cache = KernelCache::new(1);
        cache.ensure_level(0, 60_000.0, &t);
        let before: Vec<*const f32> = cache.levels[0]
            .as_ref()
            .unwrap()
            .cw
            .iter()
            .map(|b| b.as_ptr())
            .collect();
        cache.ensure_level(0, 50_000.0, &t);
        let lvl = cache.levels[0].as_ref().unwrap();
        assert_eq!(lvl.p, 50_000.0);
        let after: Vec<*const f32> = lvl.cw.iter().map(|b| b.as_ptr()).collect();
        // Same boxes, new values: the refill reuses the allocations.
        assert_eq!(before, after);
        let mut w = PointWork::ZERO;
        assert_eq!(
            lvl.cw[4][8 * NKR + 8].to_bits(),
            t.entry(4, 8, 8, 50_000.0, &mut w).to_bits()
        );
    }

    #[test]
    fn peek_matches_get_values_and_costs() {
        let t = KernelTables::new();
        let p = 55_000.0;
        let mut dense = CollisionTables::new();
        let mut w = PointWork::ZERO;
        kernals_ks(&t, p, &mut dense, &mut w);
        let mut cache = KernelCache::new(1);
        cache.ensure_level(0, p, &t);
        let modes = [
            KernelMode::Dense(&dense),
            KernelMode::OnDemand { tables: &t, p },
            KernelMode::Cached {
                cache: &cache,
                tables: &t,
                level: 0,
                p,
            },
        ];
        for m in modes {
            for pair in [0usize, 7, 19] {
                for (i, j) in [(0, 0), (8, 21), (NKR - 1, NKR - 1)] {
                    let mut wg = PointWork::ZERO;
                    let v = m.get(pair, i, j, &mut wg);
                    let (pv, _) = m.peek(pair, i, j);
                    assert_eq!(v.to_bits(), pv.to_bits());
                    let (f, mm) = m.access_cost();
                    assert_eq!((wg.flops, wg.mem_ops), (f, mm));
                }
            }
        }
        // A mismatched cached level peeks the fallback value with hit=false.
        let stale = KernelMode::Cached {
            cache: &cache,
            tables: &t,
            level: 0,
            p: 48_000.0,
        };
        let (v, hit) = stale.peek(2, 5, 9);
        assert!(!hit);
        assert_eq!(v.to_bits(), t.entry(2, 5, 9, 48_000.0, &mut w).to_bits());
        // Bulk counter flush reaches the cache only in cached mode.
        cache.reset_stats();
        KernelMode::OnDemand { tables: &t, p }.add_cached_counts(5, 5);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        KernelMode::Cached {
            cache: &cache,
            tables: &t,
            level: 0,
            p,
        }
        .add_cached_counts(7, 2);
        assert_eq!((cache.hits(), cache.misses()), (7, 2));
    }

    #[test]
    fn table_bytes_match_paper_scale() {
        let t = KernelTables::new();
        // 40 tables × 33² × 4 B ≈ 174 KB.
        assert_eq!(t.bytes(), 40 * 33 * 33 * 4);
        let d = CollisionTables::new();
        assert_eq!(d.bytes(), 20 * 33 * 33 * 4);
    }
}
