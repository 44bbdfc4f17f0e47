//! SoA lane panels: the one body of collision, condensation and
//! sedimentation.
//!
//! A panel gathers up to [`LANES`] grid points into structure-of-arrays
//! storage — bin-major, lane-fastest (`n[class][bin][lane]`) — and runs
//! each process's inner loops once per batch with per-lane masks. Dense
//! lane batches keep the 33-bin working set in cache, hoist per-(i,j)
//! invariants (kernel values, mass-deposition stencils) out of the point
//! loop, and replace per-entry atomic cache metering with one bulk flush
//! per batch. The scheme's reference layout runs the same kernels one
//! point per batch ([`one_lane`] is that batch for a single point).
//!
//! Per-lane contract: a lane's bits, its [`crate::meter::PointWork`] and
//! its [`Floored`] tally are the ones it gets when batched alone, whoever
//! shares its batch. Each lane runs its own operation sequence in its own
//! order with its own associativity, and no speculative masked arithmetic
//! touches it (a masked `+= 0.0` is not a no-op for `-0.0`, so a lane
//! outside a mask is skipped by branch or keeps its bits by select, never
//! by multiply-by-zero); the meter counts each lane's operations even
//! where a value was computed once and shared by the batch. So any
//! grouping of points gives the same state and the same modeled work, and
//! the committed golden digests hold at every batch width.

use crate::bins::BinGrid;
use crate::constants::{CP, L_F, T_0, T_MIN_COAL};
use crate::kernels::{KernelMode, COLLISION_PAIRS};
use crate::meter::PointWork;
use crate::point::{all_zero, BinsView, Floored, Grids, PointThermo, N_EPS, N_FLOOR, Q_EPS};
use crate::processes::collision::{MAX_DEPLETION, NCOLL};
use crate::processes::condensation::{self, NCOND};
use crate::thermo::{growth_coefficient, latent_heating, qsat_ice, qsat_liquid, supersat_liquid};
use crate::types::{HydroClass, NKR, NTYPES};

/// Points per panel. The whole panel (7×33 bins × 8 lanes ≈ 7.4 KB) stays
/// inside L1. The width is not a register width — the default x86-64
/// build issues two 128-bit ops per lane vector — and the cell sweep's
/// cost follows the lane slots it sweeps ([`LaneFill`]), so a width is
/// only as good as its batches are full: with row-order batches 4 beat 8
/// and 8 beat 16, with coherent ones 8 beats 4 (EXPERIMENTS, "Coherent
/// lanes, measured").
pub const LANES: usize = 8;

/// How full a panel kernel's lane vectors ran: the host twin of the
/// device launch's warp efficiency. Both counts are integers, so no
/// schedule can move them.
///
/// For the collision cell sweep ([`panel_coal`]) a slot is one lane of
/// one swept `(pair, i, j)` cell; for condensation
/// ([`panel_condensation`]) it is one lane of one relax call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneFill {
    /// Lane slots swept: [`LANES`] per `(pair, i, j)` cell of every swept
    /// row window (the union of the batch's windows), or per relax call —
    /// dead and ragged lanes included, because the vector loop runs them.
    pub slots: u64,
    /// Of those, the slots that did their own lane's work: inside the
    /// lane's `(i, j)` window (the cells that point visits batched
    /// alone), or inside the relax call's lane mask (the relaxes its
    /// branch runs). A single point sweeps [`LANES`] slots a cell.
    pub cells: u64,
}

impl std::ops::AddAssign for LaneFill {
    fn add_assign(&mut self, rhs: LaneFill) {
        self.slots += rhs.slots;
        self.cells += rhs.cells;
    }
}

/// The relaxes of one condensation substep in Listing 1's order
/// (`onecond1/2/3`), each with whether it relaxes toward ice saturation:
/// water, then the six ice classes.
const RELAX_ORDER: [(HydroClass, bool); 7] = [
    (HydroClass::Water, false),
    (HydroClass::IceColumns, true),
    (HydroClass::IcePlates, true),
    (HydroClass::IceDendrites, true),
    (HydroClass::Snow, true),
    (HydroClass::Graupel, true),
    (HydroClass::Hail, true),
];

/// A batch of up to [`LANES`] grid points in SoA layout.
///
/// Bin number densities are stored bin-major and lane-fastest
/// (`n[class][bin][lane]`) so the per-(class, bin) inner loops of the
/// collision and condensation kernels touch contiguous lanes. Thermo state
/// is one f32 per lane. Lanes `>= len` hold stale data and are never
/// observed: the collision cell sweep and the class scrub do load all
/// [`LANES`] slots so their loops vectorise, but under select masks that
/// store a dead lane's own bits back and count nothing for it; every
/// other panel op iterates `0..len`. Ragged last batches are handled by
/// the mask, not by zero padding.
pub struct SoaPanel {
    /// Bin number densities, `n[class][bin][lane]`.
    pub n: [[[f32; LANES]; NKR]; NTYPES],
    /// Temperature per lane (K).
    pub t: [f32; LANES],
    /// Vapor mixing ratio per lane (kg/kg).
    pub qv: [f32; LANES],
    /// Air density per lane (kg/m³).
    pub rho: [f32; LANES],
    /// Pressure per lane (Pa). Collision batches require uniform pressure
    /// bits across lanes (the kernel value is resolved once per (i, j));
    /// condensation batches may mix pressures.
    pub p: [f32; LANES],
    /// Number of live lanes (`<= LANES`).
    pub len: usize,
}

impl Default for SoaPanel {
    fn default() -> Self {
        Self::new()
    }
}

impl SoaPanel {
    /// An empty, zeroed panel.
    pub fn new() -> Self {
        SoaPanel {
            n: [[[0.0; LANES]; NKR]; NTYPES],
            t: [0.0; LANES],
            qv: [0.0; LANES],
            rho: [0.0; LANES],
            p: [0.0; LANES],
            len: 0,
        }
    }

    /// Gathers one point into the next lane and returns its lane index.
    /// `read(class, bin)` supplies the point's bin number densities.
    pub fn push_with(
        &mut self,
        t: f32,
        qv: f32,
        p: f32,
        rho: f32,
        mut read: impl FnMut(usize, usize) -> f32,
    ) -> usize {
        let l = self.len;
        assert!(l < LANES, "panel overflow");
        for c in 0..NTYPES {
            for k in 0..NKR {
                self.n[c][k][l] = read(c, k);
            }
        }
        self.t[l] = t;
        self.qv[l] = qv;
        self.p[l] = p;
        self.rho[l] = rho;
        self.len = l + 1;
        l
    }

    /// Scatters one lane's bins back out through `write(class, bin, value)`.
    pub fn scatter_with(&self, lane: usize, mut write: impl FnMut(usize, usize, f32)) {
        debug_assert!(lane < self.len);
        for c in 0..NTYPES {
            for k in 0..NKR {
                write(c, k, self.n[c][k][lane]);
            }
        }
    }

    /// The `(lo, hi)` inclusive range of one lane's bins of `class` with
    /// number density above [`N_EPS`], or `None` when there is none — the
    /// sparsity the lookup optimization exploits ("not every entry of an
    /// array is used"). Metered as one pass over the class.
    fn active_range_lane(
        &self,
        class: HydroClass,
        lane: usize,
        w: &mut PointWork,
    ) -> Option<(usize, usize)> {
        w.m(NKR as u64);
        let c = class.index();
        let lo = (0..NKR).find(|&k| self.n[c][k][lane] > N_EPS)?;
        let hi = (0..NKR).rfind(|&k| self.n[c][k][lane] > N_EPS)?;
        Some((lo, hi))
    }

    /// Per-lane mirror of `BinsView::mass_of`: total mass in one class,
    /// `+0.0` for an empty one without the serial sum.
    pub(crate) fn mass_of_lane(
        &self,
        class: HydroClass,
        g: &BinGrid,
        lane: usize,
        w: &mut PointWork,
    ) -> f32 {
        w.fm(2 * NKR as u64, NKR as u64);
        let bins = &self.n[class.index()];
        if all_zero(bins.iter().map(|slots| slots[lane])) {
            return 0.0;
        }
        let mut q = 0.0f32;
        for (slots, m) in bins.iter().zip(&g.mass) {
            q += slots[lane] * m;
        }
        q
    }

    /// Per-lane mirror of `BinsView::number_of` (unmetered, like it).
    fn number_of_lane(&self, class: HydroClass, lane: usize) -> f32 {
        let c = class.index();
        let mut s = 0.0f32;
        for k in 0..NKR {
            s += self.n[c][k][lane];
        }
        s
    }

    /// Per-lane mirror of `BinsView::total_condensate`: mass summed over
    /// every hydrometeor class in `HydroClass::ALL` order.
    pub(crate) fn total_condensate_lane(
        &self,
        grids: &Grids,
        lane: usize,
        w: &mut PointWork,
    ) -> f32 {
        let mut tot = 0.0f32;
        for &c in HydroClass::ALL.iter() {
            tot += self.mass_of_lane(c, grids.of(c), lane, w);
        }
        tot
    }

    /// Collision's scrub, for the lanes where `mask` holds (never one
    /// `>= len`): clamps tiny negative round-off to `0.0`. A select over
    /// all [`LANES`] slots — every other slot, `-0.0` included, keeps its
    /// bits.
    fn scrub_lanes(&mut self, mask: &[bool; LANES]) {
        for bins in &mut self.n {
            for slots in bins.iter_mut() {
                for (v, &on) in slots.iter_mut().zip(mask) {
                    debug_assert!(!(on && *v <= -1.0e-2), "large negative bin value {v}");
                    *v = if on && *v < 0.0 { 0.0 } else { *v };
                }
            }
        }
    }

    /// The condensation relax's scrub over `classes`, for the lanes where
    /// `mask` holds (never one `>= len`): a negative or a positive value
    /// below [`N_FLOOR`] becomes `+0.0`, every other slot, `-0.0` and NaN
    /// included, keeps its bits. The store is a select over all [`LANES`]
    /// slots; only a bin row in which some lane floors takes the per-lane
    /// tally, so each lane's `floored` adds its floored values (with their
    /// bin's particle mass) in storage order: classes, then bins
    /// ascending.
    fn scrub_tail_lanes(
        &mut self,
        classes: std::ops::Range<usize>,
        mask: &[bool; LANES],
        grids: &Grids,
        floored: &mut [Floored; LANES],
    ) {
        for c in classes {
            for (slots, &m) in self.n[c].iter_mut().zip(&grids.by_index(c).mass) {
                let row = *slots;
                let mut tail = false;
                for (l, v) in slots.iter_mut().enumerate() {
                    let x = row[l];
                    debug_assert!(!(mask[l] && x <= -1.0e-2), "large negative bin value {x}");
                    // Below the floor and not a zero: a negative or a tail.
                    let cut = mask[l] & (x < N_FLOOR) & (x != 0.0);
                    tail |= cut & (x > 0.0);
                    *v = if cut { 0.0 } else { x };
                }
                if tail {
                    for l in (0..LANES).filter(|&l| mask[l]) {
                        floored[l].floor(row[l], m);
                    }
                }
            }
        }
    }
}

/// Runs `body` on a panel whose one live lane holds the point `bins`
/// at `th`, then stores that lane back into `bins`, `th.t` and `th.qv`:
/// the point batched alone, which is what each lane of a wider batch
/// equals.
pub fn one_lane<R>(
    bins: &mut BinsView<'_>,
    th: &mut PointThermo,
    body: impl FnOnce(&mut SoaPanel) -> R,
) -> R {
    let mut panel = SoaPanel::new();
    panel.push_with(th.t, th.qv, th.p, th.rho, |c, k| bins.n[c][k]);
    let out = body(&mut panel);
    panel.scatter_with(0, |c, k, x| bins.n[c][k] = x);
    (th.t, th.qv) = (panel.t[0], panel.qv[0]);
    out
}

/// One precomputed mass-deposition stencil: where `deposit_mass` puts
/// number for a fixed deposited mass `m` on a fixed grid. The collision
/// outcome mass `ga.mass[i] + gb.mass[j]` depends only on the pair and the
/// bin indices, so the bracket search (`log2`, floor, two nudge compares,
/// one divide) is hoisted out of the per-point loop entirely.
#[derive(Clone, Copy, Debug)]
pub enum Split {
    /// `m` at or below the smallest bin: everything lands in bin 0 scaled
    /// by `m / m0`. The two factors are kept separate so the lane applies
    /// `deposit_mass`'s exact `number * m / m0`.
    Bottom {
        /// Deposited mass.
        m: f32,
        /// Mass of bin 0.
        m0: f32,
    },
    /// `m` at or above the largest bin: everything lands in the top bin
    /// scaled by `m / mass[top]`.
    Top {
        /// Deposited mass.
        m: f32,
        /// Mass of the top bin.
        mtop: f32,
    },
    /// `m` bracketed by bins `k` and `k + 1`: `number * frac` goes up,
    /// the remainder stays in `k`.
    Mid {
        /// Lower bracket bin.
        k: u16,
        /// Fraction deposited into `k + 1`.
        frac: f32,
    },
}

impl Split {
    /// Computes the stencil for depositing mass `m` on `grid`: the split
    /// `crate::point::deposit_mass` makes, with the bracket read from the
    /// bits ([`bracket_from_bits`]) instead of searched for.
    pub fn for_mass(grid: &BinGrid, m: f32) -> Split {
        Split::with_bracket(grid, m, bracket_from_bits)
    }

    /// The split around `bracket(grid, m)`, which is asked only for masses
    /// strictly inside the grid.
    fn with_bracket(grid: &BinGrid, m: f32, bracket: impl Fn(&BinGrid, f32) -> usize) -> Split {
        let m0 = grid.mass[0];
        if m <= m0 {
            return Split::Bottom { m, m0 };
        }
        let top = NKR - 1;
        if m >= grid.mass[top] {
            return Split::Top {
                m,
                mtop: grid.mass[top],
            };
        }
        let k = bracket(grid, m);
        let (m_lo, m_hi) = (grid.mass[k], grid.mass[k + 1]);
        let frac = ((m - m_lo) / (m_hi - m_lo)).clamp(0.0, 1.0);
        Split::Mid { k: k as u16, frac }
    }

    /// Deposits `number` through the stencil via `add(bin, value)`,
    /// metering what `deposit_mass` meters. The caller guarantees
    /// `number > 0` and `m > 0` (`deposit_mass`'s unmetered early
    /// return).
    #[inline]
    pub fn apply(&self, mut add: impl FnMut(usize, f32), number: f32, w: &mut PointWork) {
        w.fm(8, 2);
        match *self {
            Split::Bottom { m, m0 } => add(0, number * m / m0),
            Split::Top { m, mtop } => add(NKR - 1, number * m / mtop),
            Split::Mid { k, frac } => {
                let n_hi = number * frac;
                let n_lo = number - n_hi;
                add(k as usize, n_lo);
                add(k as usize + 1, n_hi);
            }
        }
    }
}

/// The bin `k` with `mass[k] <= m < mass[k + 1]`, for `mass[0] < m <
/// mass[NKR - 1]`, as an exponent difference.
///
/// [`BinGrid::new`] builds `mass[k] = m0 * 2^k` exactly, so every bin mass
/// carries `m0`'s mantissa under the exponent `exp(m0) + k`
/// (`bin_masses_share_the_mantissa_of_m0`). Positive normal floats order
/// as their `(exponent, mantissa)` pairs, hence `k = exp(m) - exp(m0) -
/// (mant(m) < mant(m0))`. `deposit_mass`, which freezing and melting
/// call, keeps its `log2` + `floor` + two nudges, which land on the same
/// bin (the `bracket_*` tests; the exhaustive one walks every f32 of the
/// grid).
fn bracket_from_bits(grid: &BinGrid, m: f32) -> usize {
    const MANT: u32 = (1 << 23) - 1;
    let (b, b0) = (m.to_bits(), grid.mass[0].to_bits());
    let below = usize::from((b & MANT) < (b0 & MANT));
    (((b >> 23) - (b0 >> 23)) as usize - below).min(NKR - 2)
}

/// The bracket as `crate::point::deposit_mass` searches for it: the
/// reference [`bracket_from_bits`] is proven against.
#[cfg(test)]
fn bracket_log2(grid: &BinGrid, m: f32) -> usize {
    let top = NKR - 1;
    let pos = (m / grid.mass[0]).log2();
    let mut k = (pos.floor() as usize).min(top - 1);
    if k > 0 && m < grid.mass[k] {
        k -= 1;
    }
    if k + 1 < top && m > grid.mass[k + 1] {
        k += 1;
    }
    k
}

/// Deposition stencils for every `(pair, i, j)` collision outcome,
/// built once per scheme instance (≈ 20 × 33 × 33 entries).
pub struct DepositSplits {
    s: Vec<Split>,
}

impl DepositSplits {
    /// Precomputes the stencil table from the bin grids.
    pub fn new(grids: &Grids) -> Self {
        let mut s = Vec::with_capacity(COLLISION_PAIRS.len() * NKR * NKR);
        for pair in COLLISION_PAIRS.iter() {
            let ga = grids.of(pair.a);
            let gb = grids.of(pair.b);
            let gout = grids.of(pair.outcome);
            for i in 0..NKR {
                for j in 0..NKR {
                    s.push(Split::for_mass(gout, ga.mass[i] + gb.mass[j]));
                }
            }
        }
        DepositSplits { s }
    }

    /// The contiguous stencil row for collision pair `pidx` and bin `i`,
    /// indexed by `j`.
    #[inline]
    pub fn row(&self, pidx: usize, i: usize) -> &[Split] {
        &self.s[(pidx * NKR + i) * NKR..][..NKR]
    }
}

/// `deposit_mass` writing into one lane of a SoA class column.
fn deposit_mass_lane(
    col: &mut [[f32; LANES]; NKR],
    lane: usize,
    grid: &BinGrid,
    m: f32,
    number: f32,
    w: &mut PointWork,
) {
    if number <= 0.0 || m <= 0.0 {
        return;
    }
    Split::for_mass(grid, m).apply(|k, v| col[k][lane] += v, number, w);
}

/// `coal_bott_new`: collision–coalescence by the Bott flux method (see
/// [`crate::processes::collision`]), [`NCOLL`] substeps over every live
/// lane of the panel. Per substep, each interacting class pair runs over
/// the lane's occupied bin ranges in `(i, j)` order: collection events at
/// rate `K(i,j) · n_i · n_j · ρ`, capped at `MAX_DEPLETION` of either
/// collider, remove particles from both and deposit the merged mass into
/// the outcome class through the pair's [`DepositSplits`] stencil; riming
/// warms the lane by the latent heat of the frozen liquid; the substep
/// ends with the negative scrub. Returns per lane the kernel entries
/// evaluated (the quantity whose reduction drives Table III).
///
/// Requirements: every lane is a coal-called point and all lanes share the
/// same pressure bits (so the kernel value for a given `(pair, i, j)` is
/// identical across lanes and is resolved once via [`KernelMode::peek`]).
/// Per-lane entry counts accumulate into `entries` and per-lane metering
/// into `works`; cached-kernel hit/miss counters are flushed in bulk once
/// at the end instead of one atomic RMW per entry. Returns how full the
/// batch's lane slots ran.
pub fn panel_coal(
    panel: &mut SoaPanel,
    grids: &Grids,
    kernels: KernelMode<'_>,
    splits: &DepositSplits,
    dt: f32,
    works: &mut [PointWork; LANES],
    entries: &mut [u64; LANES],
) -> LaneFill {
    let dts = dt / NCOLL as f32;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut fill = LaneFill::default();
    for _ in 0..NCOLL {
        coal_substep_panel(
            panel,
            grids,
            kernels,
            splits,
            dts,
            works,
            entries,
            &mut hits,
            &mut misses,
            &mut fill,
        );
    }
    kernels.add_cached_counts(hits, misses);
    fill
}

/// One collision substep over the panel, lane-masked.
#[allow(clippy::too_many_arguments)]
fn coal_substep_panel(
    panel: &mut SoaPanel,
    grids: &Grids,
    kernels: KernelMode<'_>,
    splits: &DepositSplits,
    dt: f32,
    works: &mut [PointWork; LANES],
    entries: &mut [u64; LANES],
    hits: &mut u64,
    misses: &mut u64,
    fill: &mut LaneFill,
) {
    let len = panel.len;
    // The phase gate reads each lane's temperature at substep start,
    // before this substep's riming warms it.
    let tsnap = panel.t;
    let (kc_f, kc_m) = kernels.access_cost();
    let mut all = [false; LANES];
    all[..len].fill(true);

    for (pidx, pair) in COLLISION_PAIRS.iter().enumerate() {
        let involves_ice = pair.a.is_ice() || pair.b.is_ice();
        let mut on = [false; LANES];
        let mut ar = [(0usize, 0usize); LANES];
        let mut br = [(0usize, 0usize); LANES];
        let mut any = false;
        for l in 0..len {
            works[l].f(2);
            if involves_ice && tsnap[l] >= T_0 {
                continue;
            }
            // Both range scans meter even when the first comes up empty:
            // a lane pays for both lookups of its pair.
            let ra = panel.active_range_lane(pair.a, l, &mut works[l]);
            let rb = panel.active_range_lane(pair.b, l, &mut works[l]);
            let (Some(a), Some(b)) = (ra, rb) else {
                continue;
            };
            ar[l] = a;
            br[l] = b;
            on[l] = true;
            any = true;
        }
        if !any {
            continue;
        }

        // Union i bounds over the live lanes; each lane masks itself to
        // its own ranges so it sees exactly its own (i, j) subsequence.
        let (mut ilo, mut ihi) = (NKR, 0usize);
        for l in 0..len {
            if on[l] {
                ilo = ilo.min(ar[l].0);
                ihi = ihi.max(ar[l].1);
            }
        }
        let ga = grids.of(pair.a);
        let gb = grids.of(pair.b);
        let same = pair.a == pair.b;
        let riming = pair.a.is_ice() != pair.b.is_ice();
        let (ai, bi, oi) = (pair.a.index(), pair.b.index(), pair.outcome.index());

        // Pair-level meter accumulators, flushed once after the i sweep
        // (u64/u32 adds are associative, so batching them is exact).
        // Row counts are bounded by NKR² per pair, far inside u32.
        let mut acc_cj = [0u32; LANES]; // in-window cell visits
        let mut acc_nent = [0u32; LANES]; // populated entries
        let mut acc_cc = [0u32; LANES]; // committed entries
        let mut acc_hit = [0u32; LANES]; // populated entries on cache hits

        for i in ilo..=ihi {
            let mi = ga.mass[i];
            // Lanes whose a-range covers this i row, and the union of
            // *their* j bounds — tighter than the global union, and an
            // empty row skips the j loop entirely. Both are bitwise-safe:
            // a lane does nothing outside its own ranges.
            let mut ion = [false; LANES];
            let (mut jlo_i, mut jhi_i) = (NKR, 0usize);
            for l in 0..len {
                if on[l] && i >= ar[l].0 && i <= ar[l].1 {
                    ion[l] = true;
                    jlo_i = jlo_i.min(br[l].0);
                    jhi_i = jhi_i.max(br[l].1);
                }
            }
            // Self-collection visits unordered pairs once: its rows start
            // at j = i, even when that undershoots every lane's active
            // range.
            let jlo_row = if same { i } else { jlo_i };
            let jhi_row = jhi_i.min(NKR - 1);
            if jlo_row > jhi_row {
                continue;
            }
            // Row tables: kernel value, hit flag, and deposition stencil
            // depend only on (pair, i, j) and the batch-uniform pressure,
            // so they are resolved once per row and shared by all lanes.
            // A resident kernel table lends its row directly (and its hit
            // test is j-independent, so the flag is row-uniform); only
            // the cold/on-demand fallback materializes a local row, and
            // its per-entry resolution reports misses uniformly too.
            let mut kvbuf: [f32; NKR];
            let (kv, row_hit): (&[f32], bool) = match kernels.peek_row(pidx, i) {
                Some((row, hit)) => (row, hit),
                None => {
                    kvbuf = [0.0; NKR];
                    for (j, slot) in kvbuf.iter_mut().enumerate().take(jhi_row + 1).skip(jlo_row) {
                        *slot = kernels.peek(pidx, i, j).0;
                    }
                    (&kvbuf[..], false)
                }
            };
            fill.slots += ((jhi_row - jlo_row + 1) * LANES) as u64;
            let sp = splits.row(pidx, i);
            // Vector cell sweep: every phase below is a straight-line
            // loop over the 8 contiguous lane slots — no data-dependent
            // branches — so the autovectorizer turns each into lane-wide
            // SIMD. Lane masking is select-based and bitwise-safe: a
            // masked lane stores the exact bits it loaded (`x - 0.0` is
            // bitwise `x` for every finite float including -0.0, and the
            // deposit/riming stores select the old value rather than
            // adding 0.0, which would flip -0.0 to +0.0). Each lane's
            // own float-op sequence stays in its own (i, j) order;
            // only the interleaving across lanes changes, which no
            // per-lane value observes. Lanes outside the row (or the
            // batch) get an empty j-window so they count nothing.
            let a_ice = pair.a.is_ice();
            let mut js = [1i32; LANES];
            let mut je = [0i32; LANES];
            for l in 0..len {
                if ion[l] {
                    js[l] = if same { i as i32 } else { br[l].0 as i32 };
                    je[l] = br[l].1.min(NKR - 1) as i32;
                }
            }
            let rho_v = panel.rho;
            // In-window cell visits per lane have a closed form: the
            // lane window is already clipped inside the row window, so
            // no per-cell counter is needed for them.
            let mut cj = [0u32; LANES];
            for l in 0..len {
                cj[l] = (je[l] - js[l] + 1).max(0) as u32;
            }
            let mut cp = [0u32; LANES]; // populated entries
            let mut cc = [0u32; LANES]; // committed entries

            // Self-collection's diagonal cell (`j == i`, the first of its
            // row) halves its rate and its i-cap and depletes bin `i`
            // twice; every other cell runs the loop below without that
            // multiply, which would be `x * 1.0`, bitwise `x`. A
            // self-collection pair never rimes.
            let mut jstart = jlo_row;
            if same {
                let ni_v = panel.n[ai][i];
                let window = (i as i32, &js, &je);
                let (commit, dne) =
                    diagonal_depletion(kv[i], &ni_v, &rho_v, dt, window, &mut cp, &mut cc);
                for l in 0..LANES {
                    panel.n[ai][i][l] = ni_v[l] - 2.0 * dne[l];
                }
                deposit_lanes(&mut panel.n[oi], sp[i], &commit, &dne);
                jstart = i + 1;
            }
            for j in jstart..=jhi_row {
                let ni_v = panel.n[ai][i];
                let nj_v = panel.n[bi][j];
                let (jj, kvj) = (j as i32, kv[j]);
                let mut commit = [false; LANES];
                let mut dne = [0.0f32; LANES];
                // The lane loop stays inline: as a helper shared with the
                // diagonal cell it ran the dense collision launch slower.
                for l in 0..LANES {
                    let jin = jj >= js[l] && jj <= je[l];
                    let pop = jin & (ni_v[l] > 0.0) & (nj_v[l] > 0.0);
                    // The op order: ((((kv·ni)·nj)·rho)·dt).
                    let dn = kvj * ni_v[l] * nj_v[l] * rho_v[l] * dt;
                    let com = pop & (dn > 0.0);
                    let cap_i = MAX_DEPLETION * ni_v[l];
                    let cap_j = MAX_DEPLETION * nj_v[l];
                    // Bare-`minps` form of `dn.min(cap_i).min(cap_j)`,
                    // the caps' min taken off the rate's dependency
                    // chain: identical bits whenever no operand is NaN or
                    // `-0.0`, which holds on every committed lane (`com`
                    // requires dn > 0 and both colliders > 0), and
                    // uncommitted lanes discard `dnc` — this skips
                    // `f32::min`'s 4-op NaN fixup per min.
                    let cap = if cap_i < cap_j { cap_i } else { cap_j };
                    let dnc = if dn < cap { dn } else { cap };
                    commit[l] = com;
                    dne[l] = if com { dnc } else { 0.0 };
                    cp[l] += pop as u32;
                    cc[l] += com as u32;
                }
                for l in 0..LANES {
                    panel.n[ai][i][l] = ni_v[l] - dne[l];
                }
                for l in 0..LANES {
                    panel.n[bi][j][l] = nj_v[l] - dne[l];
                }
                deposit_lanes(&mut panel.n[oi], sp[j], &commit, &dne);
                if riming {
                    let lm_src = if a_ice { gb.mass[j] } else { mi };
                    for l in 0..LANES {
                        let liquid_mass = lm_src * dne[l];
                        let tv = panel.t[l] + L_F * liquid_mass / CP;
                        panel.t[l] = if commit[l] { tv } else { panel.t[l] };
                    }
                }
            }
            // Row flush into the pair accumulators; the hit flag is
            // row-uniform, so hit entries batch by row.
            if row_hit {
                for l in 0..len {
                    acc_cj[l] += cj[l];
                    acc_nent[l] += cp[l];
                    acc_cc[l] += cc[l];
                    acc_hit[l] += cp[l];
                }
            } else {
                for l in 0..len {
                    acc_cj[l] += cj[l];
                    acc_nent[l] += cp[l];
                    acc_cc[l] += cc[l];
                }
            }
        }

        // Pair-level meter flush. A populated entry meters m(2) + the
        // kernel access cost + f(6), plus f(4) + the deposit's fm(8, 2)
        // + fm(5, 4) on the committed path, and f(4) per commit on
        // riming pairs; a failed populated check meters its two loads.
        // u64 adds are associative, so count-times-cost equals the
        // entry-by-entry sum.
        for l in 0..len {
            let nent = acc_nent[l] as u64;
            let ncommit = acc_cc[l] as u64;
            let m2 = (acc_cj[l] - acc_nent[l]) as u64;
            works[l].fm(
                nent * (kc_f + 6) + ncommit * 17,
                (m2 + nent) * 2 + nent * kc_m + ncommit * 6,
            );
            if riming {
                works[l].f(4 * ncommit);
            }
            entries[l] += nent;
            fill.cells += acc_cj[l] as u64;
            *hits += acc_hit[l] as u64;
            *misses += (acc_nent[l] - acc_hit[l]) as u64;
        }
    }
    panel.scrub_lanes(&all);
}

/// Self-collection's diagonal cell `(i, i)` over all [`LANES`] slots:
/// the off-diagonal cells' lane loop in `coal_substep_panel` with the
/// halve multiply on the rate and the i-cap (`x * 0.5 == x / 2.0`
/// exactly, so no divide is issued) — which lanes commit and the number
/// each removes, the populated and committed counts added to `cp` and
/// `cc`; uncommitted lanes deplete `0.0`.
fn diagonal_depletion(
    kvi: f32,
    ni_v: &[f32; LANES],
    rho_v: &[f32; LANES],
    dt: f32,
    (ii, js, je): (i32, &[i32; LANES], &[i32; LANES]),
    cp: &mut [u32; LANES],
    cc: &mut [u32; LANES],
) -> ([bool; LANES], [f32; LANES]) {
    let mut commit = [false; LANES];
    let mut dne = [0.0f32; LANES];
    for l in 0..LANES {
        let jin = ii >= js[l] && ii <= je[l];
        let pop = jin & (ni_v[l] > 0.0);
        // ((((kv·ni)·ni)·rho)·dt), then the halve multiply.
        let dn = kvi * ni_v[l] * ni_v[l] * rho_v[l] * dt * 0.5;
        let com = pop & (dn > 0.0);
        let cap_i = MAX_DEPLETION * ni_v[l] * 0.5;
        let cap_j = MAX_DEPLETION * ni_v[l];
        let cap = if cap_i < cap_j { cap_i } else { cap_j };
        let dnc = if dn < cap { dn } else { cap };
        commit[l] = com;
        dne[l] = if com { dnc } else { 0.0 };
        cp[l] += pop as u32;
        cc[l] += com as u32;
    }
    (commit, dne)
}

/// One cell's deposit into the outcome class `col` through its stencil
/// `split`: each committed lane adds its `dne`, every other lane stores
/// the bits it loaded (a select, not `+ 0.0`, which would flip `-0.0`).
/// The loads follow the caller's subtractions, so an outcome row that
/// aliases row `i` or `j` sees them: the updates are in place, in
/// Listing order.
#[inline(always)]
fn deposit_lanes(
    col: &mut [[f32; LANES]; NKR],
    split: Split,
    commit: &[bool; LANES],
    dne: &[f32; LANES],
) {
    match split {
        Split::Bottom { m, m0 } => {
            for l in 0..LANES {
                let o = col[0][l];
                let v = o + dne[l] * m / m0;
                col[0][l] = if commit[l] { v } else { o };
            }
        }
        Split::Top { m, mtop } => {
            for l in 0..LANES {
                let o = col[NKR - 1][l];
                let v = o + dne[l] * m / mtop;
                col[NKR - 1][l] = if commit[l] { v } else { o };
            }
        }
        Split::Mid { k, frac } => {
            let k = k as usize;
            for l in 0..LANES {
                let n_hi = dne[l] * frac;
                let o0 = col[k][l];
                let v = o0 + (dne[l] - n_hi);
                col[k][l] = if commit[l] { v } else { o0 };
            }
            for l in 0..LANES {
                let n_hi = dne[l] * frac;
                let o1 = col[k + 1][l];
                let v = o1 + n_hi;
                col[k + 1][l] = if commit[l] { v } else { o1 };
            }
        }
    }
}

/// Listing 1's condensation over a panel (see
/// [`crate::processes::condensation`]): a lane whose point holds no
/// condensate and is not supersaturated over liquid does nothing more;
/// every other lane takes its branch ([`condensation::branch`]:
/// liquid-only, mixed-phase or ice-only), and the [`NCOND`] substeps run
/// once with per-branch lane masks: the water relax covers branches 1–2,
/// the six ice relaxes cover branches 2–3, which is `onecond1/2/3` per
/// lane. Metering accumulates into `works` (the caller's condensation bucket),
/// what the relaxes' scrubs floor into `floored`. Returns how full the
/// relax calls' lane vectors ran.
pub fn panel_condensation(
    panel: &mut SoaPanel,
    grids: &Grids,
    dt: f32,
    works: &mut [PointWork; LANES],
    floored: &mut [Floored; LANES],
) -> LaneFill {
    let len = panel.len;
    let mut branch = [0u8; LANES];
    let mut any = false;
    for l in 0..len {
        let w = &mut works[l];
        let condensate = panel.total_condensate_lane(grids, l, w);
        let s = supersat_liquid(panel.t[l], panel.p[l], panel.qv[l]);
        w.f(25);
        if condensate <= Q_EPS && s <= 0.0 {
            continue;
        }
        let numbers = HydroClass::ALL.map(|c| panel.number_of_lane(c, l));
        w.m(7 * NKR as u64);
        branch[l] = condensation::branch(panel.t[l], s, &numbers);
        any = true;
    }
    let mut fill = LaneFill::default();
    if !any {
        return fill;
    }

    // The liquid leg (onecond1 and onecond2 open each substep with a
    // water relax) and the ice leg (onecond2 and onecond3 relax the six
    // ice classes).
    let water: [bool; LANES] = std::array::from_fn(|l| branch[l] == 1 || branch[l] == 2);
    let ice: [bool; LANES] = std::array::from_fn(|l| branch[l] >= 2);
    let dts = dt / NCOND as f32;
    let mut qs = [0.0f32; LANES];
    // Lanes whose first relax of this call has fired (see the scrub rule
    // in `panel_relax_class`).
    let mut scrubbed = [false; LANES];
    for _ in 0..NCOND {
        for (class, over_ice) in RELAX_ORDER {
            let mask = if over_ice { &ice } else { &water };
            let lanes = mask.iter().filter(|&&on| on).count();
            if lanes == 0 {
                continue;
            }
            // Each relax with a fresh saturation: temperature moves
            // between relaxes.
            for l in (0..len).filter(|&l| mask[l]) {
                let (t, p) = (panel.t[l], panel.p[l]);
                qs[l] = if over_ice {
                    qsat_ice(t, p)
                } else {
                    qsat_liquid(t, p)
                };
                works[l].f(20);
            }
            fill.slots += LANES as u64;
            fill.cells += lanes as u64;
            panel_relax_class(
                panel,
                class,
                grids,
                mask,
                &qs,
                over_ice,
                dts,
                &mut scrubbed,
                works,
                floored,
            );
        }
    }
    fill
}

/// One class's diffusional exchange toward saturation `qs` over `dt`, for
/// the lanes of `mask_in`: the phase-relaxation rate `4π G Σ n_k r_k`
/// gives the vapor exchanged, `Δq = (qv − qs)(1 − e^{−rate·dt})` (an
/// evaporation capped at what the class holds), shared across bins in
/// proportion to `n_k r_k` and re-binned at each bin's new mean mass with
/// the conserving two-bin split; a relax that moves mass ends with the
/// scrub, then takes `Δq` from the vapor and its latent heat into `T`.
/// `scrubbed` marks the lanes a relax of the running `panel_condensation`
/// call has already scrubbed whole; `floored` takes what the scrubs
/// floor, per lane.
#[allow(clippy::too_many_arguments)]
fn panel_relax_class(
    panel: &mut SoaPanel,
    class: HydroClass,
    grids: &Grids,
    mask_in: &[bool; LANES],
    qs: &[f32; LANES],
    over_ice: bool,
    dt: f32,
    scrubbed: &mut [bool; LANES],
    works: &mut [PointWork; LANES],
    floored: &mut [Floored; LANES],
) {
    let len = panel.len;
    let g = grids.of(class);
    let ci = class.index();

    // The two per-bin passes are straight-line loops over all LANES
    // slots, selects rather than branches, so they vectorise as the
    // collision cell sweep does (on local copies of the lane rows and
    // masks, which is what lets them). A lane outside the mask — a dead
    // lane holding anything at all included — computes and throws away:
    // every store selects the old value, never adds `+0.0`. A lane inside
    // it runs its own operations on its own values in bin order.
    let mut cap = [0.0f32; LANES];
    let mut n_tot = [0.0f32; LANES];
    let calling = *mask_in;
    for k in 0..NKR {
        let r = g.radius[k];
        let n = panel.n[ci][k];
        for l in 0..LANES {
            let on = calling[l] & (n[l] > 0.0);
            let (c, t) = (cap[l] + n[l] * r, n_tot[l] + n[l]);
            cap[l] = if on { c } else { cap[l] };
            n_tot[l] = if on { t } else { n_tot[l] };
        }
    }

    let mut mask = [false; LANES];
    let mut dq = [0.0f32; LANES];
    let mut any = false;
    for l in 0..len {
        if !mask_in[l] {
            continue;
        }
        let w = &mut works[l];
        w.fm(3 * NKR as u64, NKR as u64);
        if cap[l] <= 0.0 || n_tot[l] <= N_EPS {
            continue;
        }
        let gcoef = growth_coefficient(panel.t[l], panel.p[l], over_ice);
        w.f(30);
        let rate = 4.0 * std::f32::consts::PI * gcoef * cap[l] / (panel.rho[l] * qs[l].max(1e-6));
        let relax = 1.0 - (-(rate * dt).min(30.0)).exp();
        let mut d = (panel.qv[l] - qs[l]) * relax;
        w.f(10);
        if d < 0.0 {
            let have = panel.mass_of_lane(class, g, l, w);
            d = d.max(-have);
        }
        if d.abs() < 1e-12 {
            continue;
        }
        dq[l] = d;
        mask[l] = true;
        any = true;
    }
    if !any {
        return;
    }

    // The share / `m_new` pass, its two divides a bin. Its selects are
    // bitwise, on lane masks of all-ones or all-zeros words: the form
    // whose divides vectorise. Outside `on` both rows keep the `+0.0` they
    // start from.
    let relaxing = mask.map(|on| if on { u32::MAX } else { 0 });
    let mut moved = [[0.0f32; LANES]; NKR];
    let mut newm = [[0.0f32; LANES]; NKR];
    let mut bins = [0u32; LANES];
    for k in 0..NKR {
        let (r, mk) = (g.radius[k], g.mass[k]);
        // The negation of a skip at `n <= 0.0`, so a NaN bin is not
        // skipped.
        let on: [u32; LANES] = std::array::from_fn(|l| {
            let n = panel.n[ci][k][l];
            relaxing[l] & if n <= 0.0 { 0 } else { u32::MAX }
        });
        if on == [0; LANES] {
            continue;
        }
        // A lane outside `on` divides `+0.0`, not whatever its bin holds.
        let n: [f32; LANES] =
            std::array::from_fn(|l| f32::from_bits(panel.n[ci][k][l].to_bits() & on[l]));
        for l in 0..LANES {
            let share = (n[l] * r) / cap[l];
            let dm_total = dq[l] * share;
            let dm_per = dm_total / n[l];
            let m_new = mk + dm_per;
            let above = if m_new <= 0.0 { 0 } else { u32::MAX };
            moved[k][l] = n[l];
            newm[k][l] = f32::from_bits(m_new.to_bits() & on[l] & above);
            bins[l] += on[l] & 1;
        }
    }
    for (w, &b) in works.iter_mut().zip(&bins) {
        w.fm(6 * u64::from(b), u64::from(b));
    }
    // The deposit loop stays per lane: its stencil depends on the lane's
    // own new mass. It takes the bins whose `moved > 0.0`.
    for k in 0..NKR {
        for l in (0..len).filter(|&l| moved[k][l] > 0.0) {
            panel.n[ci][k][l] -= moved[k][l];
            if newm[k][l] > 0.0 {
                deposit_mass_lane(
                    &mut panel.n[ci],
                    l,
                    g,
                    newm[k][l],
                    moved[k][l],
                    &mut works[l],
                );
            }
        }
    }
    // Every relax that moved mass ends with the point's scrub over all
    // seven classes: negatives to `0.0`, positive values below `N_FLOOR`
    // to `+0.0`, tallied class by class, bin by bin. That pass
    // can find something outside `class` only the first time it runs on a
    // point within one condensation call: negatives and sub-floor values
    // arrive from other stages, the first scrub clears every class, and
    // from then on the only writes to the lane until the call returns are
    // the relaxes' own, each inside the class it was called for and each
    // followed by that class's scrub. So a lane is scrubbed whole on its
    // first relax and class-only after — the slots skipped are `+0.0`,
    // `-0.0`, NaN or at least `N_FLOOR`, which a whole scrub leaves bit
    // for bit and does not tally, so each lane's tally adds the same
    // values in the same order. The class scrub is where the floor fires:
    // a deposit of `number * frac` or `number - number * frac` into a bin
    // the spectrum is leaving lands below `N_FLOOR` (negatives it no
    // longer finds: a moved bin is left at `n - n`, `+0.0`, and both
    // deposits are `>= 0` for `frac` in `[0, 1]`).
    let mut first = [false; LANES];
    for l in 0..len {
        first[l] = mask[l] && !scrubbed[l];
        scrubbed[l] |= mask[l];
    }
    if first.contains(&true) {
        panel.scrub_tail_lanes(0..NTYPES, &first, grids, floored);
    }
    panel.scrub_tail_lanes(ci..ci + 1, &mask, grids, floored);
    for l in 0..len {
        if !mask[l] {
            continue;
        }
        panel.qv[l] -= dq[l];
        panel.t[l] += latent_heating(dq[l], over_ice);
        works[l].f(6);
    }
}

/// Listing 6's collision predicate (`call_coal_bott_new`) per lane: total
/// condensate above [`Q_EPS`] and temperature above the coalescence floor.
/// Metering lands in `works` (the caller's condensation bucket).
pub fn panel_coal_predicate(
    panel: &SoaPanel,
    grids: &Grids,
    works: &mut [PointWork; LANES],
) -> [bool; LANES] {
    let mut out = [false; LANES];
    for (l, slot) in out.iter_mut().enumerate().take(panel.len) {
        let condensate = panel.total_condensate_lane(grids, l, &mut works[l]);
        *slot = panel.t[l] > T_MIN_COAL && condensate > Q_EPS;
    }
    out
}

/// Reusable scratch for the SoA sedimentation sweep: bin-major column
/// storage plus the interface-flux line, so a column/class pass performs
/// no heap allocation.
#[derive(Default)]
pub struct SedScratch {
    /// Bin-major column, `bins[k * nz + l]` (bin `k`, level `l`).
    pub bins: Vec<f32>,
    /// Mass flux through the `nz + 1` level interfaces.
    flux: Vec<f32>,
}

impl SedScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub const fn new() -> Self {
        SedScratch {
            bins: Vec::new(),
            flux: Vec::new(),
        }
    }

    /// Sizes the buffers for an `nz`-level column.
    pub fn ensure(&mut self, nz: usize) {
        self.bins.resize(NKR * nz, 0.0);
        self.flux.resize(nz + 1, 0.0);
    }
}

/// Bin-resolved sedimentation of one class's column (see
/// [`crate::processes::sedimentation`]) held bin-major in `scratch.bins`
/// (level 0 = surface): each bin falls at its terminal velocity
/// `vt[k] · factor[l]` (`factor[l]` = `density_factor(rho[l])`) by a
/// density-weighted first-order upwind flux, CFL sub-stepped so the
/// fastest bin crosses at most one `dz` layer per sub-step. Bins run
/// outer and sub-steps inner, since each bin falls independently of the
/// others, and the surface flux is summed in that order. Returns the
/// surface precipitation, kg/m².
///
/// Bins that are exactly `+0.0` at every level are skipped with their
/// work bulk-metered, which moves no bit (every update on an all-`+0.0`
/// bin is an exact no-op; the bit test deliberately excludes `-0.0`,
/// whose `max(0.0)` rewrite must still run).
pub fn sedimentation_column_soa(
    scratch: &mut SedScratch,
    grid: &BinGrid,
    rho: &[f32],
    factor: &[f32],
    dz: f32,
    dt: f32,
    w: &mut PointWork,
) -> f32 {
    let nz = rho.len();
    assert_eq!(nz, factor.len(), "density and factor length mismatch");
    assert!(dz > 0.0 && dt > 0.0, "sedimentation needs positive dz, dt");
    if nz == 0 {
        return 0.0;
    }
    scratch.ensure(nz);
    let SedScratch { bins, flux } = scratch;
    let vmax = grid.vt_at(NKR - 1, rho.iter().cloned().fold(f32::INFINITY, f32::min));
    let nsub = ((vmax * dt / dz).ceil() as usize).max(1);
    let dts = dt / nsub as f32;
    w.f(6);
    let mut precip = 0.0f32;
    for (k, (mass_k, &vt_k)) in grid.mass.iter().zip(&grid.vt).enumerate() {
        let col_k = &mut bins[k * nz..(k + 1) * nz];
        if col_k.iter().all(|v| v.to_bits() == 0) {
            w.fm(
                nsub as u64 * (8 * nz as u64 + 3),
                nsub as u64 * 4 * nz as u64,
            );
            continue;
        }
        for _ in 0..nsub {
            for l in 0..nz {
                flux[l] = rho[l] * col_k[l] * (vt_k * factor[l]);
            }
            flux[nz] = 0.0;
            for l in 0..nz {
                let dn = (flux[l + 1] - flux[l]) * dts / (rho[l] * dz);
                col_k[l] = (col_k[l] + dn).max(0.0);
            }
            precip += flux[0] * dts * mass_k;
            w.fm(8 * nz as u64 + 3, 4 * nz as u64);
        }
    }
    precip
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{CollisionTables, KernelCache, KernelTables};
    use crate::point::PointBins;

    /// Deterministic pseudo-random f32 in [0, 1).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> f32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as f32) / (u32::MAX >> 1) as f32
        }
    }

    /// A spread of synthetic points: warm cloudy, cold mixed-phase, nearly
    /// empty, and dense — enough to hit every collision pair family.
    fn synth_points(n: usize) -> Vec<(PointBins, PointThermo)> {
        let mut rng = Lcg(0x5eed);
        (0..n)
            .map(|i| {
                let mut bins = PointBins::empty();
                let cold = i % 2 == 1;
                let t = if cold {
                    255.0 + rng.next() * 8.0
                } else {
                    285.0 + rng.next() * 10.0
                };
                for c in 0..NTYPES {
                    if !cold && c != 0 {
                        continue;
                    }
                    for k in 5..18 {
                        if rng.next() > 0.4 {
                            bins.n[c][k] = rng.next() * 2.0e7;
                        }
                    }
                }
                if i == n - 1 {
                    bins = PointBins::empty(); // ragged-lane edge: empty point
                }
                let th = PointThermo {
                    t,
                    qv: 0.004 + rng.next() * 0.004,
                    p: 80_000.0,
                    rho: 1.0 + rng.next() * 0.1,
                };
                (bins, th)
            })
            .collect()
    }

    fn gather(points: &[(PointBins, PointThermo)]) -> SoaPanel {
        let mut panel = SoaPanel::new();
        for (bins, th) in points {
            panel.push_with(th.t, th.qv, th.p, th.rho, |c, k| bins.n[c][k]);
        }
        panel
    }

    /// Each lane of `panel` holds the bits of the same point batched
    /// alone (`alone[l]`).
    fn assert_panel_matches(panel: &SoaPanel, alone: &[(PointBins, PointThermo)], what: &str) {
        for (l, (bins, th)) in alone.iter().enumerate() {
            for c in 0..NTYPES {
                for k in 0..NKR {
                    assert_eq!(
                        panel.n[c][k][l].to_bits(),
                        bins.n[c][k].to_bits(),
                        "{what}: lane {l} class {c} bin {k}"
                    );
                }
            }
            assert_eq!(panel.t[l].to_bits(), th.t.to_bits(), "{what}: lane {l} t");
            assert_eq!(
                panel.qv[l].to_bits(),
                th.qv.to_bits(),
                "{what}: lane {l} qv"
            );
        }
    }

    #[test]
    fn split_table_matches_deposit_mass() {
        let grids = Grids::new();
        let g = grids.of(HydroClass::Water);
        let mut rng = Lcg(7);
        for _ in 0..200 {
            let m = g.mass[0] * 0.5 + rng.next() * g.mass[NKR - 1] * 1.5;
            let number = rng.next() * 1.0e6;
            let mut a = [0.0f32; NKR];
            let mut wa = PointWork::ZERO;
            crate::point::deposit_mass(&mut a, g, m, number, &mut wa);
            let mut b = [[0.0f32; LANES]; NKR];
            let mut wb = PointWork::ZERO;
            deposit_mass_lane(&mut b, 3, g, m, number, &mut wb);
            for k in 0..NKR {
                assert_eq!(a[k].to_bits(), b[k][3].to_bits(), "bin {k} for m={m}");
            }
            assert_eq!(wa, wb);
        }
    }

    /// A split as comparable bits: variant, then its fields.
    fn split_bits(s: Split) -> (u8, u32, u32) {
        match s {
            Split::Bottom { m, m0 } => (0, m.to_bits(), m0.to_bits()),
            Split::Top { m, mtop } => (1, m.to_bits(), mtop.to_bits()),
            Split::Mid { k, frac } => (2, u32::from(k), frac.to_bits()),
        }
    }

    fn assert_same_split(g: &BinGrid, m: f32) {
        assert_eq!(
            split_bits(Split::for_mass(g, m)),
            split_bits(Split::with_bracket(g, m, bracket_log2)),
            "{:?} m = {m:e} ({:#x})",
            g.class,
            m.to_bits()
        );
    }

    /// What [`bracket_from_bits`] rests on: whoever changes the grid away
    /// from exact doubling breaks this test, not the bracket.
    #[test]
    fn bin_masses_share_the_mantissa_of_m0() {
        let grids = Grids::new();
        for c in HydroClass::ALL {
            let g = grids.of(c);
            let b0 = g.mass[0].to_bits();
            assert!(g.mass[0].is_normal() && g.mass[0] > 0.0, "{c:?}");
            for (k, m) in g.mass.iter().enumerate() {
                let b = m.to_bits();
                assert_eq!(b & 0x007f_ffff, b0 & 0x007f_ffff, "{c:?} bin {k}: mantissa");
                assert_eq!((b >> 23) - (b0 >> 23), k as u32, "{c:?} bin {k}: exponent");
            }
        }
    }

    /// Both brackets agree where `log2` is weakest: within two ulps of
    /// every bin edge of every grid, the grid's two ends included.
    #[test]
    fn bracket_agrees_with_log2_around_every_bin_edge() {
        let grids = Grids::new();
        for c in HydroClass::ALL {
            let g = grids.of(c);
            for edge in g.mass {
                for ulps in -2i32..=2 {
                    let m = f32::from_bits(edge.to_bits().wrapping_add_signed(ulps));
                    assert_same_split(g, m);
                }
            }
        }
    }

    /// Every f32 of the grid, `[m0, mass[top]]` — about 2.7e8 values,
    /// seconds in release (`CI_NIGHTLY=1 ./ci.sh bracket_exhaustive`).
    /// The seven grids share one mass axis, so one is all of them.
    #[test]
    #[ignore = "exhaustive: run in release through ./ci.sh bracket_exhaustive"]
    fn bracket_exhaustive() {
        let grids = Grids::new();
        let g = grids.of(HydroClass::Water);
        for c in HydroClass::ALL {
            assert_eq!(grids.of(c).mass, g.mass, "{c:?}: shared mass axis");
        }
        for bits in g.mass[0].to_bits()..=g.mass[NKR - 1].to_bits() {
            assert_same_split(g, f32::from_bits(bits));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The two deposits, not just the two brackets: anywhere from two
        /// octaves below the grid to two above it, the lane form and the
        /// scalar leave the same column and the same meter.
        #[test]
        fn deposit_lane_matches_scalar_deposit(
            class in 0usize..NTYPES, pos in proptest::any::<u32>(), number in 0.0f32..4.0e7,
        ) {
            let grids = Grids::new();
            let g = grids.by_index(class);
            let (lo, hi) = ((g.mass[0] / 4.0).to_bits(), (4.0 * g.mass[NKR - 1]).to_bits());
            let m = f32::from_bits(lo + pos % (hi - lo + 1));
            let mut a = [1.0f32; NKR];
            let mut wa = PointWork::ZERO;
            crate::point::deposit_mass(&mut a, g, m, number, &mut wa);
            let mut b = [[1.0f32; LANES]; NKR];
            let mut wb = PointWork::ZERO;
            deposit_mass_lane(&mut b, 5, g, m, number, &mut wb);
            for k in 0..NKR {
                proptest::prop_assert_eq!(a[k].to_bits(), b[k][5].to_bits(), "bin {} for m = {:e}", k, m);
            }
            proptest::prop_assert_eq!(wa, wb);
        }
    }

    /// In every kernel mode, each lane of a ragged five-point batch (its
    /// last point empty) ends with the bits, the entries and the meter of
    /// the same point batched alone, and the batch counts the cache hits
    /// and misses the five alone count.
    #[test]
    fn panel_coal_is_bitwise_identical_per_mode() {
        let grids = Grids::new();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&grids);
        let p = 80_000.0f32;
        let mut dense = CollisionTables::new();
        {
            let mut w = PointWork::ZERO;
            crate::kernels::kernals_ks(&tables, p, &mut dense, &mut w);
        }
        let mut cache = KernelCache::new(1);
        cache.ensure_level(0, p, &tables);

        let modes = [("dense", 0usize), ("ondemand", 1usize), ("cached", 2usize)];
        for (name, mode_id) in modes {
            let make_mode = || match mode_id {
                0 => KernelMode::Dense(&dense),
                1 => KernelMode::OnDemand { tables: &tables, p },
                _ => KernelMode::Cached {
                    cache: &cache,
                    tables: &tables,
                    level: 0,
                    p,
                },
            };
            let points = synth_points(5);

            // Each point batched alone.
            cache.reset_stats();
            let mut alone = points.clone();
            let mut sw = [PointWork::ZERO; LANES];
            let mut se = [0u64; LANES];
            for (l, (bins, th)) in alone.iter_mut().enumerate() {
                let (mut w, mut e) = ([PointWork::ZERO; LANES], [0u64; LANES]);
                one_lane(&mut bins.view(), th, |panel| {
                    panel_coal(panel, &grids, make_mode(), &splits, 5.0, &mut w, &mut e)
                });
                (sw[l], se[l]) = (w[0], e[0]);
            }
            let (sh, sm) = (cache.hits(), cache.misses());

            // The same points batched together.
            cache.reset_stats();
            let mut panel = gather(&points);
            let mut pw = [PointWork::ZERO; LANES];
            let mut pe = [0u64; LANES];
            panel_coal(
                &mut panel,
                &grids,
                make_mode(),
                &splits,
                5.0,
                &mut pw,
                &mut pe,
            );

            assert_panel_matches(&panel, &alone, name);
            assert!(
                se.iter().sum::<u64>() > 0,
                "{name}: no collisions exercised"
            );
            for l in 0..points.len() {
                assert_eq!(se[l], pe[l], "{name}: lane {l} entries");
                assert_eq!(sw[l], pw[l], "{name}: lane {l} work");
            }
            assert_eq!(
                (cache.hits(), cache.misses()),
                (sh, sm),
                "{name}: cache counters"
            );
        }
    }

    /// [`LaneFill`] at its two fixed points: a point alone in a panel
    /// sweeps [`LANES`] slots for every cell of its own, eight copies of
    /// it fill every slot they sweep, and a mixed batch keeps the cells of
    /// its points, summed, inside more slots.
    #[test]
    fn lane_fill_counts_own_cells_against_swept_slots() {
        let grids = Grids::new();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&grids);
        let mode = KernelMode::OnDemand {
            tables: &tables,
            p: 80_000.0,
        };
        let fill_of = |points: &[(PointBins, PointThermo)]| {
            let (mut w, mut e) = ([PointWork::ZERO; LANES], [0u64; LANES]);
            panel_coal(
                &mut gather(points),
                &grids,
                mode,
                &splits,
                5.0,
                &mut w,
                &mut e,
            )
        };
        let points = synth_points(4);
        let mut alone = 0;
        for point in &points[..3] {
            let one = fill_of(std::slice::from_ref(point));
            assert!(one.cells > 0);
            assert_eq!(one.slots, LANES as u64 * one.cells);
            let twins = fill_of(&vec![point.clone(); LANES]);
            assert_eq!(twins.slots, twins.cells);
            assert_eq!(twins.cells, LANES as u64 * one.cells);
            alone += one.cells;
        }
        let mixed = fill_of(&points[..3]);
        assert_eq!(mixed.cells, alone);
        assert!(mixed.cells < mixed.slots);
    }

    /// One random bin value of a class that holds something: mostly
    /// ordinary number densities, with subnormals, `-0.0`, zeros and the
    /// tiny negatives advection leaves behind mixed in.
    fn random_bin(rng: &mut Lcg) -> f32 {
        let pick = rng.next();
        if pick < 0.55 {
            10f32.powf(rng.next() * 10.0 - 2.0)
        } else if pick < 0.7 {
            f32::from_bits((rng.0 >> 11) as u32 % 0x0080_0000) // subnormal or +0.0
        } else if pick < 0.8 {
            -0.0
        } else if pick < 0.9 {
            0.0
        } else {
            -1.0e-7 * rng.next()
        }
    }

    /// A point that takes condensation branch `kind` (0: the guard's early
    /// return, 1: warm, 2: mixed phase, 3: glaciated) with random spectra:
    /// present classes are random, absent ones empty, and now and then a
    /// NaN bin in a class that does not decide the branch. With `tails`,
    /// every present class also holds a tail at 1e-25…1e-18 #/kg on both
    /// sides of its spectrum, where the relaxes' deposits land below
    /// [`N_FLOOR`] and the floor fires substep after substep.
    fn random_point(kind: u8, tails: bool, rng: &mut Lcg) -> (PointBins, PointThermo) {
        let mut bins = PointBins::empty();
        let (t, sat) = match kind {
            0 => (250.0 + rng.next() * 45.0, 0.5),
            1 => (274.0 + rng.next() * 25.0, 0.8 + rng.next() * 0.25),
            2 => (235.0 + rng.next() * 35.0, 0.9 + rng.next() * 0.15),
            _ => (235.0 + rng.next() * 35.0, 0.6 + rng.next() * 0.35),
        };
        if kind != 0 {
            for c in 0..NTYPES {
                // Water where the branch needs liquid, snow where it needs
                // ice; a glaciated point holds no water.
                let must = match kind {
                    1 => c == 0,
                    2 => c == 0 || c == 4,
                    _ => c == 4,
                };
                if (kind == 3 && c == 0) || !(must || rng.next() < 0.5) {
                    continue;
                }
                let lo = (rng.next() * 20.0) as usize;
                let hi = (lo + 2 + (rng.next() * 12.0) as usize).min(NKR - 1);
                for b in lo..=hi {
                    bins.n[c][b] = random_bin(rng);
                }
                bins.n[c][lo + 1] = 1.0e3 + rng.next() * 1.0e7;
                if tails {
                    for b in (0..lo).chain(hi + 1..NKR) {
                        bins.n[c][b] = 10f32.powf(rng.next() * 7.0 - 25.0).max(N_FLOOR);
                    }
                }
            }
            if rng.next() < 0.15 {
                let c = [1, 2, 3, 5, 6][(rng.next() * 5.0) as usize];
                bins.n[c][(rng.next() * NKR as f32) as usize] = f32::NAN;
            }
        }
        let p = 50_000.0 + rng.next() * 50_000.0;
        let th = PointThermo {
            t,
            qv: qsat_liquid(t, p) * sat,
            p,
            rho: 0.5 + rng.next() * 0.8,
        };
        (bins, th)
    }

    /// Property depth: 256 panels on PRs, 4096 under `CI_NIGHTLY`.
    fn condensation_cases() -> u32 {
        if std::env::var_os("CI_NIGHTLY").is_some_and(|v| !v.is_empty()) {
            4096
        } else {
            256
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(condensation_cases()))]

        /// A batch against its points batched alone, lane by lane, on
        /// random spectra through all three branches and the guard's early
        /// return (lane `l` takes branch `(l + offset) % 4`, and carries
        /// floor-firing tails when bit `l` of `tails` is set), with
        /// subnormal tails, `-0.0` bins, tiny negatives, NaN bins and
        /// empty classes, in a panel of `len` live lanes whose dead lanes
        /// hold NaN, ±inf and random bits: every live lane's state bits,
        /// `PointWork` and `Floored` are those of its point alone, and no
        /// dead lane's bits move.
        #[test]
        fn panel_condensation_is_bitwise_identical(
            seed in proptest::any::<u64>(), len in 1usize..=LANES, offset in 0u8..4,
            tails in 0u32..256,
        ) {
            let grids = Grids::new();
            let mut rng = Lcg(seed);
            let points: Vec<_> = (0..len)
                .map(|l| random_point((l as u8 + offset) % 4, tails >> l & 1 == 1, &mut rng))
                .collect();
            let mut alone = points.clone();
            let mut sw = [PointWork::ZERO; LANES];
            let mut sf = [Floored::default(); LANES];
            for (l, (bins, th)) in alone.iter_mut().enumerate() {
                let (mut w, mut f) = ([PointWork::ZERO; LANES], [Floored::default(); LANES]);
                one_lane(&mut bins.view(), th, |panel| {
                    panel_condensation(panel, &grids, 5.0, &mut w, &mut f)
                });
                (sw[l], sf[l]) = (w[0], f[0]);
            }

            let mut panel = gather(&points);
            let junk = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
            let dead = |rng: &mut Lcg| match (rng.next() * 5.0) as usize {
                i @ 0..=3 => junk[i],
                _ => f32::from_bits((rng.0 >> 17) as u32),
            };
            let rows = panel.n.iter_mut().flatten();
            let thermo = [&mut panel.t, &mut panel.qv, &mut panel.p, &mut panel.rho];
            for slots in rows.chain(thermo) {
                slots[len..].iter_mut().for_each(|x| *x = dead(&mut rng));
            }
            let before = panel.n;
            let mut pw = [PointWork::ZERO; LANES];
            let mut pf = [Floored::default(); LANES];
            panel_condensation(&mut panel, &grids, 5.0, &mut pw, &mut pf);

            assert_panel_matches(&panel, &alone, "condensation");
            for l in 0..len {
                proptest::prop_assert_eq!(sw[l], pw[l], "lane {} condensation work", l);
                proptest::prop_assert_eq!(floored_bits(&sf[l]), floored_bits(&pf[l]), "lane {} floored", l);
            }
            let dead_bits = |n: &[[[f32; LANES]; NKR]; NTYPES]| -> Vec<u32> {
                n.iter().flatten().flat_map(|row| row[len..].iter().map(|x| x.to_bits())).collect()
            };
            proptest::prop_assert!(dead_bits(&panel.n) == dead_bits(&before), "a dead lane's bits moved");
        }
    }

    /// A tally as comparable bits.
    fn floored_bits(f: &Floored) -> (u64, u64, u64) {
        (f.values, f.number.to_bits(), f.mass.to_bits())
    }

    /// The generator of `panel_condensation_is_bitwise_identical` lands
    /// where it says: each kind takes its branch, or the guard's early
    /// return, with or without tails; and tails make the floor fire in
    /// every branch that condenses.
    #[test]
    fn random_points_take_their_branch() {
        let grids = Grids::new();
        let mut rng = Lcg(11);
        let mut fired = [0u64; 4];
        for (n, kind) in (0..4u8).cycle().take(800).enumerate() {
            let tails = n >= 400;
            let (mut bins, mut th) = random_point(kind, tails, &mut rng);
            let mut view = bins.view();
            let mut w = PointWork::ZERO;
            let condensate = view.total_condensate(&grids, &mut w);
            let s = supersat_liquid(th.t, th.p, th.qv);
            let numbers = HydroClass::ALL.map(|c| view.number_of(c));
            let got = if condensate <= Q_EPS && s <= 0.0 {
                0
            } else {
                condensation::branch(th.t, s, &numbers)
            };
            assert_eq!(got, kind, "{th:?}");
            if tails {
                let (mut w, mut floored) = ([w; LANES], [Floored::default(); LANES]);
                one_lane(&mut view, &mut th, |panel| {
                    panel_condensation(panel, &grids, 5.0, &mut w, &mut floored)
                });
                fired[kind as usize] += floored[0].values;
            }
        }
        assert_eq!(fired[0], 0, "the guard's early return scrubs nothing");
        assert!(
            fired[1..].iter().all(|&f| f > 0),
            "tails floored: {fired:?}"
        );
    }

    /// The relax's scrub at its edges: `N_FLOOR` stays and its lower
    /// neighbour goes (tallied), negatives become `+0.0` (not tallied),
    /// `±0.0`, NaN and ∞ keep their bits — on a point scrubbed alone, and
    /// on every masked lane of an eight-lane batch of it, whose
    /// masked-off lanes keep their bits and tally nothing.
    #[test]
    fn scrub_tails_edges_in_both_layouts() {
        let grids = Grids::new();
        let below = f32::from_bits(N_FLOOR.to_bits() - 1);
        let edges = [
            (N_FLOOR, N_FLOOR),
            (below, 0.0),
            (f32::from_bits(1), 0.0),
            (0.0, 0.0),
            (-0.0, -0.0),
            (-1.0e-7, 0.0),
            (-f32::from_bits(1), 0.0),
            (f32::INFINITY, f32::INFINITY),
            (f32::NAN, f32::NAN),
            (3.0e5, 3.0e5),
        ];
        // Edge `e` at bin `e` of class 2, so the tally knows its mass.
        let (c, tails) = (2, [1, 2]);
        let m = &grids.by_index(c).mass;
        let want_mass: f64 = tails
            .iter()
            .map(|&e| f64::from(edges[e].0) * f64::from(m[e]))
            .sum();
        let want_number: f64 = tails.iter().map(|&e| f64::from(edges[e].0)).sum();

        let mut bins = PointBins::empty();
        for (e, &(v, _)) in edges.iter().enumerate() {
            bins.n[c][e] = v;
        }
        let point = (bins, synth_points(1)[0].1);
        let mut alone = gather(std::slice::from_ref(&point));
        let mut one = [Floored::default(); LANES];
        alone.scrub_tail_lanes(
            0..NTYPES,
            &std::array::from_fn(|l| l == 0),
            &grids,
            &mut one,
        );

        let mut panel = gather(&vec![point; LANES]);
        let mask: [bool; LANES] = std::array::from_fn(|l| l % 2 == 0);
        let mut lanes = [Floored::default(); LANES];
        panel.scrub_tail_lanes(0..NTYPES, &mask, &grids, &mut lanes);

        for (e, &(v, want)) in edges.iter().enumerate() {
            assert_eq!(alone.n[c][e][0].to_bits(), want.to_bits(), "alone: {v:e}");
            for (l, (got, &on)) in panel.n[c][e].iter().zip(&mask).enumerate() {
                let want = if on { want } else { v };
                assert_eq!(got.to_bits(), want.to_bits(), "lane {l}: {v:e}");
            }
        }
        assert_eq!(one[0].values, tails.len() as u64);
        assert_eq!(one[0].number, want_number);
        assert_eq!(one[0].mass, want_mass);
        for (l, (tally, &on)) in lanes.iter().zip(&mask).enumerate() {
            let want = if on { floored_bits(&one[0]) } else { (0, 0, 0) };
            assert_eq!(floored_bits(tally), want, "lane {l}");
        }
    }

    /// Collision's scrub: a negative becomes `0.0` on the masked lane, and
    /// everything else — positive values, `-0.0`, a masked-off lane's
    /// negative — keeps its bits.
    #[test]
    fn scrub_negatives() {
        let mut bins = PointBins::empty();
        bins.n[2][3] = -1.0e-6;
        bins.n[2][4] = 5.0;
        bins.n[2][5] = -0.0;
        let mut panel = gather(&vec![(bins, synth_points(1)[0].1); 2]);
        panel.scrub_lanes(&std::array::from_fn(|l| l == 0));
        let bits = |k: usize, l: usize| panel.n[2][k][l].to_bits();
        assert_eq!(
            [bits(3, 0), bits(4, 0), bits(5, 0)],
            [0.0f32, 5.0, -0.0].map(f32::to_bits)
        );
        assert_eq!(bits(3, 1), (-1.0e-6f32).to_bits());
    }

    /// A lane's occupied range: `None` for an empty class, else the first
    /// and last bin above `N_EPS`, whatever the other lanes hold; one
    /// metered pass over the class a call.
    #[test]
    fn active_range_finds_occupied_bins() {
        let th = synth_points(1)[0].1;
        let mut bins = PointBins::empty();
        bins.n[0][4] = 1.0;
        bins.n[0][9] = 1.0;
        let panel = gather(&[(PointBins::empty(), th), (bins, th)]);
        let mut w = PointWork::ZERO;
        assert_eq!(panel.active_range_lane(HydroClass::Water, 0, &mut w), None);
        assert_eq!(
            panel.active_range_lane(HydroClass::Water, 1, &mut w),
            Some((4, 9))
        );
        assert_eq!(w.mem_ops, 2 * NKR as u64);
    }

    /// Each lane's predicate and its meter are those of its point batched
    /// alone: condensate above `Q_EPS`, warmer than the coalescence floor.
    #[test]
    fn panel_predicate_matches_driver() {
        let grids = Grids::new();
        let points = synth_points(LANES);
        let panel = gather(&points);
        let mut pw = [PointWork::ZERO; LANES];
        let pred = panel_coal_predicate(&panel, &grids, &mut pw);
        for (l, (bins, th)) in points.iter().enumerate() {
            let (mut b, mut th) = (bins.clone(), *th);
            let mut w = [PointWork::ZERO; LANES];
            let alone = one_lane(&mut b.view(), &mut th, |panel| {
                panel_coal_predicate(panel, &grids, &mut w)[0]
            });
            assert_eq!(pred[l], alone, "lane {l} predicate");
            assert_eq!(pw[l], w[0], "lane {l} predicate work");
            let condensate = b.view().total_condensate(&grids, &mut w[1]);
            assert_eq!(alone, th.t > T_MIN_COAL && condensate > Q_EPS, "lane {l}");
        }
    }
}
