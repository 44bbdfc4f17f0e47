//! The clear-air fast paths against the loops they skip.
//!
//! An empty class (every bin `±0.0`) makes `mass_of` and the panel lane
//! sum return `+0.0` without summing, and freezing/melting skip the
//! class; sedimentation takes each level's fall-speed factor once instead
//! of once per (bin, substep). [`reference`] keeps the loops as they ran
//! before those paths existed. The properties draw each class from the
//! spectra that sit on either side of the empty test — all `+0.0`, all
//! `-0.0`, mixed zeros, one subnormal, one `-1e-30`, one NaN, dense — and
//! require the bits and the metered [`PointWork`] of both to agree, and
//! the empty test to fire exactly on the classes whose bins all compare
//! equal to zero.
//!
//! A point whose every class is empty after the pre stage is *clear*
//! ([`BinsView::is_clear`](crate::point::BinsView::is_clear)): the
//! post-sweep meters it without reading its bins
//! ([`fast_sbm_post_clear`]), and a column of clear points falls without
//! reading a density or a bin. The last three tests pin both skips to the
//! paths they replace.

use crate::bins::{density_factor, BinGrid};
use crate::constants::{T_0, T_MIN_COAL};
use crate::meter::PointWork;
use crate::panels::{panel_coal_predicate, sedimentation_column_soa, SedScratch, SoaPanel, LANES};
use crate::point::{all_zero, Grids, PointBins, PointThermo};
use crate::processes::driver::{fast_sbm_post, fast_sbm_post_clear, PointOutcome};
use crate::processes::freezing::freezing_melting;
use crate::scheme::{fall_after_pre, ColumnFall, Layout};
use crate::state::SbmPatchState;
use crate::thermo::{air_density, qsat_liquid};
use crate::types::{HydroClass, NKR, NTYPES};
use proptest::prelude::*;
use wrf_grid::{two_d_decomposition, Domain};

/// The loops as they ran before the fast paths.
mod reference {
    use crate::bins::BinGrid;
    use crate::constants::T_MIN_COAL;
    use crate::constants::{CP, L_F, T_0};
    use crate::meter::PointWork;
    use crate::panels::{SoaPanel, LANES};
    use crate::point::{deposit_mass, Grids, PointBins, PointThermo, Q_EPS};
    use crate::processes::freezing::{BIGG_A, BIGG_B, R_HAIL, TAU_MELT, T_HOM};
    use crate::types::{HydroClass, NKR};

    pub fn mass_of(bins: &PointBins, c: HydroClass, grids: &Grids, w: &mut PointWork) -> f32 {
        let g = grids.of(c);
        let s = &bins.n[c.index()];
        let mut q = 0.0f32;
        for (n, m) in s.iter().zip(&g.mass) {
            q += n * m;
        }
        w.fm(2 * NKR as u64, NKR as u64);
        q
    }

    pub fn total_condensate(bins: &PointBins, grids: &Grids, w: &mut PointWork) -> f32 {
        HydroClass::ALL
            .iter()
            .map(|&c| mass_of(bins, c, grids, w))
            .sum()
    }

    fn mass_of_lane(
        panel: &SoaPanel,
        class: HydroClass,
        g: &BinGrid,
        lane: usize,
        w: &mut PointWork,
    ) -> f32 {
        let c = class.index();
        let mut q = 0.0f32;
        for k in 0..NKR {
            q += panel.n[c][k][lane] * g.mass[k];
        }
        w.fm(2 * NKR as u64, NKR as u64);
        q
    }

    pub fn total_condensate_lane(
        panel: &SoaPanel,
        grids: &Grids,
        lane: usize,
        w: &mut PointWork,
    ) -> f32 {
        let mut tot = 0.0f32;
        for &c in HydroClass::ALL.iter() {
            tot += mass_of_lane(panel, c, grids.of(c), lane, w);
        }
        tot
    }

    pub fn panel_coal_predicate(
        panel: &SoaPanel,
        grids: &Grids,
        works: &mut [PointWork; LANES],
    ) -> [bool; LANES] {
        let mut out = [false; LANES];
        for (l, slot) in out.iter_mut().enumerate().take(panel.len) {
            let condensate = total_condensate_lane(panel, grids, l, &mut works[l]);
            *slot = panel.t[l] > T_MIN_COAL && condensate > Q_EPS;
        }
        out
    }

    pub fn freezing_melting(
        b: &mut PointBins,
        th: &mut PointThermo,
        grids: &Grids,
        dt: f32,
        w: &mut PointWork,
    ) {
        if th.t < T_0 {
            freeze(b, th, grids, dt, w);
        } else if th.t > T_0 {
            melt(b, th, grids, dt, w);
        }
    }

    fn freeze(b: &mut PointBins, th: &mut PointThermo, grids: &Grids, dt: f32, w: &mut PointWork) {
        let mut bins = b.view();
        let gw = grids.of(HydroClass::Water);
        let supercool = T_0 - th.t;
        let homogeneous = th.t < T_HOM;
        let expfac = (BIGG_A * supercool).min(40.0).exp() - 1.0;
        w.f(8);
        let mut frozen_mass = 0.0f32;
        for k in 0..NKR {
            let n = bins.class(HydroClass::Water)[k];
            w.m(1);
            if n <= 0.0 {
                continue;
            }
            let frac = if homogeneous {
                1.0
            } else {
                (BIGG_B * gw.mass[k] * expfac * dt).min(1.0)
            };
            w.f(5);
            if frac <= 0.0 {
                continue;
            }
            let dn = n * frac;
            let target = if gw.radius[k] >= R_HAIL {
                HydroClass::Hail
            } else {
                HydroClass::Graupel
            };
            bins.class_mut(HydroClass::Water)[k] -= dn;
            deposit_mass(bins.class_mut(target), grids.of(target), gw.mass[k], dn, w);
            frozen_mass += dn * gw.mass[k];
            w.fm(4, 2);
        }
        th.t += L_F * frozen_mass / CP;
        w.f(3);
    }

    fn melt(b: &mut PointBins, th: &mut PointThermo, grids: &Grids, dt: f32, w: &mut PointWork) {
        let mut bins = b.view();
        let gw = grids.of(HydroClass::Water);
        let warm = th.t - T_0;
        let mut melted_mass = 0.0f32;
        for class in HydroClass::ALL.iter().filter(|c| c.is_ice()) {
            let g = grids.of(*class);
            for k in 0..NKR {
                let n = bins.class(*class)[k];
                w.m(1);
                if n <= 0.0 {
                    continue;
                }
                let size_slow = (g.radius[k] / 1.0e-3).max(0.1);
                let frac = (warm * dt / (TAU_MELT * size_slow)).min(1.0);
                w.f(6);
                if frac <= 0.0 {
                    continue;
                }
                let dn = n * frac;
                bins.class_mut(*class)[k] -= dn;
                deposit_mass(bins.class_mut(HydroClass::Water), gw, g.mass[k], dn, w);
                melted_mass += dn * g.mass[k];
                w.fm(4, 2);
            }
        }
        th.t -= L_F * melted_mass / CP;
        w.f(3);
    }

    /// The bin-major sweep over `bins[k * nz + l]`, fall speeds filled
    /// per (bin, level) from `vt_at`.
    pub fn sedimentation_column_soa(
        bins: &mut [f32],
        grid: &BinGrid,
        rho: &[f32],
        dz: f32,
        dt: f32,
        w: &mut PointWork,
    ) -> f32 {
        let nz = rho.len();
        let mut vt = vec![0.0f32; NKR * nz];
        let mut flux = vec![0.0f32; nz + 1];
        let vmax = grid.vt_at(NKR - 1, rho.iter().cloned().fold(f32::INFINITY, f32::min));
        let nsub = ((vmax * dt / dz).ceil() as usize).max(1);
        let dts = dt / nsub as f32;
        w.f(6);
        for k in 0..NKR {
            for (l, &r) in rho.iter().enumerate() {
                vt[k * nz + l] = grid.vt_at(k, r);
            }
        }
        let mut precip = 0.0f32;
        for (k, mass_k) in grid.mass.iter().enumerate() {
            let col_k = &mut bins[k * nz..(k + 1) * nz];
            if col_k.iter().all(|v| v.to_bits() == 0) {
                w.fm(
                    nsub as u64 * (8 * nz as u64 + 3),
                    nsub as u64 * 4 * nz as u64,
                );
                continue;
            }
            let vt_k = &vt[k * nz..(k + 1) * nz];
            for _ in 0..nsub {
                for l in 0..nz {
                    flux[l] = rho[l] * col_k[l] * vt_k[l];
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
}

/// A splitmix64 stream: the draws of one property case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next() >> 40) as f32 / (1u64 << 24) as f32)
    }

    fn zero(&mut self) -> f32 {
        if self.next() & 1 == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// One class's bins, from one of the seven kinds of spectrum.
    fn class(&mut self) -> [f32; NKR] {
        let mut bins = [0.0f32; NKR];
        match self.below(7) {
            0 => {}
            1 => bins = [-0.0; NKR],
            2 => bins = std::array::from_fn(|_| self.zero()),
            kind @ 3..=5 => {
                bins = std::array::from_fn(|_| self.zero());
                bins[self.below(NKR as u64)] = match kind {
                    3 => f32::from_bits(1 + self.below(0x007f_ffff) as u32),
                    4 => -1.0e-30,
                    _ => f32::NAN,
                };
            }
            _ => {
                for b in &mut bins {
                    *b = match self.below(3) {
                        0 => self.zero(),
                        _ => self.uniform(0.0, 1.0).powi(4) * 1.0e7,
                    };
                }
            }
        }
        bins
    }

    fn point(&mut self) -> PointBins {
        PointBins {
            n: std::array::from_fn(|_| self.class()),
        }
    }
}

fn bits(b: &PointBins) -> Vec<u32> {
    b.n.iter().flatten().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The empty test fires exactly on the classes whose 33 bins all
    /// compare equal to zero: both zeros, no subnormal, no negative, no
    /// NaN.
    #[test]
    fn empty_test_is_every_bin_equal_to_zero(seed in any::<u64>()) {
        let mut d = Draw(seed);
        for _ in 0..NTYPES {
            let class = d.class();
            prop_assert_eq!(
                all_zero(class.iter().copied()),
                class.iter().all(|&v| v == 0.0),
                "{:?}",
                class
            );
        }
    }

    /// `mass_of`, `total_condensate`, the panel lane sums and
    /// `panel_coal_predicate`: the bits and the meter of the loops.
    #[test]
    fn mass_sums_match_the_loops(seed in any::<u64>()) {
        let grids = Grids::new();
        let mut d = Draw(seed);
        let points: Vec<PointBins> = (0..1 + d.below(LANES as u64)).map(|_| d.point()).collect();
        let mut panel = SoaPanel::new();
        for b in &points {
            let t = d.uniform(T_MIN_COAL - 5.0, T_MIN_COAL + 5.0);
            panel.push_with(t, 1.0e-3, 80_000.0, 1.0, |c, k| b.n[c][k]);
        }
        for (l, b) in points.iter().enumerate() {
            let mut b = b.clone();
            let view = b.view();
            let (mut got, mut want) = (PointWork::ZERO, PointWork::ZERO);
            for c in HydroClass::ALL {
                let q = view.mass_of(c, &grids, &mut got);
                let r = reference::mass_of(&points[l], c, &grids, &mut want);
                prop_assert_eq!(q.to_bits(), r.to_bits(), "{:?}", c);
            }
            let q = view.total_condensate(&grids, &mut got);
            let r = reference::total_condensate(&points[l], &grids, &mut want);
            prop_assert_eq!(q.to_bits(), r.to_bits());
            let q = panel.total_condensate_lane(&grids, l, &mut got);
            let r = reference::total_condensate_lane(&panel, &grids, l, &mut want);
            prop_assert_eq!(q.to_bits(), r.to_bits(), "lane {}", l);
            prop_assert_eq!(got, want);
        }
        let mut got = [PointWork::ZERO; LANES];
        let mut want = [PointWork::ZERO; LANES];
        let preds = panel_coal_predicate(&panel, &grids, &mut got);
        prop_assert_eq!(preds, reference::panel_coal_predicate(&panel, &grids, &mut want));
        prop_assert_eq!(got, want);
    }

    /// `freezing_melting` below, at and above `T_0`: bins, temperature
    /// and meter.
    #[test]
    fn freezing_melting_matches_the_loops(seed in any::<u64>()) {
        let grids = Grids::new();
        let mut d = Draw(seed);
        let point = d.point();
        let dt = d.uniform(1.0, 60.0);
        for t in [d.uniform(T_0 - 45.0, T_0), T_0, d.uniform(T_0, T_0 + 10.0)] {
            let th = PointThermo { t, qv: 1.0e-3, p: 60_000.0, rho: 0.8 };
            let (mut b_got, mut b_want) = (point.clone(), point.clone());
            let (mut th_got, mut th_want) = (th, th);
            let (mut got, mut want) = (PointWork::ZERO, PointWork::ZERO);
            freezing_melting(&mut b_got.view(), &mut th_got, &grids, dt, &mut got);
            reference::freezing_melting(&mut b_want, &mut th_want, &grids, dt, &mut want);
            prop_assert_eq!(bits(&b_got), bits(&b_want), "T = {}", t);
            prop_assert_eq!(th_got.t.to_bits(), th_want.t.to_bits(), "T = {}", t);
            prop_assert_eq!(got, want, "T = {}", t);
        }
    }

    /// The sedimentation column over random densities, every class.
    #[test]
    fn sedimentation_matches_the_loops(seed in any::<u64>()) {
        let grids = Grids::new();
        let mut d = Draw(seed);
        let nz = 1 + d.below(12);
        let rho: Vec<f32> = (0..nz).map(|_| d.uniform(1.0e-4, 1.5)).collect();
        let factor: Vec<f32> = rho.iter().map(|&r| density_factor(r)).collect();
        let dz = d.uniform(50.0, 500.0);
        let dt = d.uniform(1.0, 20.0);
        for c in 0..NTYPES {
            let grid: &BinGrid = grids.by_index(c);
            let col: Vec<[f32; NKR]> = (0..nz).map(|_| d.class()).collect();

            let mut scratch = SedScratch::new();
            scratch.ensure(nz);
            let mut want_bins = vec![0.0f32; NKR * nz];
            for (l, lvl) in col.iter().enumerate() {
                for (k, &v) in lvl.iter().enumerate() {
                    scratch.bins[k * nz + l] = v;
                    want_bins[k * nz + l] = v;
                }
            }
            let (mut got, mut want) = (PointWork::ZERO, PointWork::ZERO);
            let p = sedimentation_column_soa(&mut scratch, grid, &rho, &factor, dz, dt, &mut got);
            let r = reference::sedimentation_column_soa(&mut want_bins, grid, &rho, dz, dt, &mut want);
            prop_assert_eq!(p.to_bits(), r.to_bits(), "class {}", c);
            let got_bits: Vec<u32> = scratch.bins.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want_bins.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits, "class {}", c);
            prop_assert_eq!(got, want, "class {}", c);
        }
    }
}

/// The points the clear test tells apart, with whether each is clear:
/// every class all `+0.0`, all `-0.0`, or mixed zeros; then mixed zeros
/// with one positive subnormal, one `-1e-30` or one NaN in one class.
fn clear_kinds() -> [(&'static str, PointBins, bool); 6] {
    let mixed = PointBins {
        n: std::array::from_fn(|c| {
            std::array::from_fn(|k| if (c + k) % 3 == 0 { -0.0 } else { 0.0 })
        }),
    };
    let with = |v: f32| {
        let mut b = mixed.clone();
        b.n[3][17] = v;
        b
    };
    [
        ("+0.0", PointBins::empty(), true),
        (
            "-0.0",
            PointBins {
                n: [[-0.0; NKR]; NTYPES],
            },
            true,
        ),
        ("mixed zeros", mixed.clone(), true),
        ("positive subnormal", with(f32::from_bits(1)), false),
        ("-1e-30", with(-1.0e-30), false),
        ("NaN", with(f32::NAN), false),
    ]
}

/// `is_clear` and the clear half of `condensate_and_clear` read only
/// the two zeros as empty; the condensate half is the loop's sum, bits
/// and meter.
#[test]
fn clear_test_reads_only_zeros() {
    let grids = Grids::new();
    for (kind, mut b, want) in clear_kinds() {
        let before = b.clone();
        let view = b.view();
        assert_eq!(view.is_clear(), want, "{kind}");
        let (mut got_w, mut want_w) = (PointWork::ZERO, PointWork::ZERO);
        let (q, clear) = view.condensate_and_clear(&grids, &mut got_w);
        let r = reference::total_condensate(&before, &grids, &mut want_w);
        assert_eq!(clear, want, "{kind}");
        assert_eq!(q.to_bits(), r.to_bits(), "{kind}");
        assert_eq!(got_w, want_w, "{kind}");
    }
}

/// The clear post path against the bins path below, at and above `T_0`
/// (and below homogeneous freezing): the same meter, the thermo's bits
/// unchanged by either, the bins' bits unchanged by the bins path.
#[test]
fn clear_post_matches_the_bins_path() {
    let grids = Grids::new();
    let mut empty = PointBins::empty();
    for (kind, before, clear) in clear_kinds() {
        if !clear {
            continue;
        }
        for t in [T_0 - 45.0, T_0 - 12.0, T_0, T_0 + 4.0] {
            let th = PointThermo {
                t,
                qv: 2.0e-3,
                p: 70_000.0,
                rho: 0.9,
            };
            let active = PointOutcome {
                active: true,
                ..PointOutcome::default()
            };
            let (mut b, mut th_bins, mut want) = (before.clone(), th, active);
            fast_sbm_post(&mut b.view(), &mut th_bins, &grids, 5.0, &mut want);
            let mut got = active;
            fast_sbm_post_clear(th, &grids, 5.0, &mut empty, &mut got);
            assert_eq!(got, want, "{kind}, T = {t}");
            assert!(
                want.work.freeze.flops + want.work.breakup.flops > 0,
                "{kind}, T = {t}"
            );
            let thermo_bits = |th: &PointThermo| [th.t, th.qv, th.p, th.rho].map(f32::to_bits);
            assert_eq!(thermo_bits(&th_bins), thermo_bits(&th), "{kind}, T = {t}");
            assert_eq!(bits(&b), bits(&before), "{kind}, T = {t}");
            assert_eq!(bits(&empty), bits(&PointBins::empty()), "{kind}, T = {t}");
        }
    }
}

/// An `8 × 4 × 2` patch, subsaturated at 280 K, one column of each kind
/// the column skip tells apart: every level of one [`clear_kinds`] kind
/// (the last three at one level only), a column with a level below the
/// physics guard holding a NaN, a raining column; the second row clear.
/// Returns the state and which columns are clear.
fn column_state() -> (SbmPatchState, Vec<bool>) {
    let d = Domain::new(8, 4, 2);
    let patch = two_d_decomposition(d, 1, 0).patches[0];
    let mut st = SbmPatchState::new(patch);
    for j in patch.jm.iter() {
        for k in patch.km.iter() {
            for i in patch.im.iter() {
                let (t, p) = (280.0 - 2.0 * k as f32, 90_000.0 - 5_000.0 * k as f32);
                st.p.set(i, k, j, p);
                st.tt.set(i, k, j, t);
                st.rho.set(i, k, j, air_density(t, p));
                st.qv.set(i, k, j, qsat_liquid(t, p) * 0.5);
            }
        }
    }
    let (i0, j0, k0) = (patch.ip.lo, patch.jp.lo, patch.kp.lo);
    let mut clear = vec![true; patch.compute_columns()];
    for (n, (_, bins, is_clear)) in clear_kinds().into_iter().enumerate() {
        let i = i0 + n as i32;
        let levels = if is_clear {
            patch.kp.iter().collect()
        } else {
            vec![k0 + 1]
        };
        for k in levels {
            st.store_bins(i, k, j0, &bins);
        }
        clear[n] = is_clear;
    }
    // Below the guard: inactive, so its column is not clear.
    let mut nan = PointBins::empty();
    nan.n[5][9] = f32::NAN;
    st.tt.set(i0 + 6, k0 + 2, j0, 190.0);
    st.store_bins(i0 + 6, k0 + 2, j0, &nan);
    clear[6] = false;
    // Rain at the lowest two levels.
    let mut rain = PointBins::empty();
    (20..=26).for_each(|b| rain.n[0][b] = 3.0e2);
    for k in [k0, k0 + 1] {
        st.store_bins(i0 + 7, k, j0, &rain);
    }
    clear[7] = false;
    (st, clear)
}

/// A clear column's fall is the full loop's, and so is every other
/// column's and every state bit, in both layouts; exactly the columns of
/// clear points skip.
#[test]
fn clear_columns_fall_as_the_full_loop() {
    let (st, want_clear) = column_state();
    for layout in Layout::ALL {
        let (skipped, got) = fall_after_pre(st.clone(), layout, true);
        let (full, want) = fall_after_pre(st.clone(), layout, false);
        let state_bits = |st: &SbmPatchState| -> Vec<u32> {
            let slabs = st.ff.iter().map(|f| f.as_slice());
            ([st.tt.as_slice(), st.qv.as_slice()]
                .into_iter()
                .chain(slabs))
            .flat_map(|f| f.iter().map(|x| x.to_bits()))
            .collect()
        };
        assert!(
            state_bits(&skipped) == state_bits(&full),
            "{layout:?}: state"
        );
        let clear: Vec<bool> = got.iter().map(|f| f.clear).collect();
        assert_eq!(clear, want_clear, "{layout:?}");
        assert!(want.iter().all(|f| !f.clear), "{layout:?}");
        for (col, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                *got,
                ColumnFall {
                    clear: got.clear,
                    ..*want
                },
                "{layout:?}, column {col}"
            );
        }
        assert!(
            want[7].precip[0] > 0.0,
            "{layout:?}: the rain column must rain"
        );
        assert!(
            want[3].floored.values > 0,
            "{layout:?}: the subnormal is floored"
        );
    }
}
