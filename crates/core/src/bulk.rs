//! A Kessler-type warm-rain *bulk* scheme — the contrast class of the
//! paper's Figure 2.
//!
//! Bulk schemes represent the drop spectrum by one or two moments of an
//! assumed analytic distribution and parameterize conversions between
//! "cloud" and "rain" reservoirs; bin schemes integrate the spectrum
//! explicitly. This module implements the classic single-moment warm-rain
//! trio (autoconversion, accretion, rain evaporation + saturation
//! adjustment) so the repository can *demonstrate* the figure's point:
//! the two families agree on gross water budgets but differ in rain
//! onset and spectral detail — at ~1/1000 of the bin scheme's cost
//! (which is precisely why offloading FSBM matters).

use crate::constants::{CP, L_V, R_V};
use crate::meter::PointWork;
use crate::thermo::qsat_liquid;

/// Bulk water state of one grid point: vapor, cloud, rain (kg/kg).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BulkState {
    /// Water vapor mixing ratio.
    pub qv: f32,
    /// Cloud (non-precipitating) water.
    pub qc: f32,
    /// Rain water.
    pub qr: f32,
    /// Temperature, K.
    pub t: f32,
}

/// Kessler parameters (the WRF `mp_physics=1` constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KesslerParams {
    /// Autoconversion threshold, kg/kg.
    pub qc0: f32,
    /// Autoconversion rate, 1/s.
    pub k1: f32,
    /// Accretion rate coefficient, 1/s.
    pub k2: f32,
    /// Rain evaporation ventilation coefficient.
    pub c_evap: f32,
}

impl Default for KesslerParams {
    fn default() -> Self {
        KesslerParams {
            qc0: 0.5e-3,
            k1: 1.0e-3,
            k2: 2.2,
            c_evap: 5.0e-3,
        }
    }
}

/// Advances the bulk state by `dt` at pressure `p`. Returns the rain
/// produced this step (autoconversion + accretion), kg/kg.
pub fn kessler_step(
    st: &mut BulkState,
    p: f32,
    dt: f32,
    params: &KesslerParams,
    w: &mut PointWork,
) -> f32 {
    // 1. Saturation adjustment (linearized, WRF's `module_mp_kessler`
    //    form): Δq = (qv − qs)/Γ with Γ = 1 + (L/cp)(∂qs/∂T) accounts for
    //    the latent-heat feedback, so the adjustment lands on saturation
    //    instead of oscillating around it.
    for _ in 0..2 {
        let qs = qsat_liquid(st.t, p);
        let dqs_dt = L_V * qs / (R_V * st.t * st.t);
        let gamma = 1.0 + (L_V / CP) * dqs_dt;
        let mut dq = (st.qv - qs) / gamma;
        if dq < 0.0 {
            dq = dq.max(-st.qc); // can only evaporate existing cloud
        }
        st.qv -= dq;
        st.qc += dq;
        st.t += L_V * dq / CP;
        w.f(18);
    }

    // 2. Autoconversion: cloud → rain beyond the threshold.
    let auto = (params.k1 * (st.qc - params.qc0).max(0.0) * dt).min(st.qc);
    // 3. Accretion: rain collects cloud, ∝ qc qr^0.875 (Kessler).
    let accr = (params.k2 * st.qc * st.qr.max(0.0).powf(0.875) * dt).min(st.qc - auto);
    st.qc -= auto + accr;
    st.qr += auto + accr;
    w.f(14);

    // 4. Rain evaporation in subsaturated air.
    let qs = qsat_liquid(st.t, p);
    if st.qv < qs && st.qr > 0.0 {
        let deficit = qs - st.qv;
        let evap = (params.c_evap * deficit * st.qr.sqrt() * dt).min(st.qr);
        st.qr -= evap;
        st.qv += evap;
        st.t -= L_V * evap / crate::constants::CP;
        w.f(12);
    }
    auto + accr
}

/// Total water of a bulk state (budget checks).
pub fn total_water(st: &BulkState) -> f32 {
    st.qv + st.qc + st.qr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelMode;
    use crate::kernels::KernelTables;
    use crate::panels::DepositSplits;
    use crate::point::{Grids, PointBins, PointThermo};
    use crate::processes::driver::fast_sbm_point;

    fn saturated_state(t: f32, p: f32, factor: f32) -> BulkState {
        BulkState {
            qv: qsat_liquid(t, p) * factor,
            qc: 0.0,
            qr: 0.0,
            t,
        }
    }

    #[test]
    fn supersaturation_becomes_cloud_then_rain() {
        let p = 85_000.0;
        // Strong moisture excess: the adjusted cloud water clears the
        // autoconversion threshold.
        let mut st = saturated_state(288.0, p, 1.2);
        let params = KesslerParams::default();
        let mut w = PointWork::ZERO;
        let mut rain_total = 0.0;
        for _ in 0..400 {
            rain_total += kessler_step(&mut st, p, 5.0, &params, &mut w);
        }
        assert!(st.qc > 0.0 || st.qr > 0.0, "condensate forms");
        assert!(rain_total > 0.0, "rain forms past the threshold");
        assert!(st.qr > st.qc, "most condensate converts to rain eventually");
    }

    #[test]
    fn water_is_conserved() {
        let p = 80_000.0;
        let mut st = saturated_state(290.0, p, 1.08);
        let before = total_water(&st);
        let params = KesslerParams::default();
        let mut w = PointWork::ZERO;
        for _ in 0..100 {
            kessler_step(&mut st, p, 5.0, &params, &mut w);
        }
        let after = total_water(&st);
        assert!(
            (after - before).abs() / before < 1e-4,
            "{before} -> {after}"
        );
        assert!(st.qv >= 0.0 && st.qc >= 0.0 && st.qr >= 0.0);
    }

    #[test]
    fn no_rain_below_threshold() {
        let p = 85_000.0;
        // Barely supersaturated: condensate stays under qc0.
        let mut st = saturated_state(288.0, p, 1.0002);
        let params = KesslerParams::default();
        let mut w = PointWork::ZERO;
        let mut rain = 0.0;
        for _ in 0..50 {
            rain += kessler_step(&mut st, p, 5.0, &params, &mut w);
        }
        assert!(st.qc <= params.qc0 * 1.2);
        assert!(rain < 1e-9, "no autoconversion below threshold: {rain}");
    }

    #[test]
    fn subsaturated_rain_evaporates() {
        let p = 85_000.0;
        let mut st = saturated_state(290.0, p, 0.5);
        st.qr = 1.0e-3;
        let params = KesslerParams::default();
        let mut w = PointWork::ZERO;
        let qr0 = st.qr;
        for _ in 0..100 {
            kessler_step(&mut st, p, 5.0, &params, &mut w);
        }
        assert!(st.qr < qr0 * 0.7, "rain shrinks: {}", st.qr);
        assert!(st.qv > qsat_liquid(290.0, p) * 0.5);
    }

    /// The Figure 2 contrast, executable: same initial supersaturation,
    /// bulk vs bin. Both condense similar total water; the bulk scheme is
    /// orders of magnitude cheaper; the bin scheme resolves a spectrum
    /// (many occupied bins) the bulk scheme cannot represent.
    #[test]
    fn bulk_vs_bin_figure2_contrast() {
        let (t, p) = (288.0f32, 85_000.0f32);
        let qv0 = qsat_liquid(t, p) * 1.03;

        // Bulk.
        let mut bulk = BulkState {
            qv: qv0,
            qc: 0.0,
            qr: 0.0,
            t,
        };
        let params = KesslerParams::default();
        let mut w_bulk = PointWork::ZERO;
        for _ in 0..24 {
            kessler_step(&mut bulk, p, 5.0, &params, &mut w_bulk);
        }
        let bulk_condensate = bulk.qc + bulk.qr;

        // Bin (FSBM point with seeded CCN-like droplets).
        let grids = Grids::new();
        let tables = KernelTables::new();
        let splits = DepositSplits::new(&grids);
        let mut bins = PointBins::empty();
        let mut th = PointThermo {
            t,
            qv: qv0,
            p,
            rho: 1.0,
        };
        let mut w_bin = PointWork::ZERO;
        for _ in 0..24 {
            let mut view = bins.view();
            let told = th.t;
            let out = fast_sbm_point(
                &mut view,
                &mut th,
                &grids,
                KernelMode::OnDemand { tables: &tables, p },
                &splits,
                5.0,
                told,
            );
            w_bin += out.work.total();
        }
        let view = bins.view();
        let bin_condensate = view.total_condensate(&grids, &mut w_bin);

        // Gross water budgets agree within a factor ~2 (different closure
        // assumptions), while costs differ by orders of magnitude.
        assert!(bin_condensate > 0.0 && bulk_condensate > 0.0);
        let ratio = (bin_condensate / bulk_condensate) as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "condensate ratio bin/bulk = {ratio}"
        );
        assert!(
            w_bin.flops > 100 * w_bulk.flops,
            "bin cost {} vs bulk cost {} (the paper's motivation)",
            w_bin.flops,
            w_bulk.flops
        );
        // The bin scheme resolved an actual spectrum.
        let occupied = view
            .class(crate::types::HydroClass::Water)
            .iter()
            .filter(|&&n| n > 1.0)
            .count();
        assert!(occupied >= 5, "spectrum spans {occupied} bins");
    }
}
