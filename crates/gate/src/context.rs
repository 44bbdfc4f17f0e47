//! The measured plane: the one carrier of `(coeffs, pp, traffic, case)`
//! every paper table and every modeled gate prices from.

use fsbm_core::scheme::SbmVersion;
use gpu_sim::machine::{default_backend, Backend};
use gpu_sim::schedule::TrafficRates;
use gpu_sim::DeviceError;
use miniwrf::perfmodel::{
    measure_coeffs, traffic_rates, try_experiment, ExperimentConfig, ExperimentResult,
    MeasuredCoeffs, PerfParams,
};
use wrf_cases::ConusParams;

/// Simulated minutes of every full-scale experiment (the paper's
/// 10-minute runs).
pub const MINUTES: f64 = 10.0;

/// Everything the table/figure generators and the modeled gates need:
/// measured work coefficients, machine parameters, and the
/// cache-simulated DRAM rates. Building one runs the functional model
/// briefly (seconds in release builds).
pub struct ReproContext {
    /// Work coefficients measured from the functional model
    /// (backend-independent).
    pub coeffs: MeasuredCoeffs,
    /// Machine + calibration parameters.
    pub pp: PerfParams,
    /// Cache-simulated DRAM traffic per memory operand.
    pub traffic: TrafficRates,
    /// Scenario used by the modeled experiments.
    pub case: ConusParams,
    /// `(scale, nz, steps)` of the functional measurement.
    pub fidelity: (f64, i32, usize),
}

impl ReproContext {
    /// `(scale, nz, steps)` of [`ReproContext::quick`]'s measurement.
    /// `nz = 24` keeps the full 8 km cloud depth (clipping it would skew
    /// the per-column coefficients the extrapolation relies on).
    pub const QUICK: (f64, i32, usize) = (0.05, 24, 2);

    /// Full-quality context (the `paper` gate's): coefficients from a
    /// spun-up functional run at the case's full 50 levels.
    pub fn full() -> Self {
        Self::with_fidelity(0.10, 50, 5)
    }

    /// The context the zoo gate and the tests price from:
    /// [`ReproContext::QUICK`] fidelity.
    pub fn quick() -> Self {
        let (scale, nz, steps) = Self::QUICK;
        Self::with_fidelity(scale, nz, steps)
    }

    /// A process-wide shared quick context (tests reuse it instead of
    /// re-measuring coefficients per test).
    pub fn quick_shared() -> &'static ReproContext {
        static CTX: std::sync::OnceLock<ReproContext> = std::sync::OnceLock::new();
        CTX.get_or_init(ReproContext::quick)
    }

    /// Context with explicit functional-measurement fidelity.
    pub fn with_fidelity(scale: f64, nz: i32, steps: usize) -> Self {
        ReproContext {
            coeffs: measure_coeffs(scale, nz, steps),
            pp: PerfParams::default(),
            traffic: traffic_rates(default_backend()),
            case: ConusParams::full(),
            fidelity: (scale, nz, steps),
        }
    }

    /// Re-prices this context on another zoo backend: same measured
    /// coefficients (the functional plane is backend-independent), the
    /// perf plane swapped for `backend`'s device, host, and calibration.
    pub fn on_backend(&self, backend: &'static Backend) -> Self {
        ReproContext {
            coeffs: self.coeffs,
            pp: PerfParams::for_backend(backend),
            traffic: traffic_rates(backend),
            case: self.case,
            fidelity: self.fidelity,
        }
    }

    /// Prices `version` on the full-scale case over `ranks` ranks
    /// sharing `gpus` devices (0: a CPU arm), [`MINUTES`] simulated
    /// minutes. An offloaded arm whose contexts do not fit device memory
    /// (§VII-A) is the typed admission error, never a panic.
    pub fn run(
        &self,
        version: SbmVersion,
        ranks: usize,
        gpus: usize,
    ) -> Result<ExperimentResult, DeviceError> {
        let cfg = ExperimentConfig {
            case: self.case,
            version,
            ranks,
            gpus,
            minutes: MINUTES,
        };
        try_experiment(&cfg, &self.coeffs, &self.pp, &self.traffic)
    }
}
