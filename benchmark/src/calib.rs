//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are small shared VMs whose speed
//! drifts by tens of percent over seconds (a neighbour on the sibling
//! hardware thread): raw wall times of one commit spread over ~25 % run
//! to run, wider than any regression bound worth having. The drift is
//! multiplicative and hits throughput-bound code — which the model is —
//! so the harness times a small *frozen* throughput-bound kernel right
//! before and after every measured operation and divides the drift out.
//! A calibrated second is a second on a host where that kernel takes
//! [`NOMINAL_S`]; on a quiet run of the reference host the two agree.
//! The kernel lives here, not in the repo's crates, so no optimisation
//! of the program can move it. (benchmark/README.md has the numbers.)

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Elements of the kernel's working array (16 KiB: L1-resident).
const LEN: usize = 4096;
/// Sweeps over the array per sample.
const SWEEPS: usize = 2000;
/// Wall seconds of one sample on the reference host in its usual state
/// (2-core Xeon @ 2.1 GHz VM, rustc 1.95 release; 3.1 ms when the host
/// is quiet, ~4.5 ms when it is not): the definition of a calibrated
/// second. Changing it rescales every calibrated metric.
pub const NOMINAL_S: f64 = 0.004;
/// A before-sample this fresh is reused as the next operation's.
const REUSE_NS: u128 = 500_000;

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// Wall seconds on the reference host: `raw_s / factor`.
    pub cal_s: f64,
    /// Host slowdown around the operation (calibration wall / nominal).
    pub factor: f64,
}

/// One sweep set of the frozen kernel over `buf`; returns wall seconds.
/// A degree-5 polynomial over an L1-resident array, independent lanes,
/// no memory traffic — throughput-bound like the model's inner loops,
/// which is what the host's drift slows.
fn kernel(buf: &mut [f32]) -> f64 {
    let t = Instant::now();
    for _ in 0..SWEEPS {
        for v in buf.iter_mut() {
            let x = *v;
            let p = ((((0.0083 * x + 0.0416) * x + 0.1666) * x + 0.5) * x + 1.0) * x + 1.0;
            // exp(x)/e keeps every lane in (0, 1]: no denormals.
            *v = p * 0.367_879_44;
        }
        black_box(&mut *buf);
    }
    t.elapsed().as_secs_f64()
}

/// A second thread that runs the kernel on request, so the host can be
/// sampled with both cores busy.
struct Helper {
    go: mpsc::Sender<()>,
    wall: mpsc::Receiver<f64>,
    thread: std::thread::JoinHandle<()>,
}

impl Helper {
    fn spawn() -> Self {
        let (go, go_rx) = mpsc::channel::<()>();
        let (wall_tx, wall) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("calib-helper".into())
            .spawn(move || {
                let mut buf = vec![0.5f32; LEN];
                // Ends when the clock drops its sender.
                while go_rx.recv().is_ok() {
                    if wall_tx.send(kernel(&mut buf)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn calibration helper");
        Helper { go, wall, thread }
    }
}

/// Times operations in raw and calibrated seconds.
pub struct Clock {
    buf: Vec<f32>,
    last: Option<(Instant, f64)>,
    /// Present when operations keep two threads busy: the kernel then
    /// runs on two threads at once and the sample is their mean.
    helper: Option<Helper>,
}

impl Drop for Clock {
    fn drop(&mut self) {
        if let Some(Helper { go, wall, thread }) = self.helper.take() {
            // Closing the channel ends the helper's loop.
            drop((go, wall));
            let _ = thread.join();
        }
    }
}

impl Clock {
    /// A clock whose calibration kernel runs on `threads` threads at
    /// once (1 or 2): as many as the timed operations keep busy, since
    /// a host with both cores loaded is a different host from one with
    /// a core idle.
    pub fn new(threads: usize) -> Self {
        let mut c = Clock {
            buf: vec![0.5; LEN],
            last: None,
            helper: (threads >= 2).then(Helper::spawn),
        };
        c.sample();
        c
    }

    /// Runs the frozen kernel once and returns its wall seconds.
    pub fn sample(&mut self) -> f64 {
        let s = match &self.helper {
            None => kernel(&mut self.buf),
            Some(h) => {
                h.go.send(()).expect("calibration helper alive");
                let mine = kernel(&mut self.buf);
                let theirs = h.wall.recv().expect("calibration helper alive");
                0.5 * (mine + theirs)
            }
        };
        self.last = Some((Instant::now(), s));
        s
    }

    /// Times `f`, bracketing it with calibration samples (the sample
    /// after one operation doubles as the next one's before-sample
    /// when they are back to back).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last {
            Some((at, s)) if at.elapsed().as_nanos() < REUSE_NS => s,
            _ => self.sample(),
        };
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.sample();
        let factor = 0.5 * (before + after) / NOMINAL_S;
        (
            out,
            Timing {
                raw_s,
                cal_s: raw_s / factor,
                factor,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_is_raw_over_factor() {
        for threads in [1, 2] {
            let mut c = Clock::new(threads);
            let (v, t) = c.time(|| (0..100_000u64).map(black_box).sum::<u64>());
            assert_eq!(v, 4_999_950_000);
            assert!(t.raw_s > 0.0 && t.factor > 0.0);
            assert!((t.cal_s * t.factor - t.raw_s).abs() <= 1e-12 * t.raw_s.max(1.0));
            // The kernel's values stay bounded however long it runs.
            for _ in 0..5 {
                c.sample();
            }
            assert!(c.buf.iter().all(|v| *v > 0.0 && *v <= 1.0));
        }
    }
}
