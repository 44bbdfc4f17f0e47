#![warn(missing_docs)]

//! Persistent work-stealing executor for the functional (host-emulated)
//! device plane: the one pool of a model, which every parallel launch of
//! its microphysics, its pooled transport and its overlapped interior
//! tendencies runs on.
//!
//! The seed code emulated one GPU's parallelism by spawning a fresh
//! scoped thread pool inside every kernel launch: thread creation, stack
//! setup and teardown were paid on *every microphysics step*. On the
//! reduced CONUS cases a collision launch runs for a few hundred
//! microseconds, so per-step spawn overhead and the cold stacks were a
//! measurable fraction of the wall clock — and the per-launch
//! atomic-counter loop offered no per-worker locality.
//!
//! [`Executor`] replaces that with WRF's long-lived team model: workers
//! are created **once per run** and parked between launches. A
//! `schedule(static)` launch is one contiguous chunk per worker
//! (`chunk = ceil(total / workers)`). Each worker
//! owns a chunk deque; the owner pops newest-first (LIFO, cache-warm) and
//! idle workers steal oldest-first (FIFO) from victims, which
//! load-balances FSBM's spatially clustered storms without a shared
//! counter in the hot path. The caller participates as worker 0, so a
//! one-worker executor degenerates to a plain serial loop with no
//! synchronization at all.
//!
//! Determinism: the executor only changes *scheduling*. Any job whose
//! per-index work writes disjoint locations and accumulates into
//! commutative integer counters produces bitwise-identical results under
//! every worker count and chunk size — the property the FSBM plane's
//! tests assert.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Locks ignoring poison: a panic that unwound through a lock holder
/// never leaves the executor's own data inconsistent (chunk deques are
/// only mutated between epochs; control state is scalar), and the pool
/// must stay usable after a propagated job panic.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A half-open index range handed to one worker at a time.
type Chunk = (u64, u64);

/// Type-erased pointer to the current epoch's range body. The pointee
/// lives on the submitting caller's stack; [`Executor::run_ranges`] does
/// not return until every chunk has completed, which bounds every
/// dereference to the pointee's real lifetime.
struct Job {
    body: *const (dyn Fn(u64, u64) + Sync),
}

// SAFETY: the pointee is `Sync` and outlives all uses (see `Job` docs).
unsafe impl Send for Job {}

/// Pool control state guarded by one mutex: the dispatch epoch, the
/// current job, the count of workers still inside the epoch's drain,
/// and the shutdown flag.
struct Control {
    epoch: u64,
    job: Option<Job>,
    /// Helper workers currently draining the published job. The caller
    /// retires the job only once this returns to zero: a worker that
    /// woke late for an epoch must not still hold the (stale) body
    /// pointer when the next epoch refills the deques.
    active: usize,
    shutdown: bool,
}

struct Shared {
    ctl: Mutex<Control>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The caller parks here until `remaining` hits zero.
    done_cv: Condvar,
    /// One chunk deque per worker (index 0 = the caller).
    deques: Vec<Mutex<VecDeque<Chunk>>>,
    /// Chunks dispatched but not yet completed in the current epoch.
    remaining: AtomicU64,
    /// A worker body panicked this epoch.
    panicked: AtomicBool,
    /// The first panic payload captured this epoch, rethrown verbatim
    /// by `run_ranges` so callers see the original message.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    // ---- statistics (monotonic since construction / `reset_stats`) ----
    steals: Vec<AtomicU64>,
    executed: Vec<AtomicU64>,
    busy_ns: Vec<AtomicU64>,
    epochs: AtomicU64,
    items: AtomicU64,
    max_queue: AtomicU64,
}

impl Shared {
    fn new(workers: usize) -> Self {
        Shared {
            ctl: Mutex::new(Control {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            epochs: AtomicU64::new(0),
            items: AtomicU64::new(0),
            max_queue: AtomicU64::new(0),
        }
    }

    /// Claims and runs chunks until the epoch is drained. `w` pops its
    /// own deque from the back and steals from the front of the others.
    fn drain(&self, w: usize, body: &(dyn Fn(u64, u64) + Sync)) {
        let n = self.deques.len();
        loop {
            let mut stolen = false;
            let task = {
                let own = lock_clean(&self.deques[w]).pop_back();
                match own {
                    Some(t) => Some(t),
                    None => {
                        let mut found = None;
                        for off in 1..n {
                            let v = (w + off) % n;
                            if let Some(t) = lock_clean(&self.deques[v]).pop_front() {
                                stolen = true;
                                found = Some(t);
                                break;
                            }
                        }
                        found
                    }
                }
            };
            match task {
                Some((lo, hi)) => {
                    if stolen {
                        self.steals[w].fetch_add(1, Ordering::Relaxed);
                    }
                    let t0 = Instant::now();
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(lo, hi))) {
                        // Keep the first payload; later ones are dropped
                        // (as with rayon/OpenMP, one representative
                        // panic propagates).
                        let mut slot = lock_clean(&self.panic_payload);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        self.panicked.store(true, Ordering::Relaxed);
                    }
                    self.busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    self.executed[w].fetch_add(1, Ordering::Relaxed);
                    if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _g = lock_clean(&self.ctl);
                        self.done_cv.notify_all();
                    }
                }
                None => {
                    // Every chunk is claimed; wait for in-flight ones
                    // (bounded by a single chunk's runtime).
                    if self.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, w: usize) {
    let mut seen = 0u64;
    loop {
        let body_ptr = {
            let mut g = lock_clean(&shared.ctl);
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != seen {
                    seen = g.epoch;
                    let ptr = g.job.as_ref().map(|j| j.body);
                    if ptr.is_some() {
                        g.active += 1;
                    }
                    break ptr;
                }
                g = shared.work_cv.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        };
        if let Some(ptr) = body_ptr {
            // SAFETY: `run_ranges` keeps the pointee alive until every
            // chunk has completed *and* `active` has returned to zero,
            // so this worker never dereferences a retired job or drains
            // a later epoch's chunks with this epoch's body.
            let body = unsafe { &*ptr };
            shared.drain(w, body);
            let mut g = lock_clean(&shared.ctl);
            g.active -= 1;
            if g.active == 0 {
                shared.done_cv.notify_all();
            }
        }
    }
}

/// Per-worker statistics snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecStats {
    /// Pool width (including the participating caller, worker 0).
    pub workers: usize,
    /// Jobs dispatched.
    pub epochs: u64,
    /// Total indices covered across all jobs.
    pub items: u64,
    /// Chunks executed, per worker.
    pub executed: Vec<u64>,
    /// Successful steals, per worker.
    pub steals: Vec<u64>,
    /// Nanoseconds spent inside chunk bodies, per worker.
    pub busy_ns: Vec<u64>,
    /// Largest initial deque length observed at dispatch (queue
    /// occupancy high-water mark).
    pub max_queue: u64,
}

impl ExecStats {
    /// Total successful steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Total chunks executed across workers.
    pub fn total_chunks(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Ratio of the least-busy to the most-busy worker (1.0 = perfectly
    /// balanced). Returns 1.0 for empty/serial pools.
    pub fn balance(&self) -> f64 {
        let max = self.busy_ns.iter().copied().max().unwrap_or(0);
        let min = self.busy_ns.iter().copied().min().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            min as f64 / max as f64
        }
    }
}

/// The automatic chunk size of a `total`-index job on a `workers`-wide
/// pool: eight chunks per worker, so a straggler leaves something to
/// steal, clamped to `[1, 4096]` indices.
pub fn auto_chunk(total: u64, workers: usize) -> u64 {
    (total / (workers as u64 * 8)).clamp(1, 4096)
}

/// A persistent pool of `workers` threads (the caller counts as worker
/// 0, so `workers - 1` OS threads are spawned). Jobs are submitted with
/// [`Executor::run_ranges`] / [`Executor::run_indexed`]; between jobs the
/// background workers sleep on a condvar.
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    /// Serializes concurrent `run_*` calls on a shared executor.
    run_lock: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Executor {
    /// Creates a pool of `workers` (min 1). `workers - 1` background
    /// threads start immediately and park until the first job.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared::new(workers));
        let handles = (1..workers)
            .map(|w| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wrf-exec-{w}"))
                    .spawn(move || worker_loop(s, w))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            workers,
            run_lock: Mutex::new(()),
            handles,
        }
    }

    /// Pool width (including the caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `body(lo, hi)` over a partition of `0..total` into chunks of
    /// `chunk` indices (`None` = [`auto_chunk`]). Chunks are
    /// pre-distributed to the worker deques in contiguous blocks; idle
    /// workers steal. Blocks until all chunks complete; returns wall
    /// seconds.
    pub fn run_ranges<F>(&self, total: u64, chunk: Option<u64>, body: F) -> f64
    where
        F: Fn(u64, u64) + Sync,
    {
        let start = Instant::now();
        if total == 0 {
            return 0.0;
        }
        let w = self.workers as u64;
        let chunk = chunk
            .unwrap_or_else(|| auto_chunk(total, self.workers))
            .max(1);

        // Serial fast path: one worker, or a job too small to split.
        if self.workers == 1 || total <= chunk {
            let t0 = Instant::now();
            body(0, total);
            self.shared.busy_ns[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.shared.executed[0].fetch_add(1, Ordering::Relaxed);
            self.shared.epochs.fetch_add(1, Ordering::Relaxed);
            self.shared.items.fetch_add(total, Ordering::Relaxed);
            return start.elapsed().as_secs_f64();
        }

        // Recover from poison: a propagated worker panic in a previous
        // run poisons this lock, but the pool itself stays consistent.
        let _serialized = self.run_lock.lock().unwrap_or_else(|p| p.into_inner());
        let nchunks = total.div_ceil(chunk);
        let per = nchunks.div_ceil(w);
        let mut maxq = 0usize;
        for wi in 0..self.workers {
            let c0 = wi as u64 * per;
            let c1 = ((wi as u64 + 1) * per).min(nchunks);
            let mut dq = lock_clean(&self.shared.deques[wi]);
            for c in c0..c1 {
                let lo = c * chunk;
                let hi = (lo + chunk).min(total);
                dq.push_back((lo, hi));
            }
            maxq = maxq.max(dq.len());
        }
        self.shared
            .max_queue
            .fetch_max(maxq as u64, Ordering::Relaxed);
        self.shared.items.fetch_add(total, Ordering::Relaxed);
        self.shared.epochs.fetch_add(1, Ordering::Relaxed);
        self.shared.remaining.store(nchunks, Ordering::Release);

        let wide: &(dyn Fn(u64, u64) + Sync) = &body;
        // SAFETY: lifetime erasure only; see `Job`.
        let erased: *const (dyn Fn(u64, u64) + Sync) = unsafe { std::mem::transmute(wide) };
        {
            let mut g = lock_clean(&self.shared.ctl);
            g.job = Some(Job { body: erased });
            g.epoch += 1;
            self.shared.work_cv.notify_all();
        }

        // Participate as worker 0.
        self.shared.drain(0, &body);

        // Wait for stragglers, then retire the job pointer. Waiting for
        // `active` (not just `remaining`) to reach zero is what makes
        // the next epoch safe: a worker that woke late still holds this
        // epoch's body pointer until it leaves `drain`, and must not be
        // left running when the deques are refilled with the next job's
        // chunks.
        {
            let mut g = lock_clean(&self.shared.ctl);
            while self.shared.remaining.load(Ordering::Acquire) > 0 || g.active > 0 {
                g = self
                    .shared
                    .done_cv
                    .wait(g)
                    .unwrap_or_else(|p| p.into_inner());
            }
            g.job = None;
        }
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            // Rethrow the captured payload so the caller sees the
            // worker's original panic message, not a generic shim.
            let payload = lock_clean(&self.shared.panic_payload).take();
            match payload {
                Some(p) => resume_unwind(p),
                None => panic!("executor worker panicked"),
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// Runs `body(i)` for every `i in 0..total` (chunked internally).
    pub fn run_indexed<F>(&self, total: u64, chunk: Option<u64>, body: F) -> f64
    where
        F: Fn(u64) + Sync,
    {
        self.run_ranges(total, chunk, |lo, hi| {
            for i in lo..hi {
                body(i);
            }
        })
    }

    /// Statistics snapshot since construction (or the last reset).
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            workers: self.workers,
            epochs: self.shared.epochs.load(Ordering::Relaxed),
            items: self.shared.items.load(Ordering::Relaxed),
            executed: self
                .shared
                .executed
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            steals: self
                .shared
                .steals
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            busy_ns: self
                .shared
                .busy_ns
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            max_queue: self.shared.max_queue.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all statistics counters.
    pub fn reset_stats(&self) {
        for a in self
            .shared
            .executed
            .iter()
            .chain(&self.shared.steals)
            .chain(&self.shared.busy_ns)
        {
            a.store(0, Ordering::Relaxed);
        }
        self.shared.epochs.store(0, Ordering::Relaxed);
        self.shared.items.store(0, Ordering::Relaxed);
        self.shared.max_queue.store(0, Ordering::Relaxed);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut g = lock_clean(&self.shared.ctl);
            g.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn covers_every_index_exactly_once() {
        let ex = Executor::new(4);
        for total in [1u64, 7, 255, 256, 10_000] {
            let hits: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
            ex.run_indexed(total, None, |i| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "total={total}"
            );
        }
    }

    #[test]
    fn chunk_sizes_do_not_change_coverage() {
        let ex = Executor::new(3);
        for chunk in [1u64, 2, 16, 999, 5000] {
            let total = 4096u64;
            let sum = AtomicU64::new(0);
            ex.run_indexed(total, Some(chunk), |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        }
    }

    #[test]
    fn single_worker_is_serial_inline() {
        let ex = Executor::new(1);
        let mut order = Vec::new();
        let order_cell = std::sync::Mutex::new(&mut order);
        ex.run_indexed(100, Some(10), |i| {
            order_cell.lock().unwrap().push(i);
        });
        assert_eq!(order, (0..100).collect::<Vec<u64>>());
        let st = ex.stats();
        assert_eq!(st.workers, 1);
        assert_eq!(st.total_steals(), 0);
    }

    #[test]
    fn pool_survives_many_epochs() {
        let ex = Executor::new(4);
        let sum = AtomicU64::new(0);
        for _ in 0..200 {
            ex.run_indexed(512, Some(8), |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 200 * (511 * 512 / 2));
        let st = ex.stats();
        assert_eq!(st.epochs, 200);
        assert_eq!(st.items, 200 * 512);
        assert_eq!(st.total_chunks(), 200 * 64);
    }

    #[test]
    fn imbalanced_work_gets_stolen() {
        let ex = Executor::new(4);
        // All the work sits in the first quarter of the index space: the
        // owner of that block needs help.
        ex.run_indexed(4096, Some(16), |i| {
            if i < 1024 {
                std::hint::black_box((0..2_000).map(|x| x as f64).sum::<f64>());
            }
        });
        let st = ex.stats();
        assert!(
            st.total_steals() > 0,
            "expected steals on imbalanced work: {st:?}"
        );
    }

    #[test]
    fn ranges_partition_exactly() {
        let ex = Executor::new(4);
        let covered = AtomicU64::new(0);
        ex.run_ranges(1000, Some(64), |lo, hi| {
            assert!(lo < hi && hi <= 1000);
            covered.fetch_add(hi - lo, Ordering::Relaxed);
        });
        assert_eq!(covered.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn late_workers_never_run_a_stale_body() {
        // Regression: `run_ranges` used to wait only for `remaining` to
        // reach zero, so a worker that woke late for epoch N could
        // still sit inside `drain` holding N's body pointer when epoch
        // N+1 refilled the deques — and would then run N+1's chunks
        // with N's (already-unwound) body. Back-to-back epochs with
        // per-epoch counters make that cross-talk visible as a count
        // off by the stolen chunks.
        let ex = Executor::new(4);
        for _ in 0..200 {
            let hits = AtomicU64::new(0);
            ex.run_indexed(64, Some(1), |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let ex = Executor::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.run_indexed(1024, Some(1), |i| {
                if i == 700 {
                    panic!("boom");
                }
            });
        }));
        // The original payload is rethrown, not a generic wrapper.
        let payload = r.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // Pool is still usable after the panic: no poisoned locks, no
        // stale panic flag or payload.
        let sum = AtomicU64::new(0);
        ex.run_indexed(100, None, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn formatted_panic_payload_survives_roundtrip() {
        let ex = Executor::new(3);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.run_indexed(256, Some(1), |i| {
                if i == 13 {
                    panic!("bad index {i}");
                }
            });
        }));
        let payload = r.expect_err("panic must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("bad index 13")
        );
        // Back-to-back panics each surface their own payload.
        let r2 = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.run_indexed(256, Some(1), |i| {
                if i == 77 {
                    panic!("second failure");
                }
            });
        }));
        let p2 = r2.expect_err("second panic propagates");
        assert_eq!(p2.downcast_ref::<&str>(), Some(&"second failure"));
    }

    /// Test-only claims ledger over one epoch: every `body(lo, hi)` call
    /// names the thread it ran on, and a range overlapping one already
    /// claimed — by any thread, itself included: a chunk runs once —
    /// panics. The three `unsafe` sites (the `Send` impl that lets the
    /// body pointer cross threads, the lifetime-erasing transmute, the
    /// dereference in `worker_loop`) are sound only if each chunk of the
    /// published epoch is run exactly once, by whichever thread claims
    /// it, while the body is alive; this checks the first half and
    /// `borrowed_body_is_never_entered_after_run_ranges_returns` the
    /// second.
    #[derive(Default)]
    struct Claims {
        taken: Mutex<Vec<(std::thread::ThreadId, Chunk)>>,
    }

    impl Claims {
        fn claim(&self, lo: u64, hi: u64) {
            let me = std::thread::current().id();
            let mut taken = lock_clean(&self.taken);
            for (owner, (l, h)) in taken.iter() {
                assert!(
                    lo >= *h || hi <= *l,
                    "{me:?} claims {lo}..{hi}, already claimed as {l}..{h} by {owner:?}"
                );
            }
            taken.push((me, (lo, hi)));
        }

        /// Indices claimed, and how many distinct threads claimed them.
        fn totals(&self) -> (u64, usize) {
            let taken = lock_clean(&self.taken);
            let mut owners: Vec<_> = taken.iter().map(|(t, _)| *t).collect();
            owners.sort_by_key(|t| format!("{t:?}"));
            owners.dedup();
            (taken.iter().map(|(_, (l, h))| h - l).sum(), owners.len())
        }
    }

    /// One epoch of `total` one-index chunks whose first body call holds
    /// its chunk until a second thread has entered the body (or fails
    /// after `patience`), so some helper provably runs a chunk. Returns
    /// the epoch's claims ledger.
    fn rendezvous_epoch(ex: &Executor, total: u64, patience: Duration) -> Claims {
        let claims = Claims::default();
        let entered = AtomicU64::new(0);
        ex.run_ranges(total, Some(1), |lo, hi| {
            claims.claim(lo, hi);
            if entered.fetch_add(1, Ordering::SeqCst) == 0 {
                let deadline = Instant::now() + patience;
                // The caller blocks here, so any later entry is another
                // thread's.
                while entered.load(Ordering::SeqCst) < 2 {
                    assert!(
                        Instant::now() < deadline,
                        "no second thread entered the body within {patience:?} at {} workers",
                        ex.workers()
                    );
                    std::thread::yield_now();
                }
            }
        });
        claims
    }

    #[test]
    fn every_index_is_claimed_once_by_one_thread() {
        for workers in [2usize, 3] {
            let ex = Executor::new(workers);
            // The rendezvous makes "a helper ran a chunk" certain; the
            // partition epochs below then vary sizes and chunking.
            let total = 4 * workers as u64;
            let (covered, owners) = rendezvous_epoch(&ex, total, Duration::from_secs(30)).totals();
            assert_eq!(covered, total, "workers={workers} rendezvous");
            assert!(owners <= workers);
            let mut helped = usize::from(owners > 1);
            for epoch in 0..300u64 {
                let total = 1 + (epoch * 37) % 400;
                let chunk = [None, Some(1), Some(3), Some(64)][epoch as usize % 4];
                let claims = Claims::default();
                ex.run_ranges(total, chunk, |lo, hi| {
                    assert!(lo < hi && hi <= total, "{lo}..{hi} of {total}");
                    claims.claim(lo, hi);
                    if lo % 5 == 0 {
                        // Uneven chunk cost, so claims really interleave.
                        std::hint::black_box((0..500).map(|x| x as f64).sum::<f64>());
                    }
                });
                // No overlap (checked at claim time) and full length:
                // the claims partition `0..total`.
                let (covered, owners) = claims.totals();
                assert_eq!(covered, total, "workers={workers} epoch={epoch}");
                assert!(owners <= workers);
                helped += usize::from(owners > 1);
            }
            // The ledger saw the body pointer cross threads, or it
            // proved nothing about the `Send` impl.
            assert!(
                helped > 0,
                "no helper ever ran a chunk at {workers} workers"
            );
        }
    }

    #[test]
    #[should_panic(expected = "claims 4..8, already claimed as 0..5")]
    fn a_double_claim_is_caught() {
        let claims = Claims::default();
        claims.claim(0, 5);
        claims.claim(5, 9);
        claims.claim(4, 8);
    }

    /// The body lives in the caller's frame and borrows the caller's
    /// state; `run_ranges` erases that lifetime. So no call of the body
    /// may begin once `run_ranges` has returned — checked with a flag the
    /// borrowed state raises when it is dropped right after the return
    /// (the flag itself is shared, so reading it late is not the bug
    /// under test). Many short epochs back to back, where a worker that
    /// wakes late has the best chance of crossing into the next one.
    #[test]
    fn borrowed_body_is_never_entered_after_run_ranges_returns() {
        struct Borrowed {
            epoch: u64,
            hits: AtomicU64,
            dropped: Arc<AtomicBool>,
        }
        impl Drop for Borrowed {
            fn drop(&mut self) {
                self.dropped.store(true, Ordering::SeqCst);
            }
        }
        for workers in [2usize, 3] {
            let ex = Executor::new(workers);
            let entered_late = AtomicU64::new(0);
            let wrong_epoch = AtomicU64::new(0);
            for epoch in 0..3000u64 {
                let total = 8 + epoch % 24;
                let state = Borrowed {
                    epoch,
                    hits: AtomicU64::new(0),
                    dropped: Arc::new(AtomicBool::new(false)),
                };
                ex.run_indexed(total, Some(1), |_| {
                    if state.dropped.load(Ordering::SeqCst) {
                        entered_late.fetch_add(1, Ordering::Relaxed);
                    }
                    if state.epoch != epoch {
                        wrong_epoch.fetch_add(1, Ordering::Relaxed);
                    }
                    state.hits.fetch_add(1, Ordering::Relaxed);
                });
                // Every call of this epoch's body happened before the
                // return, on this epoch's state.
                assert_eq!(state.hits.load(Ordering::Relaxed), total);
                drop(state);
            }
            assert_eq!(entered_late.load(Ordering::Relaxed), 0, "{workers} workers");
            assert_eq!(wrong_epoch.load(Ordering::Relaxed), 0, "{workers} workers");
        }
    }

    #[test]
    fn stats_reset() {
        let ex = Executor::new(2);
        ex.run_indexed(1000, None, |_| {});
        assert!(ex.stats().epochs > 0);
        ex.reset_stats();
        let st = ex.stats();
        assert_eq!(st.epochs, 0);
        assert_eq!(st.items, 0);
        assert_eq!(st.total_chunks(), 0);
    }
}
