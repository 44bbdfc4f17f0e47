//! Rank runtime: threads + channels with MPI-flavoured semantics.
//!
//! Every operation has one implementation, the `*_checked` form
//! returning [`CommError`], so a dead or silent peer is a *detectable*
//! condition a supervisor can recover from: receives and collectives
//! are bounded by the rank's [`Rank::timeout`]. The unsuffixed spellings
//! (`send_f32`, `recv_f32`, `wait`, `allreduce_max`, ...) are that call
//! plus a panic carrying the error's (rank, peer, tag, step) context,
//! for callers with no supervisor to report to. Fault injection
//! ([`crate::fault::FaultPlan`]) hooks into [`Rank::begin_step`] (kills)
//! and the send path (drop/delay).

use crate::fault::{FaultAction, FaultPlan};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on receives and collectives: generous enough
/// that a healthy run never trips it, short enough that a test suite
/// noticing a dead peer does not hang.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A detected communication failure, with enough context to name the
/// failing edge: who was waiting, on whom, for what, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive saw nothing from `peer` within the timeout.
    RecvTimeout {
        /// The waiting rank.
        rank: usize,
        /// The rank the message was expected from.
        peer: usize,
        /// The tag the receive was matching.
        tag: Tag,
        /// The waiting rank's current model step.
        step: u64,
        /// How long the receive waited.
        waited: Duration,
    },
    /// The channel toward `peer` is closed — the peer's thread exited
    /// (finished, was killed, or panicked).
    PeerHungUp {
        /// The rank that observed the closed channel.
        rank: usize,
        /// The dead peer.
        peer: usize,
        /// The tag of the attempted exchange (`None` for receives that
        /// lost *all* senders at once).
        tag: Option<Tag>,
        /// The observing rank's current model step.
        step: u64,
    },
    /// A collective did not complete within the timeout — at least one
    /// rank never arrived.
    CollectiveTimeout {
        /// The waiting rank.
        rank: usize,
        /// The waiting rank's current model step.
        step: u64,
        /// Ranks that had arrived when the wait gave up.
        arrived: usize,
        /// Communicator size.
        size: usize,
        /// How long the collective waited.
        waited: Duration,
    },
    /// A message arrived whose length is not what its receiver must
    /// unpack — a batched halo panel from a peer that packed another
    /// number of lanes. Raised by the receiver before it unpacks anything.
    MalformedPayload {
        /// The receiving rank.
        rank: usize,
        /// The rank that sent the message.
        peer: usize,
        /// The tag the message was matched on.
        tag: Tag,
        /// The receiving rank's current model step.
        step: u64,
        /// Elements the receiver had to unpack.
        expected: usize,
        /// Elements the message carried.
        received: usize,
    },
    /// This rank was killed by the fault plan (reported by
    /// [`Rank::begin_step`] so the run loop can unwind cleanly).
    Killed {
        /// The killed rank.
        rank: usize,
        /// The step at which the kill fired.
        step: u64,
    },
}

impl CommError {
    /// The rank that detected (or suffered) the failure.
    pub fn rank(&self) -> usize {
        match *self {
            CommError::RecvTimeout { rank, .. }
            | CommError::PeerHungUp { rank, .. }
            | CommError::CollectiveTimeout { rank, .. }
            | CommError::MalformedPayload { rank, .. }
            | CommError::Killed { rank, .. } => rank,
        }
    }

    /// The model step the failure was detected at.
    pub fn step(&self) -> u64 {
        match *self {
            CommError::RecvTimeout { step, .. }
            | CommError::PeerHungUp { step, .. }
            | CommError::CollectiveTimeout { step, .. }
            | CommError::MalformedPayload { step, .. }
            | CommError::Killed { step, .. } => step,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RecvTimeout {
                rank,
                peer,
                tag,
                step,
                waited,
            } => write!(
                f,
                "rank {rank} timed out after {:.1}s waiting for rank {peer} tag {tag} at step {step}",
                waited.as_secs_f64()
            ),
            CommError::PeerHungUp {
                rank,
                peer,
                tag,
                step,
            } => match tag {
                Some(tag) => write!(
                    f,
                    "rank {rank}: peer rank {peer} hung up (tag {tag}, step {step})"
                ),
                None => write!(f, "rank {rank}: all peers hung up (step {step})"),
            },
            CommError::CollectiveTimeout {
                rank,
                step,
                arrived,
                size,
                waited,
            } => write!(
                f,
                "rank {rank}: collective at step {step} timed out after {:.1}s ({arrived}/{size} ranks arrived)",
                waited.as_secs_f64()
            ),
            CommError::MalformedPayload {
                rank,
                peer,
                tag,
                step,
                expected,
                received,
            } => write!(
                f,
                "rank {rank}: message from rank {peer} tag {tag} at step {step} carries {received} elements where {expected} must be unpacked"
            ),
            CommError::Killed { rank, step } => {
                write!(f, "rank {rank} killed by fault plan at step {step}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Message tag (as in MPI, disambiguates concurrent exchanges).
///
/// 64-bit: halo engines derive tags from a per-exchange counter that
/// advances every refresh of every scalar of every step, so a 32-bit
/// space overflows on long runs (232 scalars × 4 refreshes × 16 slots
/// per exchange ≈ 15k tags/step wraps `u32` within ~290k steps, and
/// wrapped tags alias between steps).
pub type Tag = u64;

/// How halo exchanges are executed by the model layers above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// Post a full four-side exchange and block before computing
    /// anything — the paper's Table VII baseline behaviour.
    #[default]
    Blocking,
    /// `isend`/`irecv` the halos, advance interior tendencies on the
    /// executor pool while messages are in flight, then unpack and
    /// finish the boundary frame on completion.
    Overlapped,
}

impl CommMode {
    /// Stable lowercase name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            CommMode::Blocking => "blocking",
            CommMode::Overlapped => "overlapped",
        }
    }

    /// Parses `name()` output back; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "blocking" => Some(CommMode::Blocking),
            "overlapped" => Some(CommMode::Overlapped),
            _ => None,
        }
    }
}

impl std::fmt::Display for CommMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug)]
struct Envelope {
    from: usize,
    tag: Tag,
    payload: Vec<f32>,
}

/// Shared collective state (dissemination happens in shared memory; the
/// *cost* of collectives is modeled separately by [`crate::cost`]).
struct Collective {
    lock: Mutex<CollectiveState>,
    cv: Condvar,
    size: usize,
}

struct CollectiveState {
    generation: u64,
    arrived: usize,
    /// The running reduction of the open generation.
    acc: Reduced,
    /// Result of the completed generation.
    result: Reduced,
}

/// Words of the bitwise-OR all-reduce: a fixed small array, wide enough
/// for the model's 231 occupied-bin flags.
pub const OR_WORDS: usize = 4;

/// What one collective round reduces, every kind at once: a rank
/// contributes to the kinds its call is about and the identity to the
/// others (all ranks of a round make the same call, as in MPI), so one
/// generation/arrival/timeout machine serves every all-reduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reduced {
    sum: f64,
    max: f64,
    or: [u64; OR_WORDS],
}

impl Reduced {
    /// The identity of all three reductions.
    const IDENTITY: Reduced = Reduced {
        sum: 0.0,
        max: f64::NEG_INFINITY,
        or: [0; OR_WORDS],
    };

    /// The contribution of an `f64` sum/max all-reduce.
    fn of_f64(x: f64) -> Self {
        Reduced {
            sum: x,
            max: x,
            ..Reduced::IDENTITY
        }
    }

    fn fold(&mut self, x: &Reduced) {
        self.sum += x.sum;
        self.max = self.max.max(x.max);
        for (acc, word) in self.or.iter_mut().zip(x.or) {
            *acc |= word;
        }
    }
}

impl Collective {
    fn new(size: usize) -> Self {
        Collective {
            lock: Mutex::new(CollectiveState {
                generation: 0,
                arrived: 0,
                acc: Reduced::IDENTITY,
                result: Reduced::IDENTITY,
            }),
            cv: Condvar::new(),
            size,
        }
    }

    /// All-reduce contributing `x`, bounded by `timeout`; returns the
    /// reduction over ranks. The accumulator is reset as a generation
    /// completes, so nothing carries from one call to the next whatever
    /// their kinds. On timeout the partial arrival count is reported; the
    /// communicator is then poisoned for further collectives and must be
    /// torn down.
    fn allreduce(&self, x: Reduced, timeout: Duration) -> Result<Reduced, (usize, Duration)> {
        let mut st = self.lock.lock();
        let my_gen = st.generation;
        st.arrived += 1;
        st.acc.fold(&x);
        if st.arrived == self.size {
            st.result = std::mem::replace(&mut st.acc, Reduced::IDENTITY);
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return Ok(st.result);
        }
        let start = Instant::now();
        while st.generation == my_gen {
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return Err((st.arrived, elapsed));
            }
            let _ = self.cv.wait_for(&mut st, timeout - elapsed);
        }
        Ok(st.result)
    }
}

/// A delayed message held back by a fault: delivered once `remaining`
/// further sends have been issued by this rank.
struct DelayedMsg {
    remaining: u32,
    to: usize,
    env: Envelope,
}

/// A rank's handle to the communicator.
pub struct Rank {
    rank: usize,
    size: usize,
    inbox: Receiver<Envelope>,
    peers: Vec<Sender<Envelope>>,
    /// Out-of-order messages awaiting a matching `recv`.
    pending: Vec<Envelope>,
    collective: Arc<Collective>,
    /// Bound on receives and collectives.
    timeout: Duration,
    /// Current model step (set by [`Rank::begin_step`]; carried in
    /// every [`CommError`] for context).
    step: u64,
    /// Scripted failures, shared across the communicator.
    plan: Option<Arc<FaultPlan>>,
    /// Messages held back by `FaultAction::Delay` (interior mutability
    /// so the send path stays `&self`).
    delayed: Mutex<Vec<DelayedMsg>>,
}

impl Rank {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sets the bound on receives and collectives.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// The current bound on receives and collectives.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The step last announced through [`Rank::begin_step`].
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Announces that this rank is entering model step `step`: records
    /// it for error context and fires any matching kill fault. A killed
    /// rank must unwind (drop its `Rank`) so peers detect the death
    /// through hung-up channels and timeouts.
    pub fn begin_step(&mut self, step: u64) -> Result<(), CommError> {
        self.step = step;
        if let Some(plan) = &self.plan {
            if plan.should_kill(self.rank, step) {
                return Err(CommError::Killed {
                    rank: self.rank,
                    step,
                });
            }
        }
        Ok(())
    }

    /// Pushes `env` to `to`, mapping a closed channel to
    /// [`CommError::PeerHungUp`].
    fn push_to(&self, to: usize, env: Envelope) -> Result<(), CommError> {
        let tag = env.tag;
        self.peers[to].send(env).map_err(|_| CommError::PeerHungUp {
            rank: self.rank,
            peer: to,
            tag: Some(tag),
            step: self.step,
        })
    }

    /// Ages the delay queue by one send slot and delivers matured
    /// messages. Delivery failures are swallowed: a delayed message to
    /// a now-dead peer is simply lost, like its real-network analogue.
    fn age_delayed(&self) {
        let mut matured = Vec::new();
        {
            let mut q = self.delayed.lock();
            let mut i = 0;
            while i < q.len() {
                if q[i].remaining == 0 {
                    let d = q.swap_remove(i);
                    matured.push(d);
                } else {
                    q[i].remaining -= 1;
                    i += 1;
                }
            }
        }
        for d in matured {
            let _ = self.push_to(d.to, d.env);
        }
    }

    /// Sends `data` to `to` with `tag` (buffered, non-blocking — MPI
    /// eager semantics), reporting a dead peer instead of panicking.
    /// Messages matched by the launch's fault plan may be dropped or
    /// delayed here.
    pub fn send_f32_checked(&self, to: usize, tag: Tag, data: &[f32]) -> Result<(), CommError> {
        assert!(to < self.size, "send to rank {to} of {}", self.size);
        let env = Envelope {
            from: self.rank,
            tag,
            payload: data.to_vec(),
        };
        let action = self
            .plan
            .as_ref()
            .and_then(|p| p.on_send(self.rank, to, tag));
        let result = match action {
            Some(FaultAction::Drop) => Ok(()),
            Some(FaultAction::Delay(slots)) => {
                self.delayed.lock().push(DelayedMsg {
                    remaining: slots,
                    to,
                    env,
                });
                Ok(())
            }
            None => self.push_to(to, env),
        };
        self.age_delayed();
        result
    }

    /// Sends `data` to `to` with `tag` (buffered, non-blocking — MPI
    /// eager semantics). Panics with full context if the peer is dead;
    /// use [`Rank::send_f32_checked`] where death must be recoverable.
    pub fn send_f32(&self, to: usize, tag: Tag, data: &[f32]) {
        self.send_f32_checked(to, tag, data)
            .unwrap_or_else(|e| panic!("mpi_sim send failed: {e}"));
    }

    /// Receive of the message from `from` with `tag`, bounded by the
    /// rank's timeout; other messages arriving meanwhile are queued (MPI
    /// matching semantics). A silent peer becomes
    /// [`CommError::RecvTimeout`], a dead communicator
    /// [`CommError::PeerHungUp`].
    pub fn recv_f32_checked(&mut self, from: usize, tag: Tag) -> Result<Vec<f32>, CommError> {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.from == from && e.tag == tag)
        {
            return Ok(self.pending.swap_remove(pos).payload);
        }
        let start = Instant::now();
        loop {
            // `None` once the bound has elapsed, however many unrelated
            // messages kept the inbox busy meanwhile.
            let left = self.timeout.checked_sub(start.elapsed());
            match left.map(|left| self.inbox.recv_timeout(left)) {
                Some(Ok(env)) if env.from == from && env.tag == tag => return Ok(env.payload),
                Some(Ok(env)) => self.pending.push(env),
                None | Some(Err(RecvTimeoutError::Timeout)) => {
                    return Err(CommError::RecvTimeout {
                        rank: self.rank,
                        peer: from,
                        tag,
                        step: self.step,
                        waited: start.elapsed(),
                    });
                }
                Some(Err(RecvTimeoutError::Disconnected)) => {
                    return Err(CommError::PeerHungUp {
                        rank: self.rank,
                        peer: from,
                        tag: Some(tag),
                        step: self.step,
                    });
                }
            }
        }
    }

    /// [`Rank::recv_f32_checked`], panicking with full context when the
    /// peer stays silent past the timeout.
    pub fn recv_f32(&mut self, from: usize, tag: Tag) -> Vec<f32> {
        self.recv_f32_checked(from, tag)
            .unwrap_or_else(|e| panic!("mpi_sim recv failed: {e}"))
    }

    /// Nonblocking send: identical transport to [`Rank::send_f32`]
    /// (buffered eager push), named separately so call sites document
    /// intent and the cost model can account the post separately from
    /// the completion.
    pub fn isend_f32(&self, to: usize, tag: Tag, data: &[f32]) {
        self.send_f32(to, tag, data);
    }

    /// Posts a nonblocking receive for (`from`, `tag`). The returned
    /// request is matched against the inbox when it is completed, by
    /// [`Rank::wait_checked`] or [`Rank::wait`].
    pub fn irecv_f32(&mut self, from: usize, tag: Tag) -> RecvRequest {
        assert!(from < self.size, "irecv from rank {from} of {}", self.size);
        RecvRequest { from, tag }
    }

    /// Timeout-bounded completion of `req` (see
    /// [`Rank::recv_f32_checked`]).
    pub fn wait_checked(&mut self, req: RecvRequest) -> Result<Vec<f32>, CommError> {
        self.recv_f32_checked(req.from, req.tag)
    }

    /// [`Rank::wait_checked`], panicking with full context on failure.
    pub fn wait(&mut self, req: RecvRequest) -> Vec<f32> {
        self.recv_f32(req.from, req.tag)
    }

    /// One timeout-bounded all-reduce round; a stalled collective (a
    /// dead rank never arrives) is a [`CommError::CollectiveTimeout`].
    fn allreduce_checked(&self, x: Reduced) -> Result<Reduced, CommError> {
        self.collective
            .allreduce(x, self.timeout)
            .map_err(|(arrived, waited)| CommError::CollectiveTimeout {
                rank: self.rank,
                step: self.step,
                arrived,
                size: self.size,
                waited,
            })
    }

    /// [`Rank::allreduce_checked`] of an `f64`, panicking with full
    /// context when a rank never arrives.
    fn allreduce(&self, x: f64) -> Reduced {
        self.allreduce_checked(Reduced::of_f64(x))
            .unwrap_or_else(|e| panic!("mpi_sim collective failed: {e}"))
    }

    /// Timeout-bounded max all-reduce over `f64`.
    pub fn allreduce_max_checked(&self, x: f64) -> Result<f64, CommError> {
        Ok(self.allreduce_checked(Reduced::of_f64(x))?.max)
    }

    /// Timeout-bounded bitwise-OR all-reduce over [`OR_WORDS`] words:
    /// bit `b` of the result is set when any rank set it.
    pub fn allreduce_or_checked(
        &self,
        bits: [u64; OR_WORDS],
    ) -> Result<[u64; OR_WORDS], CommError> {
        let x = Reduced {
            or: bits,
            ..Reduced::IDENTITY
        };
        Ok(self.allreduce_checked(x)?.or)
    }

    /// Sum all-reduce over `f64`; panics if a rank never arrives.
    pub fn allreduce_sum(&self, x: f64) -> f64 {
        self.allreduce(x).sum
    }

    /// Max all-reduce over `f64`; panics if a rank never arrives.
    pub fn allreduce_max(&self, x: f64) -> f64 {
        self.allreduce(x).max
    }

    /// Barrier across all ranks; panics if a rank never arrives.
    pub fn barrier(&self) {
        self.allreduce(0.0);
    }
}

/// Handle to an in-flight nonblocking receive posted by
/// [`Rank::irecv_f32`].
#[derive(Debug)]
pub struct RecvRequest {
    from: usize,
    tag: Tag,
}

impl RecvRequest {
    /// Source rank this request matches.
    pub fn from(&self) -> usize {
        self.from
    }

    /// Tag this request matches.
    pub fn tag(&self) -> Tag {
        self.tag
    }
}

/// Runs `body` on `n` ranks, one host thread each, and returns the
/// per-rank results in rank order. Panics in any rank propagate with
/// the rank id attached.
pub fn run_ranks<T, F>(n: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Rank) -> T + Sync,
{
    run_ranks_with_faults(n, None, DEFAULT_TIMEOUT, body)
}

/// [`run_ranks`] with a shared fault plan and a bound for receives and
/// collectives. A `None` plan injects nothing; the body is expected to
/// use the checked operations and return a `Result` so an injected
/// death surfaces as data, not a panic.
pub fn run_ranks_with_faults<T, F>(
    n: usize,
    plan: Option<Arc<FaultPlan>>,
    timeout: Duration,
    body: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(Rank) -> T + Sync,
{
    assert!(n > 0);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let collective = Arc::new(Collective::new(n));

    let mut ranks: Vec<Rank> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| Rank {
            rank,
            size: n,
            inbox,
            peers: senders.clone(),
            pending: Vec::new(),
            collective: Arc::clone(&collective),
            timeout,
            step: 0,
            plan: plan.clone(),
            delayed: Mutex::new(Vec::new()),
        })
        .collect();
    drop(senders);

    match crossbeam::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for rank in ranks.drain(..) {
            let body = &body;
            handles.push(s.spawn(move |_| body(rank)));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    panic!("rank {rank} panicked: {msg}")
                })
            })
            .collect()
    }) {
        Ok(out) => out,
        Err(_) => panic!("mpi_sim: rank scope tore down uncleanly"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shift() {
        let out = run_ranks(4, |mut r| {
            let next = (r.rank() + 1) % r.size();
            let prev = (r.rank() + r.size() - 1) % r.size();
            r.send_f32(next, 7, &[r.rank() as f32]);
            let got = r.recv_f32(prev, 7);
            got[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = run_ranks(2, |mut r| {
            if r.rank() == 0 {
                // Send tag 2 first, then tag 1.
                r.send_f32(1, 2, &[2.0]);
                r.send_f32(1, 1, &[1.0]);
                0.0
            } else {
                // Receive tag 1 first: tag 2 must be buffered, not lost.
                let a = r.recv_f32(0, 1)[0];
                let b = r.recv_f32(0, 2)[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = run_ranks(8, |r| {
            let s = r.allreduce_sum(r.rank() as f64);
            let m = r.allreduce_max(r.rank() as f64);
            (s, m)
        });
        for (s, m) in out {
            assert_eq!(s, 28.0);
            assert_eq!(m, 7.0);
        }
    }

    #[test]
    fn repeated_collectives_use_generations() {
        let out = run_ranks(3, |r| {
            let mut total = 0.0;
            for round in 0..10 {
                total += r.allreduce_sum(round as f64);
            }
            total
        });
        // Each round sums 3 * round; total = 3 * 45.
        for t in out {
            assert_eq!(t, 135.0);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        run_ranks(6, |r| {
            phase1.fetch_add(1, Ordering::SeqCst);
            r.barrier();
            // After the barrier every rank must observe all 6 arrivals.
            assert_eq!(phase1.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn single_rank_communicator() {
        let out = run_ranks(1, |r| {
            r.barrier();
            r.allreduce_sum(42.0)
        });
        assert_eq!(out, vec![42.0]);
    }

    #[test]
    fn irecv_wait_roundtrip() {
        let out = run_ranks(2, |mut r| {
            if r.rank() == 0 {
                r.isend_f32(1, 3, &[1.0, 2.0]);
                0.0
            } else {
                let req = r.irecv_f32(0, 3);
                let got = r.wait(req);
                got[0] * 10.0 + got[1]
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn irecv_posted_before_send_completes_on_wait() {
        run_ranks(2, |mut r| {
            if r.rank() == 1 {
                // Post before the sender has sent anything.
                let req = r.irecv_f32(0, 5);
                r.barrier();
                assert_eq!(r.wait(req), vec![7.0]);
            } else {
                r.barrier();
                r.isend_f32(1, 5, &[7.0]);
            }
        });
    }

    #[test]
    fn nonblocking_and_blocking_recv_coexist() {
        run_ranks(2, |mut r| {
            if r.rank() == 0 {
                r.isend_f32(1, 20, &[1.0]);
                r.send_f32(1, 21, &[2.0]);
            } else {
                let req = r.irecv_f32(0, 20);
                // Blocking recv of the *other* tag must buffer, not
                // steal, the message the request matches.
                assert_eq!(r.recv_f32(0, 21), vec![2.0]);
                assert_eq!(r.wait(req), vec![1.0]);
            }
        });
    }

    #[test]
    fn tags_beyond_u32_do_not_alias() {
        // Regression for the halo tag overflow: tags past u32::MAX must
        // stay distinct from their 32-bit-wrapped aliases.
        let big: Tag = u64::from(u32::MAX) + 16;
        let alias: Tag = 15; // what (big) would wrap to in u32 arithmetic
        let out = run_ranks(2, |mut r| {
            if r.rank() == 0 {
                r.send_f32(1, big, &[64.0]);
                r.send_f32(1, alias, &[32.0]);
                0.0
            } else {
                let hi = r.recv_f32(0, big)[0];
                let lo = r.recv_f32(0, alias)[0];
                hi - lo
            }
        });
        assert_eq!(out[1], 32.0);
    }

    #[test]
    fn comm_mode_names_round_trip() {
        for m in [CommMode::Blocking, CommMode::Overlapped] {
            assert_eq!(CommMode::parse(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(CommMode::parse("sideways"), None);
        assert_eq!(CommMode::default(), CommMode::Blocking);
    }

    #[test]
    fn checked_recv_times_out_with_context() {
        let out = run_ranks_with_faults(2, None, Duration::from_millis(40), |mut r| {
            if r.rank() == 1 {
                r.begin_step(7).unwrap();
                // Nobody ever sends tag 99.
                match r.recv_f32_checked(0, 99) {
                    Err(CommError::RecvTimeout {
                        rank,
                        peer,
                        tag,
                        step,
                        ..
                    }) => {
                        assert_eq!((rank, peer, tag, step), (1, 0, 99, 7));
                        true
                    }
                    other => panic!("expected timeout, got {other:?}"),
                }
            } else {
                true
            }
        });
        assert!(out.into_iter().all(|x| x));
    }

    #[test]
    fn killed_rank_is_detected_by_survivors() {
        let plan = Arc::new(FaultPlan::new().kill_rank_at(1, 2));
        let out = run_ranks_with_faults(
            3,
            Some(Arc::clone(&plan)),
            Duration::from_millis(120),
            |mut r| -> Result<u64, CommError> {
                for step in 0..4u64 {
                    r.begin_step(step)?;
                    // A collective every step, as the model's mask
                    // OR-reduce does.
                    r.allreduce_max_checked(1.0)?;
                }
                Ok(r.step())
            },
        );
        assert_eq!(out[1], Err(CommError::Killed { rank: 1, step: 2 }));
        for (rank, res) in out.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            // Survivors reach step 2's collective, which can never
            // complete, and report the stall rather than hanging.
            match res {
                Err(CommError::CollectiveTimeout { rank: r, step, .. }) => {
                    assert_eq!(*r, rank);
                    assert_eq!(*step, 2);
                }
                other => panic!("survivor {rank} saw {other:?}"),
            }
        }
        // The kill is spent: a fresh launch with the same plan is clean.
        let retry = run_ranks_with_faults(
            3,
            Some(plan),
            Duration::from_millis(120),
            |mut r| -> Result<u64, CommError> {
                for step in 0..4u64 {
                    r.begin_step(step)?;
                    r.allreduce_max_checked(1.0)?;
                }
                Ok(4)
            },
        );
        assert!(retry.iter().all(|r| *r == Ok(4)));
    }

    #[test]
    fn dropped_message_times_out_receiver() {
        let plan =
            Arc::new(FaultPlan::new().on_message(Some(0), Some(1), Some(5), FaultAction::Drop, 1));
        let out = run_ranks_with_faults(2, Some(plan), Duration::from_millis(40), |mut r| {
            if r.rank() == 0 {
                r.send_f32_checked(1, 5, &[1.0]).unwrap(); // dropped
                r.send_f32_checked(1, 6, &[2.0]).unwrap(); // delivered
                0.0
            } else {
                assert_eq!(r.recv_f32_checked(0, 6).unwrap(), vec![2.0]);
                match r.recv_f32_checked(0, 5) {
                    Err(CommError::RecvTimeout { tag: 5, .. }) => 1.0,
                    other => panic!("expected drop-induced timeout, got {other:?}"),
                }
            }
        });
        assert_eq!(out[1], 1.0);
    }

    #[test]
    fn delayed_message_arrives_after_later_sends() {
        let plan = Arc::new(FaultPlan::new().on_message(
            Some(0),
            Some(1),
            Some(10),
            FaultAction::Delay(2),
            1,
        ));
        run_ranks_with_faults(2, Some(plan), Duration::from_millis(500), |mut r| {
            if r.rank() == 0 {
                r.send_f32_checked(1, 10, &[1.0]).unwrap(); // held
                r.send_f32_checked(1, 11, &[2.0]).unwrap();
                r.send_f32_checked(1, 12, &[3.0]).unwrap(); // matures the hold
            } else {
                // All three arrive despite the reorder; matching is by tag.
                assert_eq!(r.recv_f32_checked(0, 11).unwrap(), vec![2.0]);
                assert_eq!(r.recv_f32_checked(0, 12).unwrap(), vec![3.0]);
                assert_eq!(r.recv_f32_checked(0, 10).unwrap(), vec![1.0]);
            }
        });
    }

    #[test]
    fn send_to_dead_peer_reports_hangup() {
        let out = run_ranks_with_faults(2, None, Duration::from_millis(400), |mut r| {
            if r.rank() == 0 {
                // Rank 1 exits immediately; wait for that, then send.
                while r.send_f32_checked(1, 1, &[0.0]).is_ok() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let err = r.send_f32_checked(1, 1, &[0.0]).unwrap_err();
                assert_eq!(
                    err,
                    CommError::PeerHungUp {
                        rank: 0,
                        peer: 1,
                        tag: Some(1),
                        step: 0
                    }
                );
                r.begin_step(3).unwrap();
                assert!(format!("{err}").contains("rank 0"));
                1
            } else {
                0
            }
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn checked_collectives_match_unchecked() {
        let out = run_ranks(4, |r| {
            let checked = r.allreduce_max_checked(r.rank() as f64).unwrap();
            (checked, r.allreduce_max(r.rank() as f64))
        });
        for (checked, unchecked) in out {
            assert_eq!(checked, 3.0);
            assert_eq!(unchecked, 3.0);
        }
    }

    /// Rank `r`'s contribution to the OR tests: one bit of its own in
    /// every word, plus a bit all ranks share.
    fn or_bits(r: usize) -> [u64; OR_WORDS] {
        std::array::from_fn(|w| 1u64 << (r + w) | 1 << 63)
    }

    #[test]
    fn allreduce_or_over_one_two_and_five_ranks() {
        for n in [1usize, 2, 5] {
            let want = (0..n).fold([0u64; OR_WORDS], |mut acc, r| {
                acc.iter_mut().zip(or_bits(r)).for_each(|(a, b)| *a |= b);
                acc
            });
            let out = run_ranks(n, |r| r.allreduce_or_checked(or_bits(r.rank())).unwrap());
            assert_eq!(out, vec![want; n], "{n} ranks");
        }
        // A single-rank communicator returns its own bits.
        let own = [0xdead_beef, 0, u64::MAX, 1];
        assert_eq!(
            run_ranks(1, |r| r.allreduce_or_checked(own).unwrap()),
            [own]
        );
    }

    /// One state machine serves every kind: an OR round between sum and
    /// max rounds must see none of their accumulators, and they none of
    /// its bits, generation after generation.
    #[test]
    fn or_and_f64_rounds_interleave_without_leaking() {
        let out = run_ranks(3, |r| {
            let me = r.rank();
            for round in 0..10u64 {
                let sum = r.allreduce_sum((me as u64 + round) as f64);
                assert_eq!(sum, (3 + 3 * round) as f64, "round {round}");
                // A different word and bit every round, so bits left
                // over from an earlier round would show.
                let mut bits = [0u64; OR_WORDS];
                bits[round as usize % OR_WORDS] = 1 << (3 * round + me as u64);
                let or = r.allreduce_or_checked(bits).unwrap();
                let mut want = [0u64; OR_WORDS];
                want[round as usize % OR_WORDS] = 0b111 << (3 * round);
                assert_eq!(or, want, "round {round}");
                let max = r.allreduce_max(-(me as f64) - round as f64);
                assert_eq!(max, -(round as f64), "round {round}");
            }
            true
        });
        assert_eq!(out, vec![true; 3]);
    }

    #[test]
    fn or_with_a_dead_rank_times_out_with_the_arrival_count() {
        let out = run_ranks_with_faults(3, None, Duration::from_millis(60), |mut r| {
            if r.rank() == 2 {
                return None; // never arrives
            }
            r.begin_step(4).unwrap();
            Some(r.allreduce_or_checked(or_bits(r.rank())))
        });
        for (rank, res) in out.into_iter().enumerate().take(2) {
            match res {
                Some(Err(CommError::CollectiveTimeout {
                    rank: r,
                    step: 4,
                    arrived,
                    size: 3,
                    ..
                })) => {
                    assert_eq!(r, rank);
                    // This rank itself, and the other survivor unless it
                    // has yet to arrive.
                    assert!((1..=2).contains(&arrived), "{arrived} arrived");
                }
                other => panic!("survivor {rank} saw {other:?}"),
            }
        }
    }

    #[test]
    fn wait_checked_roundtrip() {
        let out = run_ranks(2, |mut r| {
            if r.rank() == 0 {
                r.send_f32_checked(1, 3, &[4.0, 2.0]).unwrap();
                0.0
            } else {
                let req = r.irecv_f32(0, 3);
                let got = r.wait_checked(req).unwrap();
                got[0] * 10.0 + got[1]
            }
        });
        assert_eq!(out[1], 42.0);
    }

    /// Every `Rank` keeps a sender to its own inbox, so a peer that has
    /// gone can never show up as a disconnected channel: only the
    /// timeout bounds an unchecked receive.
    #[test]
    #[should_panic(
        expected = "rank 1 panicked: mpi_sim recv failed: rank 1 timed out after 0.0s waiting for rank 0 tag 99 at step 7"
    )]
    fn unchecked_recv_from_a_finished_rank_panics_with_context() {
        run_ranks(2, |mut r| {
            if r.rank() == 1 {
                r.set_timeout(Duration::from_millis(40));
                r.begin_step(7).unwrap();
                // Rank 0 returns without ever sending tag 99.
                r.recv_f32(0, 99);
            }
        });
    }

    /// A rank blocked in an unchecked collective must not keep
    /// `run_ranks` from joining — and reporting — the rank that died.
    #[test]
    #[should_panic(expected = "rank 0 panicked: boom")]
    fn panicking_rank_fails_run_ranks_despite_a_peer_in_allreduce() {
        run_ranks(2, |mut r| {
            if r.rank() == 0 {
                panic!("boom");
            }
            r.set_timeout(Duration::from_millis(40));
            r.allreduce_max(1.0);
        });
    }

    #[test]
    fn large_payload_roundtrip() {
        run_ranks(2, |mut r| {
            let n = 100_000;
            if r.rank() == 0 {
                let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
                r.send_f32(1, 0, &data);
            } else {
                let got = r.recv_f32(0, 0);
                assert_eq!(got.len(), n);
                assert_eq!(got[n - 1], (n - 1) as f32);
            }
        });
    }
}
