//! Deterministic fault injection for the rank runtime.
//!
//! Production WRF campaigns survive node loss through restart files; to
//! reproduce that story the simulator needs a way to *cause* the loss.
//! A [`FaultPlan`] scripts failures against a [`crate::comm::run_ranks`]
//! launch: kill rank R when it begins step N, or drop/delay messages
//! matched by a (src, dst, tag) predicate. Every fault fires a bounded
//! number of times, so a supervisor's relaunch that shares the plan after
//! a detected failure runs clean once the faults are spent.
//!
//! Faults are checked inside [`crate::comm::Rank`]: kills at
//! [`crate::comm::Rank::begin_step`], message faults at send time. All
//! bookkeeping is atomic — the plan is shared across rank threads
//! behind an `Arc`.

use crate::comm::Tag;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// What happens to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message is silently discarded (the receiver times out).
    Drop,
    /// The message is held back and delivered only after the sender has
    /// issued this many further sends (models out-of-order arrival and
    /// congested links; `Delay(0)` is a no-op reorder).
    Delay(u32),
}

/// Kills one rank when it begins a given step.
#[derive(Debug)]
struct Kill {
    rank: usize,
    step: u64,
    fired: AtomicBool,
}

/// A (src, dst, tag) predicate over outgoing messages; `None` matches
/// any value.
#[derive(Debug)]
struct MessageFault {
    src: Option<usize>,
    dst: Option<usize>,
    tag: Option<Tag>,
    action: FaultAction,
    max_hits: u32,
    hits: AtomicU32,
}

/// A scripted set of failures injected into one communicator launch.
///
/// Plans are built with the fluent constructors and handed to
/// [`crate::comm::run_ranks_with_faults`]. Each kill fires at most
/// once and each message fault at most `max_hits` times; the supervisor
/// relies on these one-shot semantics across relaunches that share the
/// plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    kills: Vec<Kill>,
    messages: Vec<MessageFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Kill `rank` when it begins step `step` (0-based). Fires once.
    pub fn kill_rank_at(mut self, rank: usize, step: u64) -> Self {
        self.kills.push(Kill {
            rank,
            step,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Apply `action` to the first `max_hits` sends matching the
    /// (src, dst, tag) predicate; `None` fields match anything.
    pub fn on_message(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag: Option<Tag>,
        action: FaultAction,
        max_hits: u32,
    ) -> Self {
        self.messages.push(MessageFault {
            src,
            dst,
            tag,
            action,
            max_hits,
            hits: AtomicU32::new(0),
        });
        self
    }

    /// True when `rank` must die at (or past) `step`. Consumes the kill:
    /// the same spec never fires twice, so a supervised relaunch that
    /// replays the step runs clean.
    pub fn should_kill(&self, rank: usize, step: u64) -> bool {
        self.kills
            .iter()
            .any(|k| k.rank == rank && step >= k.step && !k.fired.swap(true, Ordering::SeqCst))
    }

    /// The action (if any) to apply to a message `src -> dst` with
    /// `tag`. Consumes one hit of the first matching fault.
    pub fn on_send(&self, src: usize, dst: usize, tag: Tag) -> Option<FaultAction> {
        for f in &self.messages {
            let matches = f.src.is_none_or(|s| s == src)
                && f.dst.is_none_or(|d| d == dst)
                && f.tag.is_none_or(|t| t == tag);
            if matches && f.hits.fetch_add(1, Ordering::SeqCst) < f.max_hits {
                return Some(f.action);
            }
        }
        None
    }

    /// Total message-fault hits consumed so far (dropped + delayed).
    pub fn message_hits(&self) -> u32 {
        self.messages
            .iter()
            .map(|f| f.hits.load(Ordering::SeqCst).min(f.max_hits))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_once_at_or_past_step() {
        let plan = FaultPlan::new().kill_rank_at(2, 5);
        assert!(!plan.should_kill(2, 4));
        assert!(!plan.should_kill(1, 5));
        assert!(plan.should_kill(2, 5));
        // One-shot: the relaunch replaying step 5 is not killed again.
        assert!(!plan.should_kill(2, 5));
        assert!(!plan.should_kill(2, 6));
    }

    #[test]
    fn message_predicate_matches_and_bounds_hits() {
        let plan = FaultPlan::new().on_message(Some(0), Some(1), None, FaultAction::Drop, 2);
        assert_eq!(plan.on_send(0, 1, 9), Some(FaultAction::Drop));
        assert_eq!(plan.on_send(0, 1, 10), Some(FaultAction::Drop));
        assert_eq!(plan.on_send(0, 1, 11), None, "max_hits exhausted");
        assert_eq!(plan.on_send(1, 0, 9), None, "direction mismatch");
        assert_eq!(plan.message_hits(), 2);
    }
}
