//! The deadline/cancellation primitive observed by every solver inner
//! loop.
//!
//! An [`Interrupt`] is a cheaply clonable handle around a shared flag
//! and an optional deadline. The solver stack threads one through every
//! layer (the hom backtracking search, the cover-game position
//! exploration and fixpoint sweeps, the simplex pivot loop, the subset
//! and CQ-candidate sweeps); each inner loop calls [`Interrupt::check`]
//! at bounded intervals and unwinds with [`Stop`] as soon as the handle
//! trips. The `engine` crate wraps the pair `(&Engine, Interrupt)` into
//! its `Ctx` type and converts [`Stop`] into its richer
//! `Interrupted { reason, partial_stats }` error; this crate stays
//! dependency-free so the leaf crates (`relational`, `covergame`,
//! `linsep`) can observe interruption without seeing the engine.
//!
//! # Semantics
//!
//! * **Sticky.** Once tripped (deadline passed or [`Interrupt::cancel`]
//!   called), every later [`Interrupt::check`] fails too. Parallel
//!   drivers exploit this: a worker that swallowed a [`Stop`] mid-batch
//!   cannot "untrip" the handle, so the caller re-checks once after the
//!   fan-in and discards the batch's (possibly partial) results.
//! * **Deadline is absolute.** Fixed at construction; a
//!   `Duration::ZERO` budget is already expired when the first check
//!   runs, so every entry point's mandatory entry check reports
//!   [`Reason::Deadline`] before any work happens.
//! * **Cancellation wins ties.** If a handle is both cancelled and past
//!   its deadline, checks report [`Reason::Cancelled`] — the explicit
//!   action is the more informative cause.
//!
//! The crate also holds [`counter_table!`], the one declaration form of
//! every layer's work counters (see [`counters`]): it sits here because
//! every solver crate already depends on this one.

pub mod counters;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an [`Interrupt`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// The handle's deadline passed.
    Deadline,
    /// [`Interrupt::cancel`] was called.
    Cancelled,
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reason::Deadline => write!(f, "deadline exceeded"),
            Reason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The low-level "stop now" error a tripped [`Interrupt`] produces.
/// Carries only the [`Reason`]; the engine layer attaches partial stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stop {
    pub reason: Reason,
}

impl std::fmt::Display for Stop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interrupted: {}", self.reason)
    }
}

impl std::error::Error for Stop {}

struct Inner {
    // The cancel flag is its own `Arc` so a [`Interrupt::child`] can
    // share it while carrying a tighter deadline of its own.
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

/// A shared deadline/cancellation handle. Clones observe (and trip) the
/// same underlying flag, so a service can keep one clone per in-flight
/// task and cancel it from the shutdown path while the solver holds
/// another deep inside a search.
#[derive(Clone)]
pub struct Interrupt {
    inner: Arc<Inner>,
}

impl Interrupt {
    /// A handle that never trips on its own (no deadline). It can still
    /// be [`cancel`](Interrupt::cancel)led.
    pub fn none() -> Interrupt {
        Interrupt {
            inner: Arc::new(Inner {
                cancelled: Arc::new(AtomicBool::new(false)),
                deadline: None,
            }),
        }
    }

    /// A handle whose deadline is `budget` from now. A `Duration::ZERO`
    /// budget is already expired.
    pub fn with_deadline(budget: Duration) -> Interrupt {
        Interrupt::at(Instant::now().checked_add(budget).unwrap_or_else(|| {
            // Saturate absurd budgets to "effectively never".
            Instant::now() + Duration::from_secs(u32::MAX as u64)
        }))
    }

    /// A handle with an absolute deadline.
    pub fn at(deadline: Instant) -> Interrupt {
        Interrupt {
            inner: Arc::new(Inner {
                cancelled: Arc::new(AtomicBool::new(false)),
                deadline: Some(deadline),
            }),
        }
    }

    /// A *child* handle sharing this handle's cancel flag but bounded by
    /// its own `budget` from now — never outliving the parent's deadline
    /// (the child deadline is the minimum of the two). Cancelling either
    /// handle trips both; the child's deadline expiring trips only the
    /// child. This is the per-fit timeout primitive: a task running many
    /// solver fits gives each one a `child` budget so a single runaway
    /// fit times out while the task (and its shutdown path) stays in
    /// control of the whole run.
    pub fn child(&self, budget: Duration) -> Interrupt {
        let own = Instant::now().checked_add(budget).unwrap_or_else(|| {
            // Saturate absurd budgets to "effectively never".
            Instant::now() + Duration::from_secs(u32::MAX as u64)
        });
        let deadline = match self.inner.deadline {
            Some(parent) => parent.min(own),
            None => own,
        };
        Interrupt {
            inner: Arc::new(Inner {
                cancelled: Arc::clone(&self.inner.cancelled),
                deadline: Some(deadline),
            }),
        }
    }

    /// Trip the handle. Idempotent; every clone sees it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has the handle tripped (cancelled or past deadline)?
    pub fn is_tripped(&self) -> bool {
        self.status().is_some()
    }

    /// Does this handle carry a deadline?
    pub fn has_deadline(&self) -> bool {
        self.inner.deadline.is_some()
    }

    /// The tripped reason, if any (cancellation wins ties).
    pub fn status(&self) -> Option<Reason> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(Reason::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(Reason::Deadline),
            _ => None,
        }
    }

    /// `Err(Stop)` iff the handle has tripped. This is the call every
    /// solver inner loop makes at bounded intervals.
    #[inline]
    pub fn check(&self) -> Result<(), Stop> {
        match self.status() {
            Some(reason) => Err(Stop { reason }),
            None => Ok(()),
        }
    }
}

impl Default for Interrupt {
    fn default() -> Interrupt {
        Interrupt::none()
    }
}

impl std::fmt::Debug for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interrupt")
            .field("deadline", &self.inner.deadline)
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips() {
        let i = Interrupt::none();
        assert!(!i.has_deadline());
        assert_eq!(i.check(), Ok(()));
        assert!(!i.is_tripped());
    }

    #[test]
    fn zero_deadline_is_already_expired() {
        let i = Interrupt::with_deadline(Duration::ZERO);
        assert_eq!(
            i.check(),
            Err(Stop {
                reason: Reason::Deadline
            })
        );
    }

    #[test]
    fn cancel_is_sticky_and_shared_across_clones() {
        let i = Interrupt::none();
        let clone = i.clone();
        assert_eq!(clone.check(), Ok(()));
        i.cancel();
        for handle in [&i, &clone] {
            assert_eq!(
                handle.check(),
                Err(Stop {
                    reason: Reason::Cancelled
                })
            );
        }
        // Still tripped later: sticky.
        assert!(clone.is_tripped());
    }

    #[test]
    fn cancellation_wins_over_expired_deadline() {
        let i = Interrupt::with_deadline(Duration::ZERO);
        i.cancel();
        assert_eq!(i.status(), Some(Reason::Cancelled));
    }

    #[test]
    fn future_deadline_does_not_trip_early() {
        let i = Interrupt::with_deadline(Duration::from_secs(3600));
        assert_eq!(i.check(), Ok(()));
    }

    #[test]
    fn child_shares_cancel_flag_both_ways() {
        let parent = Interrupt::none();
        let child = parent.child(Duration::from_secs(3600));
        assert_eq!(child.check(), Ok(()));
        parent.cancel();
        assert_eq!(child.status(), Some(Reason::Cancelled));

        let parent = Interrupt::none();
        let child = parent.child(Duration::from_secs(3600));
        child.cancel();
        assert_eq!(parent.status(), Some(Reason::Cancelled));
    }

    #[test]
    fn child_deadline_trips_only_the_child() {
        let parent = Interrupt::with_deadline(Duration::from_secs(3600));
        let child = parent.child(Duration::ZERO);
        assert_eq!(child.status(), Some(Reason::Deadline));
        assert_eq!(parent.check(), Ok(()));
    }

    #[test]
    fn child_never_outlives_parent_deadline() {
        let parent = Interrupt::with_deadline(Duration::ZERO);
        let child = parent.child(Duration::from_secs(3600));
        assert_eq!(child.status(), Some(Reason::Deadline));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Stop {
                reason: Reason::Deadline
            }
            .to_string(),
            "interrupted: deadline exceeded"
        );
        assert_eq!(
            Stop {
                reason: Reason::Cancelled
            }
            .to_string(),
            "interrupted: cancelled"
        );
    }
}
