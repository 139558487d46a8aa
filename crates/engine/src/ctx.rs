//! [`Ctx`]: an [`Engine`] plus a deadline/cancellation handle — the
//! per-task view of the solver stack.
//!
//! An engine is long-lived (it owns the memo caches that pay off across
//! tasks); a *task* is bounded (it has a timeout and can be cancelled by
//! a shutdown path). `Ctx` is the marriage: it borrows an engine, carries
//! one [`Interrupt`] handle, and snapshots the engine's counters at
//! construction so an interrupted task can report the effort it spent —
//! the `partial_stats` on [`Interrupted`].
//!
//! # One entry-point form: `foo_in(&Ctx, ...)`
//!
//! Every public solver entry point above the engine takes a `&Ctx` and
//! returns `Result<_, Interrupted>`: interruptible, engine-threaded, and
//! the only form there is. Entry points whose inner result is itself a
//! `Result<T, E>` return the nested `Result<Result<T, E>, Interrupted>`
//! so interruption composes uniformly with domain errors. A caller with
//! no deadline passes `engine.ctx()` — an unbounded context whose
//! handle nobody else holds, so its `Interrupted` arm cannot fire — and
//! unwraps; a caller that wants isolation, no memoization or a thread
//! cap builds the [`Engine`] accordingly. There is no process-wide
//! engine.

//! # Cancellation-check placement
//!
//! Every `foo_in` makes a **mandatory entry check** before any work, so
//! a `Duration::ZERO` deadline returns `Interrupted` without touching
//! the solvers. Below the entry check, each inner loop observes the
//! handle at bounded intervals: the hom backtracker per node expansion,
//! the cover game per DFS node and per fixpoint sweep segment, the
//! simplex per pivot, the perceptron per epoch, the subset and candidate
//! sweeps per block. Cache *miss* paths run interruptible solves and
//! never insert a verdict on [`Stop`]; cache *hit* paths skip checks
//! (they do no work worth interrupting). Parallel fan-outs let workers
//! swallow [`Stop`] (reporting filler results) and rely on stickiness:
//! the caller re-checks the handle after the fan-in and discards the
//! batch if it tripped.

use crate::{Engine, EngineStats};
use covergame::{CoverPreorder, UnionSkeleton};
use interrupt::{Interrupt, Reason, Stop};
use linsep::LinearClassifier;
use relational::{Database, Val};
use std::time::Duration;

/// A task was stopped before completing: its deadline passed or its
/// handle was cancelled. Carries the engine-counter deltas accumulated
/// between the [`Ctx`]'s construction and the stop, so callers can
/// report how much work the truncated task performed.
#[derive(Clone, Debug)]
pub struct Interrupted {
    /// Why the task stopped.
    pub reason: Reason,
    /// Engine counter deltas since the `Ctx` was created. Boxed: the
    /// stats block is large and `Interrupted` rides in the `Err` arm of
    /// every solver entry point — keeping it a pointer keeps the hot
    /// `Ok` path's `Result` small.
    pub partial_stats: Box<EngineStats>,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interrupted: {}", self.reason)
    }
}

impl std::error::Error for Interrupted {}

impl Interrupted {
    /// Was the stop caused by the deadline (as opposed to cancellation)?
    pub fn deadline_exceeded(&self) -> bool {
        self.reason == Reason::Deadline
    }
}

/// A per-task solver context: an [`Engine`] borrow plus one
/// [`Interrupt`] handle plus the stats baseline for partial reporting.
/// Cheap to construct; make one per task, not per call.
#[derive(Clone)]
pub struct Ctx<'e> {
    engine: &'e Engine,
    interrupt: Interrupt,
    start: EngineStats,
}

impl<'e> Ctx<'e> {
    /// An unbounded context: never trips on its own (no deadline), but
    /// the handle can still be cancelled through a clone.
    pub fn new(engine: &'e Engine) -> Ctx<'e> {
        Ctx::with_interrupt(engine, Interrupt::none())
    }

    /// A context whose deadline is `budget` from now. `Duration::ZERO`
    /// is already expired: every `foo_in` entry check returns
    /// [`Interrupted`] immediately.
    pub fn with_deadline(engine: &'e Engine, budget: Duration) -> Ctx<'e> {
        Ctx::with_interrupt(engine, Interrupt::with_deadline(budget))
    }

    /// A context around a caller-owned handle — the service layer keeps
    /// a clone per in-flight task and cancels it from the shutdown path.
    pub fn with_interrupt(engine: &'e Engine, interrupt: Interrupt) -> Ctx<'e> {
        Ctx {
            start: engine.stats(),
            engine,
            interrupt,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The task's interrupt handle (clone it to cancel from elsewhere).
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Engine counter deltas since this context was created — the figure
    /// [`Interrupted::partial_stats`] carries.
    pub fn stats_so_far(&self) -> EngineStats {
        self.engine.stats().since(&self.start)
    }

    /// The mandatory entry check every `foo_in` starts with.
    pub fn check(&self) -> Result<(), Interrupted> {
        self.interrupt.check().map_err(|stop| self.wrap(stop))
    }

    /// Promote a low-level [`Stop`] into [`Interrupted`] with this
    /// context's partial stats attached.
    pub fn wrap(&self, stop: Stop) -> Interrupted {
        Interrupted {
            reason: stop.reason,
            partial_stats: Box::new(self.stats_so_far()),
        }
    }

    // ------------------------------------------------------------------
    // Solver entry points (each makes the mandatory entry check)
    // ------------------------------------------------------------------

    /// Does a homomorphism `from → to` extending `fixed` exist?
    /// Memoized through the engine's table (unless caching is off), with
    /// delta subsumption against the engine's lineage registry.
    pub fn hom_exists(
        &self,
        from: &Database,
        to: &Database,
        fixed: &[(Val, Val)],
    ) -> Result<bool, Interrupted> {
        self.check()?;
        let cache = self.engine.hom_cache();
        let ans = if self.engine.caching_enabled() {
            cache.exists_sub_int(
                from,
                to,
                fixed,
                Some(self.engine.lineage()),
                &self.interrupt,
            )
        } else {
            cache.exists_uncached_int(from, to, fixed, &self.interrupt)
        };
        ans.map_err(|stop| self.wrap(stop))
    }

    /// `(D, ā) →_k (D', b̄)`, memoized through the engine's table.
    pub fn cover_implies(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
    ) -> Result<bool, Interrupted> {
        self.check()?;
        let cache = self.engine.game_cache();
        let ans = if self.engine.caching_enabled() {
            cache.implies_sub_int(d, a, d2, b, k, Some(self.engine.lineage()), &self.interrupt)
        } else {
            cache.implies_uncached_int(d, a, d2, b, k, &self.interrupt)
        };
        ans.map_err(|stop| self.wrap(stop))
    }

    /// [`Ctx::cover_implies`] for the game from `(skeleton.d, ā)` to
    /// `(skeleton.d2, b̄)`, reusing the prebuilt [`UnionSkeleton`] and
    /// its position tables on the miss path.
    pub fn cover_implies_with_skeleton(
        &self,
        a: &[Val],
        b: &[Val],
        skeleton: &UnionSkeleton,
    ) -> Result<bool, Interrupted> {
        self.check()?;
        let cache = self.engine.game_cache();
        let ans = if self.engine.caching_enabled() {
            cache.implies_with_skeleton_sub_int(
                a,
                b,
                skeleton,
                Some(self.engine.lineage()),
                &self.interrupt,
            )
        } else {
            cache.implies_with_skeleton_uncached_int(a, b, skeleton, &self.interrupt)
        };
        ans.map_err(|stop| self.wrap(stop))
    }

    /// Interruptible [`Engine::apply_delta`]: mutate `db` by `delta`,
    /// recording the fingerprint edge in the engine's lineage registry.
    /// Delta application itself is cheap and atomic, so only the entry
    /// check observes the handle; the nested `Result` keeps interruption
    /// composing with [`DeltaError`] like every other `foo_in`.
    pub fn apply_delta(
        &self,
        db: &mut Database,
        delta: &relational::Delta,
    ) -> Result<Result<relational::DeltaReceipt, relational::DeltaError>, Interrupted> {
        self.check()?;
        Ok(self.engine.apply_delta(db, delta))
    }

    /// Interruptible [`Engine::apply_training_delta`] (labels allowed).
    pub fn apply_training_delta(
        &self,
        train: &mut relational::TrainingDb,
        delta: &relational::Delta,
    ) -> Result<Result<relational::DeltaReceipt, relational::DeltaError>, Interrupted> {
        self.check()?;
        Ok(self.engine.apply_training_delta(train, delta))
    }

    /// Linear separation, counted against the engine's LP counters.
    pub fn separate(
        &self,
        vectors: &[Vec<i32>],
        labels: &[i32],
    ) -> Result<Option<LinearClassifier>, Interrupted> {
        Ok(self
            .separate_warm(vectors, labels, None)?
            .result
            .map(|(c, _)| c))
    }

    /// Warm-capable interruptible separation: as [`Ctx::separate`] but
    /// accepting the final basis of a related instance (subset `S` of the
    /// ≤ℓ sweep warm-starting `S ∪ {j}` or a same-size sibling — see
    /// [`linsep::SepBasis`]) and returning the verdict, with its optimal
    /// margin, together with this instance's final basis. An offer skips
    /// the perceptron tier, so the LP decides (see [`linsep::separate`]).
    pub fn separate_warm(
        &self,
        vectors: &[Vec<i32>],
        labels: &[i32],
        warm: Option<&linsep::SepBasis>,
    ) -> Result<linsep::SepOutcome, Interrupted> {
        self.check()?;
        linsep::separate(
            self.engine.lp_counters(),
            vectors,
            labels,
            warm,
            &self.interrupt,
        )
        .map_err(|stop| self.wrap(stop))
    }

    /// Exact minimum-error linear classification (§7), every internal LP
    /// decision counted against the engine.
    pub fn min_error(
        &self,
        vectors: &[Vec<i32>],
        labels: &[i32],
    ) -> Result<linsep::MinErrorResult, Interrupted> {
        self.check()?;
        linsep::min_error_classifier(self.engine.lp_counters(), vectors, labels, &self.interrupt)
            .map_err(|stop| self.wrap(stop))
    }

    /// The `→_k` preorder over `elems` of `d`: one game per ordered pair
    /// (one shared skeleton), memoized through the engine's table. The
    /// sweep fans out under the engine's thread budget; a worker that
    /// trips reports
    /// a filler verdict, and the sticky post-fan-in check discards the
    /// whole matrix. Completed games keep their cache entries, so a
    /// re-run on the same engine resumes where the sweep stopped.
    pub fn preorder(
        &self,
        d: &Database,
        elems: &[Val],
        k: usize,
    ) -> Result<CoverPreorder, Interrupted> {
        self.check()?;
        let n = elems.len();
        let skeleton = UnionSkeleton::build(d, d, k);
        let cells: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .collect();
        let verdicts = self.engine.par_map(&cells, |&(i, j)| {
            self.cover_implies_with_skeleton(&[elems[i]], &[elems[j]], &skeleton)
                .unwrap_or(false)
        });
        // The sticky re-check that makes the filler verdicts safe.
        self.check()?;
        let mut leq = vec![vec![false; n]; n];
        for (i, row) in leq.iter_mut().enumerate() {
            row[i] = true;
        }
        for (&(i, j), v) in cells.iter().zip(verdicts) {
            leq[i][j] = v;
        }
        Ok(CoverPreorder::from_matrix(elems.to_vec(), leq, k))
    }

    /// Evaluate a preorder's implicit chain statistic on an element `f`
    /// of an evaluation database (Algorithm 1, lines 3–9), with the
    /// per-component games routed through the engine.
    pub fn chain_vector_for(
        &self,
        pre: &CoverPreorder,
        d: &Database,
        d2: &Database,
        f: Val,
    ) -> Result<Vec<i32>, Interrupted> {
        self.check()?;
        (0..pre.class_count())
            .map(|j| {
                let rep = pre.elems[pre.representative(j)];
                Ok(if self.cover_implies(d, &[rep], d2, &[f], pre.k)? {
                    1
                } else {
                    -1
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{DbBuilder, Schema};

    fn graph(edges: &[(&str, &str)], entities: &[&str]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        for &e in entities {
            b = b.entity(e);
        }
        b.build()
    }

    #[test]
    fn unbounded_ctx_agrees_with_reference_solvers() {
        let e = Engine::new();
        let ctx = Ctx::new(&e);
        let p = graph(&[("a", "b"), ("b", "c")], &[]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")], &[]);
        assert_eq!(
            ctx.hom_exists(&p, &c3, &[]).unwrap(),
            relational::homomorphism_exists(&p, &c3, &[])
        );
        let a = c3.val_by_name("x").unwrap();
        let one = p.val_by_name("a").unwrap();
        assert_eq!(
            ctx.cover_implies(&c3, &[a], &p, &[one], 1).unwrap(),
            covergame::cover_implies(&c3, &[a], &p, &[one], 1)
        );
        let vs = vec![vec![1, 1], vec![-1, -1]];
        assert!(ctx.separate(&vs, &[1, -1]).unwrap().is_some());
    }

    #[test]
    fn zero_deadline_interrupts_every_ctx_method() {
        let e = Engine::new();
        let ctx = Ctx::with_deadline(&e, Duration::ZERO);
        let p = graph(&[("a", "b")], &["a", "b"]);
        assert!(ctx.hom_exists(&p, &p, &[]).is_err());
        assert!(ctx.cover_implies(&p, &[], &p, &[], 1).is_err());
        assert!(ctx.separate(&[], &[]).is_err());
        assert!(ctx.separate_warm(&[], &[], None).is_err());
        assert!(ctx.min_error(&[], &[]).is_err());
        assert!(ctx.preorder(&p, &p.entities(), 1).is_err());
        let err = ctx.check().unwrap_err();
        assert!(err.deadline_exceeded());
        assert_eq!(err.to_string(), "interrupted: deadline exceeded");
    }

    #[test]
    fn cancellation_reports_cancelled_with_partial_stats() {
        let e = Engine::new();
        let ctx = Ctx::new(&e);
        let p = graph(&[("a", "b"), ("b", "c")], &[]);
        // Do some work first so partial stats are nonzero.
        ctx.hom_exists(&p, &p, &[]).unwrap();
        ctx.interrupt().cancel();
        let err = ctx.hom_exists(&p, &p, &[]).unwrap_err();
        assert_eq!(err.reason, Reason::Cancelled);
        assert!(err.partial_stats.hom.solves >= 1);
    }

    #[test]
    fn interrupted_miss_leaves_no_cache_entry() {
        let e = Engine::new();
        let p = graph(&[("a", "b"), ("b", "c")], &["a", "b", "c"]);
        {
            let ctx = Ctx::with_deadline(&e, Duration::ZERO);
            assert!(ctx.hom_exists(&p, &p, &[]).is_err());
        }
        assert!(e.hom_cache().is_empty());
        assert!(e.game_cache().is_empty());
        // A later unbounded run on the same engine completes normally.
        let ctx = Ctx::new(&e);
        assert!(ctx.hom_exists(&p, &p, &[]).unwrap());
    }

    #[test]
    fn preorder_in_matches_uninterrupted_engine_preorder() {
        let e = Engine::new();
        let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
        // A deadline-bearing context that does not fire…
        let ctx = Ctx::with_deadline(&e, Duration::from_secs(3600));
        let ours = ctx.preorder(&d, &d.entities(), 1).unwrap();
        // …agrees with the unbounded context of a fresh engine and with
        // the uncached reference sweep.
        let fresh = Engine::new();
        let uninterrupted = fresh.ctx().preorder(&d, &d.entities(), 1).unwrap();
        let reference = CoverPreorder::compute_seq(&d, &d.entities(), 1);
        assert_eq!(ours.leq, uninterrupted.leq);
        assert_eq!(ours.class_of, uninterrupted.class_of);
        assert_eq!(ours.leq, reference.leq);
        assert_eq!(ours.class_of, reference.class_of);
    }
}
