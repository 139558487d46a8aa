//! The unified solver context.
//!
//! Every layer of the separability pipeline keeps instrumented, memoized
//! machinery: the hom solver's memo table ([`relational::HomCache`]), the
//! cover-game verdict table ([`covergame::GameCache`]), and the LP
//! engine's counters ([`linsep::LpCounters`]). An [`Engine`] owns one of
//! each plus the parallelism configuration; there is no process-wide
//! instance, so concurrent workloads never share (or cross-contaminate)
//! counters, and every solve runs with an explicit lifetime, thread
//! budget and caching mode:
//!
//! * `Engine::new()` is a fully isolated instance — its caches and
//!   counters see exactly the queries routed through it;
//!   [`Engine::without_cache`] runs the same queries unmemoized and
//!   [`Engine::with_threads`] caps the parallel drivers;
//! * [`Engine::save`]/[`Engine::load`] persist the two verdict tables to
//!   a cache directory (see [`persist`]) for warm starts across
//!   processes — the CLI's `--cache-dir` flag.
//!
//! Solvers take a [`Ctx`] — an engine borrow plus a deadline or
//! cancellation handle — and every public solver entry point has the one
//! form `foo_in(&Ctx, ...) -> Result<_, Interrupted>` (see [`ctx`]). A
//! caller with no deadline builds `engine.ctx()` and unwraps.
//!
//! One counter is intentionally *not* per-engine: `bignum_promotions`
//! happens inside `numeric::Rat` arithmetic with no engine in sight, so
//! [`EngineStats`] reports the process-wide figure (see
//! [`numeric::rat::promotion_count`]).

pub mod ctx;
pub mod persist;

use covergame::{GameCache, GameStats};
use cq::{Cq, EnumConfig};
use interrupt::counters::section;
use linsep::{LpCounters, LpStats};
use qbe::QbeError;
use relational::{
    Database, Delta, DeltaError, DeltaReceipt, HomCache, HomStats, Lineage, TrainingDb, Val,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use ctx::{Ctx, Interrupted};
pub use interrupt::{Interrupt, Reason, Stop};
pub use persist::RestoreSummary;

/// A solver context owning the memo caches, the unified stats counters,
/// and the parallelism configuration for everything run through it.
#[derive(Clone)]
pub struct Engine {
    hom: Arc<HomCache>,
    game: Arc<GameCache>,
    lp: Arc<LpCounters>,
    /// Fingerprint lineage: which database contents are deltas of which
    /// (see [`relational::delta`]). Feeds the caches' subsumption reads.
    lineage: Arc<Lineage>,
    /// Worker-thread cap for the parallel drivers (`None` = all cores).
    threads: Option<usize>,
}

impl Engine {
    /// A fully isolated engine: fresh caches, fresh counters, default
    /// thread budget (all cores), caching on.
    pub fn new() -> Engine {
        Engine {
            hom: Arc::new(HomCache::new()),
            game: Arc::new(GameCache::new()),
            lp: Arc::new(LpCounters::new()),
            lineage: Arc::new(Lineage::new()),
            threads: None,
        }
    }

    /// An isolated engine whose hom and game tables each hold roughly
    /// `capacity` entries before old ones age out.
    pub fn with_capacity(capacity: usize) -> Engine {
        Engine {
            hom: Arc::new(HomCache::with_capacity(capacity)),
            game: Arc::new(GameCache::with_capacity(capacity)),
            ..Engine::new()
        }
    }

    /// Cap the parallel drivers at `n` worker threads (0 is treated as 1;
    /// the drivers always make progress).
    pub fn with_threads(mut self, n: usize) -> Engine {
        self.threads = Some(n);
        self
    }

    /// Disable memoization: the engine gets fresh caches of the same
    /// capacity whose memos are bypassed (see
    /// [`relational::Memo::without_memo`]) — queries still run and count
    /// through them, but the tables are neither consulted nor updated.
    pub fn without_cache(mut self) -> Engine {
        self.hom = Arc::new(HomCache::with_capacity(self.hom.capacity()).without_memo());
        self.game = Arc::new(GameCache::with_capacity(self.game.capacity()).without_memo());
        self
    }

    // ------------------------------------------------------------------
    // Task contexts
    // ------------------------------------------------------------------

    /// An unbounded [`Ctx`] over this engine (no deadline; cancellable
    /// through a clone of its handle).
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx::new(self)
    }

    /// A [`Ctx`] whose deadline is `budget` from now. `Duration::ZERO`
    /// is already expired.
    pub fn ctx_with_deadline(&self, budget: Duration) -> Ctx<'_> {
        Ctx::with_deadline(self, budget)
    }

    /// A [`Ctx`] around a caller-owned [`Interrupt`] handle (the service
    /// layer keeps a clone per in-flight task for its shutdown path).
    pub fn ctx_with_interrupt(&self, interrupt: Interrupt) -> Ctx<'_> {
        Ctx::with_interrupt(self, interrupt)
    }

    // ------------------------------------------------------------------
    // Configuration and component access
    // ------------------------------------------------------------------

    /// The configured worker-thread cap (`None` = all cores).
    pub fn thread_budget(&self) -> Option<usize> {
        self.threads
    }

    /// The worker count this engine's parallel drivers can actually use:
    /// the configured budget clamped to the host's available parallelism
    /// (and at least 1). Callers use `< 2` as the signal to skip
    /// parallel orchestration entirely — on a 1-core host, or an engine
    /// pinned to one thread, materializing work lists and spawning
    /// scoped workers is pure overhead.
    pub fn effective_parallelism(&self) -> usize {
        let hw = relational::hom::par::hardware_parallelism();
        self.threads.map_or(hw, |t| t.clamp(1, hw))
    }

    /// Is memoization enabled? (A property of the engine's tables, set
    /// by [`Engine::without_cache`].)
    pub fn caching_enabled(&self) -> bool {
        self.hom.memoizes()
    }

    /// The hom-existence memo table.
    pub fn hom_cache(&self) -> &HomCache {
        &self.hom
    }

    /// The cover-game verdict memo table.
    pub fn game_cache(&self) -> &GameCache {
        &self.game
    }

    /// The LP-engine counter set.
    pub fn lp_counters(&self) -> &LpCounters {
        &self.lp
    }

    /// The fingerprint-lineage registry (delta history + subsumption).
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    // ------------------------------------------------------------------
    // Deltas
    // ------------------------------------------------------------------

    /// Apply a structural delta to `db`, recording the fingerprint edge
    /// in this engine's lineage registry so later cache lookups against
    /// the descendant can subsume from entries cached for the parent
    /// (and a repeat of the same edit skips the fingerprint recompute).
    pub fn apply_delta(
        &self,
        db: &mut Database,
        delta: &Delta,
    ) -> Result<DeltaReceipt, DeltaError> {
        db.apply_via(delta, &self.lineage)
    }

    /// [`Engine::apply_delta`] for training databases (label ops
    /// allowed; label-only deltas keep the fingerprint, so every cached
    /// verdict stays exactly valid).
    pub fn apply_training_delta(
        &self,
        train: &mut TrainingDb,
        delta: &Delta,
    ) -> Result<DeltaReceipt, DeltaError> {
        train.apply_via(delta, &self.lineage)
    }

    /// Note a column subset refuted by the caller's own duplicate-row
    /// conflict scan (the dimension-bounded subset search runs the scan
    /// on projected rows before assembling an LP).
    pub fn record_conflict_prune(&self) {
        self.lp.record_conflict_prune();
    }

    // ------------------------------------------------------------------
    // Parallel drivers (thread budget applied)
    // ------------------------------------------------------------------

    /// Does `pred` hold for all pairs? Early-exits on the first
    /// counterexample; workers capped by the engine's thread budget.
    pub fn par_all_pairs<A, B, F>(&self, pairs: &[(A, B)], pred: F) -> bool
    where
        A: Copy + Sync,
        B: Copy + Sync,
        F: Fn(A, B) -> bool + Sync,
    {
        relational::hom::par::par_all_pairs(pairs, self.threads, pred)
    }

    /// Map `f` over `items` in parallel, preserving order; workers capped
    /// by the engine's thread budget.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        relational::hom::par::par_map(items, self.threads, f)
    }

    /// Index of the first (lowest-index) item satisfying `pred`; workers
    /// capped by the engine's thread budget.
    pub fn par_find_first<T, F>(&self, items: &[T], pred: F) -> Option<usize>
    where
        T: Sync,
        F: Fn(&T) -> bool + Sync,
    {
        relational::hom::par::par_find_first(items, self.threads, pred)
    }

    // ------------------------------------------------------------------
    // Stats and persistence
    // ------------------------------------------------------------------

    /// A unified snapshot of this engine's counters. For an isolated
    /// engine every figure except `lp.bignum_promotions` (process-wide by
    /// construction — see the crate docs) is attributable to exactly the
    /// queries routed through it.
    pub fn stats(&self) -> EngineStats {
        let (hom, game, lineage) = (self.hom.counts(), self.game.counts(), self.lineage.stats());
        EngineStats {
            hom: self.hom.stats(),
            game: self.game.stats(),
            lp: LpStats {
                bignum_promotions: numeric::rat::promotion_count(),
                ..self.lp.snapshot()
            },
            sub: SubsumeStats {
                hom_subsumption_hits: hom.subsumption_hits,
                game_subsumption_hits: game.subsumption_hits,
                lineage_edges: self.lineage.edge_count(),
                lineage_registry_hits: lineage.registry_hits,
            },
            restored_entries: hom.restored + game.restored + lineage.restored,
        }
    }

    /// Zero every per-engine counter (memo tables and the lineage edge
    /// table are untouched; the process-wide promotion counter is not
    /// per-engine and keeps running).
    pub fn reset_stats(&self) {
        self.hom.reset_stats();
        self.game.reset_stats();
        self.lp.reset();
        self.lineage.reset_stats();
    }

    /// Persist both verdict tables under `dir` (created if missing).
    /// Writes are temp-file-plus-rename, so a crash mid-save leaves any
    /// previous tables intact.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        persist::save(self, dir)
    }

    /// Restore previously saved verdict tables from `dir` into this
    /// engine's caches. Missing, truncated, or corrupted files are a
    /// *cold start*, not an error: that table restores zero entries.
    /// Restored entries count as neither hits nor misses — they show up
    /// as `restored_entries` in [`Engine::stats`] and pay off as hits on
    /// first re-query.
    pub fn load(&self, dir: &Path) -> std::io::Result<RestoreSummary> {
        persist::load(self, dir)
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

interrupt::counter_table! {
    /// A point-in-time aggregate of all of an engine's counters.
    pub struct EngineStats {
        /// Homomorphism layer: search effort plus memo hits/misses.
        hom: nested(HomStats),
        /// Cover-game layer: analysis effort plus memo hits/misses.
        game: nested(GameStats),
        /// LP layer: solves, pivots, fast-path counters. `bignum_promotions`
        /// is the process-wide figure (promotions are not attributable to an
        /// engine).
        lp: nested(LpStats),
        /// Delta/lineage layer: subsumption reuse across related databases.
        sub: nested(SubsumeStats),
        /// Cache entries imported by [`Engine::load`] since the last reset
        /// (verdict tables plus lineage edges).
        restored_entries: count("restored cache entries"),
    }
}

impl EngineStats {
    /// A scalar work estimate for fair-share scheduling: the dominant
    /// effort counters of each solver layer summed into one figure.
    /// Search nodes and game positions dwarf the per-call counters, so
    /// the weight of a job tracks how deep its solves actually went;
    /// memo hits cost (almost) nothing and are deliberately excluded.
    /// Only meaningful on deltas ([`EngineStats::since`]) billed to one
    /// job at a time.
    pub fn cost(&self) -> u64 {
        self.hom
            .solves
            .saturating_add(self.hom.nodes_expanded)
            .saturating_add(self.game.games_solved)
            .saturating_add(self.game.positions_explored)
            .saturating_add(self.lp.lps_solved)
            .saturating_add(self.lp.sparse_pivots)
    }

    /// The unified human-readable report (the CLI's `--stats` output):
    /// one banner, the restored-entry count, the per-layer sections and
    /// the subsumption section.
    pub fn report(&self) -> String {
        let banner = section(
            "engine stats (hom + cover-game + LP):",
            24,
            &self.fields(),
            &[],
        );
        [
            banner,
            self.hom.report(),
            self.game.report(),
            self.lp.report(),
            self.sub.report(),
        ]
        .join("\n")
    }
}

interrupt::counter_table! {
    /// Counters for the delta-aware reuse paths: how many cache probes
    /// were answered by a subsumption rule instead of an exact key, and
    /// how much lineage (parent/child fingerprint edges from
    /// [`Engine::apply_delta`]) the engine is tracking.
    pub struct SubsumeStats {
        /// Hom-cache probes answered via a lineage-related database.
        hom_subsumption_hits: count("hom subsumption hits"),
        /// Game-cache probes answered via a lineage-related database.
        game_subsumption_hits: count("game subsumption hits"),
        /// Fingerprint edges currently recorded in the lineage registry
        /// (a gauge: `since` carries the current value through).
        lineage_edges: gauge("lineage edges"),
        /// `apply_delta` calls whose child fingerprint was answered by the
        /// registry memo instead of a recompute.
        lineage_registry_hits: count("lineage registry hits"),
    }
}

impl SubsumeStats {
    /// The `subsumption:` section of [`EngineStats::report`].
    pub fn report(&self) -> String {
        section("subsumption:", 24, &self.fields(), &[])
    }
}

// ----------------------------------------------------------------------
// Engine-threaded QBE entry points (`foo_in(&Ctx, ...)`; see the `ctx`
// module docs for the convention)
// ----------------------------------------------------------------------

/// [`qbe::cq_qbe_decide`] with the product-hom tests routed through the
/// context's engine and observing its interrupt handle.
pub fn cq_qbe_decide_in(
    ctx: &Ctx,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    product_budget: usize,
) -> Result<Result<bool, QbeError>, Interrupted> {
    ctx.check()?;
    // Workers report a filler verdict on Stop; the sticky post-check
    // below discards the (possibly bogus) result.
    let out = qbe::cq_qbe_decide_via(
        &|f, t, x| ctx.hom_exists(f, t, x).unwrap_or(false),
        d,
        pos,
        neg,
        product_budget,
    );
    ctx.check()?;
    Ok(out)
}

/// [`qbe::cq_qbe_explain`] with the product-hom tests routed through the
/// context's engine and observing its interrupt handle.
pub fn cq_qbe_explain_in(
    ctx: &Ctx,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    product_budget: usize,
) -> Result<Result<Option<Cq>, QbeError>, Interrupted> {
    ctx.check()?;
    let out = qbe::cq_qbe_explain_via(
        &|f, t, x| ctx.hom_exists(f, t, x).unwrap_or(false),
        d,
        pos,
        neg,
        product_budget,
    );
    ctx.check()?;
    Ok(out)
}

/// [`qbe::ghw_qbe_decide`] with the cover-game tests routed through the
/// context's engine and observing its interrupt handle.
pub fn ghw_qbe_decide_in(
    ctx: &Ctx,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    k: usize,
    product_budget: usize,
) -> Result<Result<bool, QbeError>, Interrupted> {
    ctx.check()?;
    let out = qbe::ghw_qbe_decide_via(
        &|g, a, g2, b, kk| ctx.cover_implies(g, a, g2, b, kk).unwrap_or(false),
        d,
        pos,
        neg,
        k,
        product_budget,
    );
    ctx.check()?;
    Ok(out)
}

/// [`qbe::ghw_qbe_explain`] under a context. Extraction unfolds
/// Spoiler's strategy from the *analyzed game*, which a verdict cache
/// cannot supply, so the games here run uncached regardless of the
/// engine's configuration. The extraction itself is budget-bounded, so
/// interruption is observed at the entry and exit checks only.
pub fn ghw_qbe_explain_in(
    ctx: &Ctx,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    k: usize,
    product_budget: usize,
    extract_budget: usize,
) -> Result<Result<Option<Cq>, QbeError>, Interrupted> {
    ctx.check()?;
    let out = qbe::ghw_qbe_explain(d, pos, neg, k, product_budget, extract_budget);
    ctx.check()?;
    Ok(out)
}

/// [`qbe::cqm_qbe`] with the candidate scan fanned out under the
/// context's thread budget, observed in blocks: the handle is checked
/// between blocks of candidates, so a deadline lands within one block's
/// worth of acceptance tests. Returns the same (lowest-index) first
/// acceptable candidate as the sequential enumeration.
pub fn cqm_qbe_in(
    ctx: &Ctx,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    config: &EnumConfig,
) -> Result<Option<Cq>, Interrupted> {
    ctx.check()?;
    let candidates = qbe::cqm_qbe_candidates(d, config);
    const BLOCK: usize = 64;
    for chunk in candidates.chunks(BLOCK) {
        ctx.check()?;
        if let Some(i) = ctx
            .engine()
            .par_find_first(chunk, |q| qbe::cqm_qbe_accepts(q, d, pos, neg))
        {
            return Ok(Some(chunk[i].clone()));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use covergame::CoverPreorder;
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
    fn fresh_engine_starts_at_zero_and_counts_its_own_work() {
        let e = Engine::new();
        assert_eq!(
            e.stats(),
            EngineStats {
                lp: LpStats {
                    bignum_promotions: e.stats().lp.bignum_promotions,
                    ..LpStats::default()
                },
                ..EngineStats::default()
            }
        );
        let p = graph(&[("a", "b"), ("b", "c")], &[]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")], &[]);
        let ctx = e.ctx();
        assert!(ctx.hom_exists(&p, &c3, &[]).unwrap());
        assert!(ctx.hom_exists(&p, &c3, &[]).unwrap());
        let st = e.stats();
        assert_eq!((st.hom.cache_hits, st.hom.cache_misses), (1, 1));
        assert_eq!(st.hom.solves, 1);
        assert!(st.hom.nodes_expanded >= 1);
        // The game and LP layers saw nothing.
        assert_eq!(st.game, GameStats::default());
        assert_eq!(st.lp.lps_solved, 0);
    }

    #[test]
    fn no_cache_engine_recomputes_every_query() {
        let e = Engine::new().without_cache();
        assert!(!e.caching_enabled());
        let ctx = e.ctx();
        let p = graph(&[("a", "b"), ("b", "c")], &[]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")], &[]);
        assert!(ctx.hom_exists(&p, &c3, &[]).unwrap());
        assert!(ctx.hom_exists(&p, &c3, &[]).unwrap());
        let a = c3.val_by_name("x").unwrap();
        let one = p.val_by_name("a").unwrap();
        assert_eq!(
            ctx.cover_implies(&c3, &[a], &p, &[one], 1).unwrap(),
            covergame::cover_implies(&c3, &[a], &p, &[one], 1)
        );
        ctx.cover_implies(&c3, &[a], &p, &[one], 1).unwrap();
        let st = e.stats();
        // Every query is a miss and a fresh solve; nothing is memoized.
        assert_eq!((st.hom.cache_hits, st.hom.cache_misses), (0, 2));
        assert_eq!(st.hom.solves, 2);
        assert_eq!((st.game.cache_hits, st.game.cache_misses), (0, 2));
        assert_eq!(st.game.games_solved, 2);
        assert!(e.hom_cache().is_empty());
        assert!(e.game_cache().is_empty());
    }

    #[test]
    fn thread_budget_is_recorded_and_results_unchanged() {
        let seq = Engine::new().with_threads(1);
        let par = Engine::new().with_threads(8);
        assert_eq!(seq.thread_budget(), Some(1));
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(
            seq.par_map(&items, |&x| x * 3),
            par.par_map(&items, |&x| x * 3)
        );
        assert_eq!(
            seq.par_find_first(&items, |&x| x > 42),
            par.par_find_first(&items, |&x| x > 42)
        );
    }

    #[test]
    fn effective_parallelism_clamps_to_hardware() {
        let hw = relational::hom::par::hardware_parallelism();
        assert_eq!(Engine::new().effective_parallelism(), hw);
        assert_eq!(Engine::new().with_threads(1).effective_parallelism(), 1);
        // 0 means "sequential, but make progress".
        assert_eq!(Engine::new().with_threads(0).effective_parallelism(), 1);
        // A budget above the core count cannot manufacture parallelism.
        assert!(Engine::new().with_threads(4096).effective_parallelism() <= hw);
    }

    #[test]
    fn budget_one_engine_runs_drivers_on_the_calling_thread() {
        // Regression for the parallel-slowdown bug: an engine pinned to
        // one thread must not pay fan-out overhead — every driver
        // closure runs on the caller.
        let e = Engine::new().with_threads(1);
        assert_eq!(e.effective_parallelism(), 1);
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let ids = e.par_map(&items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let found = e.par_find_first(&items, |&x| {
            assert_eq!(std::thread::current().id(), caller);
            x == 40
        });
        assert_eq!(found, Some(40));
    }

    #[test]
    fn preorder_matches_the_reference_sweep() {
        let d = graph(
            &[("1", "2"), ("2", "3"), ("a", "b"), ("b", "a")],
            &["1", "2", "3", "a", "b"],
        );
        let e = Engine::new();
        for k in 1..=2 {
            let ours = e.ctx().preorder(&d, &d.entities(), k).unwrap();
            let reference = CoverPreorder::compute_seq(&d, &d.entities(), k);
            assert_eq!(ours.leq, reference.leq, "k={k}");
            assert_eq!(ours.class_of, reference.class_of, "k={k}");
        }
        // n² − n games, all misses on a fresh table.
        let st = e.stats();
        assert_eq!(st.game.cache_misses, 2 * (25 - 5));
    }

    #[test]
    fn chain_vector_for_matches_classes_impl() {
        let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
        let e = Engine::new();
        let ctx = e.ctx();
        let pre = ctx.preorder(&d, &d.entities(), 1).unwrap();
        let none = Interrupt::none();
        let cache = GameCache::new();
        for (i, &f) in pre.elems.iter().enumerate() {
            let direct: Vec<i32> = (0..pre.class_count())
                .map(|j| {
                    let rep = pre.elems[pre.representative(j)];
                    match cache.implies(&d, &[rep], &d, &[f], 1, None, &none) {
                        Ok(true) => 1,
                        _ => -1,
                    }
                })
                .collect();
            let via_ctx = ctx.chain_vector_for(&pre, &d, &d, f).unwrap();
            assert_eq!(via_ctx, direct);
            // On the training database itself it reproduces the class's
            // own chain vector.
            assert_eq!(via_ctx, pre.chain_vector(pre.class_of[i]));
        }
    }

    #[test]
    fn separate_counts_into_the_engine() {
        let e = Engine::new();
        let ctx = e.ctx();
        let vs = vec![vec![1, 1], vec![-1, -1]];
        assert!(ctx.separate(&vs, &[1, -1]).unwrap().is_some());
        let dup = vec![vec![1, -1], vec![1, -1]];
        assert!(ctx.separate(&dup, &[1, -1]).unwrap().is_none());
        let st = e.stats();
        assert_eq!(st.lp.perceptron_hits, 1);
        assert_eq!(st.lp.conflict_prunes, 1);
        assert_eq!(st.lp.lps_solved, 0);
    }

    #[test]
    fn unified_report_embeds_all_three_sections() {
        let e = Engine::new();
        let r = e.stats().report();
        for needle in [
            "engine stats",
            "restored cache entries",
            "hom engine stats",
            "nodes expanded",
            "cover-game engine stats",
            "games solved",
            "fixpoint sweeps",
            "lp engine stats",
            "simplex pivots",
            "bignum promotions",
            "subsumption:",
            "lineage registry hits",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in {r}");
        }
    }

    #[test]
    fn apply_delta_records_lineage_and_enables_subsumption() {
        let e = Engine::new();
        let ctx = e.ctx();
        let p = graph(&[("a", "b"), ("b", "c")], &[]);
        let mut c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")], &[]);
        // Warm the cache on the original target.
        assert!(ctx.hom_exists(&p, &c3, &[]).unwrap());
        // Grow the target by one fresh edge through the engine: the
        // lineage registry learns (parent, delta) -> child.
        let delta = relational::Delta::new()
            .add_value("w")
            .add_fact("E", &["z", "w"]);
        let receipt = e.apply_delta(&mut c3, &delta).unwrap();
        assert_eq!(receipt.kind, relational::DeltaKind::InsertOnly);
        assert!(e.stats().sub.lineage_edges >= 1);
        // The positive verdict transfers to the grown target without a
        // fresh search: a subsumption hit, not a miss.
        let before = e.stats();
        assert!(ctx.hom_exists(&p, &c3, &[]).unwrap());
        let d = e.stats().since(&before);
        assert_eq!(d.sub.hom_subsumption_hits, 1);
        assert_eq!(d.hom.solves, 0);
        // Re-applying the identical delta to a fresh copy of the parent
        // is answered by the registry memo.
        let mut again = graph(&[("x", "y"), ("y", "z"), ("z", "x")], &[]);
        let r2 = e.apply_delta(&mut again, &delta).unwrap();
        assert!(r2.registry_hit);
        assert!(e.stats().sub.lineage_registry_hits >= 1);
    }

    #[test]
    fn reset_zeroes_engine_counters() {
        let e = Engine::new();
        let p = graph(&[("a", "b")], &[]);
        let c2 = graph(&[("x", "y"), ("y", "x")], &[]);
        e.ctx().hom_exists(&p, &c2, &[]).unwrap();
        e.reset_stats();
        let st = e.stats();
        assert_eq!(st.hom, HomStats::default());
        assert_eq!(st.game, GameStats::default());
        assert_eq!(st.restored_entries, 0);
        // The table survives a stats reset: next query is a hit.
        e.ctx().hom_exists(&p, &c2, &[]).unwrap();
        assert_eq!(e.stats().hom.cache_hits, 1);
    }

    #[test]
    fn qbe_wrappers_agree_with_plain_entry_points() {
        let d = graph(
            &[("a", "b"), ("b", "c"), ("c", "a"), ("p", "q"), ("q", "r")],
            &["a", "b", "p"],
        );
        let (a, b, p) = (
            d.val_by_name("a").unwrap(),
            d.val_by_name("b").unwrap(),
            d.val_by_name("p").unwrap(),
        );
        let e = Engine::new();
        let ctx = e.ctx();
        assert_eq!(
            cq_qbe_decide_in(&ctx, &d, &[a, b], &[p], 100_000).unwrap(),
            qbe::cq_qbe_decide(&d, &[a, b], &[p], 100_000)
        );
        assert_eq!(
            ghw_qbe_decide_in(&ctx, &d, &[a, b], &[p], 1, 100_000).unwrap(),
            qbe::ghw_qbe_decide(&d, &[a, b], &[p], 1, 100_000)
        );
        let cfg = EnumConfig::cqm(1);
        assert_eq!(
            cqm_qbe_in(&ctx, &d, &[a, b], &[p], &cfg).unwrap(),
            qbe::cqm_qbe(&d, &[a, b], &[p], &cfg)
        );
        // The hom/game tests went through the engine's caches.
        let st = e.stats();
        assert!(st.hom.cache_misses >= 1);
        assert!(st.game.cache_misses >= 1);
    }
}
