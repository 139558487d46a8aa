//! A sharded, concurrent, size-capped memo table for `→_k` verdicts —
//! the cover-game twin of `relational::hom::cache`.
//!
//! The paper's algorithms repeat the same game question exactly the way
//! they repeat plain hom questions: the separability test probes pairs
//! the preorder sweep re-asks, classification replays training-side games
//! per evaluation entity, and Algorithm 2's relabeling re-runs the whole
//! preorder on a database whose *content* has not changed. Keys are
//! `(from.fingerprint(), to.fingerprint(), ā, b̄, k)`, so equal-content
//! databases (clones, relabelings) share entries.
//!
//! The table is split into [`SHARDS`] independently locked shards and
//! verdicts are computed *outside* the shard lock, so the parallel
//! driver's workers never serialize on one another's game solves. Each
//! shard keeps two generations of entries (insert into the current one,
//! rotate when full, promote previous-generation hits), bounding total
//! size at ~2× the configured capacity while keeping the hot working set
//! resident — the same policy as the hom cache, documented there.

use crate::game::CoverGame;
use crate::skeleton::UnionSkeleton;
use crate::stats::GameStats;
use interrupt::{Interrupt, Stop};
use relational::{Containment, Database, Lineage, Val};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shard count; a small power of two comfortably above typical worker
/// counts so lock contention stays negligible.
const SHARDS: usize = 16;

/// Default total entry capacity (split across shards; the two-generation
/// scheme holds at most ~2× this many entries).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

type Key = (u128, u128, Vec<Val>, Vec<Val>, usize);

/// One shard's two generations of memoized verdicts.
#[derive(Default)]
struct Generations {
    cur: HashMap<Key, bool>,
    prev: HashMap<Key, bool>,
}

impl Generations {
    fn insert(&mut self, key: Key, ans: bool, cap: usize) {
        if self.cur.len() >= cap && !self.cur.contains_key(&key) {
            self.prev = std::mem::take(&mut self.cur);
        }
        self.cur.insert(key, ans);
    }
}

/// The memo table. Each `Engine` owns one; independent instances also
/// serve tests and callers that want isolated lifetimes or capacities.
pub struct GameCache {
    shards: Vec<Mutex<Generations>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    // Per-cache game-effort counters, bumped only by analyses this cache
    // itself ran (its miss and uncached paths) — the cover-game twin of
    // the per-cache counters on `relational::HomCache`, making an
    // isolated `Engine` a self-contained stats domain.
    games: AtomicU64,
    positions: AtomicU64,
    sweeps: AtomicU64,
    /// Entries imported from a persisted table (see `import_entry`).
    restored: AtomicU64,
    /// Verdicts served by delta subsumption instead of a fresh analysis
    /// (see [`GameCache::implies_sub_int`]); counted as neither hit nor miss.
    sub_hits: AtomicU64,
}

impl GameCache {
    pub fn new() -> GameCache {
        GameCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding roughly `capacity` entries (at most ~2× across the
    /// two generations) before old entries start aging out.
    pub fn with_capacity(capacity: usize) -> GameCache {
        GameCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Generations::default()))
                .collect(),
            per_shard_cap: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            games: AtomicU64::new(0),
            positions: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            sub_hits: AtomicU64::new(0),
        }
    }

    /// Run one analysis, note its effort against this cache's counters,
    /// and return the verdict.
    fn solve_counted(&self, game: &CoverGame) -> bool {
        self.games.fetch_add(1, Ordering::Relaxed);
        self.positions
            .fetch_add(game.position_count(), Ordering::Relaxed);
        self.sweeps
            .fetch_add(game.sweeps() as u64, Ordering::Relaxed);
        game.duplicator_wins()
    }

    /// Memoized `(D, ā) →_k (D', b̄)`: the uninterruptible,
    /// lineage-free form of [`GameCache::implies_sub_int`]. Builds a fresh
    /// [`UnionSkeleton`] on a miss; batch callers replaying many games
    /// over one left-hand database should use
    /// [`GameCache::implies_with_skeleton`].
    pub fn implies(&self, d: &Database, a: &[Val], d2: &Database, b: &[Val], k: usize) -> bool {
        self.implies_int(d, a, d2, b, k, &Interrupt::none())
            .expect("an unshared handle cannot trip")
    }

    /// Interruptible memoized `(D, ā) →_k (D', b̄)` with delta
    /// subsumption: on an exact-key miss, verdicts cached for lineage
    /// ancestors of either database are consulted under the monotone
    /// rules of `subsumed_via` before a fresh analysis.
    /// Subsumption-served verdicts count only in
    /// [`GameCache::subsumption_hits`]. A stopped analysis inserts
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn implies_sub_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
        lineage: Option<&Lineage>,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        self.lookup_or_sub_int(d, a, d2, b, k, lineage, || {
            CoverGame::analyze_int(d, a, d2, b, k, intr).map(|g| self.solve_counted(&g))
        })
    }

    /// [`GameCache::implies_sub_int`] reusing a prebuilt skeleton of
    /// `(d, skeleton.k)` for the miss path.
    #[allow(clippy::too_many_arguments)]
    pub fn implies_with_skeleton_sub_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
        lineage: Option<&Lineage>,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        self.lookup_or_sub_int(d, a, d2, b, skeleton.k, lineage, || {
            CoverGame::analyze_with_skeleton_int(d, a, d2, b, skeleton, intr)
                .map(|g| self.solve_counted(&g))
        })
    }

    /// Interruptible [`GameCache::implies`]: hits return instantly;
    /// misses run an interruptible analysis and do **not** insert
    /// anything when the analysis is stopped, so the table never holds a
    /// verdict from a truncated fixpoint.
    pub fn implies_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        self.lookup_or_int(d, a, d2, b, k, || {
            CoverGame::analyze_int(d, a, d2, b, k, intr).map(|g| self.solve_counted(&g))
        })
    }

    /// Interruptible [`GameCache::implies_with_skeleton`]; same
    /// no-insert-on-stop guarantee as [`GameCache::implies_int`].
    pub fn implies_with_skeleton_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        self.lookup_or_int(d, a, d2, b, skeleton.k, || {
            CoverGame::analyze_with_skeleton_int(d, a, d2, b, skeleton, intr)
                .map(|g| self.solve_counted(&g))
        })
    }

    /// [`GameCache::implies_int`] minus the memo table: counted as a
    /// miss and solved afresh, but the table is neither consulted nor
    /// updated — the `no_cache` execution mode of an engine.
    pub fn implies_uncached_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        CoverGame::analyze_int(d, a, d2, b, k, intr).map(|g| self.solve_counted(&g))
    }

    /// [`GameCache::implies_uncached_int`] reusing a prebuilt skeleton.
    pub fn implies_with_skeleton_uncached_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        CoverGame::analyze_with_skeleton_int(d, a, d2, b, skeleton, intr)
            .map(|g| self.solve_counted(&g))
    }

    /// Memoized `(D, ā) →_k (D', b̄)` reusing a prebuilt skeleton of
    /// `(d, skeleton.k)` for the miss path. The skeleton does not enter
    /// the key: it is a pure function of `(d, k)`, which the fingerprint
    /// and `k` already determine.
    pub fn implies_with_skeleton(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
    ) -> bool {
        self.implies_with_skeleton_int(d, a, d2, b, skeleton, &Interrupt::none())
            .expect("an unshared handle cannot trip")
    }

    /// Exact-key probe with previous-generation promotion; counts a hit.
    fn probe_exact(&self, key: &Key) -> Option<bool> {
        let shard = &self.shards[Self::shard_of(key)];
        let mut g = shard.lock().unwrap();
        if let Some(&ans) = g.cur.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(ans);
        }
        if let Some(ans) = g.prev.remove(key) {
            g.insert(key.clone(), ans, self.per_shard_cap);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(ans);
        }
        None
    }

    /// Read-only probe of either generation — no promotion, no counters.
    fn peek(&self, key: &Key) -> Option<bool> {
        let g = self.shards[Self::shard_of(key)].lock().unwrap();
        g.cur.get(key).or_else(|| g.prev.get(key)).copied()
    }

    fn store(&self, key: Key, ans: bool) {
        let shard = &self.shards[Self::shard_of(&key)];
        shard.lock().unwrap().insert(key, ans, self.per_shard_cap);
    }

    /// Try to answer `key` from verdicts cached for lineage ancestors.
    /// `(D, ā) →_k (D', b̄)` says every ≤k-cover of `ā` in `D` is matched
    /// by one of `b̄` in `D'` — duplicator's options grow with `D'` and
    /// spoiler's with `D`, so the verdict is monotone in the right-hand
    /// database and antitone in the left, the exact shape of the hom
    /// rules (documented on `relational::HomCache`):
    ///
    /// * right side: positive from an ancestor `A ⊆ D'` carries up;
    ///   negative from `A ⊇ D'` carries down;
    /// * left side: positive from `A ⊇ D` restricts; negative from
    ///   `A ⊆ D` extends.
    ///
    /// The pinned tuples `ā`/`b̄` carry over verbatim: `Val`s are
    /// append-only interned indices, stable along any edit chain.
    fn subsumed_via(&self, key: &Key, lineage: &Lineage) -> Option<bool> {
        for (anc, cont) in lineage.ancestors(key.1) {
            if let Some(ans) = self.peek(&(key.0, anc, key.2.clone(), key.3.clone(), key.4)) {
                match cont {
                    Containment::Subset if ans => return Some(true),
                    Containment::Superset if !ans => return Some(false),
                    _ => {}
                }
            }
        }
        for (anc, cont) in lineage.ancestors(key.0) {
            if let Some(ans) = self.peek(&(anc, key.1, key.2.clone(), key.3.clone(), key.4)) {
                match cont {
                    Containment::Superset if ans => return Some(true),
                    Containment::Subset if !ans => return Some(false),
                    _ => {}
                }
            }
        }
        None
    }

    fn try_subsume(&self, key: &Key, lineage: Option<&Lineage>) -> Option<bool> {
        let lineage = lineage.filter(|l| !l.no_edges())?;
        let ans = self.subsumed_via(key, lineage)?;
        self.sub_hits.fetch_add(1, Ordering::Relaxed);
        // Promote to an exact entry: the next query is a plain hit.
        self.store(key.clone(), ans);
        Some(ans)
    }

    /// Probe, subsume, or solve-and-store. A stopped solve propagates
    /// [`Stop`] and leaves the table untouched. The solve runs with the
    /// lock released, so a fixpoint analysis never serializes unrelated
    /// lookups on this shard; two threads may race to compute the same
    /// key and both get the same verdict.
    #[allow(clippy::too_many_arguments)]
    fn lookup_or_sub_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
        lineage: Option<&Lineage>,
        solve: impl FnOnce() -> Result<bool, Stop>,
    ) -> Result<bool, Stop> {
        let key: Key = (d.fingerprint(), d2.fingerprint(), a.to_vec(), b.to_vec(), k);
        if let Some(ans) = self.probe_exact(&key) {
            return Ok(ans);
        }
        if let Some(ans) = self.try_subsume(&key, lineage) {
            return Ok(ans);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ans = solve()?;
        self.store(key, ans);
        Ok(ans)
    }

    fn lookup_or_int(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
        solve: impl FnOnce() -> Result<bool, Stop>,
    ) -> Result<bool, Stop> {
        self.lookup_or_sub_int(d, a, d2, b, k, None, solve)
    }

    fn shard_of(key: &Key) -> usize {
        let mut h = key.0 as u64 ^ (key.0 >> 64) as u64 ^ (key.1 as u64).rotate_left(32);
        for v in key.2.iter().chain(key.3.iter()) {
            h = h
                .rotate_left(13)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(v.index() as u64);
        }
        h = h.rotate_left(7).wrapping_add(key.4 as u64);
        (h as usize) % SHARDS
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Verdicts served by delta subsumption (neither hit nor miss).
    pub fn subsumption_hits(&self) -> u64 {
        self.sub_hits.load(Ordering::Relaxed)
    }

    /// Number of memoized verdicts (both generations; they are disjoint).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let g = s.lock().unwrap();
                g.cur.len() + g.prev.len()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity (entries across all shards; the table can
    /// transiently hold up to ~2× this while both generations are full).
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * SHARDS
    }

    /// Drop all memoized verdicts (counters are left running).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut g = s.lock().unwrap();
            g.cur.clear();
            g.prev.clear();
        }
    }

    /// This cache's own counters as a [`GameStats`]: analysis effort from
    /// its miss/uncached paths plus its hit/miss counts — attributable to
    /// exactly the queries routed through this cache instance.
    pub fn stats(&self) -> GameStats {
        GameStats {
            games_solved: self.games.load(Ordering::Relaxed),
            positions_explored: self.positions.load(Ordering::Relaxed),
            fixpoint_sweeps: self.sweeps.load(Ordering::Relaxed),
            cache_hits: self.hits(),
            cache_misses: self.misses(),
        }
    }

    /// Zero every counter (the memo table itself is untouched).
    pub fn reset_stats(&self) {
        for c in [
            &self.hits,
            &self.misses,
            &self.games,
            &self.positions,
            &self.sweeps,
            &self.restored,
            &self.sub_hits,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Entries imported from a persisted table since the last
    /// [`GameCache::reset_stats`].
    pub fn restored(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }

    /// Dump every memoized verdict for persistence.
    #[allow(clippy::type_complexity)]
    pub fn export_entries(&self) -> Vec<(u128, u128, Vec<Val>, Vec<Val>, usize, bool)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let g = s.lock().unwrap();
            for (k, &ans) in g.cur.iter().chain(g.prev.iter()) {
                out.push((k.0, k.1, k.2.clone(), k.3.clone(), k.4, ans));
            }
        }
        out
    }

    /// Insert one persisted verdict. Fingerprints are content hashes, so
    /// a restored verdict is valid for any database with the same
    /// content; the import counts as neither a hit nor a miss, only as
    /// `restored`.
    pub fn import_entry(
        &self,
        d_fp: u128,
        d2_fp: u128,
        a: Vec<Val>,
        b: Vec<Val>,
        k: usize,
        ans: bool,
    ) {
        let key: Key = (d_fp, d2_fp, a, b, k);
        let shard = &self.shards[Self::shard_of(&key)];
        shard.lock().unwrap().insert(key, ans, self.per_shard_cap);
        self.restored.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for GameCache {
    fn default() -> GameCache {
        GameCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::cover_implies;
    use relational::{DbBuilder, Schema};

    fn graph(edges: &[(&str, &str)]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        b.build()
    }

    fn v(d: &Database, n: &str) -> Val {
        d.val_by_name(n).unwrap()
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = GameCache::new();
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p = graph(&[("1", "2"), ("2", "3")]);
        let (a, one) = (v(&c3, "a"), v(&p, "1"));
        assert!(!cache.implies(&c3, &[a], &p, &[one], 1));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert!(!cache.implies(&c3, &[a], &p, &[one], 1));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn k_is_part_of_the_key() {
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        let cache = GameCache::new();
        // C3 ->_1 C2 holds but ->_2 fails: distinct entries, no clash.
        assert!(cache.implies(&c3, &[], &c2, &[], 1));
        assert!(!cache.implies(&c3, &[], &c2, &[], 2));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn equal_content_clones_share_entries() {
        let cache = GameCache::new();
        let p = graph(&[("s", "t")]);
        let q = p.clone();
        let (s, t) = (v(&p, "s"), v(&p, "t"));
        assert!(!cache.implies(&p, &[s], &p, &[t], 1));
        assert!(!cache.implies(&q, &[s], &q, &[t], 1));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn skeleton_and_plain_paths_share_entries() {
        let p = graph(&[("s", "t")]);
        let (s, t) = (v(&p, "s"), v(&p, "t"));
        let cache = GameCache::new();
        let skeleton = UnionSkeleton::build(&p, 1);
        let first = cache.implies_with_skeleton(&p, &[t], &p, &[s], &skeleton);
        assert_eq!(first, cover_implies(&p, &[t], &p, &[s], 1));
        assert_eq!(cache.implies(&p, &[t], &p, &[s], 1), first);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn subsumption_reuses_verdicts_across_deltas() {
        use relational::{Delta, Lineage};
        let cache = GameCache::new();
        let lineage = Lineage::new();
        let d = graph(&[("a", "b"), ("b", "c"), ("c", "a")]); // 3-cycle
        let mut d2 = graph(&[("x", "y"), ("y", "x")]); // 2-cycle
        let positive = cache
            .implies_sub_int(&d, &[], &d2, &[], 1, Some(&lineage), &Interrupt::none())
            .unwrap();
        assert!(positive, "C3 ->_1 C2 holds");
        // Enrich the right side: duplicator only gains options.
        d2.apply_via(&Delta::new().add_fact("E", &["y", "z"]), &lineage)
            .unwrap();
        assert!(cache
            .implies_sub_int(&d, &[], &d2, &[], 1, Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.misses(), 1, "no fresh analysis after the append");
        assert_eq!(cache.subsumption_hits(), 1);
        // Against the cold solver: subsumption was exact.
        assert!(cover_implies(&d, &[], &d2, &[], 1));

        // Negative verdicts survive right-side deletions.
        let d3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let mut poor = graph(&[("x", "y"), ("y", "x")]);
        assert!(!cache
            .implies_sub_int(&d3, &[], &poor, &[], 2, Some(&lineage), &Interrupt::none())
            .unwrap());
        poor.apply_via(&Delta::new().remove_fact("E", &["y", "x"]), &lineage)
            .unwrap();
        assert!(!cache
            .implies_sub_int(&d3, &[], &poor, &[], 2, Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.subsumption_hits(), 2);
        assert!(!cover_implies(&d3, &[], &poor, &[], 2));
    }

    #[test]
    fn subsumption_respects_direction_for_games() {
        use relational::{Delta, Lineage};
        let cache = GameCache::new();
        let lineage = Lineage::new();
        // Positive with a pinned tuple, then delete from the RIGHT side:
        // the positive may not carry over, and the fresh analysis gives
        // the true (now negative) verdict.
        let d = graph(&[("s", "t")]);
        let mut d2 = graph(&[("u", "v")]);
        let (s, u) = (v(&d, "s"), v(&d2, "u"));
        assert!(cache
            .implies_sub_int(&d, &[s], &d2, &[u], 1, Some(&lineage), &Interrupt::none())
            .unwrap());
        d2.apply_via(&Delta::new().remove_fact("E", &["u", "v"]), &lineage)
            .unwrap();
        let after = cache
            .implies_sub_int(&d, &[s], &d2, &[u], 1, Some(&lineage), &Interrupt::none())
            .unwrap();
        assert_eq!(after, cover_implies(&d, &[s], &d2, &[u], 1));
        assert_eq!(cache.subsumption_hits(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn eviction_bounds_size_and_preserves_correctness() {
        // Per-shard capacity 1: constant churn. Every verdict must still
        // match the uncached solver, before and after eviction.
        let cache = GameCache::with_capacity(SHARDS);
        assert_eq!(cache.capacity(), SHARDS);
        let d = graph(&[("1", "2"), ("2", "3"), ("3", "4")]);
        let dom: Vec<Val> = d.dom().collect();
        for &a in &dom {
            for &b in &dom {
                assert_eq!(
                    cache.implies(&d, &[a], &d, &[b], 1),
                    cover_implies(&d, &[a], &d, &[b], 1),
                    "cold"
                );
            }
        }
        assert!(
            cache.len() <= 2 * cache.capacity(),
            "len {} > 2×cap {}",
            cache.len(),
            2 * cache.capacity()
        );
        for &a in &dom {
            for &b in &dom {
                assert_eq!(
                    cache.implies(&d, &[a], &d, &[b], 1),
                    cover_implies(&d, &[a], &d, &[b], 1),
                    "re-query after eviction"
                );
            }
        }
    }
}
