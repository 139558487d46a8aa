//! A sharded, concurrent, size-capped memo table for
//! homomorphism-existence queries.
//!
//! The separability pipelines ask the same NP-hard question —
//! "is there a hom `(D, a) → (D', b)`?" — over and over: `cq_chain_in`
//! re-checks pairs that `cq_separable_in` already decided, classification
//! repeats training-time queries, and preorder matrices touch each pair
//! from both sides. Memoizing by *content* makes all of that free.
//!
//! Keys are `(from.fingerprint(), to.fingerprint(), sorted fixed pairs)`;
//! the fingerprint (see [`Database::fingerprint`]) is a structural hash
//! computed once per database, so equal-content databases share entries
//! even across clones. The table is split into [`SHARDS`] independently
//! locked shards so the parallel driver's worker threads rarely contend,
//! and answers are computed *outside* the shard lock — an expensive search
//! never blocks unrelated lookups (two threads may race to compute the
//! same key; both get the same answer and the second insert is a no-op).
//!
//! # Eviction
//!
//! Long-running serving workloads must not grow the table without bound,
//! so each shard keeps two *generations* of entries. Inserts go to the
//! current generation; when it fills, it becomes the previous generation
//! and a fresh current one starts (dropping the old previous generation
//! wholesale). Hits in the previous generation promote the entry back
//! into the current one, so the hot working set survives rotations while
//! cold entries age out after at most two of them — an O(1)-overhead
//! approximation of LRU with no per-entry bookkeeping. Evicted answers
//! are simply recomputed (and re-memoized) on the next query; eviction
//! can never change an answer.

use super::stats::HomStats;
use super::{homomorphism_exists_counted_int, SearchCounts};
use crate::database::Database;
use crate::delta::{Containment, Lineage};
use crate::ids::Val;
use interrupt::{Interrupt, Stop};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shard count; a small power of two comfortably above typical worker
/// counts so lock contention stays negligible.
const SHARDS: usize = 16;

/// Default total entry capacity of a cache (split across shards; the
/// two-generation scheme holds at most ~2× this many entries).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

type Key = (u128, u128, Vec<(Val, Val)>);

/// One shard's two generations of memoized answers.
#[derive(Default)]
struct Generations {
    cur: HashMap<Key, bool>,
    prev: HashMap<Key, bool>,
}

impl Generations {
    /// Insert into the current generation, rotating first when full.
    /// `cap` is the per-shard current-generation capacity.
    fn insert(&mut self, key: Key, ans: bool, cap: usize) {
        if self.cur.len() >= cap && !self.cur.contains_key(&key) {
            self.prev = std::mem::take(&mut self.cur);
        }
        self.cur.insert(key, ans);
    }
}

/// The memo table. Each `Engine` owns one; independent instances also
/// serve tests and callers that want isolated lifetimes or capacities.
pub struct HomCache {
    shards: Vec<Mutex<Generations>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    // Per-cache search-effort counters, bumped only by searches this
    // cache itself ran (its miss and uncached paths). Together with
    // hits/misses these make a cache a self-contained stats domain, so
    // each `Engine` attributes exactly the work routed through it.
    searches: AtomicU64,
    nodes: AtomicU64,
    wipeouts: AtomicU64,
    backtracks: AtomicU64,
    /// Entries imported from a persisted table (see `import_entry`).
    restored: AtomicU64,
    /// Answers served by delta subsumption instead of a fresh search
    /// (see [`HomCache::exists_sub_int`]); counted as neither hit nor miss.
    sub_hits: AtomicU64,
}

impl HomCache {
    pub fn new() -> HomCache {
        HomCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding roughly `capacity` entries (at most ~2× across the
    /// two generations) before old entries start aging out.
    pub fn with_capacity(capacity: usize) -> HomCache {
        HomCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Generations::default()))
                .collect(),
            per_shard_cap: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            wipeouts: AtomicU64::new(0),
            backtracks: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            sub_hits: AtomicU64::new(0),
        }
    }

    fn note_search(&self, c: &SearchCounts) {
        self.searches.fetch_add(c.solves, Ordering::Relaxed);
        self.nodes.fetch_add(c.nodes, Ordering::Relaxed);
        self.wipeouts.fetch_add(c.wipeouts, Ordering::Relaxed);
        self.backtracks.fetch_add(c.backtracks, Ordering::Relaxed);
    }

    /// Normalize the fixed pairs into key form: sorted, deduplicated;
    /// `None` means contradictory constraints (two targets for one
    /// source) — a guaranteed `false`, not worth a table entry.
    fn normalize(from: &Database, to: &Database, fixed: &[(Val, Val)]) -> Option<Key> {
        let mut norm: Vec<(Val, Val)> = fixed.to_vec();
        norm.sort_unstable();
        norm.dedup();
        if norm.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some((from.fingerprint(), to.fingerprint(), norm))
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
            // Promote: a previous-generation hit rejoins the current
            // working set so rotation keeps what is actually used.
            g.insert(key.clone(), ans, self.per_shard_cap);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(ans);
        }
        None
    }

    /// Read-only probe of either generation — no promotion, no counters.
    /// This is what subsumption uses to look at *ancestor* keys it will
    /// never own.
    fn peek(&self, key: &Key) -> Option<bool> {
        let g = self.shards[Self::shard_of(key)].lock().unwrap();
        g.cur.get(key).or_else(|| g.prev.get(key)).copied()
    }

    fn store(&self, key: Key, ans: bool) {
        let shard = &self.shards[Self::shard_of(&key)];
        shard.lock().unwrap().insert(key, ans, self.per_shard_cap);
    }

    /// Try to answer `key` from entries cached for lineage *ancestors*
    /// of its databases. Hom existence is monotone in the target and
    /// antitone in the source, so (writing `A` for the ancestor content
    /// and `⊆` for an insert-only edit chain):
    ///
    /// * target side: `C → A` and `A ⊆ to`  ⟹  `C → to` (compose with
    ///   the inclusion); `C ↛ A` and `A ⊇ to` ⟹ `C ↛ to` (a hom into
    ///   the sub-database would also be one into `A`);
    /// * source side: `A → to` and `A ⊇ from` ⟹ `from → to` (restrict
    ///   the hom); `A ↛ to` and `A ⊆ from` ⟹ `from ↛ to`.
    ///
    /// Fixed pairs carry over verbatim: `Val`s are append-only interned
    /// indices, so an element means the same thing in every database on
    /// an edit chain, and the restricted/composed hom above still maps
    /// each fixed source to its fixed target.
    fn subsumed_via(&self, key: &Key, lineage: &Lineage) -> Option<bool> {
        for (anc, cont) in lineage.ancestors(key.1) {
            if let Some(ans) = self.peek(&(key.0, anc, key.2.clone())) {
                match cont {
                    Containment::Subset if ans => return Some(true),
                    Containment::Superset if !ans => return Some(false),
                    _ => {}
                }
            }
        }
        for (anc, cont) in lineage.ancestors(key.0) {
            if let Some(ans) = self.peek(&(anc, key.1, key.2.clone())) {
                match cont {
                    Containment::Superset if ans => return Some(true),
                    Containment::Subset if !ans => return Some(false),
                    _ => {}
                }
            }
        }
        None
    }

    /// Memoized [`homomorphism_exists`](super::homomorphism_exists): does
    /// a hom `from → to` extending `fixed` exist? The uninterruptible,
    /// lineage-free form of [`HomCache::exists_sub_int`].
    ///
    /// The fixed pairs are normalized (sorted, deduplicated) before
    /// keying, so permutations and repetitions of the same constraints
    /// share one entry. Contradictory constraints short-circuit to
    /// `false` without occupying cache space.
    pub fn exists(&self, from: &Database, to: &Database, fixed: &[(Val, Val)]) -> bool {
        self.exists_sub_int(from, to, fixed, None, &Interrupt::none())
            .expect("an unshared handle cannot trip")
    }

    fn try_subsume(&self, key: &Key, lineage: Option<&Lineage>) -> Option<bool> {
        let lineage = lineage.filter(|l| !l.no_edges())?;
        let ans = self.subsumed_via(key, lineage)?;
        self.sub_hits.fetch_add(1, Ordering::Relaxed);
        self.store(key.clone(), ans);
        Some(ans)
    }

    /// Interruptible [`HomCache::exists`] with delta subsumption. Hits
    /// return instantly (a memo lookup needs no interruption window); a
    /// miss runs the search under `intr` and — critically — does **not**
    /// insert anything when the search is stopped: an aborted search has
    /// no verdict, and caching one would poison every later query for
    /// the same key. The partial search effort still lands in this
    /// cache's counters.
    ///
    /// On an exact-key miss, entries cached for lineage ancestors of
    /// `from`/`to` are consulted under the monotone rules of
    /// `subsumed_via` before falling back to a fresh search. A
    /// subsumption-served answer is promoted to an exact entry (so the
    /// next query is a plain hit) and counts only in
    /// [`HomCache::subsumption_hits`]. Subsumption probes are memo reads
    /// and need no interruption window of their own.
    pub fn exists_sub_int(
        &self,
        from: &Database,
        to: &Database,
        fixed: &[(Val, Val)],
        lineage: Option<&Lineage>,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        let Some(key) = Self::normalize(from, to, fixed) else {
            return Ok(false);
        };
        if let Some(ans) = self.probe_exact(&key) {
            return Ok(ans);
        }
        if let Some(ans) = self.try_subsume(&key, lineage) {
            return Ok(ans);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (ans, counts) = homomorphism_exists_counted_int(from, to, &key.2, intr);
        self.note_search(&counts);
        let ans = ans?;
        self.store(key, ans);
        Ok(ans)
    }

    /// [`HomCache::exists_sub_int`] minus the memo table: the query is
    /// normalized and counted against this cache's miss/search counters,
    /// but the table is neither consulted nor updated. This is the
    /// `no_cache` execution mode of an engine — same verdicts, same
    /// accounting shape, no memoization.
    pub fn exists_uncached_int(
        &self,
        from: &Database,
        to: &Database,
        fixed: &[(Val, Val)],
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        let mut norm: Vec<(Val, Val)> = fixed.to_vec();
        norm.sort_unstable();
        norm.dedup();
        if norm.windows(2).any(|w| w[0].0 == w[1].0) {
            return Ok(false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (ans, counts) = homomorphism_exists_counted_int(from, to, &norm, intr);
        self.note_search(&counts);
        ans
    }

    fn shard_of(key: &Key) -> usize {
        // The fingerprints are already well-mixed; fold in the fixed
        // pairs so same-database/different-tuple queries spread out.
        let mut h = key.0 as u64 ^ (key.0 >> 64) as u64 ^ (key.1 as u64).rotate_left(32);
        for &(a, b) in &key.2 {
            h = h
                .rotate_left(13)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(((a.index() as u64) << 32) | b.index() as u64);
        }
        (h as usize) % SHARDS
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Answers served by delta subsumption (neither hit nor miss).
    pub fn subsumption_hits(&self) -> u64 {
        self.sub_hits.load(Ordering::Relaxed)
    }

    /// Number of memoized answers (both generations; they are disjoint).
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

    /// Drop all memoized answers (counters are left running).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut g = s.lock().unwrap();
            g.cur.clear();
            g.prev.clear();
        }
    }

    /// This cache's own counters as a [`HomStats`]: search effort from
    /// its miss/uncached paths plus its hit/miss counts, attributable to
    /// exactly the queries routed through this cache instance.
    pub fn stats(&self) -> HomStats {
        HomStats {
            solves: self.searches.load(Ordering::Relaxed),
            nodes_expanded: self.nodes.load(Ordering::Relaxed),
            forward_check_wipeouts: self.wipeouts.load(Ordering::Relaxed),
            backtracks: self.backtracks.load(Ordering::Relaxed),
            cache_hits: self.hits(),
            cache_misses: self.misses(),
        }
    }

    /// Zero every counter (the memo table itself is untouched).
    pub fn reset_stats(&self) {
        for c in [
            &self.hits,
            &self.misses,
            &self.searches,
            &self.nodes,
            &self.wipeouts,
            &self.backtracks,
            &self.restored,
            &self.sub_hits,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Entries imported from a persisted table since the last
    /// [`HomCache::reset_stats`].
    pub fn restored(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }

    /// Dump every memoized entry for persistence. Fixed pairs come out in
    /// their normalized (sorted, deduplicated) key form.
    #[allow(clippy::type_complexity)]
    pub fn export_entries(&self) -> Vec<(u128, u128, Vec<(Val, Val)>, bool)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let g = s.lock().unwrap();
            for (k, &ans) in g.cur.iter().chain(g.prev.iter()) {
                out.push((k.0, k.1, k.2.clone(), ans));
            }
        }
        out
    }

    /// Insert one persisted entry. Fingerprints are content hashes, so a
    /// restored verdict is valid for any database with the same content;
    /// the import counts as neither a hit nor a miss, only as `restored`.
    pub fn import_entry(&self, from_fp: u128, to_fp: u128, fixed: Vec<(Val, Val)>, ans: bool) {
        let key: Key = (from_fp, to_fp, fixed);
        let shard = &self.shards[Self::shard_of(&key)];
        shard.lock().unwrap().insert(key, ans, self.per_shard_cap);
        self.restored.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for HomCache {
    fn default() -> HomCache {
        HomCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DbBuilder;
    use crate::schema::Schema;

    fn graph(edges: &[(&str, &str)]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        b.build()
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b"), ("b", "c")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(cache.exists(&p, &c3, &[]));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert!(cache.exists(&p, &c3, &[]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn equal_content_clones_share_entries() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let q = graph(&[("a", "b")]); // same content, separate allocation
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(cache.exists(&p, &c3, &[]));
        assert!(cache.exists(&q, &c3, &[]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn fixed_pair_order_is_normalized() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        let a = p.val_by_name("a").unwrap();
        let b = p.val_by_name("b").unwrap();
        let x = c2.val_by_name("x").unwrap();
        let y = c2.val_by_name("y").unwrap();
        assert!(cache.exists(&p, &c2, &[(a, x), (b, y)]));
        assert!(cache.exists(&p, &c2, &[(b, y), (a, x)]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn contradictory_fixes_are_false_and_uncached() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        let a = p.val_by_name("a").unwrap();
        let x = c2.val_by_name("x").unwrap();
        let y = c2.val_by_name("y").unwrap();
        assert!(!cache.exists(&p, &c2, &[(a, x), (a, y)]));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
    }

    #[test]
    fn mutation_changes_the_key() {
        let cache = HomCache::new();
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        let mut p = graph(&[("a", "b")]);
        assert!(cache.exists(&p, &c3, &[]));
        // Extending p with a third edge re-keys it: no stale answer.
        p.add_named_fact("E", &["b", "c"]);
        assert!(cache.exists(&p, &c3, &[]));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn negative_answers_are_cached_too() {
        let cache = HomCache::new();
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p = graph(&[("1", "2"), ("2", "3")]);
        assert!(!cache.exists(&c3, &p, &[]));
        assert!(!cache.exists(&c3, &p, &[]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn clear_empties_the_table() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let q = graph(&[("x", "y"), ("y", "z")]);
        cache.exists(&p, &q, &[]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        cache.exists(&p, &q, &[]);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn eviction_bounds_size_and_preserves_correctness() {
        // Per-shard capacity 1: every insert beyond the first per shard
        // rotates. Churn through many distinct keys, then re-query — the
        // answers must match an unbounded reference cache exactly.
        let cache = HomCache::with_capacity(SHARDS);
        assert_eq!(cache.capacity(), SHARDS);
        let reference = HomCache::new();
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        let p = graph(&[("a", "b"), ("b", "c")]);
        let pairs: Vec<(Val, Val)> = p
            .dom()
            .flat_map(|a| c3.dom().map(move |b| (a, b)))
            .collect();
        for &(a, b) in &pairs {
            assert_eq!(
                cache.exists(&p, &c3, &[(a, b)]),
                reference.exists(&p, &c3, &[(a, b)]),
                "cold"
            );
        }
        // Both generations together never exceed 2× the capacity.
        assert!(
            cache.len() <= 2 * cache.capacity(),
            "len {} > 2×cap {}",
            cache.len(),
            2 * cache.capacity()
        );
        // Re-query everything: some answers were evicted and recompute
        // (misses), but every answer stays correct.
        for &(a, b) in &pairs {
            assert_eq!(
                cache.exists(&p, &c3, &[(a, b)]),
                reference.exists(&p, &c3, &[(a, b)]),
                "re-query after eviction"
            );
        }
    }

    #[test]
    fn subsumption_reuses_positive_across_insert_only_delta() {
        use crate::delta::{Delta, Lineage};
        let cache = HomCache::new();
        let lineage = Lineage::new();
        let p = graph(&[("a", "b"), ("b", "c")]); // path of length 2
        let mut c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(cache
            .exists_sub_int(&p, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.misses(), 1);
        // Append a fact: the positive hom into c3 survives into c3 ∪ Δ.
        c3.apply_via(&Delta::new().add_fact("E", &["x", "w"]), &lineage)
            .unwrap();
        assert!(cache
            .exists_sub_int(&p, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.misses(), 1, "no fresh search after the append");
        assert_eq!(cache.subsumption_hits(), 1);
        // The subsumed answer was promoted to an exact entry.
        assert!(cache
            .exists_sub_int(&p, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.subsumption_hits(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn subsumption_reuses_negative_across_delete_only_delta() {
        use crate::delta::{Delta, Lineage};
        let cache = HomCache::new();
        let lineage = Lineage::new();
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]); // 3-cycle
        let mut p = graph(&[("1", "2"), ("2", "3")]);
        assert!(!cache
            .exists_sub_int(&c3, &p, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        // Deleting a fact can only make the target poorer: the negative
        // verdict survives.
        p.apply_via(&Delta::new().remove_fact("E", &["2", "3"]), &lineage)
            .unwrap();
        assert!(!cache
            .exists_sub_int(&c3, &p, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.subsumption_hits(), 1);
    }

    #[test]
    fn subsumption_respects_direction() {
        use crate::delta::{Delta, Lineage};
        let cache = HomCache::new();
        let lineage = Lineage::new();
        // p = single edge maps into the 2-path; after deleting the only
        // edge of the target the positive entry must NOT be reused (a
        // positive does not survive target deletions) — the fresh search
        // finds the true answer: no hom.
        let p = graph(&[("a", "b")]);
        let mut t = graph(&[("x", "y")]);
        assert!(cache
            .exists_sub_int(&p, &t, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        t.apply_via(&Delta::new().remove_fact("E", &["x", "y"]), &lineage)
            .unwrap();
        assert!(!cache
            .exists_sub_int(&p, &t, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.subsumption_hits(), 0);
        assert_eq!(cache.misses(), 2, "direction mismatch forces a search");
    }

    #[test]
    fn subsumption_works_on_the_source_side() {
        use crate::delta::{Delta, Lineage};
        let cache = HomCache::new();
        let lineage = Lineage::new();
        // A positive verdict from a *larger* source restricts to any
        // sub-source: cache (p2 → c3), then delete a fact from p2.
        let mut p2 = graph(&[("a", "b"), ("b", "c")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(cache
            .exists_sub_int(&p2, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        p2.apply_via(&Delta::new().remove_fact("E", &["b", "c"]), &lineage)
            .unwrap();
        assert!(cache
            .exists_sub_int(&p2, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.subsumption_hits(), 1);

        // A negative verdict from a smaller source blocks any extension:
        // cache (c3 ↛ p1), then append a fact to c3.
        let mut c3b = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p1 = graph(&[("1", "2")]);
        assert!(!cache
            .exists_sub_int(&c3b, &p1, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        c3b.apply_via(&Delta::new().add_fact("E", &["a", "d"]), &lineage)
            .unwrap();
        assert!(!cache
            .exists_sub_int(&c3b, &p1, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.subsumption_hits(), 2);
    }

    #[test]
    fn hot_entries_survive_rotation_by_promotion() {
        // Capacity SHARDS (1 per shard). Keep re-touching one key while
        // churning others through its shard: the hot key must keep
        // hitting (promotion pulls it back into the current generation).
        let cache = HomCache::with_capacity(SHARDS);
        let p = graph(&[("a", "b")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(cache.exists(&p, &c3, &[])); // miss: now memoized
        let hits_before = cache.hits();
        let pairs: Vec<(Val, Val)> = p
            .dom()
            .flat_map(|a| c3.dom().map(move |b| (a, b)))
            .collect();
        for &(a, b) in &pairs {
            cache.exists(&p, &c3, &[(a, b)]); // churn
            cache.exists(&p, &c3, &[]); // touch the hot key
        }
        // The hot key was touched `pairs.len()` times; at most one of
        // those can miss per rotation reaching its shard, and promotion
        // means a find in either generation counts as a hit.
        assert!(
            cache.hits() >= hits_before + pairs.len() as u64 / 2,
            "hot key starved: {} hits after {} touches",
            cache.hits() - hits_before,
            pairs.len()
        );
    }
}
