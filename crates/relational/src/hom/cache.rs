//! The hom-existence memo: [`HomCache`] answers "is there a hom
//! `(D, a) → (D', b)`?" from a [`Memo`] keyed by content.
//!
//! The separability pipelines ask that NP-hard question over and over:
//! `cq_chain_in` re-checks pairs that `cq_separable_in` already decided,
//! classification repeats training-time queries, and preorder matrices
//! touch each pair from both sides. The table, its eviction, lineage
//! subsumption, counters and persistence are [`crate::memo`]'s; this
//! module adds the key ([`HomKey`]: both fingerprints plus the
//! normalized fixed pairs), the solve (the counted backtracking search)
//! and the search-effort counters behind [`HomCache::stats`].

use super::homomorphism_exists_counted_int;
use super::stats::{HomCounters, HomStats};
use crate::database::Database;
use crate::delta::Lineage;
use crate::ids::Val;
use crate::memo::{mix, Memo, MemoKey, DEFAULT_CAPACITY};
use interrupt::{Interrupt, Stop};

/// A hom query in key form: `(from, to)` fingerprints and the fixed
/// pairs, sorted and deduplicated.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HomKey {
    pub from: u128,
    pub to: u128,
    pub fixed: Vec<(Val, Val)>,
}

impl HomKey {
    /// Normalize the fixed pairs into key form: sorted, deduplicated;
    /// `None` means contradictory constraints (two targets for one
    /// source) — a guaranteed `false`, not worth a table entry.
    fn new(from: &Database, to: &Database, fixed: &[(Val, Val)]) -> Option<HomKey> {
        let mut fixed = fixed.to_vec();
        fixed.sort_unstable();
        fixed.dedup();
        if fixed.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(HomKey {
            from: from.fingerprint(),
            to: to.fingerprint(),
            fixed,
        })
    }
}

impl MemoKey for HomKey {
    fn fingerprints(&self) -> (u128, u128) {
        (self.from, self.to)
    }

    fn with_fingerprints(&self, from: u128, to: u128) -> HomKey {
        HomKey {
            from,
            to,
            fixed: self.fixed.clone(),
        }
    }

    fn fold_shard_hash(&self, h: u64) -> u64 {
        self.fixed.iter().fold(h, |h, &(a, b)| {
            mix(h, ((a.index() as u64) << 32) | b.index() as u64)
        })
    }
}

/// The hom-existence memo plus the search effort its misses spent. Each
/// `Engine` owns one; independent instances also serve tests and callers
/// that want isolated lifetimes or capacities. Dereferences to its
/// [`Memo`] for the table and its hit/miss counters.
pub struct HomCache {
    memo: Memo<HomKey>,
    // Search effort, bumped only by searches this cache itself ran.
    // Together with the memo's counters this makes a cache a
    // self-contained stats domain, so each `Engine` attributes exactly
    // the work routed through it.
    counters: HomCounters,
}

impl HomCache {
    pub fn new() -> HomCache {
        HomCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding roughly `capacity` entries (at most ~2× across the
    /// two generations) before old entries start aging out.
    pub fn with_capacity(capacity: usize) -> HomCache {
        HomCache {
            memo: Memo::with_capacity(capacity),
            counters: HomCounters::default(),
        }
    }

    /// This cache with its memo bypassed (see [`Memo::without_memo`]):
    /// same verdicts and accounting shape, nothing memoized.
    pub fn without_memo(self) -> HomCache {
        HomCache {
            memo: self.memo.without_memo(),
            ..self
        }
    }

    /// Memoized [`homomorphism_exists`](super::homomorphism_exists): does
    /// a hom `from → to` extending `fixed` exist?
    ///
    /// The fixed pairs are normalized (sorted, deduplicated) before
    /// keying, so permutations and repetitions of the same constraints
    /// share one entry; contradictory constraints short-circuit to
    /// `false` without occupying cache space or counting a lookup. A
    /// miss consults `lineage` for subsumption, then searches under
    /// `intr`; a stopped search inserts nothing, but its partial effort
    /// still lands in this cache's counters.
    pub fn exists(
        &self,
        from: &Database,
        to: &Database,
        fixed: &[(Val, Val)],
        lineage: Option<&Lineage>,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        let Some(key) = HomKey::new(from, to, fixed) else {
            return Ok(false);
        };
        self.memo.get_or_solve(key, lineage, |key| {
            let (ans, counts) = homomorphism_exists_counted_int(from, to, &key.fixed, intr);
            self.counters.add(&counts);
            ans
        })
    }

    /// This cache's own counters as a [`HomStats`]: search effort from
    /// its misses plus its hit/miss counts, attributable to exactly the
    /// queries routed through this cache instance.
    pub fn stats(&self) -> HomStats {
        let memo = self.memo.counts();
        HomStats {
            cache_hits: memo.hits,
            cache_misses: memo.misses,
            ..self.counters.snapshot()
        }
    }

    /// Zero every counter (the memo table itself is untouched).
    pub fn reset_stats(&self) {
        self.memo.reset_counters();
        self.counters.reset();
    }
}

impl std::ops::Deref for HomCache {
    type Target = Memo<HomKey>;

    fn deref(&self) -> &Memo<HomKey> {
        &self.memo
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

    /// Shard count of the memo: capacity 16 is one entry per shard.
    const SHARDS: usize = 16;

    /// The unbounded, lineage-free query.
    fn exists(cache: &HomCache, from: &Database, to: &Database, fixed: &[(Val, Val)]) -> bool {
        cache
            .exists(from, to, fixed, None, &Interrupt::none())
            .unwrap()
    }

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
        assert!(exists(&cache, &p, &c3, &[]));
        assert_eq!((cache.counts().hits, cache.counts().misses), (0, 1));
        assert!(exists(&cache, &p, &c3, &[]));
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn equal_content_clones_share_entries() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let q = graph(&[("a", "b")]); // same content, separate allocation
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(exists(&cache, &p, &c3, &[]));
        assert!(exists(&cache, &q, &c3, &[]));
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
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
        assert!(exists(&cache, &p, &c2, &[(a, x), (b, y)]));
        assert!(exists(&cache, &p, &c2, &[(b, y), (a, x)]));
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
    }

    #[test]
    fn contradictory_fixes_are_false_and_uncached() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        let a = p.val_by_name("a").unwrap();
        let x = c2.val_by_name("x").unwrap();
        let y = c2.val_by_name("y").unwrap();
        assert!(!exists(&cache, &p, &c2, &[(a, x), (a, y)]));
        assert_eq!(
            (cache.counts().hits, cache.counts().misses, cache.len()),
            (0, 0, 0)
        );
    }

    #[test]
    fn mutation_changes_the_key() {
        let cache = HomCache::new();
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        let mut p = graph(&[("a", "b")]);
        assert!(exists(&cache, &p, &c3, &[]));
        // Extending p with a third edge re-keys it: no stale answer.
        p.add_named_fact("E", &["b", "c"]);
        assert!(exists(&cache, &p, &c3, &[]));
        assert_eq!((cache.counts().hits, cache.counts().misses), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn negative_answers_are_cached_too() {
        let cache = HomCache::new();
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p = graph(&[("1", "2"), ("2", "3")]);
        assert!(!exists(&cache, &c3, &p, &[]));
        assert!(!exists(&cache, &c3, &p, &[]));
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
    }

    #[test]
    fn clear_empties_the_table() {
        let cache = HomCache::new();
        let p = graph(&[("a", "b")]);
        let q = graph(&[("x", "y"), ("y", "z")]);
        exists(&cache, &p, &q, &[]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        exists(&cache, &p, &q, &[]);
        assert_eq!(cache.counts().misses, 2);
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
                exists(&cache, &p, &c3, &[(a, b)]),
                exists(&reference, &p, &c3, &[(a, b)]),
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
                exists(&cache, &p, &c3, &[(a, b)]),
                exists(&reference, &p, &c3, &[(a, b)]),
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
            .exists(&p, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().misses, 1);
        // Append a fact: the positive hom into c3 survives into c3 ∪ Δ.
        c3.apply_via(&Delta::new().add_fact("E", &["x", "w"]), &lineage)
            .unwrap();
        assert!(cache
            .exists(&p, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().misses, 1, "no fresh search after the append");
        assert_eq!(cache.counts().subsumption_hits, 1);
        // The subsumed answer was promoted to an exact entry.
        assert!(cache
            .exists(&p, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().subsumption_hits, 1);
        assert_eq!(cache.counts().hits, 1);
    }

    #[test]
    fn subsumption_reuses_negative_across_delete_only_delta() {
        use crate::delta::{Delta, Lineage};
        let cache = HomCache::new();
        let lineage = Lineage::new();
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]); // 3-cycle
        let mut p = graph(&[("1", "2"), ("2", "3")]);
        assert!(!cache
            .exists(&c3, &p, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        // Deleting a fact can only make the target poorer: the negative
        // verdict survives.
        p.apply_via(&Delta::new().remove_fact("E", &["2", "3"]), &lineage)
            .unwrap();
        assert!(!cache
            .exists(&c3, &p, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().misses, 1);
        assert_eq!(cache.counts().subsumption_hits, 1);
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
            .exists(&p, &t, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        t.apply_via(&Delta::new().remove_fact("E", &["x", "y"]), &lineage)
            .unwrap();
        assert!(!cache
            .exists(&p, &t, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().subsumption_hits, 0);
        assert_eq!(
            cache.counts().misses,
            2,
            "direction mismatch forces a search"
        );
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
            .exists(&p2, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        p2.apply_via(&Delta::new().remove_fact("E", &["b", "c"]), &lineage)
            .unwrap();
        assert!(cache
            .exists(&p2, &c3, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().misses, 1);
        assert_eq!(cache.counts().subsumption_hits, 1);

        // A negative verdict from a smaller source blocks any extension:
        // cache (c3 ↛ p1), then append a fact to c3.
        let mut c3b = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p1 = graph(&[("1", "2")]);
        assert!(!cache
            .exists(&c3b, &p1, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        c3b.apply_via(&Delta::new().add_fact("E", &["a", "d"]), &lineage)
            .unwrap();
        assert!(!cache
            .exists(&c3b, &p1, &[], Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().misses, 2);
        assert_eq!(cache.counts().subsumption_hits, 2);
    }

    #[test]
    fn hot_entries_survive_rotation_by_promotion() {
        // Capacity SHARDS (1 per shard). Keep re-touching one key while
        // churning others through its shard: the hot key must keep
        // hitting (promotion pulls it back into the current generation).
        let cache = HomCache::with_capacity(SHARDS);
        let p = graph(&[("a", "b")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert!(exists(&cache, &p, &c3, &[])); // miss: now memoized
        let hits_before = cache.counts().hits;
        let pairs: Vec<(Val, Val)> = p
            .dom()
            .flat_map(|a| c3.dom().map(move |b| (a, b)))
            .collect();
        for &(a, b) in &pairs {
            exists(&cache, &p, &c3, &[(a, b)]); // churn
            exists(&cache, &p, &c3, &[]); // touch the hot key
        }
        // The hot key was touched `pairs.len()` times; at most one of
        // those can miss per rotation reaching its shard, and promotion
        // means a find in either generation counts as a hit.
        assert!(
            cache.counts().hits >= hits_before + pairs.len() as u64 / 2,
            "hot key starved: {} hits after {} touches",
            cache.counts().hits - hits_before,
            pairs.len()
        );
    }
}
