//! The `→_k` verdict memo: [`GameCache`] answers
//! `(D, ā) →_k (D', b̄)` from a [`Memo`] keyed by content.
//!
//! The paper's algorithms repeat the same game question exactly the way
//! they repeat plain hom questions: the separability test probes pairs
//! the preorder sweep re-asks, classification replays training-side games
//! per evaluation entity, and Algorithm 2's relabeling re-runs the whole
//! preorder on a database whose *content* has not changed. The table,
//! its eviction, lineage subsumption, counters and persistence are
//! `relational::memo`'s; this module adds the key ([`GameKey`]: both
//! fingerprints, `ā`, `b̄` and `k`), the solve (one counted
//! [`CoverGame::decide`]) and the game-effort counters behind
//! [`GameCache::stats`].

use crate::game::CoverGame;
use crate::skeleton::UnionSkeleton;
use crate::stats::{GameCounters, GameStats};
use interrupt::{Interrupt, Stop};
use relational::memo::{mix, Memo, MemoKey, DEFAULT_CAPACITY};
use relational::{Database, Lineage, Val};

/// A game query in key form. The skeleton does not enter the key: it is
/// a pure function of `(D, D', k)`, which the fingerprints and `k`
/// already determine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GameKey {
    pub d: u128,
    pub d2: u128,
    pub a: Vec<Val>,
    pub b: Vec<Val>,
    pub k: usize,
}

impl GameKey {
    fn new(d: &Database, a: &[Val], d2: &Database, b: &[Val], k: usize) -> GameKey {
        GameKey {
            d: d.fingerprint(),
            d2: d2.fingerprint(),
            a: a.to_vec(),
            b: b.to_vec(),
            k,
        }
    }
}

impl MemoKey for GameKey {
    fn fingerprints(&self) -> (u128, u128) {
        (self.d, self.d2)
    }

    fn with_fingerprints(&self, d: u128, d2: u128) -> GameKey {
        GameKey {
            d,
            d2,
            ..self.clone()
        }
    }

    fn fold_shard_hash(&self, h: u64) -> u64 {
        let h = self
            .a
            .iter()
            .chain(&self.b)
            .fold(h, |h, v| mix(h, v.index() as u64));
        h.rotate_left(7).wrapping_add(self.k as u64)
    }
}

/// The `→_k` verdict memo plus the game effort its misses spent. Each
/// `Engine` owns one; independent instances also serve tests and callers
/// that want isolated lifetimes or capacities. Dereferences to its
/// [`Memo`] for the table and its hit/miss counters.
pub struct GameCache {
    memo: Memo<GameKey>,
    // Game effort, bumped only by analyses this cache itself ran,
    // making an isolated `Engine` a self-contained stats domain.
    counters: GameCounters,
}

impl GameCache {
    pub fn new() -> GameCache {
        GameCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding roughly `capacity` entries (at most ~2× across the
    /// two generations) before old entries start aging out.
    pub fn with_capacity(capacity: usize) -> GameCache {
        GameCache {
            memo: Memo::with_capacity(capacity),
            counters: GameCounters::default(),
        }
    }

    /// This cache with its memo bypassed (see [`Memo::without_memo`]):
    /// same verdicts and accounting shape, nothing memoized.
    pub fn without_memo(self) -> GameCache {
        GameCache {
            memo: self.memo.without_memo(),
            ..self
        }
    }

    /// Decide one game on `skeleton`, counted against this cache.
    fn solve(
        &self,
        a: &[Val],
        b: &[Val],
        skeleton: &UnionSkeleton,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        let verdict = CoverGame::decide(a, b, skeleton, intr);
        // A build counts even when its game was stopped afterwards.
        let mut effort = GameStats {
            tables_built: skeleton.claim_table_build() as u64,
            ..GameStats::default()
        };
        if let Ok(v) = &verdict {
            effort.games_solved = 1;
            effort.positions_explored = v.positions;
            effort.fixpoint_sweeps = v.sweeps as u64;
        }
        self.counters.add(&effort);
        Ok(verdict?.duplicator_wins)
    }

    /// Memoized `(D, ā) →_k (D', b̄)`. A miss consults `lineage` for
    /// subsumption, then builds a [`UnionSkeleton`] of its own and
    /// decides the game under `intr`; a stopped decision inserts
    /// nothing, so the table never holds a verdict from a truncated
    /// fixpoint. Batch callers replaying many games over one pair of
    /// databases share a skeleton through
    /// [`GameCache::implies_with_skeleton`].
    #[allow(clippy::too_many_arguments)]
    pub fn implies(
        &self,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
        lineage: Option<&Lineage>,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        let key = GameKey::new(d, a, d2, b, k);
        self.memo.get_or_solve(key, lineage, |_| {
            self.solve(a, b, &UnionSkeleton::build(d, d2, k), intr)
        })
    }

    /// [`GameCache::implies`] for the game from `(skeleton.d, ā)` to
    /// `(skeleton.d2, b̄)` at width `skeleton.k`, reusing the skeleton
    /// (and its position tables) on the miss path.
    pub fn implies_with_skeleton(
        &self,
        a: &[Val],
        b: &[Val],
        skeleton: &UnionSkeleton,
        lineage: Option<&Lineage>,
        intr: &Interrupt,
    ) -> Result<bool, Stop> {
        let key = GameKey::new(skeleton.d, a, skeleton.d2, b, skeleton.k);
        self.memo
            .get_or_solve(key, lineage, |_| self.solve(a, b, skeleton, intr))
    }

    /// This cache's own counters as a [`GameStats`]: game effort from
    /// its misses plus its hit/miss counts — attributable to exactly the
    /// queries routed through this cache instance.
    pub fn stats(&self) -> GameStats {
        let memo = self.memo.counts();
        GameStats {
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

impl std::ops::Deref for GameCache {
    type Target = Memo<GameKey>;

    fn deref(&self) -> &Memo<GameKey> {
        &self.memo
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

    /// Shard count of the memo: capacity 16 is one entry per shard.
    const SHARDS: usize = 16;

    /// The unbounded, lineage-free query.
    fn implies(
        cache: &GameCache,
        d: &Database,
        a: &[Val],
        d2: &Database,
        b: &[Val],
        k: usize,
    ) -> bool {
        cache
            .implies(d, a, d2, b, k, None, &Interrupt::none())
            .unwrap()
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = GameCache::new();
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p = graph(&[("1", "2"), ("2", "3")]);
        let (a, one) = (v(&c3, "a"), v(&p, "1"));
        assert!(!implies(&cache, &c3, &[a], &p, &[one], 1));
        assert_eq!((cache.counts().hits, cache.counts().misses), (0, 1));
        assert!(!implies(&cache, &c3, &[a], &p, &[one], 1));
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn k_is_part_of_the_key() {
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        let cache = GameCache::new();
        // C3 ->_1 C2 holds but ->_2 fails: distinct entries, no clash.
        assert!(implies(&cache, &c3, &[], &c2, &[], 1));
        assert!(!implies(&cache, &c3, &[], &c2, &[], 2));
        assert_eq!((cache.counts().hits, cache.counts().misses), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn equal_content_clones_share_entries() {
        let cache = GameCache::new();
        let p = graph(&[("s", "t")]);
        let q = p.clone();
        let (s, t) = (v(&p, "s"), v(&p, "t"));
        assert!(!implies(&cache, &p, &[s], &p, &[t], 1));
        assert!(!implies(&cache, &q, &[s], &q, &[t], 1));
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
    }

    #[test]
    fn skeleton_and_plain_paths_share_entries() {
        let p = graph(&[("s", "t")]);
        let (s, t) = (v(&p, "s"), v(&p, "t"));
        let cache = GameCache::new();
        let skeleton = UnionSkeleton::build(&p, &p, 1);
        let first = cache
            .implies_with_skeleton(&[t], &[s], &skeleton, None, &Interrupt::none())
            .unwrap();
        assert_eq!(first, cover_implies(&p, &[t], &p, &[s], 1));
        assert_eq!(implies(&cache, &p, &[t], &p, &[s], 1), first);
        assert_eq!((cache.counts().hits, cache.counts().misses), (1, 1));
    }

    #[test]
    fn subsumption_reuses_verdicts_across_deltas() {
        use relational::{Delta, Lineage};
        let cache = GameCache::new();
        let lineage = Lineage::new();
        let d = graph(&[("a", "b"), ("b", "c"), ("c", "a")]); // 3-cycle
        let mut d2 = graph(&[("x", "y"), ("y", "x")]); // 2-cycle
        let positive = cache
            .implies(&d, &[], &d2, &[], 1, Some(&lineage), &Interrupt::none())
            .unwrap();
        assert!(positive, "C3 ->_1 C2 holds");
        // Enrich the right side: duplicator only gains options.
        d2.apply_via(&Delta::new().add_fact("E", &["y", "z"]), &lineage)
            .unwrap();
        assert!(cache
            .implies(&d, &[], &d2, &[], 1, Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(
            cache.counts().misses,
            1,
            "no fresh analysis after the append"
        );
        assert_eq!(cache.counts().subsumption_hits, 1);
        // Against the cold solver: subsumption was exact.
        assert!(cover_implies(&d, &[], &d2, &[], 1));

        // Negative verdicts survive right-side deletions.
        let d3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let mut poor = graph(&[("x", "y"), ("y", "x")]);
        assert!(!cache
            .implies(&d3, &[], &poor, &[], 2, Some(&lineage), &Interrupt::none())
            .unwrap());
        poor.apply_via(&Delta::new().remove_fact("E", &["y", "x"]), &lineage)
            .unwrap();
        assert!(!cache
            .implies(&d3, &[], &poor, &[], 2, Some(&lineage), &Interrupt::none())
            .unwrap());
        assert_eq!(cache.counts().subsumption_hits, 2);
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
            .implies(&d, &[s], &d2, &[u], 1, Some(&lineage), &Interrupt::none())
            .unwrap());
        d2.apply_via(&Delta::new().remove_fact("E", &["u", "v"]), &lineage)
            .unwrap();
        let after = cache
            .implies(&d, &[s], &d2, &[u], 1, Some(&lineage), &Interrupt::none())
            .unwrap();
        assert_eq!(after, cover_implies(&d, &[s], &d2, &[u], 1));
        assert_eq!(cache.counts().subsumption_hits, 0);
        assert_eq!(cache.counts().misses, 2);
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
                    implies(&cache, &d, &[a], &d, &[b], 1),
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
                    implies(&cache, &d, &[a], &d, &[b], 1),
                    cover_implies(&d, &[a], &d, &[b], 1),
                    "re-query after eviction"
                );
            }
        }
    }
}
