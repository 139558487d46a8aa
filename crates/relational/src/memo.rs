//! The verdict memo shared by the engine's content-keyed caches.
//!
//! The separability algorithms ask the same yes/no question over and
//! over — CQ-Sep runs Θ(|P|·|N|) hom tests, GHW(k)-Sep plays a game per
//! ordered pair, Algorithm 1 replays those games per evaluation entity.
//! [`crate::HomCache`] and `covergame::GameCache` answer them from a
//! [`Memo`]: a sharded, concurrent, size-capped table from a [`MemoKey`]
//! to a verdict. Each cache supplies only its key, its solve and its
//! effort counters; everything about *remembering* lives here once.
//!
//! Keys start with the [`Database::fingerprint`]s of the two databases
//! involved, so equal-content databases share entries even across clones
//! and processes. The table is split into 16 independently locked
//! shards so parallel workers rarely contend, and [`Memo::get_or_solve`]
//! runs the solve *outside* the shard lock — an expensive search never
//! blocks unrelated lookups (two threads may race to compute one key;
//! both get the same verdict and the second store is a no-op).
//!
//! # Eviction
//!
//! Each shard keeps two *generations* of entries. Inserts go to the
//! current generation; when it fills, it becomes the previous generation
//! and a fresh current one starts (dropping the old previous generation
//! wholesale). Hits in the previous generation promote the entry back
//! into the current one, so the hot working set survives rotations while
//! cold entries age out after at most two of them — an O(1)-overhead
//! approximation of LRU with no per-entry bookkeeping. Evicted verdicts
//! are recomputed on the next query; eviction never changes an answer.
//!
//! # Subsumption
//!
//! On an exact-key miss the memo consults entries cached for lineage
//! *ancestors* of either database (see [`Lineage`]). Both questions the
//! caches memoize — hom existence `(D, ā) → (D', b̄)` and the cover-game
//! relation `(D, ā) →_k (D', b̄)` — are monotone in the target `D'` and
//! antitone in the source `D` (a hom into a sub-database is one into the
//! whole; Duplicator's options grow with `D'`, Spoiler's with `D`). So,
//! writing `A` for the ancestor content and `⊆` for an insert-only edit
//! chain:
//!
//! * target side: positive from `A ⊆ D'` carries up (compose with the
//!   inclusion); negative from `A ⊇ D'` carries down;
//! * source side: positive from `A ⊇ D` restricts; negative from
//!   `A ⊆ D` extends.
//!
//! The rest of the key carries over verbatim: `Val`s are append-only
//! interned indices, so an element means the same thing in every
//! database on an edit chain. A subsumption-served verdict is stored as
//! an exact entry (the next query is a plain hit) and counts only in
//! [`MemoStats::subsumption_hits`], as neither hit nor miss.
//!
//! # Bypass
//!
//! A memo built with [`Memo::without_memo`] never reads or writes its
//! table: every query counts as a miss and runs its solve. That is the
//! whole of an engine's no-cache mode, set once when the table is made.
//!
//! [`Database::fingerprint`]: crate::Database::fingerprint

use crate::delta::{Containment, Lineage};
use interrupt::Stop;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Shard count; a small power of two comfortably above typical worker
/// counts so lock contention stays negligible.
const SHARDS: usize = 16;

/// Default total entry capacity of a memo (split across shards; the
/// two-generation scheme holds at most ~2× this many entries).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A memo key: two database fingerprints plus whatever else pins the
/// question (fixed pairs, distinguished tuples, a width).
pub trait MemoKey: Clone + Eq + Hash {
    /// The fingerprints of the source and target databases.
    fn fingerprints(&self) -> (u128, u128);
    /// This key with its fingerprints replaced — the same question asked
    /// of lineage relatives.
    fn with_fingerprints(&self, from: u128, to: u128) -> Self;
    /// Fold the non-fingerprint fields into `h`, a shard hash that
    /// already holds the fingerprints (one [`mix`] step per word).
    fn fold_shard_hash(&self, h: u64) -> u64;
}

/// One step of the shard-hash fold: rotate, multiply, add `word`.
pub fn mix(h: u64, word: u64) -> u64 {
    h.rotate_left(13)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(word)
}

/// One shard's two generations of memoized verdicts.
struct Generations<K> {
    cur: HashMap<K, bool>,
    prev: HashMap<K, bool>,
}

impl<K: MemoKey> Generations<K> {
    /// Insert into the current generation, rotating first when full.
    /// `cap` is the per-shard current-generation capacity.
    fn insert(&mut self, key: K, ans: bool, cap: usize) {
        if self.cur.len() >= cap && !self.cur.contains_key(&key) {
            self.prev = std::mem::take(&mut self.cur);
        }
        self.cur.insert(key, ans);
    }
}

interrupt::counter_table! {
    /// A memo's own counters; the caches report them inside their
    /// layer's stats.
    pub struct MemoStats {
        /// Verdicts served from the table.
        hits: count,
        /// Verdicts solved afresh (every query of a bypassing memo).
        misses: count,
        /// Verdicts served by subsumption (neither hit nor miss).
        subsumption_hits: count,
        /// Entries imported by [`Memo::import`].
        restored: count,
    }
    /// The shared form of [`MemoStats`] a [`Memo`] bumps.
    pub struct MemoCounters;
}

/// A sharded two-generation verdict table with lineage subsumption and
/// its own [`MemoStats`] counters.
pub struct Memo<K> {
    shards: Vec<Mutex<Generations<K>>>,
    per_shard_cap: usize,
    /// False for a bypassing memo (see [`Memo::without_memo`]).
    memoize: bool,
    counters: MemoCounters,
}

impl<K: MemoKey> Memo<K> {
    /// A memo holding roughly `capacity` entries (at most ~2× across the
    /// two generations) before old entries start aging out.
    pub fn with_capacity(capacity: usize) -> Memo<K> {
        Memo {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Generations {
                        cur: HashMap::new(),
                        prev: HashMap::new(),
                    })
                })
                .collect(),
            per_shard_cap: (capacity / SHARDS).max(1),
            memoize: true,
            counters: MemoCounters::default(),
        }
    }

    /// This memo in bypass mode: [`Memo::get_or_solve`] neither consults
    /// nor updates the table, and counts every query as a miss.
    pub fn without_memo(self) -> Memo<K> {
        Memo {
            memoize: false,
            ..self
        }
    }

    /// Does [`Memo::get_or_solve`] use the table?
    pub fn memoizes(&self) -> bool {
        self.memoize
    }

    fn shard_of(key: &K) -> usize {
        // The fingerprints are already well-mixed; the key folds in the
        // rest so same-database/different-tuple queries spread out.
        let (from, to) = key.fingerprints();
        let h = from as u64 ^ (from >> 64) as u64 ^ (to as u64).rotate_left(32);
        (key.fold_shard_hash(h) as usize) % SHARDS
    }

    fn shard(&self, key: &K) -> std::sync::MutexGuard<'_, Generations<K>> {
        self.shards[Self::shard_of(key)].lock().unwrap()
    }

    /// Exact-key probe with previous-generation promotion; counts a hit.
    fn probe(&self, key: &K) -> Option<bool> {
        let mut g = self.shard(key);
        let ans = match g.cur.get(key) {
            Some(&ans) => ans,
            None => {
                // Promote: a previous-generation hit rejoins the current
                // working set so rotation keeps what is actually used.
                let ans = g.prev.remove(key)?;
                g.insert(key.clone(), ans, self.per_shard_cap);
                ans
            }
        };
        self.counters.add(&MemoStats {
            hits: 1,
            ..MemoStats::default()
        });
        Some(ans)
    }

    /// Read-only probe of either generation — no promotion, no counters.
    /// This is what subsumption uses to look at *ancestor* keys it will
    /// never own.
    fn peek(&self, key: &K) -> Option<bool> {
        let g = self.shard(key);
        g.cur.get(key).or_else(|| g.prev.get(key)).copied()
    }

    /// Insert a verdict (no counters).
    fn store(&self, key: K, ans: bool) {
        let cap = self.per_shard_cap;
        self.shard(&key).insert(key, ans, cap);
    }

    /// Answer `key` from entries cached for lineage ancestors of its
    /// databases, under the monotone rules of the module docs.
    fn subsumed_via(&self, key: &K, lineage: &Lineage) -> Option<bool> {
        let (from, to) = key.fingerprints();
        for (anc, cont) in lineage.ancestors(to) {
            match (cont, self.peek(&key.with_fingerprints(from, anc))) {
                (Containment::Subset, Some(true)) => return Some(true),
                (Containment::Superset, Some(false)) => return Some(false),
                _ => {}
            }
        }
        for (anc, cont) in lineage.ancestors(from) {
            match (cont, self.peek(&key.with_fingerprints(anc, to))) {
                (Containment::Superset, Some(true)) => return Some(true),
                (Containment::Subset, Some(false)) => return Some(false),
                _ => {}
            }
        }
        None
    }

    /// The verdict for `key`: an exact hit, else a subsumption through
    /// `lineage`, else `solve(&key)` — counted as a miss and stored.
    /// A solve that returns [`Stop`] has no verdict, so nothing is
    /// inserted (caching one would poison every later query for the
    /// key). Hits and subsumption reads are memo reads and do no work
    /// worth interrupting. A bypassing memo goes straight to the solve.
    pub fn get_or_solve(
        &self,
        key: K,
        lineage: Option<&Lineage>,
        solve: impl FnOnce(&K) -> Result<bool, Stop>,
    ) -> Result<bool, Stop> {
        let miss = MemoStats {
            misses: 1,
            ..MemoStats::default()
        };
        if !self.memoize {
            self.counters.add(&miss);
            return solve(&key);
        }
        if let Some(ans) = self.probe(&key) {
            return Ok(ans);
        }
        let subsumed = lineage
            .filter(|l| !l.no_edges())
            .and_then(|l| self.subsumed_via(&key, l));
        if let Some(ans) = subsumed {
            self.counters.add(&MemoStats {
                subsumption_hits: 1,
                ..MemoStats::default()
            });
            self.store(key, ans);
            return Ok(ans);
        }
        self.counters.add(&miss);
        let ans = solve(&key)?;
        self.store(key, ans);
        Ok(ans)
    }

    /// This memo's counters since the last [`Memo::reset_counters`].
    pub fn counts(&self) -> MemoStats {
        self.counters.snapshot()
    }

    /// Zero the counters (the table itself is untouched).
    pub fn reset_counters(&self) {
        self.counters.reset();
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

    /// Every memoized entry, for persistence.
    pub fn export(&self) -> Vec<(K, bool)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let g = s.lock().unwrap();
            out.extend(
                g.cur
                    .iter()
                    .chain(g.prev.iter())
                    .map(|(k, &a)| (k.clone(), a)),
            );
        }
        out
    }

    /// Insert one persisted entry. Fingerprints are content hashes, so a
    /// restored verdict is valid for any database with the same content;
    /// the import counts as neither a hit nor a miss, only as `restored`.
    pub fn import(&self, key: K, ans: bool) {
        self.store(key, ans);
        self.counters.add(&MemoStats {
            restored: 1,
            ..MemoStats::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interrupt::Interrupt;

    /// A toy key: two "fingerprints" and a payload.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Key(u128, u128, u32);

    impl MemoKey for Key {
        fn fingerprints(&self) -> (u128, u128) {
            (self.0, self.1)
        }
        fn with_fingerprints(&self, from: u128, to: u128) -> Key {
            Key(from, to, self.2)
        }
        fn fold_shard_hash(&self, h: u64) -> u64 {
            mix(h, self.2 as u64)
        }
    }

    #[test]
    fn a_stopped_solve_stores_nothing() {
        let memo: Memo<Key> = Memo::with_capacity(DEFAULT_CAPACITY);
        let intr = Interrupt::with_deadline(std::time::Duration::ZERO);
        let out = memo.get_or_solve(Key(1, 2, 3), None, |_| intr.check().map(|()| true));
        assert!(out.is_err());
        assert!(memo.is_empty());
        assert_eq!(memo.counts().misses, 1);
        // The next query solves afresh and is memoized.
        assert!(memo.get_or_solve(Key(1, 2, 3), None, |_| Ok(true)).unwrap());
        assert_eq!((memo.counts().misses, memo.len()), (2, 1));
    }
}
