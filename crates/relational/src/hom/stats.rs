//! Instrumentation counters for the homomorphism engine.
//!
//! The backtracking solver ([`crate::hom::HomSearch`]) counts nodes
//! expanded, forward-check wipe-outs, and backtracks during each solve and
//! reports them as [`crate::hom::SearchCounts`]; the memo cache
//! ([`crate::hom::cache::HomCache`]) adds them to its own atomics
//! alongside its memo's hit/miss counts. [`HomStats`] is a snapshot of one
//! cache's counters, so a caller (the CLI `--stats` flag, the bench
//! harness) can difference two snapshots around a region of interest.

/// A point-in-time aggregate of the engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HomStats {
    /// Backtracking searches run to completion (cache misses included,
    /// cache hits excluded — a hit runs no search).
    pub solves: u64,
    /// Variable-assignment attempts across all searches.
    pub nodes_expanded: u64,
    /// Assignments rejected because forward checking wiped out a
    /// candidate set.
    pub forward_check_wipeouts: u64,
    /// Exhausted search frames popped.
    pub backtracks: u64,
    /// Memo-cache hits (answers served without a search).
    pub cache_hits: u64,
    /// Memo-cache misses (answers computed and then memoized).
    pub cache_misses: u64,
}

impl HomStats {
    /// Counter deltas since an earlier snapshot (saturating, so a
    /// concurrent `reset` cannot produce bogus huge values).
    pub fn since(&self, earlier: &HomStats) -> HomStats {
        HomStats {
            solves: self.solves.saturating_sub(earlier.solves),
            nodes_expanded: self.nodes_expanded.saturating_sub(earlier.nodes_expanded),
            forward_check_wipeouts: self
                .forward_check_wipeouts
                .saturating_sub(earlier.forward_check_wipeouts),
            backtracks: self.backtracks.saturating_sub(earlier.backtracks),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
        }
    }

    /// Human-readable multi-line report (used by the CLI's `--stats`).
    pub fn report(&self) -> String {
        let lookups = self.cache_hits + self.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64 * 100.0
        };
        format!(
            "hom engine stats:\n\
             \x20 searches run:        {}\n\
             \x20 nodes expanded:      {}\n\
             \x20 fwd-check wipeouts:  {}\n\
             \x20 backtracks:          {}\n\
             \x20 cache hits:          {}\n\
             \x20 cache misses:        {}\n\
             \x20 cache hit rate:      {hit_rate:.1}%",
            self.solves,
            self.nodes_expanded,
            self.forward_check_wipeouts,
            self.backtracks,
            self.cache_hits,
            self.cache_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DbBuilder;
    use crate::hom::cache::HomCache;
    use crate::schema::Schema;

    #[test]
    fn searches_bump_the_counters() {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let c3 = DbBuilder::new(s.clone())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .build();
        let p3 = DbBuilder::new(s)
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "w"])
            .build();
        let cache = HomCache::new();
        let before = cache.stats();
        // An unsatisfiable instance must backtrack at least once.
        assert!(!cache
            .exists(&c3, &p3, &[], None, &interrupt::Interrupt::none())
            .unwrap());
        let delta = cache.stats().since(&before);
        assert!(delta.solves >= 1, "delta={delta:?}");
        assert!(delta.nodes_expanded >= 1, "delta={delta:?}");
        assert!(delta.backtracks >= 1, "delta={delta:?}");
    }

    #[test]
    fn report_mentions_every_counter() {
        let st = HomStats {
            solves: 1,
            nodes_expanded: 2,
            forward_check_wipeouts: 3,
            backtracks: 4,
            cache_hits: 5,
            cache_misses: 5,
        };
        let r = st.report();
        for needle in [
            "searches",
            "nodes",
            "wipeouts",
            "backtracks",
            "hits",
            "misses",
            "50.0%",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in {r}");
        }
    }
}
