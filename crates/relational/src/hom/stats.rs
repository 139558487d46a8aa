//! Instrumentation counters for the homomorphism engine.
//!
//! The backtracking solver ([`crate::hom::HomSearch`]) counts nodes
//! expanded, forward-check wipe-outs, and backtracks during each solve
//! and reports them as a [`HomStats`]; the memo cache
//! ([`crate::hom::cache::HomCache`]) adds them to its [`HomCounters`]
//! and fills in its memo's hit/miss counts. A [`HomStats`] snapshot of
//! one cache lets a caller (the CLI `--stats` flag, the bench harness)
//! difference two snapshots around a region of interest.

use interrupt::counters::{percent, section};

interrupt::counter_table! {
    /// A point-in-time aggregate of the engine counters.
    pub struct HomStats {
        /// Backtracking searches run to completion (cache misses included,
        /// cache hits excluded — a hit runs no search).
        solves: count("searches run"),
        /// Variable-assignment attempts across all searches.
        nodes_expanded: count("nodes expanded"),
        /// Assignments rejected because forward checking wiped out a
        /// candidate set.
        forward_check_wipeouts: count("fwd-check wipeouts"),
        /// Exhausted search frames popped.
        backtracks: count("backtracks"),
        /// Memo-cache hits (answers served without a search).
        cache_hits: count("cache hits"),
        /// Memo-cache misses (answers computed and then memoized).
        cache_misses: count("cache misses"),
    }
    /// The search-effort counters of one [`HomCache`](crate::HomCache),
    /// bumped by the searches it ran.
    pub struct HomCounters;
}

impl HomStats {
    /// Human-readable multi-line report (used by the CLI's `--stats`).
    pub fn report(&self) -> String {
        let hit_rate = percent(self.cache_hits, self.cache_hits + self.cache_misses);
        section(
            "hom engine stats:",
            21,
            &self.fields(),
            &[("cache hit rate", hit_rate)],
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
