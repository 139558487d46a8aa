//! Instrumentation counters for the cover-game engine, mirroring
//! `relational::hom::stats` one layer up the stack.
//!
//! Each memo cache ([`crate::cache::GameCache`]) counts the games it
//! solved, the positions they enumerated and the sweeps their
//! greatest-fixpoint computations took, next to its hit/miss counts.
//! [`GameStats`] is a snapshot of one cache's counters, so a caller (the
//! CLI `--stats` flag, the bench harness) can difference two snapshots
//! around a region of interest.

/// A point-in-time aggregate of the cover-game engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GameStats {
    /// Full game analyses run (cache misses included, cache hits
    /// excluded — a hit runs no fixpoint).
    pub games_solved: u64,
    /// Duplicator positions enumerated across all analyses.
    pub positions_explored: u64,
    /// Greatest-fixpoint sweeps over the position table.
    pub fixpoint_sweeps: u64,
    /// Union-skeleton position tables built: each skeleton's stored build
    /// counts once (concurrent first games on one skeleton wait for one
    /// build), including a build whose game was then stopped.
    pub tables_built: u64,
    /// Memo-cache hits (verdicts served without an analysis).
    pub cache_hits: u64,
    /// Memo-cache misses (verdicts computed and then memoized).
    pub cache_misses: u64,
}

impl GameStats {
    /// Counter deltas since an earlier snapshot (saturating, so a
    /// concurrent reset cannot produce bogus huge values).
    pub fn since(&self, earlier: &GameStats) -> GameStats {
        GameStats {
            games_solved: self.games_solved.saturating_sub(earlier.games_solved),
            positions_explored: self
                .positions_explored
                .saturating_sub(earlier.positions_explored),
            fixpoint_sweeps: self.fixpoint_sweeps.saturating_sub(earlier.fixpoint_sweeps),
            tables_built: self.tables_built.saturating_sub(earlier.tables_built),
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
            "cover-game engine stats:\n\
             \x20 games solved:        {}\n\
             \x20 positions explored:  {}\n\
             \x20 fixpoint sweeps:     {}\n\
             \x20 tables built:        {}\n\
             \x20 cache hits:          {}\n\
             \x20 cache misses:        {}\n\
             \x20 cache hit rate:      {hit_rate:.1}%",
            self.games_solved,
            self.positions_explored,
            self.fixpoint_sweeps,
            self.tables_built,
            self.cache_hits,
            self.cache_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::GameCache;
    use relational::{DbBuilder, Schema};

    #[test]
    fn analyses_bump_the_counters() {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let c3 = DbBuilder::new(s.clone())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .build();
        let p = DbBuilder::new(s)
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .build();
        let cache = GameCache::new();
        let before = cache.stats();
        let a = c3.val_by_name("a").unwrap();
        let x = p.val_by_name("x").unwrap();
        // Spoiler wins this one, which takes at least one sweep.
        assert!(!cache.implies(&c3, &[a], &p, &[x], 1));
        let delta = cache.stats().since(&before);
        assert!(delta.games_solved >= 1, "delta={delta:?}");
        assert!(delta.positions_explored >= 1, "delta={delta:?}");
        assert!(delta.fixpoint_sweeps >= 1, "delta={delta:?}");
    }

    #[test]
    fn report_mentions_every_counter() {
        let st = GameStats {
            games_solved: 1,
            positions_explored: 2,
            fixpoint_sweeps: 3,
            tables_built: 4,
            cache_hits: 5,
            cache_misses: 5,
        };
        let r = st.report();
        for needle in [
            "games solved",
            "positions",
            "sweeps",
            "tables built:        4",
            "hits",
            "misses",
            "50.0%",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in {r}");
        }
    }
}
