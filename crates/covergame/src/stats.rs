//! Instrumentation counters for the cover-game engine, mirroring
//! `relational::hom::stats` one layer up the stack.
//!
//! Each memo cache ([`crate::cache::GameCache`]) counts the games it
//! decided, the positions they kept and the sweeps their
//! greatest-fixpoint computations took in its [`GameCounters`], and
//! fills in its memo's hit/miss counts.
//! [`GameStats`] is a snapshot of one cache's counters, so a caller (the
//! CLI `--stats` flag, the bench harness) can difference two snapshots
//! around a region of interest.

use interrupt::counters::{percent, section};

interrupt::counter_table! {
    /// A point-in-time aggregate of the cover-game engine counters.
    pub struct GameStats {
        /// Games decided (cache misses included, cache hits excluded — a
        /// hit plays no game).
        games_solved: count("games solved"),
        /// Duplicator positions kept across all games: every union's for a
        /// game that ran the fixpoint, only the unions selected up to the
        /// dry one for a game won at Spoiler's opening (see
        /// [`crate::game::Verdict`]).
        positions_explored: count("positions explored"),
        /// Greatest-fixpoint sweeps over the position table; a game won at
        /// Spoiler's opening runs none.
        fixpoint_sweeps: count("fixpoint sweeps"),
        /// Union-skeleton position tables built: each skeleton's stored build
        /// counts once (concurrent first games on one skeleton wait for one
        /// build), including a build whose game was then stopped.
        tables_built: count("tables built"),
        /// Memo-cache hits (verdicts served without an analysis).
        cache_hits: count("cache hits"),
        /// Memo-cache misses (verdicts computed and then memoized).
        cache_misses: count("cache misses"),
    }
    /// The game-effort counters of one [`GameCache`](crate::GameCache),
    /// bumped by the analyses it ran.
    pub struct GameCounters;
}

impl GameStats {
    /// Human-readable multi-line report (used by the CLI's `--stats`).
    pub fn report(&self) -> String {
        let hit_rate = percent(self.cache_hits, self.cache_hits + self.cache_misses);
        section(
            "cover-game engine stats:",
            21,
            &self.fields(),
            &[("cache hit rate", hit_rate)],
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
        let p = DbBuilder::new(s.clone())
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .build();
        let cache = GameCache::new();
        let none = interrupt::Interrupt::none();
        let before = cache.stats();
        let a = c3.val_by_name("a").unwrap();
        let x = p.val_by_name("x").unwrap();
        // Spoiler wins this one at the opening: the union of the
        // triangle's edges at `a` has no response at `x`.
        assert!(!cache.implies(&c3, &[a], &p, &[x], 1, None, &none).unwrap());
        let delta = cache.stats().since(&before);
        assert_eq!(delta.games_solved, 1, "delta={delta:?}");
        assert!(delta.positions_explored >= 1, "delta={delta:?}");
        assert_eq!(delta.fixpoint_sweeps, 0, "delta={delta:?}");

        // On the path 1→2→3→4, (1) ↛_1 (2) needs the fixpoint.
        let path = DbBuilder::new(s)
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .fact("E", &["3", "4"])
            .build();
        let (one, two) = (
            path.val_by_name("1").unwrap(),
            path.val_by_name("2").unwrap(),
        );
        let before = cache.stats();
        assert!(!cache
            .implies(&path, &[one], &path, &[two], 1, None, &none)
            .unwrap());
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
