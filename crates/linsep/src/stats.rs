//! Instrumentation counters for the LP engine, mirroring
//! `relational::hom::stats` and `covergame::stats` one layer down the
//! stack.
//!
//! [`crate::separate`](fn@crate::separate) counts the LPs it solves with the sparse revised
//! simplex ([`crate::revised`]) and the pivots they take, perceptron
//! fast-path hits (separations decided without an LP) and conflict prunes (instances refuted by a duplicate-vector/opposite-label
//! scan before any arithmetic); the hybrid rational ([`numeric::Rat`])
//! contributes its small→big promotion counter. Each `Engine` owns one
//! [`LpCounters`] set; [`LpStats`] is a snapshot of one, so a caller (the
//! CLI `--stats` flag, the bench harness) can difference two snapshots
//! around a region of interest.
//!
//! Counters are atomics: cheap to bump from the parallel subset-search
//! workers and aggregated without any locking.

use interrupt::counters::{percent, section};

interrupt::counter_table! {
    /// A point-in-time aggregate of the LP engine counters.
    pub struct LpStats {
        /// Simplex solves run (perceptron hits excluded — a fast-path hit
        /// never builds an LP).
        lps_solved: count("LPs solved"),
        /// Always 0: every pivot is counted in [`LpStats::sparse_pivots`].
        /// Kept because the benchmark under `perfbench/`, a separate
        /// workspace, reads it and sums it with `sparse_pivots`.
        simplex_pivots: count,
        /// Revised-simplex pivots across all LP solves: the engine's total
        /// pivot work.
        sparse_pivots: count("simplex pivots"),
        /// Sparse solves that started from a reused (warm) basis.
        warm_start_hits: count("warm-start hits"),
        /// Sparse solves that cold-started (no warm basis available, or the
        /// offered basis was singular/infeasible for the new instance).
        warm_start_misses: count("warm-start misses"),
        /// High-water mark of the S → S ∪ {j} basis-reuse chain length (0 =
        /// every sparse LP cold-started).
        basis_reuse_depth: max("basis reuse depth"),
        /// Separations decided by the integer perceptron without an LP.
        perceptron_hits: count("perceptron hits"),
        /// Instances refuted by the duplicate-row conflict scan, skipping
        /// the LP (and, in the subset search, the projection) entirely.
        conflict_prunes: count("conflict prunes"),
        /// Hybrid-rational values that overflowed the inline `i64`
        /// representation and promoted to `BigRational`. Not tracked by
        /// [`LpCounters`]: promotions happen inside arithmetic with no
        /// engine in sight, so the figure is process-wide and callers
        /// that want it fill it in from [`numeric::rat::promotion_count`].
        bignum_promotions: count("bignum promotions"),
    }
    /// A set of LP-engine counters. An `Engine` owns one instance and
    /// passes it to [`crate::separate::separate`] and
    /// [`crate::minerror::min_error_classifier`].
    pub struct LpCounters;
}

impl LpCounters {
    pub fn new() -> LpCounters {
        LpCounters::default()
    }

    /// Note one LP decided by the sparse revised simplex. `warm_depth`
    /// is `Some(d)` when the solve started from a reused basis whose
    /// reuse chain is `d` links long, `None` for a cold (all-slack or
    /// rejected-warm) start.
    pub fn record_sparse_lp(&self, pivots: u64, warm_depth: Option<u64>) {
        self.add(&LpStats {
            lps_solved: 1,
            sparse_pivots: pivots,
            warm_start_hits: warm_depth.is_some() as u64,
            warm_start_misses: warm_depth.is_none() as u64,
            basis_reuse_depth: warm_depth.unwrap_or(0),
            ..LpStats::default()
        });
    }

    /// Note a separation decided by the integer perceptron fast path.
    pub fn record_perceptron_hit(&self) {
        self.add(&LpStats {
            perceptron_hits: 1,
            ..LpStats::default()
        });
    }

    /// Note an instance (or column subset) refuted by the cheap
    /// duplicate-vector/opposite-label conflict scan, skipping the LP
    /// (and, in the subset search, the projection) entirely.
    pub fn record_conflict_prune(&self) {
        self.add(&LpStats {
            conflict_prunes: 1,
            ..LpStats::default()
        });
    }
}

impl LpStats {
    /// Human-readable multi-line report (used by the CLI's `--stats`).
    pub fn report(&self) -> String {
        let fast = self.perceptron_hits + self.conflict_prunes;
        let fast_rate = percent(fast, self.lps_solved + fast);
        section(
            "lp engine stats:",
            21,
            &self.fields(),
            &[("fast-path rate", fast_rate)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interrupt::Interrupt;

    #[test]
    fn separations_bump_the_counters() {
        let counters = LpCounters::new();
        let separate = |vs: &[Vec<i32>], ls: &[i32]| {
            crate::separate(&counters, vs, ls, None, &Interrupt::none())
                .unwrap()
                .result
        };
        let before = counters.snapshot();
        // Perceptron-friendly instance: decided on the fast path.
        let vs = vec![vec![1, 1], vec![-1, -1]];
        assert!(separate(&vs, &[1, -1]).is_some());
        // Conflicting duplicate: pruned before any arithmetic.
        let dup = vec![vec![1, -1], vec![1, -1]];
        assert!(separate(&dup, &[1, -1]).is_none());
        let delta = counters.snapshot().since(&before);
        assert!(delta.perceptron_hits >= 1, "delta={delta:?}");
        assert!(delta.conflict_prunes >= 1, "delta={delta:?}");
    }

    #[test]
    fn report_mentions_every_counter() {
        let st = LpStats {
            lps_solved: 1,
            simplex_pivots: 2,
            sparse_pivots: 5,
            warm_start_hits: 6,
            warm_start_misses: 7,
            basis_reuse_depth: 2,
            perceptron_hits: 3,
            bignum_promotions: 4,
            conflict_prunes: 1,
        };
        let r = st.report();
        for needle in [
            "LPs solved",
            "simplex pivots:      5",
            "warm-start hits",
            "warm-start misses",
            "basis reuse depth",
            "perceptron",
            "promotions",
            "prunes",
            "80.0%",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in {r}");
        }
    }

    #[test]
    fn since_passes_reuse_depth_through_and_subtracts_counters() {
        let earlier = LpStats {
            lps_solved: 10,
            sparse_pivots: 4,
            warm_start_hits: 2,
            basis_reuse_depth: 3,
            ..LpStats::default()
        };
        let later = LpStats {
            lps_solved: 15,
            sparse_pivots: 9,
            warm_start_hits: 5,
            basis_reuse_depth: 3,
            ..LpStats::default()
        };
        let delta = later.since(&earlier);
        assert_eq!(delta.lps_solved, 5);
        assert_eq!(delta.sparse_pivots, 5);
        assert_eq!(delta.warm_start_hits, 3);
        // Gauge semantics: the high-water mark is not differenced.
        assert_eq!(delta.basis_reuse_depth, 3);
    }
}
