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

use std::sync::atomic::{AtomicU64, Ordering};

/// A set of LP-engine counters. An `Engine` owns one instance and passes
/// it to [`crate::separate::separate`] and
/// [`crate::minerror::min_error_classifier`].
///
/// `bignum_promotions` is *not* tracked here: the hybrid rational's
/// promotion counter lives in `numeric` and is inherently process-wide
/// (promotions happen inside arithmetic with no engine in sight), so
/// [`LpCounters::snapshot`] reports 0 for it and callers that want the
/// figure fill it in from [`numeric::rat::promotion_count`].
#[derive(Debug, Default)]
pub struct LpCounters {
    lps_solved: AtomicU64,
    sparse_pivots: AtomicU64,
    warm_start_hits: AtomicU64,
    warm_start_misses: AtomicU64,
    /// High-water mark, not a counter: the deepest S → S ∪ {j} basis
    /// reuse chain observed (0 = every sparse LP cold-started).
    basis_reuse_depth: AtomicU64,
    perceptron_hits: AtomicU64,
    conflict_prunes: AtomicU64,
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
        self.lps_solved.fetch_add(1, Ordering::Relaxed);
        self.sparse_pivots.fetch_add(pivots, Ordering::Relaxed);
        match warm_depth {
            Some(d) => {
                self.warm_start_hits.fetch_add(1, Ordering::Relaxed);
                self.basis_reuse_depth.fetch_max(d, Ordering::Relaxed);
            }
            None => {
                self.warm_start_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Note a separation decided by the integer perceptron fast path.
    pub fn record_perceptron_hit(&self) {
        self.perceptron_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Note an instance (or column subset) refuted by the cheap
    /// duplicate-vector/opposite-label conflict scan, skipping the LP
    /// (and, in the subset search, the projection) entirely.
    pub fn record_conflict_prune(&self) {
        self.conflict_prunes.fetch_add(1, Ordering::Relaxed);
    }

    /// These counters as an [`LpStats`] (with `bignum_promotions` 0 —
    /// see the type-level note).
    pub fn snapshot(&self) -> LpStats {
        LpStats {
            lps_solved: self.lps_solved.load(Ordering::Relaxed),
            simplex_pivots: 0,
            sparse_pivots: self.sparse_pivots.load(Ordering::Relaxed),
            warm_start_hits: self.warm_start_hits.load(Ordering::Relaxed),
            warm_start_misses: self.warm_start_misses.load(Ordering::Relaxed),
            basis_reuse_depth: self.basis_reuse_depth.load(Ordering::Relaxed),
            perceptron_hits: self.perceptron_hits.load(Ordering::Relaxed),
            bignum_promotions: 0,
            conflict_prunes: self.conflict_prunes.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (and the reuse-depth high-water mark).
    pub fn reset(&self) {
        for c in [
            &self.lps_solved,
            &self.sparse_pivots,
            &self.warm_start_hits,
            &self.warm_start_misses,
            &self.basis_reuse_depth,
            &self.perceptron_hits,
            &self.conflict_prunes,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time aggregate of the LP engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Simplex solves run (perceptron hits excluded — a fast-path hit
    /// never builds an LP).
    pub lps_solved: u64,
    /// Always 0: every pivot is counted in [`LpStats::sparse_pivots`].
    /// Kept because the benchmark under `perfbench/`, a separate
    /// workspace, reads it and sums it with `sparse_pivots`.
    pub simplex_pivots: u64,
    /// Revised-simplex pivots across all LP solves: the engine's total
    /// pivot work.
    pub sparse_pivots: u64,
    /// Sparse solves that started from a reused (warm) basis.
    pub warm_start_hits: u64,
    /// Sparse solves that cold-started (no warm basis available, or the
    /// offered basis was singular/infeasible for the new instance).
    pub warm_start_misses: u64,
    /// High-water mark of the S → S ∪ {j} basis-reuse chain length (a
    /// gauge, not a counter: `since` passes it through unchanged).
    pub basis_reuse_depth: u64,
    /// Separations decided by the integer perceptron without an LP.
    pub perceptron_hits: u64,
    /// Hybrid-rational values that overflowed the inline `i64`
    /// representation and promoted to `BigRational`.
    pub bignum_promotions: u64,
    /// Instances refuted by the duplicate-row conflict scan, skipping
    /// the LP (and, in the subset search, the projection) entirely.
    pub conflict_prunes: u64,
}

impl LpStats {
    /// Counter deltas since an earlier snapshot (saturating, so a
    /// concurrent reset cannot produce bogus huge values).
    pub fn since(&self, earlier: &LpStats) -> LpStats {
        LpStats {
            lps_solved: self.lps_solved.saturating_sub(earlier.lps_solved),
            simplex_pivots: self.simplex_pivots.saturating_sub(earlier.simplex_pivots),
            sparse_pivots: self.sparse_pivots.saturating_sub(earlier.sparse_pivots),
            warm_start_hits: self.warm_start_hits.saturating_sub(earlier.warm_start_hits),
            warm_start_misses: self
                .warm_start_misses
                .saturating_sub(earlier.warm_start_misses),
            // A gauge, not a counter: the later high-water mark already
            // covers the interval, so pass it through unsubtracted.
            basis_reuse_depth: self.basis_reuse_depth,
            perceptron_hits: self.perceptron_hits.saturating_sub(earlier.perceptron_hits),
            bignum_promotions: self
                .bignum_promotions
                .saturating_sub(earlier.bignum_promotions),
            conflict_prunes: self.conflict_prunes.saturating_sub(earlier.conflict_prunes),
        }
    }

    /// Human-readable multi-line report (used by the CLI's `--stats`).
    pub fn report(&self) -> String {
        let decided = self.lps_solved + self.perceptron_hits + self.conflict_prunes;
        let fast = self.perceptron_hits + self.conflict_prunes;
        let fast_rate = if decided == 0 {
            0.0
        } else {
            fast as f64 / decided as f64 * 100.0
        };
        format!(
            "lp engine stats:\n\
             \x20 LPs solved:          {}\n\
             \x20 simplex pivots:      {}\n\
             \x20 warm-start hits:     {}\n\
             \x20 warm-start misses:   {}\n\
             \x20 basis reuse depth:   {}\n\
             \x20 perceptron hits:     {}\n\
             \x20 conflict prunes:     {}\n\
             \x20 bignum promotions:   {}\n\
             \x20 fast-path rate:      {fast_rate:.1}%",
            self.lps_solved,
            self.sparse_pivots,
            self.warm_start_hits,
            self.warm_start_misses,
            self.basis_reuse_depth,
            self.perceptron_hits,
            self.conflict_prunes,
            self.bignum_promotions,
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
