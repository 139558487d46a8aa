//! Counter-accounting regression for the generalization harness: the
//! engine figures the bench tables are built from (`LpStats` including
//! the warm-start `BasisStore` traffic, hom-search and game counters)
//! must *add up* — per-fit deltas summed across a harness run equal the
//! totals of the identical run measured as one block on a fresh engine,
//! and the warm-start hit/miss split stays within the LP count.

use bench::{search_workload, with_engine_stats};
use cqsep::generalize::{evaluate_in, FitMethod};
use cqsep::sep_dim::search_columns_in;
use cqsep::Engine;
use linsep::LpStats;
use workloads::{family_by_name, planted_split, SampleConfig};

fn methods() -> Vec<FitMethod> {
    vec![
        FitMethod::Cqm(1),
        FitMethod::Cqm(2),
        FitMethod::Ghw(1),
        FitMethod::Sep { m: 2, ell: 1 },
        FitMethod::Sep { m: 2, ell: 2 },
        FitMethod::MinError(2),
    ]
}

/// The noisy two-cycle instance: inseparable at every exact tier, so
/// the `Sep[ℓ]` sweeps exhaust their subset space, the conflict pruner
/// fires, and the min-error branch-and-bound runs a real search.
fn noisy_split() -> workloads::PlantedSplit {
    let family = family_by_name("two_cycle").unwrap();
    let cfg = SampleConfig {
        train_n: 20,
        test_n: 12,
        density: family.default_density,
        noise: 0.2,
        seed: 33,
    };
    planted_split(&family, &cfg)
}

/// Accumulate the additive figures; `basis_reuse_depth` is a gauge
/// (high-water mark, passed through unchanged by delta captures), so it
/// is tracked as a running max instead of a sum.
fn add(into: &mut LpStats, s: &LpStats) {
    into.lps_solved += s.lps_solved;
    into.simplex_pivots += s.simplex_pivots;
    into.sparse_pivots += s.sparse_pivots;
    into.warm_start_hits += s.warm_start_hits;
    into.warm_start_misses += s.warm_start_misses;
    into.basis_reuse_depth = into.basis_reuse_depth.max(s.basis_reuse_depth);
    into.perceptron_hits += s.perceptron_hits;
    into.conflict_prunes += s.conflict_prunes;
}

fn assert_lp_eq(summed: &LpStats, total: &LpStats) {
    assert_eq!(summed.lps_solved, total.lps_solved, "lps_solved");
    assert_eq!(
        summed.simplex_pivots, total.simplex_pivots,
        "simplex_pivots"
    );
    assert_eq!(summed.sparse_pivots, total.sparse_pivots, "sparse_pivots");
    assert_eq!(
        summed.warm_start_hits, total.warm_start_hits,
        "warm_start_hits"
    );
    assert_eq!(
        summed.warm_start_misses, total.warm_start_misses,
        "warm_start_misses"
    );
    // The gauge is monotone on one engine, so the running max across
    // per-call captures is the block run's final high-water mark.
    assert_eq!(
        summed.basis_reuse_depth, total.basis_reuse_depth,
        "basis_reuse_depth"
    );
    assert_eq!(
        summed.perceptron_hits, total.perceptron_hits,
        "perceptron_hits"
    );
    assert_eq!(
        summed.conflict_prunes, total.conflict_prunes,
        "conflict_prunes"
    );
}

#[test]
fn per_fit_deltas_sum_to_isolated_engine_totals() {
    let split = noisy_split();

    // Leg 1: one isolated single-threaded engine, one `with_engine_stats`
    // capture per fit, deltas accumulated by hand. Single-threaded so the
    // subset sweep's early-exit race cannot blur the counts.
    let per_call = Engine::new().with_threads(1);
    let mut lp = LpStats::default();
    let (mut homs, mut games) = (0u64, 0u64);
    for method in methods() {
        let (r, stats) = with_engine_stats(&per_call, || {
            evaluate_in(&per_call.ctx(), &split.train, &split.test, method).unwrap()
        });
        assert_eq!(r.test_size(), 12, "{method}");
        // Every warm-capable LP is either a hit or a miss, and only LPs
        // can be warm-started: the split stays within the LP count.
        assert!(
            stats.lp.warm_start_hits + stats.lp.warm_start_misses <= stats.lp.lps_solved,
            "{method}: warm {}+{} > lps {}",
            stats.lp.warm_start_hits,
            stats.lp.warm_start_misses,
            stats.lp.lps_solved
        );
        add(&mut lp, &stats.lp);
        homs += stats.hom.solves;
        games += stats.game.games_solved;
    }

    // Leg 2: the identical run measured as one block on a fresh engine
    // with the same configuration. Counters are plain sums, the run is
    // deterministic, both cache stacks start cold: the totals must match
    // figure for figure. (`bignum_promotions` is excluded — it is the
    // one process-global figure `with_engine_stats` cannot attribute.)
    let block = Engine::new().with_threads(1);
    let (_, total) = with_engine_stats(&block, || {
        for method in methods() {
            std::hint::black_box(
                evaluate_in(&block.ctx(), &split.train, &split.test, method).unwrap(),
            );
        }
    });
    assert_lp_eq(&lp, &total.lp);
    assert_eq!(homs, total.hom.solves, "hom solves");
    assert_eq!(games, total.game.games_solved, "games solved");

    // Non-vacuity: at harness scale the separation decisions are made by
    // the conflict pruner and the integer perceptron (a conflicted column
    // pair kills a subset before any tableau is built), and the fits do
    // real hom/game work — the sums above must be about *something*.
    assert!(lp.conflict_prunes > 0, "{lp:?}");
    assert!(lp.perceptron_hits > 0, "{lp:?}");
    assert!(games > 0);
}

/// The same two-leg accounting under genuine LP traffic: the parity
/// workload's columns are inseparable without ever conflicting, so the
/// exhausted adaptive sweep solves LPs throughout and the `BasisStore`
/// warm-start path fires — its hit/miss counters must sum exactly like
/// the rest. Single-threaded engines keep the S → S ∪ {j} reuse chains
/// deterministic. Guards the warm plumbing the speedup bench reports on.
#[test]
fn warm_start_traffic_sums_consistently_across_sweeps() {
    let (columns, labels) = search_workload(4);

    let per_call = Engine::new().with_threads(1);
    let mut lp = LpStats::default();
    for ell in [2usize, 3] {
        let (verdict, stats) = with_engine_stats(&per_call, || {
            search_columns_in(&per_call.ctx(), &columns, &labels, ell).unwrap()
        });
        assert!(verdict.is_none(), "parity is not {ell}-separable");
        assert!(
            stats.lp.warm_start_hits + stats.lp.warm_start_misses <= stats.lp.lps_solved,
            "ell={ell}: {:?}",
            stats.lp
        );
        add(&mut lp, &stats.lp);
    }

    let block = Engine::new().with_threads(1);
    let (_, total) = with_engine_stats(&block, || {
        for ell in [2usize, 3] {
            std::hint::black_box(search_columns_in(&block.ctx(), &columns, &labels, ell).unwrap());
        }
    });
    assert_lp_eq(&lp, &total.lp);

    assert!(lp.lps_solved > 0, "{lp:?}");
    assert!(
        lp.warm_start_hits > 0,
        "exhausted parity sweeps must warm-start: {lp:?}"
    );
}

/// The harness sweep on a parallel engine: totals may be reached through
/// a different schedule, but the structural invariants hold regardless.
#[test]
fn parallel_harness_counters_stay_structurally_consistent() {
    let split = noisy_split();
    let engine = Engine::new();
    let (_, stats) = with_engine_stats(&engine, || {
        for method in methods() {
            std::hint::black_box(
                evaluate_in(&engine.ctx(), &split.train, &split.test, method).unwrap(),
            );
        }
    });
    assert!(stats.game.games_solved > 0);
    assert!(
        stats.lp.warm_start_hits + stats.lp.warm_start_misses <= stats.lp.lps_solved,
        "{:?}",
        stats.lp
    );
    // Warm hits reuse a stored basis: reuse depth only accumulates on
    // hits.
    if stats.lp.warm_start_hits == 0 {
        assert_eq!(stats.lp.basis_reuse_depth, 0, "{:?}", stats.lp);
    }
}
