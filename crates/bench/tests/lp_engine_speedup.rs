//! Speedup acceptance test for the exact LP engine: the sparse revised
//! simplex over hybrid small/big `Rat` must beat the seed `BigRational`
//! dense simplex on identical margin-LP batches, the warm-started
//! size-ascending subset sweep must beat the cold depth-first reference
//! on the sweep-exhausting parity workload, and the adaptive parallel
//! ≤ℓ-subset sweep must never lose to the sequential reference (on
//! single-core hosts it *is* the sequential path — that is the adaptive
//! fallback under test). All comparisons are verified for agreement
//! before they are timed, and the measured times plus the engine
//! counters are recorded in `BENCH_lp.json` at the repository root.
//!
//! Core-count honesty: the JSON records the host's
//! `available_parallelism` and the engine's effective thread budget as
//! separate fields, and the parallel-speedup assertion is *skipped with
//! a printed note* — never silently passed, never failed — when the
//! host cannot express parallelism (fewer than 2 cores).

use bench::{search_workload, time_median, with_engine_stats};
use cqsep::sep_dim::{search_columns_in, search_columns_seq_with};
use cqsep::Engine;
use engine::Interrupt;
use linsep::{
    has_label_conflict, margin_lp, solve_lp_big, solve_lp_big_counted, solve_lp_sparse,
    solve_lp_sparse_with_pricing, LpCounters, LpOutcomeBig, LpStats, Pricing, SparseOutcome,
};
use numeric::{BigRational, Rat};

type RatLp = (Vec<Vec<Rat>>, Vec<Rat>, Vec<Rat>);
type BigLp = (Vec<Vec<BigRational>>, Vec<BigRational>, Vec<BigRational>);

/// The first `count` margin LPs the subset sweep solves on `columns` /
/// `labels`: one per conflict-free 3-column subset, in lexicographic
/// order (conflicting subsets are refuted before any LP exists).
fn margin_lp_batch(columns: &[Vec<i32>], labels: &[i32], count: usize) -> Vec<RatLp> {
    let mut batch = Vec::with_capacity(count);
    let k = columns.len();
    'outer: for i in 0..k {
        for j in i + 1..k {
            for l in j + 1..k {
                let rows: Vec<Vec<i32>> = (0..labels.len())
                    .map(|r| vec![columns[i][r], columns[j][r], columns[l][r]])
                    .collect();
                if has_label_conflict(&rows, labels) {
                    continue;
                }
                batch.push(margin_lp(&rows, labels));
                if batch.len() == count {
                    break 'outer;
                }
            }
        }
    }
    batch
}

#[test]
fn hybrid_lp_engine_beats_seed_path() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let effective_threads = Engine::new().effective_parallelism();
    let intr = Interrupt::none();

    // ---- Leg 1: sparse revised Rat simplex vs seed BigRational simplex ----
    let (columns, labels) = search_workload(4);
    let batch = margin_lp_batch(&columns, &labels, 24);
    assert_eq!(batch.len(), 24, "the parity workload has enough LPs");
    let big_batch: Vec<BigLp> = batch
        .iter()
        .map(|(a, b, c)| {
            (
                a.iter()
                    .map(|row| row.iter().map(|x| x.to_big()).collect())
                    .collect(),
                b.iter().map(|x| x.to_big()).collect(),
                c.iter().map(|x| x.to_big()).collect(),
            )
        })
        .collect();

    // Agreement before speed: under Bland pricing the sparse solver
    // replays the oracle's pivot sequence, so vertex and pivot count
    // must match exactly; the production (partial) pricing must reach
    // the same optimal value.
    for ((a, b, c), (ab, bb, cb)) in batch.iter().zip(&big_batch) {
        let (LpOutcomeBig::Optimal { x: xb, value: vb }, big_pivots) =
            solve_lp_big_counted(ab, bb, cb)
        else {
            panic!("margin LPs are bounded and feasible");
        };
        let (out, report) = solve_lp_sparse_with_pricing(a, b, c, None, Pricing::Bland, &intr);
        let Ok(SparseOutcome::Optimal { x, value, .. }) = out else {
            panic!("sparse Bland solve must be optimal: {out:?}");
        };
        assert_eq!(value.to_big(), vb, "optimal values diverge");
        assert_eq!(x.len(), xb.len());
        for (xi, xbi) in x.iter().zip(&xb) {
            assert_eq!(xi.to_big(), *xbi, "optimal vertices diverge");
        }
        assert_eq!(report.pivots, big_pivots, "pivot sequences diverge");
        let Ok(SparseOutcome::Optimal { value, .. }) = solve_lp_sparse(a, b, c, None, &intr).0
        else {
            panic!("sparse solve must be optimal");
        };
        assert_eq!(value.to_big(), vb, "partial pricing reaches another value");
    }

    let big_lp_s = time_median(3, || {
        for (a, b, c) in &big_batch {
            std::hint::black_box(solve_lp_big(a, b, c));
        }
    });
    let counters = LpCounters::new();
    let promotions_before = numeric::rat::promotion_count();
    for (a, b, c) in &batch {
        let (out, report) = solve_lp_sparse(a, b, c, None, &intr);
        counters.record_sparse_lp(report.pivots, None);
        std::hint::black_box(out.unwrap());
    }
    let lp_stats = LpStats {
        bignum_promotions: numeric::rat::promotion_count() - promotions_before,
        ..counters.snapshot()
    };
    let rat_lp_s = time_median(3, || {
        for (a, b, c) in &batch {
            std::hint::black_box(solve_lp_sparse(a, b, c, None, &intr).0.unwrap());
        }
    });
    // Conservative floor: the sparse Rat solver is typically many times
    // faster than the BigRational one.
    assert!(
        rat_lp_s * 1.1 < big_lp_s,
        "sparse Rat simplex must beat the seed solver: rat={rat_lp_s:.6}s big={big_lp_s:.6}s"
    );

    // ---- Leg 2: adaptive subset sweep vs sequential reference ----
    // Each leg runs on its own isolated `Engine`, which makes the
    // counter accounting exact: the parity workload exhausts the sweep,
    // so both legs decide the identical multiset of column subsets and
    // their pre-LP tier counters must agree figure for figure. Pivot
    // counters are *not* compared: the sweep warm-starts the sparse
    // solver while the DFS reference cold-starts every LP, so identical
    // verdicts are reached through different pivot counts — that gap is
    // the optimization.
    let par_engine = Engine::new();
    let seq_engine = Engine::new();
    let (par_verdict, par_stats) = with_engine_stats(&par_engine, || {
        search_columns_in(&par_engine.ctx(), &columns, &labels, 3).unwrap()
    });
    let (seq_verdict, seq_stats) = with_engine_stats(&seq_engine, || {
        search_columns_seq_with(&seq_engine, &columns, &labels, 3)
    });
    assert!(
        seq_verdict.is_none() && par_verdict.is_none(),
        "parity workload must exhaust the sweep: seq={seq_verdict:?} par={par_verdict:?}"
    );
    let sweep_stats = par_stats.lp;
    assert!(
        sweep_stats.conflict_prunes >= 1 && sweep_stats.lps_solved >= 1,
        "sweep must mix cheap prunes and real LPs: {sweep_stats:?}"
    );
    assert_eq!(
        (
            sweep_stats.lps_solved,
            sweep_stats.perceptron_hits,
            sweep_stats.conflict_prunes,
        ),
        (
            seq_stats.lp.lps_solved,
            seq_stats.lp.perceptron_hits,
            seq_stats.lp.conflict_prunes,
        ),
        "exhausting sweeps must decide identical subset multisets"
    );
    assert!(
        sweep_stats.warm_start_hits >= 1,
        "the 119-LP sweep must land warm starts: {sweep_stats:?}"
    );
    for st in [&par_stats, &seq_stats] {
        assert_eq!(st.hom.solves, 0, "pure LP sweep touched the hom engine");
        assert_eq!(
            st.game.games_solved, 0,
            "pure LP sweep touched the game engine"
        );
        assert_eq!(st.restored_entries, 0, "nothing was loaded from disk");
    }
    let seq_sweep_s = time_median(5, || {
        std::hint::black_box(search_columns_seq_with(&seq_engine, &columns, &labels, 3));
    });
    let par_sweep_s = time_median(5, || {
        std::hint::black_box(search_columns_in(&par_engine.ctx(), &columns, &labels, 3).unwrap());
    });
    if cores >= 4 {
        // Close to linear in cores on this workload; assert a floor.
        assert!(
            par_sweep_s * 1.2 < seq_sweep_s,
            "parallel sweep must beat sequential: par={par_sweep_s:.6}s seq={seq_sweep_s:.6}s"
        );
    } else if cores >= 2 {
        eprintln!(
            "note: only {cores} cores — requiring parity with sequential, not a speedup floor"
        );
    } else {
        eprintln!("skipping parallel-sweep speedup assertion: only {cores} core(s) available");
    }
    // The adaptive guard holds on every host: when real parallelism is
    // unavailable the sweep must take the direct sequential path, so it
    // can never lose badly to the sequential reference. This is the
    // regression test for the historical 0.82× parallel slowdown.
    assert!(
        par_sweep_s <= seq_sweep_s * 1.1,
        "adaptive sweep lost to sequential: par={par_sweep_s:.6}s seq={seq_sweep_s:.6}s"
    );

    // ---- Leg 3: warm size-ascending sweep vs cold depth-first reference ----
    // Leg 2 already established that both decide the identical subset
    // multiset; the warm sweep, which reuses each subset's optimal basis
    // and skips the perceptron when a basis is on offer, must be strictly
    // faster than the cold reference that solves every subset from
    // scratch. On single-core hosts the sweep is the sequential path, so
    // this isolates the warm-start win from parallelism.
    let warm_engine = Engine::new().with_threads(1);
    let warm_sweep_s = time_median(5, || {
        std::hint::black_box(search_columns_in(&warm_engine.ctx(), &columns, &labels, 3).unwrap());
    });
    assert!(
        warm_sweep_s < seq_sweep_s,
        "warm sweep must beat the cold reference: warm={warm_sweep_s:.6}s cold={seq_sweep_s:.6}s"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"available_parallelism\": {cores},\n",
            "  \"effective_threads\": {threads},\n",
            "  \"lp_batch\": {{\n",
            "    \"instances\": {instances},\n",
            "    \"big_rational_s\": {big_lp_s:.6},\n",
            "    \"sparse_rat_s\": {rat_lp_s:.6},\n",
            "    \"speedup\": {batch_speedup:.2},\n",
            "    \"lps_solved\": {batch_lps},\n",
            "    \"sparse_pivots\": {batch_pivots},\n",
            "    \"bignum_promotions\": {batch_promotions}\n",
            "  }},\n",
            "  \"subset_sweep\": {{\n",
            "    \"columns\": {ncols},\n",
            "    \"rows\": {nrows},\n",
            "    \"ell\": 3,\n",
            "    \"sequential_s\": {seq_sweep_s:.6},\n",
            "    \"parallel_s\": {par_sweep_s:.6},\n",
            "    \"speedup\": {sweep_speedup:.2},\n",
            "    \"conflict_prunes\": {prunes},\n",
            "    \"lps_solved\": {sweep_lps},\n",
            "    \"warm_start_hits\": {warm_hits},\n",
            "    \"warm_start_misses\": {warm_misses},\n",
            "    \"sparse_pivots\": {sparse_pivots},\n",
            "    \"basis_reuse_depth\": {reuse_depth},\n",
            "    \"warm_sequential_s\": {warm_sweep_s:.6},\n",
            "    \"warm_speedup\": {warm_speedup:.2}\n",
            "  }}\n",
            "}}\n",
        ),
        cores = cores,
        threads = effective_threads,
        instances = batch.len(),
        big_lp_s = big_lp_s,
        rat_lp_s = rat_lp_s,
        batch_speedup = big_lp_s / rat_lp_s,
        batch_lps = lp_stats.lps_solved,
        batch_pivots = lp_stats.sparse_pivots,
        batch_promotions = lp_stats.bignum_promotions,
        ncols = columns.len(),
        nrows = labels.len(),
        seq_sweep_s = seq_sweep_s,
        par_sweep_s = par_sweep_s,
        sweep_speedup = seq_sweep_s / par_sweep_s,
        prunes = sweep_stats.conflict_prunes,
        sweep_lps = sweep_stats.lps_solved,
        warm_hits = sweep_stats.warm_start_hits,
        warm_misses = sweep_stats.warm_start_misses,
        sparse_pivots = sweep_stats.sparse_pivots,
        reuse_depth = sweep_stats.basis_reuse_depth,
        warm_sweep_s = warm_sweep_s,
        warm_speedup = seq_sweep_s / warm_sweep_s,
    );
    // Debug builds run every leg but leave the tracked ledger alone; the
    // release run writes it.
    if cfg!(debug_assertions) {
        eprintln!("note: debug build — BENCH_lp.json untouched");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp.json");
    std::fs::write(path, json).expect("write BENCH_lp.json");
}
