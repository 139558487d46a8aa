//! Speedup acceptance test for the cover-game engine, mirroring
//! `engine_speedup.rs` one layer up: a second `CoverPreorder` sweep over
//! the same database — answered from the memo table and fanned out on the
//! parallel driver — must beat the cold sequential uncached sweep by ≥2×.
//! The exact cache-accounting assertions run on every host; only the
//! timing comparison is skipped (with a note) on hosts with fewer than 4
//! cores, matching the hom-engine parallel test.

use bench::{time_median, with_engine_stats};
use covergame::CoverPreorder;
use cqsep::Engine;
use workloads::cycle_with_chords;

const N: usize = 16;
const K: usize = 1;

#[test]
fn warm_preorder_sweep_is_at_least_2x_faster() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = cycle_with_chords(N, N / 3, 5);
    let elems = t.entities();
    assert!(elems.len() >= N, "workload must have n >= {N} entities");

    // Charge an isolated engine with one sweep (the same n² games the
    // sequential sweep plays). On an isolated engine the accounting is
    // exact: every cold-sweep miss is exactly one game analysis…
    let engine = Engine::new();
    let (reference, cold_stats) =
        with_engine_stats(&engine, || engine.ctx().preorder(&t.db, &elems, K).unwrap());
    let queries = cold_stats.game.cache_hits + cold_stats.game.cache_misses;
    assert!(
        cold_stats.game.cache_misses > 0,
        "cold sweep must solve games"
    );
    assert_eq!(
        cold_stats.game.games_solved, cold_stats.game.cache_misses,
        "every cold miss is exactly one analysis: {cold_stats:?}"
    );
    // All n² games share the sweep's one skeleton, so its position
    // tables are built once, by whichever game runs first.
    assert_eq!(cold_stats.game.tables_built, 1, "{cold_stats:?}");
    // …and every further sweep is a skeleton build plus pure lookups:
    // the same `queries` game queries, all hits, zero new analyses.
    let (_, warm_stats) =
        with_engine_stats(&engine, || engine.ctx().preorder(&t.db, &elems, K).unwrap());
    assert_eq!(warm_stats.game.games_solved, 0, "{warm_stats:?}");
    assert_eq!(warm_stats.game.cache_misses, 0, "{warm_stats:?}");
    assert_eq!(warm_stats.game.fixpoint_sweeps, 0, "{warm_stats:?}");
    // No miss, so the warm sweep's skeleton never builds its tables.
    assert_eq!(warm_stats.game.tables_built, 0, "{warm_stats:?}");
    assert_eq!(warm_stats.game.cache_hits, queries, "{warm_stats:?}");

    // And the fast path must compute the same preorder.
    let seq = CoverPreorder::compute_seq(&t.db, &elems, K);
    assert_eq!(seq.leq, reference.leq, "cached/parallel sweep must agree");

    if cores < 4 {
        eprintln!("skipping speedup timing: only {cores} core(s) available");
        return;
    }
    let cold_sequential = time_median(3, || {
        std::hint::black_box(CoverPreorder::compute_seq(&t.db, &elems, K));
    });
    let warm = time_median(3, || {
        std::hint::black_box(engine.ctx().preorder(&t.db, &elems, K).unwrap());
    });
    assert!(
        warm * 2.0 < cold_sequential,
        "warm parallel sweep must be >=2x faster: \
         warm={warm:.6}s cold_sequential={cold_sequential:.6}s"
    );
}
