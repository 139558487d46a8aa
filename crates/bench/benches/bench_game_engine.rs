//! E11 — the cover-game engine itself: the sequential uncached
//! `CoverPreorder` sweep vs the parallel memoized pipeline, on the
//! chorded-cycle workload whose n² game solves dominate GHW(k)-Sep.
//! The warm runs answer repeat games from the memo table; `--stats` on
//! the CLI prints the corresponding counters.

use covergame::{CoverPreorder, GameCache};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::cycle_with_chords;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E11_game_engine");
    g.sample_size(10);
    for n in [8usize, 12, 16] {
        let t = cycle_with_chords(n, n / 3, 5);
        let elems = t.entities();
        g.bench_with_input(BenchmarkId::new("sequential", n), &t, |b, t| {
            b.iter(|| black_box(CoverPreorder::compute_seq(&t.db, &elems, 1)))
        });
        g.bench_with_input(BenchmarkId::new("cached_cold", n), &t, |b, t| {
            b.iter(|| {
                let cache = GameCache::new();
                black_box(CoverPreorder::compute_with(&t.db, &elems, 1, &cache))
            })
        });
        g.bench_with_input(BenchmarkId::new("cached_warm", n), &t, |b, t| {
            // Charge an isolated cache once; iterations then measure the
            // skeleton build plus pure memo-table lookups.
            let cache = GameCache::new();
            black_box(CoverPreorder::compute_with(&t.db, &elems, 1, &cache));
            b.iter(|| black_box(CoverPreorder::compute_with(&t.db, &elems, 1, &cache)))
        });
        g.bench_with_input(BenchmarkId::new("pipeline", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::sep_ghw::ghw_separable_in(&ctx, t, 1).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
