//! E10 — the homomorphism engine itself: sequential solver vs the
//! memoized (and, on multi-core hosts, parallel) pipeline entry points,
//! on the n=32 chorded-cycle workload whose pairwise sweeps dominate
//! CQ-Sep. The cached runs answer repeat queries from the memo table;
//! `repro e10` prints the corresponding speedup table with counters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use relational::{homomorphism_exists, HomCache};
use std::hint::black_box;
use workloads::cycle_with_chords;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E10_hom_engine");
    g.sample_size(10);
    for n in [16usize, 32, 48] {
        let t = cycle_with_chords(n, n / 3, 5);
        let pairs = t.opposing_pairs();
        g.bench_with_input(BenchmarkId::new("sequential", n), &t, |b, t| {
            b.iter(|| {
                black_box(pairs.iter().all(|&(p, q)| {
                    !(homomorphism_exists(&t.db, &t.db, &[(p, q)])
                        && homomorphism_exists(&t.db, &t.db, &[(q, p)]))
                }))
            })
        });
        g.bench_with_input(BenchmarkId::new("cached_cold", n), &t, |b, t| {
            b.iter(|| {
                let cache = HomCache::new();
                black_box(pairs.iter().all(|&(p, q)| {
                    !(cache.exists(&t.db, &t.db, &[(p, q)])
                        && cache.exists(&t.db, &t.db, &[(q, p)]))
                }))
            })
        });
        g.bench_with_input(BenchmarkId::new("cached_warm", n), &t, |b, t| {
            // Warm the engine's cache once; iterations then measure pure
            // memo-table lookups.
            black_box(cqsep::sep_cq::cq_separable_in(&ctx, t).unwrap());
            b.iter(|| {
                black_box(pairs.iter().all(|&(p, q)| {
                    !(ctx.hom_exists(&t.db, &t.db, &[(p, q)]).unwrap()
                        && ctx.hom_exists(&t.db, &t.db, &[(q, p)]).unwrap())
                }))
            })
        });
        g.bench_with_input(BenchmarkId::new("pipeline", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::sep_cq::cq_separable_in(&ctx, t).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
