//! E1 — `GHW(k)`-Sep runtime vs database size (Theorem 5.3: PTIME).
//! The series' growth must look polynomial; compare k = 1 vs k = 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::random_digraph_train;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E1_ghw_sep");
    g.sample_size(10);
    for n in [8usize, 12, 16, 24] {
        let t = random_digraph_train(n, 2.0 / n as f64, 11);
        g.bench_with_input(BenchmarkId::new("k1", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::sep_ghw::ghw_separable_in(&ctx, t, 1).unwrap()))
        });
        if n <= 12 {
            g.bench_with_input(BenchmarkId::new("k2", n), &t, |b, t| {
                b.iter(|| black_box(cqsep::sep_ghw::ghw_separable_in(&ctx, t, 2).unwrap()))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
