//! E2 — unrestricted CQ-Sep (the coNP baseline of Theorem 3.2) against
//! GHW(1)-Sep on the same chorded-cycle instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::cycle_with_chords;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E2_cq_sep");
    g.sample_size(10);
    for n in [10usize, 16, 24, 32] {
        let t = cycle_with_chords(n, n / 3, 5);
        g.bench_with_input(BenchmarkId::new("cq", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::sep_cq::cq_separable_in(&ctx, t).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("ghw1", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::sep_ghw::ghw_separable_in(&ctx, t, 1).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
