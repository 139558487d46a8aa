//! E8 — FO-Sep (automorphism orbits; GI-complete per Corollary 8.2) vs
//! CQ-Sep on the same instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::random_digraph_train;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E8_fo");
    g.sample_size(10);
    for n in [8usize, 12, 16] {
        let t = random_digraph_train(n, 2.0 / n as f64, 31);
        g.bench_with_input(BenchmarkId::new("fo", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::fo::fo_separable(t)))
        });
        g.bench_with_input(BenchmarkId::new("cq", n), &t, |b, t| {
            b.iter(|| black_box(cqsep::sep_cq::cq_separable_in(&ctx, t).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
