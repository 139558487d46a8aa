//! E7 — approximate separability (Theorem 7.4): Algorithm 2's runtime
//! stays polynomial across noise levels and sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::{flip_labels, random_digraph_train};

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E7_apx");
    g.sample_size(10);
    for n in [10usize, 16, 24] {
        let clean = random_digraph_train(n, 2.0 / n as f64, 77);
        let (noisy, _) = flip_labels(&clean, 0.2, 13);
        g.bench_with_input(BenchmarkId::new("algorithm2", n), &noisy, |b, t| {
            b.iter(|| black_box(cqsep::apx::ghw_min_errors_in(&ctx, t, 1).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
