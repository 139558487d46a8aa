//! E3 — `CQ[m]`-Sep: polynomial in |D| for fixed m, exponential in m
//! (Proposition 4.1 / Corollary 4.2).

use cq::EnumConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::random_digraph_train;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E3_cqm_sep");
    g.sample_size(10);
    // Scaling in |D| at m = 2.
    for n in [8usize, 16, 32] {
        let t = random_digraph_train(n, 2.0 / n as f64, 3);
        g.bench_with_input(BenchmarkId::new("m2_scale_n", n), &t, |b, t| {
            b.iter(|| {
                black_box(cqsep::sep_cqm::cqm_separable_in(&ctx, t, &EnumConfig::cqm(2)).unwrap())
            })
        });
    }
    // Scaling in m at n = 10.
    let t = random_digraph_train(10, 0.2, 3);
    for m in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::new("scale_m", m), &m, |b, &m| {
            b.iter(|| {
                black_box(cqsep::sep_cqm::cqm_separable_in(&ctx, &t, &EnumConfig::cqm(m)).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
