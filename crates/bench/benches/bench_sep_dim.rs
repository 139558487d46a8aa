//! E6 — bounded-dimension separability Sep[ℓ] (Theorem 6.6 shape): the
//! up-set/QBE search cost as the entity count grows.

use cqsep::sep_dim::{cq_sep_dim_in, DimBudget};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::alternating_paths;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E6_sep_dim");
    g.sample_size(10);
    let budget = DimBudget::default();
    for m in [3usize, 4] {
        let t = alternating_paths(m);
        g.bench_with_input(BenchmarkId::new("cq_sep_ell", m), &t, |b, t| {
            b.iter(|| black_box(cq_sep_dim_in(&ctx, t, m - 1, &budget).unwrap().unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
