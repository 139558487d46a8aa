//! E9 — `CQ[m]`-Sep[*] (Proposition 6.9: NP-complete even for fixed
//! arity): the column-subset search as the dimension budget varies.

use cq::EnumConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::alternating_paths;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E9_sep_star");
    g.sample_size(10);
    let t = alternating_paths(4);
    for ell in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::new("cqm_sep_ell", ell), &ell, |b, &ell| {
            b.iter(|| {
                black_box(
                    cqsep::sep_dim::cqm_sep_dim_in(&ctx, &t, &EnumConfig::cqm(4), ell).unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
