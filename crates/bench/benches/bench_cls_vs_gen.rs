//! E5 — Algorithm 1 (classification without materialization) vs explicit
//! generation (Proposition 5.6) on the alternating-chain family: the
//! paper's central asymmetry (§5.2 vs §5.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use std::hint::black_box;
use workloads::alternating_paths;

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E5_cls_vs_gen");
    g.sample_size(10);
    for m in [4usize, 6, 8] {
        let t = alternating_paths(m);
        let eval = alternating_paths(m + 1).db;
        g.bench_with_input(BenchmarkId::new("classify", m), &t, |b, t| {
            b.iter(|| {
                black_box(
                    cqsep::cls_ghw::ghw_classify_in(&ctx, t, &eval, 1)
                        .unwrap()
                        .unwrap(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("generate", m), &t, |b, t| {
            b.iter(|| {
                black_box(
                    cqsep::gen_ghw::ghw_generate_in(&ctx, t, 1, 10_000_000)
                        .unwrap()
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
