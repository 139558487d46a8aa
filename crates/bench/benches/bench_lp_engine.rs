//! E12: LP-engine microbenchmarks.
//!
//! Two axes, mirroring the engine changes:
//!
//! * `big_simplex` vs `rat_simplex` — the seed `BigRational` solver
//!   against the hybrid small/big `Rat` solver with in-place pivoting
//!   and per-row integer rescaling, on identical dense LP batches.
//! * `search_seq` vs `search_par` — the sequential depth-first
//!   ≤ℓ-subset sweep against the parallel size-ascending sweep with
//!   conflict pre-checks, on an XOR-labelled column matrix where no
//!   small subset separates (the sweep's worst case).

use bench::{lp_batch, search_workload};
use cqsep::sep_dim::{search_columns_in, search_columns_seq_in};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use linsep::{solve_lp, solve_lp_big};
use numeric::BigRational;

type BigLp = (Vec<Vec<BigRational>>, Vec<BigRational>, Vec<BigRational>);

fn bench(c: &mut Criterion) {
    let engine = Engine::new();
    let ctx = engine.ctx();
    let mut g = c.benchmark_group("E12_lp_engine");
    g.sample_size(10);

    for &nvars in &[4usize, 8] {
        let batch = lp_batch(8, nvars, 2 * nvars, 0xC0FFEE + nvars as u64);
        let big_batch: Vec<BigLp> = batch
            .iter()
            .map(|(a, b, cc)| {
                (
                    a.iter()
                        .map(|row| row.iter().map(|x| x.to_big()).collect())
                        .collect(),
                    b.iter().map(|x| x.to_big()).collect(),
                    cc.iter().map(|x| x.to_big()).collect(),
                )
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("big_simplex", nvars),
            &big_batch,
            |bm, batch| {
                bm.iter(|| {
                    for (a, b, cc) in batch {
                        black_box(solve_lp_big(a, b, cc));
                    }
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("rat_simplex", nvars),
            &batch,
            |bm, batch| {
                bm.iter(|| {
                    for (a, b, cc) in batch {
                        black_box(solve_lp(a, b, cc));
                    }
                })
            },
        );
    }

    for &nbits in &[3usize, 4] {
        let t = search_workload(nbits);
        g.bench_with_input(BenchmarkId::new("search_seq", nbits), &t, |bm, t| {
            bm.iter(|| black_box(search_columns_seq_in(&ctx, &t.0, &t.1, 3).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("search_par", nbits), &t, |bm, t| {
            bm.iter(|| black_box(search_columns_in(&ctx, &t.0, &t.1, 3).unwrap()))
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
