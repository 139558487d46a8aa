//! Speedup acceptance tests for the homomorphism engine on an n≥32
//! synthetic workload.
//!
//! * Memoization: a warm memo-table sweep must beat the uncached
//!   sequential sweep by ≥2× — this holds on any host, single-core
//!   included, because a cache hit replaces an NP search with a hash
//!   lookup.
//! * Parallelism: with ≥4 cores, the parallel driver must run an
//!   embarrassingly-parallel batch of searches ≥2× faster than the
//!   sequential loop. Skipped (with a note) on hosts without enough
//!   cores, where no wall-clock win is physically available.

use bench::time_median;
use engine::Interrupt;
use relational::hom::par::par_map;
use relational::{homomorphism_exists, HomCache, Val};
use workloads::cycle_with_chords;

const N: usize = 32;

fn all_pairs(t: &relational::TrainingDb) -> Vec<(Val, Val)> {
    let ents = t.entities();
    ents.iter()
        .flat_map(|&a| ents.iter().map(move |&b| (a, b)))
        .collect()
}

#[test]
fn warm_cache_sweep_is_at_least_2x_faster() {
    let t = cycle_with_chords(N, N / 3, 5);
    let pairs = all_pairs(&t);
    assert!(
        t.entities().len() >= 32,
        "workload must have n >= 32 entities"
    );

    let sequential = time_median(3, || {
        let mut acc = 0usize;
        for &(a, b) in &pairs {
            acc += homomorphism_exists(&t.db, &t.db, &[(a, b)]) as usize;
        }
        std::hint::black_box(acc);
    });

    let cache = HomCache::new();
    let exists = |a: Val, b: Val| {
        cache
            .exists(&t.db, &t.db, &[(a, b)], None, &Interrupt::none())
            .unwrap()
    };
    // Charge the cache once (the same cost as one sequential sweep)…
    for &(a, b) in &pairs {
        exists(a, b);
    }
    // …then every further sweep is pure lookups.
    let warm = time_median(3, || {
        let mut acc = 0usize;
        for &(a, b) in &pairs {
            acc += exists(a, b) as usize;
        }
        std::hint::black_box(acc);
    });

    assert!(
        cache.counts().hits >= 3 * pairs.len() as u64,
        "sweeps must hit the memo table"
    );
    assert!(
        warm * 2.0 < sequential,
        "warm cache sweep must be >=2x faster: warm={warm:.6}s sequential={sequential:.6}s"
    );
}

#[test]
fn parallel_driver_is_at_least_2x_faster_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping: only {cores} core(s) available, no parallel win possible");
        return;
    }
    let t = cycle_with_chords(N, N / 3, 5);
    let pairs = all_pairs(&t);

    let sequential = time_median(3, || {
        let out: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| homomorphism_exists(&t.db, &t.db, &[(a, b)]))
            .collect();
        std::hint::black_box(out);
    });
    let parallel = time_median(3, || {
        let out = par_map(&pairs, None, |&(a, b)| {
            homomorphism_exists(&t.db, &t.db, &[(a, b)])
        });
        std::hint::black_box(out);
    });

    assert!(
        parallel * 2.0 < sequential,
        "parallel driver must be >=2x faster on {cores} cores: \
         parallel={parallel:.6}s sequential={sequential:.6}s"
    );
}
