//! Shared helpers for the benchmark harness: timing utilities,
//! growth-rate estimation, and engine counter capture (homomorphism,
//! cover-game, and LP), used by the release speedup tests and the
//! `repro` binary that regenerates the EXPERIMENTS.md tables.

use std::time::Instant;

/// Run `f` and return its result together with the unified counter
/// deltas (hom searches and cache traffic, cover games, LP decisions) it
/// caused on `engine`. On an isolated engine (one the caller constructed
/// itself) every figure except `lp.bignum_promotions` is exact and
/// attributable.
pub fn with_engine_stats<R>(
    engine: &engine::Engine,
    f: impl FnOnce() -> R,
) -> (R, engine::EngineStats) {
    let before = engine.stats();
    let out = f();
    (out, engine.stats().since(&before))
}

/// Deterministic "parity" column matrix for the subset-search benches.
/// Rows are the `2^nbits` bit vectors; candidate column `m` (every mask
/// except 0 and the full mask) is the ±1 parity of `row & m`; the label
/// is the full parity of the row. The label lies in a subset's XOR-span
/// iff some sub-family XORs to it, and an XOR of two or more ±1 columns
/// is never linearly separable — so every subset of at most three
/// columns fails, some by a cheap conflict prune and some only after a
/// full perceptron-plus-LP refutation. The sweep must exhaust the whole
/// size-ascending candidate space: the worst case the parallel driver
/// is built for, with a realistic mix of cheap and expensive subsets.
pub fn search_workload(nbits: usize) -> (Vec<Vec<i32>>, Vec<i32>) {
    assert!((2..=8).contains(&nbits));
    let nrows = 1usize << nbits;
    let full = nrows - 1;
    let parity = |x: usize| if (x.count_ones() & 1) == 0 { 1 } else { -1 };
    let columns: Vec<Vec<i32>> = (1..full)
        .map(|m| (0..nrows).map(|r| parity(r & m)).collect())
        .collect();
    let labels: Vec<i32> = (0..nrows).map(|r| parity(r & full)).collect();
    (columns, labels)
}

/// Median wall-clock time of `reps` runs of `f`, in seconds.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps >= 1);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Least-squares slope of log(y) against log(x): the empirical polynomial
/// degree of a scaling series. Exponential growth shows up as a degree
/// that keeps increasing with x; polynomial growth converges.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    assert!(n >= 2.0, "need at least two points");
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Successive doubling ratios `y_{i+1} / y_i` — the exponential-growth
/// fingerprint (roughly constant ratios > 1 mean exponential in i).
pub fn growth_ratios(ys: &[f64]) -> Vec<f64> {
    ys.windows(2).map(|w| w[1] / w[0].max(1e-12)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_is_two() {
        let pts: Vec<(f64, f64)> = (1..=6).map(|x| (x as f64, (x * x) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_exponential_grows() {
        let poly: Vec<(f64, f64)> = (1..=8).map(|x| (x as f64, (x * x * x) as f64)).collect();
        let expo: Vec<(f64, f64)> = (1..=8)
            .map(|x| (x as f64, (1u64 << (2 * x)) as f64))
            .collect();
        assert!(loglog_slope(&expo) > loglog_slope(&poly));
    }

    #[test]
    fn ratios_detect_doubling() {
        let r = growth_ratios(&[1.0, 2.0, 4.0, 8.0]);
        assert!(r.iter().all(|&x| (x - 2.0).abs() < 1e-9));
    }

    #[test]
    fn timing_is_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn hom_stats_capture_sees_engine_work() {
        use relational::{DbBuilder, Schema};
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let p = DbBuilder::new(s.clone())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .build();
        let c3 = DbBuilder::new(s)
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "x"])
            .build();
        let e = engine::Engine::new();
        let (ans, stats) = with_engine_stats(&e, || e.ctx().hom_exists(&p, &c3, &[]).unwrap());
        assert!(ans);
        assert!(stats.hom.solves >= 1, "{stats:?}");
        assert!(stats.hom.nodes_expanded >= 1, "{stats:?}");
    }

    #[test]
    fn lp_stats_capture_sees_engine_work() {
        // An instance the perceptron gives up on (XOR-ish is infeasible
        // but conflict-free in 2 columns of 4 distinct rows) forces a
        // real LP; an easy one exercises the perceptron counter.
        let xor_vectors = vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]];
        let e = engine::Engine::new();
        let separate = |labels: &[i32]| e.ctx().separate(&xor_vectors, labels).unwrap();
        let (ans, stats) = with_engine_stats(&e, || separate(&[-1, 1, 1, -1]));
        assert!(ans.is_none());
        assert!(stats.lp.lps_solved >= 1, "{stats:?}");
        // The sparse revised simplex is the one LP solver, and this
        // solve pivots.
        assert!(stats.lp.sparse_pivots >= 1, "{stats:?}");
        let (ans, stats) = with_engine_stats(&e, || separate(&[1, -1, -1, -1]));
        assert!(ans.is_some());
        assert!(stats.lp.perceptron_hits >= 1, "{stats:?}");
    }

    #[test]
    fn workload_generators_are_deterministic_and_shaped() {
        let (cols, labels) = search_workload(3);
        assert_eq!((cols.clone(), labels.clone()), search_workload(3));
        assert_eq!(cols.len(), 6, "masks 1..full, full excluded");
        assert_eq!(labels.len(), 8);
        assert!(cols.iter().all(|c| c.len() == 8));
        let flipped: Vec<i32> = labels.iter().map(|v| -v).collect();
        assert!(
            cols.iter().all(|c| *c != labels && *c != flipped),
            "no candidate column may equal the label (would separate at size 1)"
        );
    }

    #[test]
    fn game_stats_capture_sees_engine_work() {
        use relational::{DbBuilder, Schema};
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let c3 = DbBuilder::new(s.clone())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .build();
        let c2 = DbBuilder::new(s)
            .fact("E", &["x", "y"])
            .fact("E", &["y", "x"])
            .build();
        let e = engine::Engine::new();
        let (ans, stats) =
            with_engine_stats(&e, || e.ctx().cover_implies(&c3, &[], &c2, &[], 1).unwrap());
        assert!(ans);
        assert!(stats.game.games_solved >= 1, "{stats:?}");
        assert!(stats.game.positions_explored >= 1, "{stats:?}");
        assert!(stats.game.fixpoint_sweeps >= 1, "{stats:?}");
    }
}
