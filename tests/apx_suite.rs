//! Deep §7 coverage: approximate separability across classes, the
//! ε-threshold semantics, classification under noise, and the padding
//! reduction at several fixed ε.

use cq::EnumConfig;
use cqsep::{apx, sep_cqm, sep_ghw};
use relational::{DbBuilder, Schema, TrainingDb};
use workloads::{flip_labels, replicated_paths, twin_cycles};

mod common;
use common::both;

fn graph_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

#[test]
fn apx_sep_threshold_is_exact() {
    // Twin groups of 3 with a 2-vs-1 label split force exactly 1 error
    // per conflicted group.
    let mut b = DbBuilder::new(graph_schema());
    for g in 0..2 {
        for c in 0..3 {
            let from = format!("g{g}c{c}");
            let to = format!("g{g}c{c}x");
            b = b.fact("E", &[&from, &to]);
        }
    }
    // Group 0: labels + + -  (1 forced error); group 1: + + + (clean).
    let t = b
        .positive("g0c0")
        .positive("g0c1")
        .negative("g0c2")
        .positive("g1c0")
        .positive("g1c1")
        .positive("g1c2")
        .training();
    assert_eq!(both(|ctx| apx::ghw_min_errors_in(ctx, &t, 1).unwrap()), 1);
    let n = t.entities().len() as f64; // 6
    assert!(both(
        |ctx| apx::ghw_apx_separable_in(ctx, &t, 1, 1.0 / n).unwrap()
    ));
    assert!(!both(|ctx| apx::ghw_apx_separable_in(
        ctx,
        &t,
        1,
        1.0 / n - 1e-9
    )
    .unwrap()));
}

#[test]
fn apx_classify_realizes_the_optimum() {
    let clean = replicated_paths(3, 3);
    for (rate, seed) in [(0.15, 3u64), (0.3, 9)] {
        let (noisy, _) = flip_labels(&clean, rate, seed);
        let min = both(|ctx| apx::ghw_min_errors_in(ctx, &noisy, 1).unwrap());
        let recovered = both(|ctx| apx::ghw_apx_classify_in(ctx, &noisy, &noisy.db, 1).unwrap());
        // The recovered labeling is GHW(1)-separable...
        let cand = TrainingDb::new(noisy.db.clone(), recovered.clone());
        assert!(both(|ctx| sep_ghw::ghw_separable_in(ctx, &cand, 1).unwrap()));
        // ...and achieves exactly the optimal disagreement.
        assert_eq!(noisy.labeling.disagreement(&recovered), min);
    }
}

#[test]
fn class_power_ordering_of_min_errors() {
    // Richer classes can only reduce the minimal error:
    // err_GHW(2) ≤ err_GHW(1) and err_GHW(1) ≤ err_CQ[1].
    let clean = replicated_paths(3, 2);
    for seed in [1u64, 5, 11] {
        let (noisy, _) = flip_labels(&clean, 0.3, seed);
        let g1 = both(|ctx| apx::ghw_min_errors_in(ctx, &noisy, 1).unwrap());
        let g2 = both(|ctx| apx::ghw_min_errors_in(ctx, &noisy, 2).unwrap());
        let (_, c1) =
            both(|ctx| apx::cqm_apx_generate_in(ctx, &noisy, &EnumConfig::cqm(1)).unwrap());
        assert!(
            g2 <= g1,
            "seed {seed}: GHW(2) must not err more than GHW(1)"
        );
        assert!(g1 <= c1, "seed {seed}: GHW(1) must not err more than CQ[1]");
    }
}

#[test]
fn inseparable_twins_err_at_every_class() {
    // Twin cycles: the conflicted pair costs 1 error under every class.
    let t = twin_cycles(3);
    assert_eq!(both(|ctx| apx::ghw_min_errors_in(ctx, &t, 1).unwrap()), 1);
    assert_eq!(both(|ctx| apx::ghw_min_errors_in(ctx, &t, 2).unwrap()), 1);
    let (_, errs) = both(|ctx| apx::cqm_apx_generate_in(ctx, &t, &EnumConfig::cqm(2)).unwrap());
    assert_eq!(errs, 1);
}

#[test]
fn padding_reduction_multiple_epsilons() {
    // The ε-padding transfers exact separability to ε-separability and
    // inseparability to ε-inseparability, for several fixed ε and both
    // outcomes, measured through the GHW(1) optimum.
    let sep = replicated_paths(3, 1); // clean, separable
    let insep = twin_cycles(4);
    for eps in [0.0, 0.15, 0.3, 0.45] {
        let p = apx::pad_for_error(&sep, eps);
        let n = p.entities().len() as f64;
        let min = both(|ctx| apx::ghw_min_errors_in(ctx, &p, 1).unwrap()) as f64;
        assert!(
            min <= (eps * n).floor(),
            "eps={eps}: separable must fit budget ({min} > {})",
            (eps * n).floor()
        );
        let p = apx::pad_for_error(&insep, eps);
        let n = p.entities().len() as f64;
        let min = both(|ctx| apx::ghw_min_errors_in(ctx, &p, 1).unwrap()) as f64;
        assert!(min > eps * n, "eps={eps}: inseparable must exceed budget");
    }
}

#[test]
fn cqm_apx_model_usable_for_classification() {
    let clean = replicated_paths(3, 2);
    let (noisy, _) = flip_labels(&clean, 0.2, 21);
    let (model, errors) =
        both(|ctx| apx::cqm_apx_generate_in(ctx, &noisy, &EnumConfig::cqm(3)).unwrap());
    assert_eq!(both(|ctx| model.errors_in(ctx, &noisy).unwrap()), errors);
    // The model classifies a fresh evaluation database without panicking
    // and deterministically.
    let eval = replicated_paths(4, 1).db;
    let a = both(|ctx| model.classify_in(ctx, &eval).unwrap());
    let b = both(|ctx| model.classify_in(ctx, &eval).unwrap());
    for e in eval.entities() {
        assert_eq!(a.get(e), b.get(e));
    }
}

#[test]
fn zero_noise_means_zero_errors_everywhere() {
    let clean = replicated_paths(4, 2);
    assert_eq!(
        both(|ctx| apx::ghw_min_errors_in(ctx, &clean, 1).unwrap()),
        0
    );
    assert!(both(
        |ctx| apx::ghw_apx_separable_in(ctx, &clean, 1, 0.0).unwrap()
    ));
    let (_, errs) = both(|ctx| apx::cqm_apx_generate_in(ctx, &clean, &EnumConfig::cqm(4)).unwrap());
    assert_eq!(errs, 0);
    assert!(both(|ctx| apx::cqm_apx_separable_in(
        ctx,
        &clean,
        &EnumConfig::cqm(4),
        0.0
    )
    .unwrap()));
    assert!(both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &clean,
        &EnumConfig::cqm(4)
    )
    .unwrap()));
}
