//! Approximate separability in action (§7): start from a cleanly
//! separable dataset, inject label noise, and watch
//!
//! * exact separability break immediately,
//! * Algorithm 2 recover the *optimal* `GHW(k)`-separable relabeling,
//! * the `CQ[m]` minimum-error classifier (NP-hard, solved exactly by
//!   branch-and-bound) track the injected noise level.
//!
//! Run with: `cargo run --example noisy_labels`

use cqsep::{apx, sep_ghw, Engine, EnumConfig};
use workloads::{flip_labels, replicated_paths};

fn main() {
    // Every solver runs under a context over an explicit engine, which
    // owns the memo caches and counters; `engine.ctx()` has no deadline.
    let engine = Engine::new();
    let ctx = engine.ctx();

    // Clean data: path-start entities labeled by path-length parity, with
    // 4 indistinguishable twins per length. Twins are →_1-equivalent, so
    // a classifier must treat them alike — noise *within* a twin group is
    // genuinely irreparable, which is what makes approximation
    // interesting. (On structure-free random graphs every entity is its
    // own class and any labeling separates!)
    let clean = replicated_paths(4, 4);
    let n = clean.entities().len();
    assert!(sep_ghw::ghw_separable_in(&ctx, &clean, 1).unwrap());
    println!("clean instance: {n} entities, exactly separable\n");

    // The →_1 preorder depends only on the database, not the labels:
    // compute it once for the whole noise sweep.
    let preorder = sep_ghw::ghw_preorder_in(&ctx, &clean, 1).unwrap();

    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>12}",
        "noise", "flips", "ghw-min-err", "cq[1]-err", "exact-sep?"
    );
    for noise in [0.0, 0.1, 0.2, 0.3] {
        let (noisy, flips) = flip_labels(&clean, noise, 7);
        // Optimal GHW(1) relabeling error (Theorem 7.4: provably minimal).
        let relabeled = apx::ghw_optimal_relabeling_from(&preorder, &noisy.labeling);
        let ghw_err = noisy.labeling.disagreement(&relabeled);
        // Optimal CQ[1] classifier error (exact branch-and-bound).
        let (_, cqm_err) = apx::cqm_apx_generate_in(&ctx, &noisy, &EnumConfig::cqm(1)).unwrap();
        let exact = ghw_err == 0; // Theorem 5.3 criterion via the optimum
        println!(
            "{:>6.2} {:>7} {:>12} {:>12} {:>12}",
            noise, flips, ghw_err, cqm_err, exact
        );
        // Sanity: undoing the flips is one candidate relabeling, so the
        // optimum can never exceed the flip count; and the richer GHW(1)
        // class can never do worse than CQ[1].
        assert!(ghw_err <= flips);
        assert!(ghw_err <= cqm_err);
    }

    // ε-threshold view (GHW(k)-ApxSep): the smallest ε accepting the
    // noisy instance equals min-errors / n.
    let (noisy, _) = flip_labels(&clean, 0.2, 7);
    let min = apx::ghw_min_errors_in(&ctx, &noisy, 1).unwrap();
    let eps_star = min as f64 / n as f64;
    println!("\nwith 20% label noise: minimal feasible ε = {eps_star:.3}");
    assert!(apx::ghw_apx_separable_in(&ctx, &noisy, 1, eps_star + 1e-9).unwrap());
    if min > 0 {
        assert!(!apx::ghw_apx_separable_in(&ctx, &noisy, 1, eps_star - 1e-9).unwrap());
    }
    println!("ApxSep accepts at ε* and rejects just below it — Corollary 7.5.");
}
