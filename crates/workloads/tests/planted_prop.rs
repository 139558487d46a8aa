//! Property tests for the planted-query generator families: at zero
//! noise, every sampled instance is exactly fit by its matching
//! regularized tier — the invariant the generalization harness's CI
//! assertion stands on.

use cq::EnumConfig;
use cqsep::generalize::{evaluate_in, FitMethod};
use cqsep::sep_cqm::cqm_generate_in;
use cqsep::Engine;
use proptest::prelude::*;
use workloads::{families, planted_split, SampleConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Zero-noise planted instances are `CQ[m*]`-separable at the
    /// family's own tier `m*`, the exact fit reproduces the training
    /// labels (train accuracy 1.0), and held-out metrics are
    /// well-defined.
    #[test]
    fn zero_noise_instances_fit_exactly_at_the_matching_tier(
        family_idx in 0usize..4,
        train_n in 10usize..18,
        seed in 0u64..1000,
    ) {
        let family = &families()[family_idx];
        let cfg = SampleConfig {
            train_n,
            test_n: 8,
            density: family.default_density,
            noise: 0.0,
            seed,
        };
        let split = planted_split(family, &cfg);
        prop_assert_eq!(split.flips, 0);

        let engine = Engine::new();
        let ctx = engine.ctx();
        let model = cqm_generate_in(&ctx, &split.train, &EnumConfig::cqm(family.atoms)).unwrap();
        prop_assert!(
            model.is_some(),
            "{}: zero-noise sample (n={}, seed={}) must be CQ[{}]-separable",
            family.name, train_n, seed, family.atoms
        );
        prop_assert!(
            model.unwrap().separates_in(&ctx, &split.train).unwrap(),
            "{}: exact fit must reproduce the training labels",
            family.name
        );

        // The same invariant through the harness: fit_exact, zero train
        // errors, and metrics inside [0, 1].
        let r = evaluate_in(&ctx, &split.train, &split.test, FitMethod::Cqm(family.atoms)).unwrap();
        prop_assert!(r.fit_exact, "{}", family.name);
        prop_assert_eq!(r.train_errors, 0);
        prop_assert_eq!(r.test_size(), 8);
        prop_assert!((0.0..=1.0).contains(&r.accuracy()));
        prop_assert!((0.0..=1.0).contains(&r.precision()));
        prop_assert!((0.0..=1.0).contains(&r.recall()));
    }

    /// Noise accounting: flipping a fraction of training labels changes
    /// exactly `⌊noise · n⌋` labels and leaves the held-out side clean,
    /// and the min-error fit never pays more than the flip count (the
    /// clean labeling is still realizable).
    #[test]
    fn noise_is_bounded_by_the_flip_count(
        family_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let family = &families()[family_idx];
        let cfg = SampleConfig {
            train_n: 12,
            test_n: 8,
            density: family.default_density,
            noise: 0.25,
            seed,
        };
        let split = planted_split(family, &cfg);
        prop_assert_eq!(split.flips, 3);
        prop_assert_eq!(
            split.clean_train.labeling.disagreement(&split.train.labeling),
            3
        );

        let engine = Engine::new();
        let r = evaluate_in(
            &engine.ctx(),
            &split.train,
            &split.test,
            FitMethod::MinError(family.atoms),
        ).unwrap();
        // The planted target still fits the 9 unflipped labels, so the
        // minimum error is at most the number of flips.
        prop_assert!(
            r.train_errors <= split.flips,
            "{}: min-error {} > {} flips (seed={})",
            family.name, r.train_errors, split.flips, seed
        );
    }
}
