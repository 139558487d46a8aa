//! Regression contract for the compiled classifier artifact: on every
//! planted family, the shared-prefix trie produces exactly the feature
//! rows and labels of the naive per-feature sweep. The trie is an
//! evaluation strategy, never a new model — any divergence here is a
//! compiler bug, not a modeling choice.

use classifier::Model;
use cq::EnumConfig;
use cqsep::sep_cqm;
use engine::Engine;
use workloads::{families, sample_labeled};

#[test]
fn compiled_model_agrees_with_naive_on_every_planted_family() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    for family in families() {
        let train = sample_labeled(&family, 20, family.default_density, 0xFEED);
        // An independently sampled evaluation database: agreement must
        // hold off the training distribution's support, not just on it.
        let eval = sample_labeled(&family, 26, family.default_density, 0xBEEF).db;

        let model = sep_cqm::cqm_generate_in(&engine.ctx(), &train, &EnumConfig::cqm(family.atoms))
            .unwrap()
            .unwrap_or_else(|| {
                panic!(
                    "{}: zero-noise instance must be CQ[{}]-separable",
                    family.name, family.atoms
                )
            });
        let compiled = Model::compile_separator(&model);
        assert!(
            compiled.compiled_dimension() <= compiled.original_dimension(),
            "{}: core dedup never grows the bank",
            family.name
        );

        // Feature rows agree in the original statistic dimension.
        let entities = eval.entities();
        let naive_rows = model
            .statistic
            .apply_in(&engine.ctx(), &eval, &entities)
            .unwrap();
        let compiled_rows = compiled.apply_in(&ctx, &eval, &entities).unwrap();
        assert_eq!(naive_rows, compiled_rows, "{}: feature rows", family.name);

        // Labels agree entity by entity.
        let naive = model.classify_in(&ctx, &eval).unwrap();
        let (fast, stats) = compiled.classify_in(&ctx, &eval).unwrap();
        for &e in &entities {
            assert_eq!(
                naive.get(e),
                fast.get(e),
                "{}: entity {}",
                family.name,
                eval.val_name(e)
            );
        }
        assert_eq!(stats.entities as usize, entities.len(), "{}", family.name);
    }
}

/// A starved frontier cap forces the per-feature exact fallback mid-walk;
/// predictions still match the naive sweep on every family (the cap is a
/// memory knob, not a semantics knob).
#[test]
fn tiny_frontier_cap_stays_exact_on_every_planted_family() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    for family in families() {
        let train = sample_labeled(&family, 16, family.default_density, 0xACED);
        let eval = sample_labeled(&family, 18, family.default_density, 0xCEDE).db;
        let model = sep_cqm::cqm_generate_in(&engine.ctx(), &train, &EnumConfig::cqm(family.atoms))
            .unwrap()
            .expect("matching-tier separable");
        let compiled = Model::compile_separator(&model).with_frontier_cap(1);
        let naive = model.classify_in(&ctx, &eval).unwrap();
        let (fast, stats) = compiled.classify_in(&ctx, &eval).unwrap();
        for e in eval.entities() {
            assert_eq!(naive.get(e), fast.get(e), "{}", family.name);
        }
        // Single-atom features short-circuit at the leaf without ever
        // materializing a frontier, so only multi-atom families can
        // overflow a cap of 1.
        if family.atoms >= 2 {
            assert!(
                stats.hom_fallbacks > 0,
                "{}: cap 1 must actually trigger fallbacks",
                family.name
            );
        }
    }
}
