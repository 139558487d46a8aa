//! Property tests for the separability algorithms: every generated model
//! must actually separate, every decision must match its definitional
//! criterion, and the approximation algorithms must be optimal.

use cq::EnumConfig;
use cqsep::Engine;
use cqsep::{apx, gen_ghw, sep_cq, sep_cqm, sep_ghw};
use proptest::prelude::*;
use relational::{Database, Label, Labeling, Schema, TrainingDb, Val};

fn schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

/// Strategy: a random training database (n nodes, random edges, all nodes
/// entities with random labels).
fn random_train() -> impl Strategy<Value = TrainingDb> {
    (2usize..5)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..(2 * n)),
                proptest::collection::vec(any::<bool>(), n),
            )
        })
        .prop_map(|(n, edges, labels)| {
            let mut db = Database::new(schema());
            let vals: Vec<Val> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
            let e = db.schema().rel_by_name("E").unwrap();
            for (a, b) in edges {
                db.add_fact(e, vec![vals[a], vals[b]]);
            }
            let mut labeling = Labeling::new();
            for (i, &v) in vals.iter().enumerate() {
                db.add_entity(v);
                labeling.set(
                    v,
                    if labels[i] {
                        Label::Positive
                    } else {
                        Label::Negative
                    },
                );
            }
            TrainingDb::new(db, labeling)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// If a solver says separable, its generated model must separate; if
    /// it says no, the definitional criterion must also say no.
    #[test]
    fn cq_decision_matches_generation(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let decision = sep_cq::cq_separable_in(&ctx, &t).unwrap();
        match sep_cq::cq_generate_in(&ctx, &t).unwrap() {
            Some(model) => {
                prop_assert!(decision);
                prop_assert!(model.separates_in(&ctx, &t).unwrap(), "{}", model.statistic);
            }
            None => prop_assert!(!decision),
        }
    }

    #[test]
    fn ghw_decision_matches_generation(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        for k in 1..=2 {
            let decision = sep_ghw::ghw_separable_in(&ctx, &t, k).unwrap();
            match gen_ghw::ghw_generate_in(&ctx, &t, k, 500_000).unwrap() {
                Ok(model) => {
                    prop_assert!(decision, "k={k}");
                    prop_assert!(model.separates_in(&ctx, &t).unwrap(), "k={k}: {}", model.statistic);
                    for q in &model.statistic.features {
                        // Width certificates for small features only (the
                        // exact ghw search is exponential).
                        if q.atoms().len() <= 8 {
                            prop_assert!(cq::ghw(q) <= k, "k={k}: {q}");
                        }
                    }
                }
                Err(gen_ghw::GenError::NotSeparable) => prop_assert!(!decision),
                Err(gen_ghw::GenError::Budget { .. }) => {
                    prop_assert!(decision, "budget implies separable");
                }
            }
        }
    }

    #[test]
    fn cqm_model_separates_when_produced(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        for m in 1..=2 {
            if let Some(model) = sep_cqm::cqm_generate_in(&ctx, &t, &EnumConfig::cqm(m)).unwrap() {
                prop_assert!(model.separates_in(&ctx, &t).unwrap(), "m={m}");
                for q in &model.statistic.features {
                    prop_assert!(q.atom_count_for_cqm() <= m);
                }
            }
        }
    }

    /// Algorithm 2 output: separable, and no labeling can beat it —
    /// brute-forced over all labelings.
    #[test]
    fn algorithm_2_is_optimal(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let ents = t.entities();
        prop_assume!(ents.len() <= 4);
        let relabeled = apx::ghw_optimal_relabeling_in(&ctx, &t, 1).unwrap();
        let cand = TrainingDb::new(t.db.clone(), relabeled.clone());
        prop_assert!(sep_ghw::ghw_separable_in(&ctx, &cand, 1).unwrap());
        let ours = t.labeling.disagreement(&relabeled);
        let mut brute = usize::MAX;
        for mask in 0u32..(1 << ents.len()) {
            let mut lab = Labeling::new();
            for (i, &e) in ents.iter().enumerate() {
                lab.set(e, if mask & (1 << i) != 0 { Label::Positive } else { Label::Negative });
            }
            let c = TrainingDb::new(t.db.clone(), lab.clone());
            if sep_ghw::ghw_separable_in(&ctx, &c, 1).unwrap() {
                brute = brute.min(t.labeling.disagreement(&lab));
            }
        }
        prop_assert_eq!(ours, brute);
    }

    /// The separability hierarchy on random instances.
    #[test]
    fn hierarchy(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let cqm1 = sep_cqm::cqm_separable_in(&ctx, &t, &EnumConfig::cqm(1)).unwrap();
        let g1 = sep_ghw::ghw_separable_in(&ctx, &t, 1).unwrap();
        let g2 = sep_ghw::ghw_separable_in(&ctx, &t, 2).unwrap();
        let cq = sep_cq::cq_separable_in(&ctx, &t).unwrap();
        let fo = cqsep::fo::fo_separable(&t);
        prop_assert!(!cqm1 || g1);
        prop_assert!(!g1 || g2);
        prop_assert!(!g2 || cq);
        prop_assert!(!cq || fo);
    }

    /// Classification consistency: on the training database itself,
    /// every classifier reproduces λ exactly when separable.
    #[test]
    fn classification_reproduces_training_labels(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        if sep_ghw::ghw_separable_in(&ctx, &t, 1).unwrap() {
            let lab = cqsep::cls_ghw::ghw_classify_in(&ctx, &t, &t.db, 1).unwrap().unwrap();
            for e in t.entities() {
                prop_assert_eq!(lab.get(e), t.labeling.get(e));
            }
        }
        if sep_cq::cq_separable_in(&ctx, &t).unwrap() {
            let lab = sep_cq::cq_classify_in(&ctx, &t, &t.db).unwrap().unwrap();
            for e in t.entities() {
                prop_assert_eq!(lab.get(e), t.labeling.get(e));
            }
        }
    }

    /// CQ[m]-ApxSep: the min-error model realizes its reported error and
    /// reports 0 exactly on separable instances.
    #[test]
    fn cqm_apx_consistent(t in random_train()) {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let (model, errors) = apx::cqm_apx_generate_in(&ctx, &t, &EnumConfig::cqm(1)).unwrap();
        prop_assert_eq!(model.errors_in(&ctx, &t).unwrap(), errors);
        prop_assert_eq!(
            errors == 0,
            sep_cqm::cqm_separable_in(&ctx, &t, &EnumConfig::cqm(1)).unwrap()
        );
        // GHW(1) is at least as expressive as CQ[1]:
        prop_assert!(apx::ghw_min_errors_in(&ctx, &t, 1).unwrap() <= errors);
    }
}
