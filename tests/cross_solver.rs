//! Cross-validation between independent solver implementations. The
//! theory gives many equalities and inclusions between the problems; each
//! one is a free oracle test. Instances are small random databases, so
//! disagreements localize bugs precisely.

use cq::EnumConfig;
use cqsep::sep_dim::{cq_sep_dim_in, cqm_sep_dim_in, ghw_sep_dim_in, DimBudget};
use cqsep::{fo, sep_cq, sep_cqm, sep_ghw};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::{Database, Label, Labeling, Schema, TrainingDb};

mod common;
use common::both;

fn graph_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

/// Random training database: `n` elements, random edges, all elements
/// entities with random labels.
fn random_train(n: usize, edge_prob: f64, seed: u64) -> TrainingDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(graph_schema());
    let e = db.schema().rel_by_name("E").unwrap();
    let vals: Vec<_> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    for i in 0..n {
        for j in 0..n {
            if rng.random::<f64>() < edge_prob {
                db.add_fact(e, vec![vals[i], vals[j]]);
            }
        }
    }
    let mut labeling = Labeling::new();
    for &v in &vals {
        db.add_entity(v);
        labeling.set(
            v,
            if rng.random::<bool>() {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    TrainingDb::new(db, labeling)
}

/// Inclusion chain: CQ[m]-separable ⇒ GHW(m)-separable ⇒ CQ-separable,
/// and GHW(k)-separable ⇒ GHW(k+1)-separable.
#[test]
fn separability_inclusions_on_random_instances() {
    for seed in 0..12 {
        let t = random_train(6, 0.25, seed);
        let cqm1 = both(|ctx| sep_cqm::cqm_separable_in(ctx, &t, &EnumConfig::cqm(1)).unwrap());
        let cqm2 = both(|ctx| sep_cqm::cqm_separable_in(ctx, &t, &EnumConfig::cqm(2)).unwrap());
        let g1 = both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 1).unwrap());
        let g2 = both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 2).unwrap());
        let cq = both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap());
        assert!(!cqm1 || cqm2, "CQ[1] ⊆ CQ[2] (seed {seed})");
        assert!(!cqm1 || g1, "CQ[1] ⊆ GHW(1) (seed {seed})");
        assert!(!cqm2 || g2, "CQ[2] ⊆ GHW(2) (seed {seed})");
        assert!(!g1 || g2, "GHW(1) ⊆ GHW(2) (seed {seed})");
        assert!(!g2 || cq, "GHW(2) ⊆ CQ (seed {seed})");
        // CQ separability implies FO separability (FO ⊇ ∃FO⁺ in power).
        if cq {
            assert!(fo::fo_separable(&t), "CQ ⊆ FO separability (seed {seed})");
        }
    }
}

/// GHW(k)-Sep must agree with the definitional criterion evaluated
/// through an entirely different code path: mutual →_k on pos/neg pairs
/// computed via the preorder structure.
#[test]
fn ghw_sep_agrees_with_preorder_classes() {
    for seed in 0..10 {
        let t = random_train(5, 0.3, seed * 31 + 1);
        for k in 1..=2 {
            let direct = both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, k).unwrap());
            let pre = both(|ctx| sep_ghw::ghw_preorder_in(ctx, &t, k).unwrap());
            let class_pure = pre.classes.iter().all(|class| {
                let first = t.labeling.get(pre.elems[class[0]]);
                class.iter().all(|&i| t.labeling.get(pre.elems[i]) == first)
            });
            assert_eq!(direct, class_pure, "seed {seed}, k={k}");
        }
    }
}

/// Sep[ℓ] with ℓ = number of entities coincides with unrestricted Sep.
#[test]
fn sep_dim_saturates_to_plain_sep() {
    let budget = DimBudget::default();
    for seed in 0..8 {
        let t = random_train(4, 0.3, seed * 7 + 3);
        let ell = t.entities().len();
        assert_eq!(
            both(|ctx| cq_sep_dim_in(ctx, &t, ell, &budget).unwrap()).unwrap(),
            both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()),
            "CQ seed {seed}"
        );
        assert_eq!(
            both(|ctx| ghw_sep_dim_in(ctx, &t, 1, ell, &budget).unwrap()).unwrap(),
            both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 1).unwrap()),
            "GHW seed {seed}"
        );
        assert_eq!(
            both(|ctx| cqm_sep_dim_in(ctx, &t, &EnumConfig::cqm(1), ell.max(8)).unwrap()),
            both(|ctx| sep_cqm::cqm_separable_in(ctx, &t, &EnumConfig::cqm(1)).unwrap()),
            "CQ[1] seed {seed}"
        );
    }
}

/// Sep[ℓ] is monotone in ℓ and bounded above by plain separability.
#[test]
fn sep_dim_monotonicity_random() {
    let budget = DimBudget::default();
    for seed in 0..6 {
        let t = random_train(4, 0.35, seed * 13 + 5);
        let mut prev = false;
        for ell in 1..=3 {
            let now = both(|ctx| cq_sep_dim_in(ctx, &t, ell, &budget).unwrap()).unwrap();
            if prev {
                assert!(now, "seed {seed}: Sep[{ell}] regressed");
            }
            if now {
                assert!(
                    both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()),
                    "seed {seed}"
                );
            }
            prev = now;
        }
    }
}

/// The QBE ⇄ Sep[ℓ] bridge (Lemma 6.5) on random instances: reduce and
/// compare answers end-to-end.
#[test]
fn lemma_6_5_reduction_random() {
    use cqsep::reduction::qbe_to_sep_ell;
    for seed in 0..8 {
        // Build a plain (non-entity) database.
        let mut s = Schema::new();
        s.add_relation("E", 2);
        let mut rng = StdRng::seed_from_u64(seed * 17 + 11);
        let mut db = Database::new(s);
        let e = db.schema().rel_by_name("E").unwrap();
        let vals: Vec<_> = (0..4).map(|i| db.value(&format!("u{i}"))).collect();
        for i in 0..4 {
            for j in 0..4 {
                if rng.random::<f64>() < 0.4 {
                    db.add_fact(e, vec![vals[i], vals[j]]);
                }
            }
        }
        // Random nonempty S+ (partition with S-).
        let mask: usize = rng.random_range(1..(1 << 4) - 1);
        let pos: Vec<_> = (0..4)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| vals[i])
            .collect();
        let neg: Vec<_> = (0..4)
            .filter(|i| mask & (1 << i) == 0)
            .map(|i| vals[i])
            .collect();
        let qbe_answer = qbe::cq_qbe_decide(&db, &pos, &neg, 500_000).unwrap();
        for ell in 1..=2 {
            let red = qbe_to_sep_ell(&db, &pos, &neg, ell);
            let sep_answer =
                both(|ctx| cq_sep_dim_in(ctx, &red.train, ell, &DimBudget::default()).unwrap())
                    .unwrap();
            assert_eq!(
                qbe_answer, sep_answer,
                "seed {seed}, ℓ={ell}: Lemma 6.5 equivalence violated"
            );
        }
    }
}

/// FO_k separability grows with k and is sandwiched between FO_1 and FO.
#[test]
fn fo_hierarchy_random() {
    for seed in 0..6 {
        let t = random_train(4, 0.3, seed * 29 + 2);
        let mut prev = false;
        for k in 1..=3 {
            let now = fo::fo_k_separable(&t, k);
            if prev {
                assert!(now, "seed {seed}: FO_{k} regressed");
            }
            prev = now;
        }
        if prev {
            // FO_3 separable on a 4-element structure... FO_k ⊆ FO always.
            assert!(fo::fo_separable(&t), "seed {seed}");
        }
    }
}

/// Homomorphism solver vs brute force on random pointed pairs — the
/// lowest-level oracle everything else depends on.
#[test]
fn hom_solver_vs_brute_force_random() {
    use relational::hom::{brute_force_exists, homomorphism_exists};
    for seed in 0..20 {
        let t1 = random_train(4, 0.35, seed * 3 + 1);
        let t2 = random_train(4, 0.35, seed * 3 + 2);
        let e1 = t1.entities()[0];
        let e2 = t2.entities()[0];
        assert_eq!(
            homomorphism_exists(&t1.db, &t2.db, &[(e1, e2)]),
            brute_force_exists(&t1.db, &t2.db, &[(e1, e2)]),
            "seed {seed}"
        );
        assert_eq!(
            homomorphism_exists(&t1.db, &t2.db, &[]),
            brute_force_exists(&t1.db, &t2.db, &[]),
            "seed {seed} (no point)"
        );
    }
}

/// The cover game must sandwich the homomorphism relation:
/// `→ ⊆ →_{k+1} ⊆ →_k` (the approximation chain of §5).
#[test]
fn cover_game_sandwich_random() {
    use covergame::cover_implies;
    use relational::homomorphism_exists;
    for seed in 0..10 {
        let t = random_train(5, 0.3, seed * 41 + 13);
        let ents = t.entities();
        for &a in ents.iter().take(3) {
            for &b in ents.iter().take(3) {
                let hom = homomorphism_exists(&t.db, &t.db, &[(a, b)]);
                let k1 = cover_implies(&t.db, &[a], &t.db, &[b], 1);
                let k2 = cover_implies(&t.db, &[a], &t.db, &[b], 2);
                if hom {
                    assert!(k2, "seed {seed}: → ⊄ →_2");
                }
                if k2 {
                    assert!(k1, "seed {seed}: →_2 ⊄ →_1");
                }
            }
        }
    }
}
