//! Regression scenarios beyond the binary-graph comfort zone: ternary
//! relations, mixed-arity schemas, repeated variables, and empty corner
//! cases — across every solver layer.

use cq::parse::parse_cq;
use cq::{evaluate_unary, EnumConfig};
use cqsep::{cls_ghw, sep_cq, sep_cqm, sep_ghw};
use relational::{DbBuilder, Label, Schema, TrainingDb};

mod common;
use common::both;

/// Schema with a ternary "meeting" relation and a unary tag.
fn ternary_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("meets", 3); // (person, person, room)
    s.add_relation("vip", 1);
    s
}

fn meetings() -> TrainingDb {
    // alice meets bob in r1; bob meets carol in r2; carol is vip.
    // dave never meets anyone.
    // Positive: people who attended a meeting in the first slot.
    DbBuilder::new(ternary_schema())
        .fact("meets", &["alice", "bob", "r1"])
        .fact("meets", &["bob", "carol", "r2"])
        .fact("vip", &["carol"])
        .positive("alice")
        .positive("bob")
        .negative("carol")
        .negative("dave")
        .training()
}

#[test]
fn ternary_relations_through_all_separability_solvers() {
    let t = meetings();
    // q(x) :- meets(x, y, z) separates attendees-in-slot-1.
    assert!(both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &t,
        &EnumConfig::cqm(1)
    )
    .unwrap()));
    assert!(both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 1).unwrap()));
    assert!(both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()));
    let model =
        both(|ctx| sep_cqm::cqm_generate_in(ctx, &t, &EnumConfig::cqm(1)).unwrap()).unwrap();
    assert!(both(|ctx| model.separates_in(ctx, &t).unwrap()));
}

#[test]
fn ternary_evaluation_and_repeated_variables() {
    let s = ternary_schema();
    let d = DbBuilder::new(s.clone())
        .fact("meets", &["a", "a", "r"]) // self-meeting
        .fact("meets", &["b", "c", "r"])
        .entity("a")
        .entity("b")
        .entity("c")
        .build();
    // Repeated variable: who meets themselves?
    let q = parse_cq(&s, "q(x) :- eta(x), meets(x,x,r)").unwrap();
    let sel = evaluate_unary(&q, &d);
    assert_eq!(sel.len(), 1);
    assert_eq!(d.val_name(sel[0]), "a");
    // Projection onto the third position.
    let q = parse_cq(&s, "q(x) :- eta(x), meets(y,x,r)").unwrap();
    let names: Vec<&str> = evaluate_unary(&q, &d)
        .iter()
        .map(|&v| d.val_name(v))
        .collect();
    assert_eq!(names, vec!["a", "c"]);
}

#[test]
fn ternary_cover_game_and_classification() {
    let t = meetings();
    // Algorithm 1 over the ternary schema: training labels reproduced.
    let lab = both(|ctx| cls_ghw::ghw_classify_in(ctx, &t, &t.db, 1).unwrap()).unwrap();
    for e in t.entities() {
        assert_eq!(lab.get(e), t.labeling.get(e), "{}", t.db.val_name(e));
    }
    // Eval database: a fresh meeting chain. All chain members must be
    // entities — the implicit features are whole-database patterns
    // including η facts, so a non-entity middleman would block them.
    let eval = DbBuilder::new(ternary_schema())
        .fact("meets", &["x", "y", "q1"])
        .fact("meets", &["y", "z", "q2"])
        .fact("vip", &["z"])
        .entity("x")
        .entity("y")
        .entity("z")
        .build();
    let lab = both(|ctx| cls_ghw::ghw_classify_in(ctx, &t, &eval, 1).unwrap()).unwrap();
    // x matches alice's pattern exactly (starts a meeting chain).
    assert_eq!(lab.get(eval.val_by_name("x").unwrap()), Label::Positive);
    // z matches carol's (vip, meeting target in second slot).
    assert_eq!(lab.get(eval.val_by_name("z").unwrap()), Label::Negative);
}

#[test]
fn mixed_arity_ghw_machinery() {
    // ghw over a schema with arities 1, 2, 3 together.
    let mut s = Schema::entity_schema();
    s.add_relation("T", 3);
    s.add_relation("E", 2);
    s.add_relation("U", 1);
    // q(x) :- T(x,y,z), E(z,w), U(w): a chain through mixed arities.
    let q = parse_cq(&s, "q(x) :- eta(x), T(x,y,z), E(z,w), U(w)").unwrap();
    // All existential vars hang off a path: ghw 1.
    assert_eq!(cq::ghw(&q), 1);
    // q(x) :- T(y,z,w) with a triangle among y,z,w via E:
    let q2 = parse_cq(&s, "q(x) :- eta(x), T(y,z,w), E(y,z), E(z,w), E(w,y)").unwrap();
    // The single T-atom covers all three existential vars: ghw 1!
    assert_eq!(cq::ghw(&q2), 1);
    // Without the covering ternary atom the triangle needs width 2.
    let q3 = parse_cq(&s, "q(x) :- eta(x), E(y,z), E(z,w), E(w,y)").unwrap();
    assert_eq!(cq::ghw(&q3), 2);
}

#[test]
fn empty_and_degenerate_training_databases() {
    // No entities at all: trivially separable everywhere.
    let s = ternary_schema();
    let t = TrainingDb::new(
        DbBuilder::new(s.clone()).fact("vip", &["x"]).build(),
        relational::Labeling::new(),
    );
    assert!(both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()));
    assert!(both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 1).unwrap()));
    assert!(both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &t,
        &EnumConfig::cqm(1)
    )
    .unwrap()));

    // Single entity: always separable; classifiers are constant.
    let t1 = DbBuilder::new(s.clone()).positive("only").training();
    assert!(both(|ctx| sep_ghw::ghw_separable_in(ctx, &t1, 1).unwrap()));
    let lab = both(|ctx| cls_ghw::ghw_classify_in(ctx, &t1, &t1.db, 1).unwrap()).unwrap();
    assert_eq!(lab.get(t1.db.val_by_name("only").unwrap()), Label::Positive);

    // All entities share one label: separable even when structurally
    // identical.
    let tsame = DbBuilder::new(s)
        .positive("p1")
        .positive("p2")
        .positive("p3")
        .training();
    assert!(both(
        |ctx| sep_ghw::ghw_separable_in(ctx, &tsame, 1).unwrap()
    ));
    assert!(both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &tsame,
        &EnumConfig::cqm(1)
    )
    .unwrap()));
}

#[test]
fn unary_only_schema() {
    // The paper's Example 6.2 schema shape: only unary relations.
    let mut s = Schema::entity_schema();
    s.add_relation("A", 1);
    s.add_relation("B", 1);
    let t = DbBuilder::new(s)
        .fact("A", &["x"])
        .fact("B", &["y"])
        .fact("A", &["z"])
        .fact("B", &["z"])
        .positive("z") // has both
        .negative("x")
        .negative("y")
        .negative("w") // has neither
        .training();
    // CQ[1]-Sep allows MANY single-atom features: A(x) and B(x)
    // together realize the AND pattern linearly, so it separates.
    assert!(both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &t,
        &EnumConfig::cqm(1)
    )
    .unwrap()));
    // But no SINGLE CQ[1] feature does (A and B each mix the classes):
    // the dimension-bounded variant at ℓ=1 fails, at ℓ=2 succeeds.
    assert!(!both(|ctx| cqsep::sep_dim::cqm_sep_dim_in(
        ctx,
        &t,
        &EnumConfig::cqm(1),
        1
    )
    .unwrap()));
    assert!(both(|ctx| cqsep::sep_dim::cqm_sep_dim_in(
        ctx,
        &t,
        &EnumConfig::cqm(1),
        2
    )
    .unwrap()));
    // One 2-atom feature A(x) ∧ B(x) also works: ℓ=1 at m=2.
    assert!(both(|ctx| cqsep::sep_dim::cqm_sep_dim_in(
        ctx,
        &t,
        &EnumConfig::cqm(2),
        1
    )
    .unwrap()));
    // GHW(1) contains A(x) ∧ B(x) (no existential vars at all): yes.
    assert!(both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 1).unwrap()));
}

#[test]
fn cross_arity_qbe() {
    let s = ternary_schema();
    let d = DbBuilder::new(s)
        .fact("meets", &["a", "b", "r"])
        .fact("meets", &["c", "d", "r"])
        .fact("vip", &["a"])
        .entity("a")
        .entity("c")
        .build();
    let a = d.val_by_name("a").unwrap();
    let c = d.val_by_name("c").unwrap();
    // vip(x) explains {a} vs {c}.
    let q = qbe::cqm_qbe(&d, &[a], &[c], &EnumConfig::cqm(1)).expect("vip explains");
    let sel = evaluate_unary(&q, &d);
    assert!(sel.contains(&a) && !sel.contains(&c));
    // And the product route agrees.
    assert!(qbe::cq_qbe_decide(&d, &[a], &[c], 100_000).unwrap());
    assert!(!qbe::cq_qbe_decide(&d, &[c], &[a], 100_000).unwrap());
}

#[test]
fn ternary_extraction_certificates() {
    let t = meetings();
    let alice = t.db.val_by_name("alice").unwrap();
    let carol = t.db.val_by_name("carol").unwrap();
    // alice and carol are distinguishable at k=1; extract and verify.
    let (q, td) = covergame::extract_distinguishing_query(&t.db, alice, &t.db, carol, 1, 100_000)
        .expect("distinguishable");
    assert!(cq::selects(&q, &t.db, alice));
    assert!(!cq::selects(&q, &t.db, carol));
    td.verify(&q, 1).unwrap();
}

#[test]
fn wide_arity_stress() {
    // Arity 5: exercises the index structures and the game's larger
    // union element sets.
    let mut s = Schema::entity_schema();
    s.add_relation("W", 5);
    let t = DbBuilder::new(s)
        .fact("W", &["p", "a", "b", "c", "d"])
        .fact("W", &["q", "a", "b", "c", "c"])
        .positive("p")
        .negative("q")
        .training();
    // p's fact has 5 distinct elements; q's repeats c — the pattern
    // W(x, y1, y2, y3, y4) with distinct-looking variables folds onto
    // both, but W(x,y,z,w,w)-style repetition separates q from p...
    // q ⪯ p? query at q: ∃ W(x,·,·,u,u): p lacks it -> not q ⪯ p.
    // p ⪯ q? query at p: W(x,a,b,c,d) folds onto q's fact by mapping
    // c,d -> c,c? distinct vars may merge: yes -> p ⪯ q.
    assert!(both(|ctx| sep_ghw::ghw_separable_in(ctx, &t, 1).unwrap()));
    let lab = both(|ctx| cls_ghw::ghw_classify_in(ctx, &t, &t.db, 1).unwrap()).unwrap();
    for e in t.entities() {
        assert_eq!(lab.get(e), t.labeling.get(e));
    }
}
