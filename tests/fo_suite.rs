//! Deeper §8 coverage: the FO / FO_k / ∃FO⁺ landscape, the
//! dimension-collapse characterization (Theorem 8.4), and the
//! unbounded-dimension property (Proposition 8.6 / Theorem 8.7).

use cq::parse::parse_cq;
use cqsep::fo;
use cqsep::sep_cq;
use relational::{DbBuilder, Label, Schema, TrainingDb};

mod common;
use common::both;

fn graph_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

/// The canonical four-way landscape instance:
/// * `a` on a triangle with a pendant (E(a-triangle) + pendant out of x's
///   triangle) — CQ-inseparable from `x` but FO-separable.
fn pendant_triangles() -> TrainingDb {
    DbBuilder::new(graph_schema())
        .fact("E", &["a", "b"])
        .fact("E", &["b", "c"])
        .fact("E", &["c", "a"])
        .fact("E", &["x", "y"])
        .fact("E", &["y", "z"])
        .fact("E", &["z", "x"])
        .fact("E", &["x", "t"])
        .positive("a")
        .negative("x")
        .training()
}

#[test]
fn fo_strictly_stronger_than_cq() {
    let t = pendant_triangles();
    assert!(!both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()));
    assert!(!both(|ctx| sep_cq::epfo_separable_in(ctx, &t).unwrap())); // ∃FO⁺ ≡ CQ (Prop 8.3(2))
    assert!(fo::fo_separable(&t));
}

#[test]
fn fo_k_hierarchy_converges_to_fo() {
    let t = pendant_triangles();
    // FO_k for large enough k (≥ structure size) coincides with FO.
    let n = t.db.dom_size();
    assert_eq!(fo::fo_k_separable(&t, n), fo::fo_separable(&t));
    // Monotone in k.
    let mut prev = false;
    for k in 1..=n {
        let now = fo::fo_k_separable(&t, k);
        if prev {
            assert!(now, "FO_{k} must not regress");
        }
        prev = now;
    }
}

#[test]
fn fo_2_separates_degree_like_properties() {
    // In/out-degree-1 distinctions need only 2 variables.
    let t = DbBuilder::new(graph_schema())
        .fact("E", &["src", "mid"])
        .fact("E", &["mid", "sink"])
        .positive("mid") // has both in- and out-edges
        .negative("src")
        .negative("sink")
        .training();
    assert!(fo::fo_k_separable(&t, 2));
    assert!(!fo::fo_k_separable(&t, 1));
}

#[test]
fn theorem_8_4_closure_violation_on_cq() {
    // Two incomparable CQ answer sets whose complements break
    // ∩-closure — the generic reason CQ lacks dimension collapse.
    let s = graph_schema();
    let d = DbBuilder::new(s.clone())
        .fact("E", &["p", "q"]) // p has out-edge
        .fact("E", &["r", "p"]) // p has in-edge
        .entity("p")
        .entity("q")
        .entity("r")
        .build();
    let out_q = parse_cq(&s, "q(x) :- eta(x), E(x,y)").unwrap();
    let in_q = parse_cq(&s, "q(x) :- eta(x), E(y,x)").unwrap();
    // out = {p, r}, in = {p, q}: their intersection {p} is not among
    // {out, in, co-out, co-in} -> violation.
    assert!(fo::intersection_closure_violation(&d, &[out_q, in_q]).is_some());
}

#[test]
fn theorem_8_4_closure_holds_for_orbit_unions() {
    // A family that IS closed under intersection: queries whose answer
    // sets form a chain (the linear family of Prop 8.6 restricted to one
    // database). Chains are ∩-closed together with complements? The
    // condition needs *all* pairwise intersections present; chain ∩
    // co-chain = set differences... verify the checker on a genuinely
    // closed family: a single query (sets {S, co-S}: S∩co-S=∅... ∅ must
    // be in the family!). Use a query selecting nothing plus one
    // selecting everything to make the family a Boolean sublattice.
    let s = graph_schema();
    let d = DbBuilder::new(s.clone())
        .fact("E", &["a", "a"])
        .entity("a")
        .entity("b")
        .build();
    // all = {a, b} via eta(x); none = {} via E(x,y),E(y,x),eta-mismatch?
    // Simplest empty-answer query here: q(x) :- eta(x), E(x,y), E(y,z),
    // E(z,x) with x != loops... the loop satisfies it. Take instead
    // "x has an out-edge AND an in-edge from a *different*"... CQs fold;
    // use q(x) :- eta(x), E(y,x) — b has no in-edge, a's loop gives a.
    // Family from {eta, loop-query}: {ab, ∅(co-eta), a, b}: need a∩b=∅
    // present -> yes (co-eta = ∅). Closed!
    let all_q = parse_cq(&s, "q(x) :- eta(x)").unwrap();
    let loop_q = parse_cq(&s, "q(x) :- eta(x), E(x,x)").unwrap();
    assert!(fo::intersection_closure_violation(&d, &[all_q, loop_q]).is_none());
}

#[test]
fn unbounded_dimension_on_linear_families() {
    // Proposition 8.6: the alternating path forces dimension growth.
    let schema = graph_schema();
    for n in [2usize, 4] {
        let t = fo::linear_family_db(n);
        let pool: Vec<cq::Cq> = (1..=n)
            .map(|len| {
                let mut body = String::from("q(x0) :- eta(x0)");
                for i in 0..len {
                    body += &format!(", E(x{i},x{})", i + 1);
                }
                parse_cq(&schema, &body).unwrap()
            })
            .collect();
        let dim = both(|ctx| fo::min_dimension_of_in(ctx, &t, &pool, n + 1).unwrap())
            .expect("pool suffices");
        assert!(dim >= n / 2, "n={n}: got {dim}");
    }
}

#[test]
fn fo_classify_handles_unmatched_eval_entities() {
    let t = DbBuilder::new(graph_schema())
        .fact("E", &["s", "t"])
        .positive("s")
        .negative("t")
        .training();
    // Eval structurally different from training: nothing is pointed-
    // isomorphic, so everything defaults to Negative (a valid FO-Cls
    // answer — FO can define exactly the training iso-types).
    let eval = DbBuilder::new(graph_schema())
        .fact("E", &["a", "b"])
        .fact("E", &["b", "c"])
        .entity("a")
        .entity("b")
        .entity("c")
        .build();
    let lab = fo::fo_classify(&t, &eval).unwrap();
    for e in eval.entities() {
        assert_eq!(lab.get(e), Label::Negative);
    }
    // Inseparable training data gives no labeling.
    let bad = DbBuilder::new(graph_schema())
        .fact("E", &["u", "v"])
        .fact("E", &["v", "u"])
        .positive("u")
        .negative("v")
        .training();
    assert!(fo::fo_classify(&bad, &eval).is_none());
}

#[test]
fn fo_qbe_vs_cq_qbe() {
    // On the pendant-triangle instance FO explains what CQ cannot.
    let t = pendant_triangles();
    let pos = t.positives();
    let neg = t.negatives();
    assert!(fo::fo_qbe(&t.db, &pos, &neg));
    assert!(!qbe::cq_qbe_decide(&t.db, &pos, &neg, 1_000_000).unwrap());
}

#[test]
fn fo_k_qbe_monotone_and_bounded_by_fo() {
    let t = pendant_triangles();
    let pos = t.positives();
    let neg = t.negatives();
    let mut prev = false;
    for k in 1..=4 {
        let now = fo::fo_k_qbe(&t.db, &pos, &neg, k);
        if prev {
            assert!(now, "FO_{k}-QBE regressed");
        }
        if now {
            assert!(fo::fo_qbe(&t.db, &pos, &neg), "FO_k ⊆ FO");
        }
        prev = now;
    }
}
