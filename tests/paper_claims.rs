//! One test per checkable claim of the paper, named after its statement.
//! These are the "unit tests of the theory": each theorem/proposition
//! whose content is observable at laptop scale gets verified on concrete
//! instances.

use cq::EnumConfig;
use cqsep::sep_dim::{cq_sep_dim_in, ghw_sep_dim_in, DimBudget};
use cqsep::{apx, cls_ghw, fo, gen_ghw, sep_cq, sep_cqm, sep_ghw};
use relational::{DbBuilder, Label, Labeling, Schema, TrainingDb};
use workloads::{alternating_paths, example_6_2, twin_cycles, twin_paths};

mod common;
use common::both;

fn graph_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

/// Theorem 3.2 (lower-bound shape): CQ-Sep instances exist that are
/// inseparable purely because of hom-equivalence, over the single binary
/// relation + η schema the theorem pins down.
#[test]
fn theorem_3_2_schema_shape() {
    let t = twin_cycles(3);
    assert_eq!(t.db.schema().rel_count(), 2); // η and E only
    assert!(!both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()));
}

/// Proposition 4.1: the all-features CQ[m] statistic decides and the
/// produced pair separates.
#[test]
fn proposition_4_1_constructive() {
    let t = alternating_paths(3);
    let model = both(|ctx| sep_cqm::cqm_generate_in(ctx, &t, &EnumConfig::cqm(3)).unwrap())
        .expect("separable");
    assert!(both(|ctx| model.separates_in(ctx, &t).unwrap()));
}

/// Proposition 4.3 / §6.3: CQ[m,p] is strictly weaker than CQ[m] (the
/// occurrence bound really bites).
#[test]
fn proposition_4_3_occurrence_bound() {
    let t = DbBuilder::new(graph_schema())
        .fact("E", &["a", "a"])
        .fact("E", &["b", "z"])
        .fact("E", &["z", "b"])
        .positive("a")
        .negative("b")
        .training();
    assert!(!both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &t,
        &EnumConfig::cqmp(1, 1)
    )
    .unwrap()));
    assert!(both(|ctx| sep_cqm::cqm_separable_in(
        ctx,
        &t,
        &EnumConfig::cqmp(1, 2)
    )
    .unwrap()));
}

/// Theorem 5.3 + Lemma 5.4: GHW(k)-Sep equals the pairwise mutual-→_k
/// criterion (tested across instances in cross_solver.rs; here the two
/// named examples).
#[test]
fn theorem_5_3_examples() {
    assert!(both(|ctx| sep_ghw::ghw_separable_in(
        ctx,
        &alternating_paths(4),
        1
    )
    .unwrap()));
    assert!(!both(|ctx| sep_ghw::ghw_separable_in(
        ctx,
        &twin_cycles(4),
        2
    )
    .unwrap()));
}

/// Proposition 5.6: generation is possible (given exponential budget) and
/// the features land in GHW(k) with dimension ≤ |η(D)|.
#[test]
fn proposition_5_6_generation() {
    let t = alternating_paths(3);
    let model = both(|ctx| gen_ghw::ghw_generate_in(ctx, &t, 1, 100_000).unwrap()).unwrap();
    assert!(both(|ctx| model.separates_in(ctx, &t).unwrap()));
    assert!(model.statistic.dimension() <= t.entities().len());
    for q in &model.statistic.features {
        assert!(cq::ghw(q) <= 1);
    }
}

/// Theorem 5.7 (shape): on the twin-path family the distinguishing
/// feature grows with the family parameter `n` — every query separating
/// `u` from `v` must contain the out-path-of-length-`n` pattern. (The
/// paper's appendix gadget achieves `2^n`; see DESIGN.md §4.) And on the
/// alternating-chain family the *dimension* of any separating statistic
/// grows linearly — the exactly measured part (a) of the theorem.
#[test]
fn theorem_5_7_feature_blowup_shape() {
    // (b)-shape: every distinguishing query must contain the out-path
    // pattern of length n, so its E-atom count is at least n — a size
    // lower bound that grows with the family parameter. (Raw extracted
    // sizes are not monotone — the strategy unfolding is not minimal —
    // so we assert the provable bound.)
    for n in [3usize, 4, 5, 6] {
        let t = twin_paths(n);
        let u = t.db.val_by_name("u").unwrap();
        let v = t.db.val_by_name("v").unwrap();
        let (q, td) = covergame::extract_distinguishing_query(&t.db, u, &t.db, v, 1, 2_000_000)
            .expect("u is distinguishable from v");
        td.verify(&q, 1).unwrap();
        let e_atoms = q
            .atoms()
            .iter()
            .filter(|a| t.db.schema().name(a.rel) == "E")
            .count();
        assert!(
            e_atoms >= n,
            "n={n}: distinguishing query has {e_atoms} E-atoms"
        );
    }
    // (a): minimal dimension is m − 1 (measured in
    // theorem_8_7_unbounded_dimension below and in the workloads tests).
}

/// Theorem 5.8 / Algorithm 1: classification works without generation,
/// even when the generation budget would be blown.
#[test]
fn theorem_5_8_classification_without_generation() {
    let t = alternating_paths(6);
    // Tiny budget: explicit generation fails (features need path-length
    // unfoldings far past one strategy node)...
    match both(|ctx| gen_ghw::ghw_generate_in(ctx, &t, 1, 2).unwrap()) {
        Err(gen_ghw::GenError::Budget { .. }) => {}
        other => panic!("expected budget failure, got {other:?}"),
    }
    // ...but classification succeeds and reproduces the labels.
    let lab = both(|ctx| cls_ghw::ghw_classify_in(ctx, &t, &t.db, 1).unwrap()).unwrap();
    for e in t.entities() {
        assert_eq!(lab.get(e), t.labeling.get(e));
    }
}

/// Example 6.2: separable, not with one feature, with two.
#[test]
fn example_6_2_dimension_gap() {
    let t = example_6_2();
    let b = DimBudget::default();
    assert!(both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()));
    assert!(!both(|ctx| cq_sep_dim_in(ctx, &t, 1, &b).unwrap()).unwrap());
    assert!(both(|ctx| cq_sep_dim_in(ctx, &t, 2, &b).unwrap()).unwrap());
}

/// Lemma 6.5 shape: the reduction's padding constants behave as the proof
/// demands (κ_i elements are positive, c⁻ negative, originals keep their
/// side). Full answer-equivalence is tested randomly in cross_solver.rs.
#[test]
fn lemma_6_5_construction_shape() {
    let mut s = Schema::new();
    s.add_relation("R", 1);
    let d = DbBuilder::new(s).fact("R", &["a"]).element("b").build();
    let a = d.val_by_name("a").unwrap();
    let b = d.val_by_name("b").unwrap();
    let red = cqsep::reduction::qbe_to_sep_ell(&d, &[a], &[b], 3);
    let t = &red.train;
    assert_eq!(t.positives().len(), 1 + 2); // a, c1, c2
    assert_eq!(t.negatives().len(), 1 + 1); // b, c_minus
    let c1 = t.db.val_by_name("c1").unwrap();
    assert_eq!(t.labeling.get(c1), Label::Positive);
    let cm = t.db.val_by_name("c_minus").unwrap();
    assert_eq!(t.labeling.get(cm), Label::Negative);
}

/// Theorem 7.4 / Algorithm 2: the relabeling is separable and optimal
/// (brute-forced here on a mixed instance).
#[test]
fn theorem_7_4_optimality() {
    // 2-cycle pair with labels 2+/1−... craft: class {a,b} labels (+,−),
    // class {c,d,e} on a 3-cycle... keep it small: two 2-cycles.
    let t = DbBuilder::new(graph_schema())
        .fact("E", &["a", "b"])
        .fact("E", &["b", "a"])
        .fact("E", &["c", "d"])
        .fact("E", &["d", "c"])
        .positive("a")
        .negative("b")
        .negative("c")
        .negative("d")
        .training();
    let lam2 = both(|ctx| apx::ghw_optimal_relabeling_in(ctx, &t, 1).unwrap());
    let relabeled = TrainingDb::new(t.db.clone(), lam2.clone());
    assert!(
        both(|ctx| sep_ghw::ghw_separable_in(ctx, &relabeled, 1).unwrap()),
        "Algorithm 2 output separable"
    );
    let best = t.labeling.disagreement(&lam2);
    // Brute force over all labelings.
    let ents = t.entities();
    let mut brute = usize::MAX;
    for mask in 0u32..(1 << ents.len()) {
        let mut lab = Labeling::new();
        for (i, &e) in ents.iter().enumerate() {
            lab.set(
                e,
                if mask & (1 << i) != 0 {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        let cand = TrainingDb::new(t.db.clone(), lab.clone());
        if both(|ctx| sep_ghw::ghw_separable_in(ctx, &cand, 1).unwrap()) {
            brute = brute.min(t.labeling.disagreement(&lab));
        }
    }
    assert_eq!(best, brute, "Algorithm 2 must be optimal");
}

/// Corollary 7.5: ApxSep answers follow the optimal-error threshold.
#[test]
fn corollary_7_5_threshold() {
    let t = DbBuilder::new(graph_schema())
        .fact("E", &["a", "b"])
        .fact("E", &["b", "a"])
        .positive("a")
        .negative("b")
        .training();
    // min errors = 1 of 2 entities: ε ≥ 1/2 accepts, below rejects.
    assert!(both(
        |ctx| apx::ghw_apx_separable_in(ctx, &t, 1, 0.5).unwrap()
    ));
    assert!(!both(
        |ctx| apx::ghw_apx_separable_in(ctx, &t, 1, 0.49).unwrap()
    ));
}

/// Proposition 7.1 (shape): padding transfers separability faithfully for
/// several fixed ε (full checks in the apx module tests).
#[test]
fn proposition_7_1_padding() {
    let sep = alternating_paths(3);
    let insep = twin_cycles(3);
    for eps in [0.2, 0.4] {
        let p_sep = apx::pad_for_error(&sep, eps);
        let p_insep = apx::pad_for_error(&insep, eps);
        let n_sep = p_sep.entities().len() as f64;
        let n_insep = p_insep.entities().len() as f64;
        assert!(
            both(|ctx| apx::ghw_min_errors_in(ctx, &p_sep, 1).unwrap()) as f64
                <= (eps * n_sep).floor()
        );
        assert!(
            both(|ctx| apx::ghw_min_errors_in(ctx, &p_insep, 1).unwrap()) as f64 > eps * n_insep
        );
    }
}

/// Proposition 8.1 / Corollary 8.2 (shape): FO-separability is decided by
/// orbit tests; a single FO feature suffices conceptually, witnessed here
/// by FO separating a CQ-inseparable instance.
#[test]
fn proposition_8_1_fo_collapse_witness() {
    // CQ-inseparable but FO-separable (pendant-broken symmetry).
    let t = DbBuilder::new(graph_schema())
        .fact("E", &["a", "b"])
        .fact("E", &["b", "c"])
        .fact("E", &["c", "a"])
        .fact("E", &["x", "y"])
        .fact("E", &["y", "z"])
        .fact("E", &["z", "x"])
        .fact("E", &["x", "t"])
        .positive("a")
        .negative("x")
        .training();
    assert!(!both(|ctx| sep_cq::cq_separable_in(ctx, &t).unwrap()));
    assert!(fo::fo_separable(&t));
}

/// Theorem 8.7 (measured): the linear families force unbounded dimension.
#[test]
fn theorem_8_7_unbounded_dimension() {
    let schema = graph_schema();
    for m in [3usize, 5] {
        let t = alternating_paths(m);
        let pool: Vec<cq::Cq> = (1..=m)
            .map(|len| {
                let mut body = String::from("q(x0) :- eta(x0)");
                for i in 0..len {
                    body += &format!(", E(x{i},x{})", i + 1);
                }
                cq::parse::parse_cq(&schema, &body).unwrap()
            })
            .collect();
        let dim = both(|ctx| fo::min_dimension_of_in(ctx, &t, &pool, m).unwrap()).unwrap();
        assert_eq!(dim, m - 1, "m={m}: dimension must grow with m");
    }
}

/// GHW(k) dimension-bounded separability (Theorem 6.6 upper-bound path):
/// decision via up-set search matches plain separability at saturation.
#[test]
fn theorem_6_6_ghw_dim() {
    let t = example_6_2();
    let b = DimBudget::default();
    assert!(!both(|ctx| ghw_sep_dim_in(ctx, &t, 1, 1, &b).unwrap()).unwrap());
    assert!(both(|ctx| ghw_sep_dim_in(ctx, &t, 1, 2, &b).unwrap()).unwrap());
}
