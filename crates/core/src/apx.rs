//! Approximate separability (§7): classification with an ε fraction of
//! errors allowed.
//!
//! * **`GHW(k)`** (Theorem 7.4, Algorithm 2): relabel each
//!   `→_k`-equivalence class by majority vote. The resulting labeling is
//!   `GHW(k)`-separable and provably disagreement-minimal, so
//!   `GHW(k)`-ApxSep and `GHW(k)`-ApxCls are polynomial (Corollary 7.5).
//! * **`CQ[m]`** (Propositions 7.2/7.3): the feature matrix is fixed by
//!   enumeration; approximate linear separability (NP-complete, \[17\]) is
//!   solved exactly by the branch-and-bound in `linsep::minerror`.
//! * **Hardness transfer** (Proposition 7.1): [`pad_for_error`] maps an
//!   exact separability instance to an ε-error instance by adding a block
//!   of mutually indistinguishable, conflictingly-labeled *anchor*
//!   entities that soak up the entire error budget.

use crate::cls_ghw::ghw_classify_in;
use crate::sep_ghw::ghw_preorder_in;
use crate::statistic::SeparatorModel;
use cq::EnumConfig;
use engine::{Ctx, Interrupted};
use relational::{Database, Label, Labeling, Schema, TrainingDb};

/// Algorithm 2: the disagreement-minimal `GHW(k)`-separable relabeling
/// `λ'` of the training database (majority vote per `→_k`-class).
pub fn ghw_optimal_relabeling_in(
    ctx: &Ctx,
    train: &TrainingDb,
    k: usize,
) -> Result<Labeling, Interrupted> {
    Ok(ghw_optimal_relabeling_from(
        &ghw_preorder_in(ctx, train, k)?,
        &train.labeling,
    ))
}

/// Algorithm 2 against a precomputed `→_k` preorder. The preorder depends
/// only on the database — not the labels — so callers sweeping noise
/// levels or labelings should compute it once and reuse it here.
pub fn ghw_optimal_relabeling_from(
    pre: &covergame::CoverPreorder,
    labeling: &Labeling,
) -> Labeling {
    let mut out = Labeling::new();
    for class in &pre.classes {
        let score: i32 = class
            .iter()
            .map(|&i| labeling.get(pre.elems[i]).to_i32())
            .sum();
        let label = Label::from_sign(score);
        for &i in class {
            out.set(pre.elems[i], label);
        }
    }
    out
}

/// The minimum achievable error count for `GHW(k)` statistics (the `δ` of
/// Corollary 7.5's proof, as a count rather than a fraction).
pub fn ghw_min_errors_in(ctx: &Ctx, train: &TrainingDb, k: usize) -> Result<usize, Interrupted> {
    Ok(train
        .labeling
        .disagreement(&ghw_optimal_relabeling_in(ctx, train, k)?))
}

/// `GHW(k)`-ApxSep: is the training database separable with error ε?
pub fn ghw_apx_separable_in(
    ctx: &Ctx,
    train: &TrainingDb,
    k: usize,
    eps: f64,
) -> Result<bool, Interrupted> {
    ctx.check()?;
    let n = train.entities().len();
    if n == 0 {
        return Ok(true);
    }
    let min = ghw_min_errors_in(ctx, train, k)? as f64;
    Ok(min <= eps * n as f64)
}

/// `GHW(k)`-ApxCls (Corollary 7.5): classify an evaluation database by a
/// pair that separates `(D, λ')` exactly — hence `(D, λ)` with minimal
/// error. Returns the evaluation labeling.
pub fn ghw_apx_classify_in(
    ctx: &Ctx,
    train: &TrainingDb,
    eval: &Database,
    k: usize,
) -> Result<Labeling, Interrupted> {
    // The relabeled training database is a clone — identical content,
    // identical fingerprint — so every game the relabeling's preorder and
    // the classification sweep replay is a hit in the engine's game cache.
    let relabeled = TrainingDb::new(train.db.clone(), ghw_optimal_relabeling_in(ctx, train, k)?);
    Ok(ghw_classify_in(ctx, &relabeled, eval, k)?
        .expect("Algorithm 2's relabeling is GHW(k)-separable by construction"))
}

/// `CQ[m]`-ApxSep / feature generation with minimum error
/// (Propositions 7.2/7.3): returns the best model and its error count.
///
/// Interruptible: the enumeration sweep and the branch-and-bound min-error
/// search both observe the handle.
pub fn cqm_apx_generate_in(
    ctx: &Ctx,
    train: &TrainingDb,
    config: &EnumConfig,
) -> Result<(SeparatorModel, usize), Interrupted> {
    let (statistic, rows, labels) =
        crate::sep_cqm::column_reduced_statistic_in(ctx, train, config)?;
    let r = ctx.min_error(&rows, &labels)?;
    Ok((
        SeparatorModel {
            statistic,
            classifier: r.classifier,
        },
        r.errors,
    ))
}

/// `CQ[m]`-ApxSep decision.
pub fn cqm_apx_separable_in(
    ctx: &Ctx,
    train: &TrainingDb,
    config: &EnumConfig,
    eps: f64,
) -> Result<bool, Interrupted> {
    ctx.check()?;
    let n = train.entities().len();
    if n == 0 {
        return Ok(true);
    }
    let (_, errors) = cqm_apx_generate_in(ctx, train, config)?;
    Ok(errors as f64 <= eps * n as f64)
}

/// The Proposition 7.1-style padding: build `(D', λ')` over a schema
/// extended with a fresh unary `anchor` symbol such that, for the *fixed*
/// `eps ∈ [0, 1/2)`, `(D', λ')` is `L`-separable with error `eps` iff
/// `(D, λ)` is `L`-separable exactly — for every CQ class `L` containing
/// the single-atom queries.
///
/// The anchors are `M` mutually indistinguishable entities (each with an
/// `anchor` fact), `⌈M/2⌉` positive and `⌊M/2⌋` negative, with `M` chosen
/// so the forced `⌊M/2⌋` errors leave a spare budget `< 1`.
pub fn pad_for_error(train: &TrainingDb, eps: f64) -> TrainingDb {
    assert!(
        (0.0..0.5).contains(&eps),
        "Proposition 7.1 needs ε ∈ [0, 1/2)"
    );
    let n = train.entities().len();

    // Choose the anchor count: the smallest even M with
    // ⌊eps·(n+M)⌋ == M/2, so the anchors' forced ⌊M/2⌋ errors consume the
    // error budget exactly, leaving none for the original entities.
    // Stepping M by 2 changes budget−forced by 0 or −1 (since 2·eps < 1),
    // so the equality is always hit; M = 0 means no padding needed.
    let budget_of = |m: usize| (eps * (n + m) as f64).floor() as usize;
    let mut m = 0usize;
    while budget_of(m) != m / 2 {
        m += 2;
        assert!(m <= 100 * n + 100, "anchor search failed to converge");
    }

    // Extended schema.
    let mut schema = Schema::new();
    let old = train.db.schema();
    for r in old.rel_ids() {
        schema.add_relation(old.name(r), old.arity(r));
    }
    if schema
        .rel_by_name(relational::schema::ENTITY_REL_NAME)
        .is_none()
    {
        let eta = schema.add_relation(relational::schema::ENTITY_REL_NAME, 1);
        schema.set_entity(eta);
    } else {
        let eta = schema
            .rel_by_name(relational::schema::ENTITY_REL_NAME)
            .unwrap();
        schema.set_entity(eta);
    }
    let anchor = schema.add_relation("anchor", 1);

    let mut db = Database::new(schema);
    for v in train.db.dom() {
        db.value(train.db.val_name(v));
    }
    for f in train.db.facts() {
        let rel = db.schema().rel_by_name(old.name(f.rel)).unwrap();
        let args = f
            .args
            .iter()
            .map(|&a| db.value(train.db.val_name(a)))
            .collect();
        db.add_fact(rel, args);
    }
    let mut labeling = Labeling::new();
    for e in train.entities() {
        labeling.set(
            db.val_by_name(train.db.val_name(e)).unwrap(),
            train.labeling.get(e),
        );
    }
    for i in 0..m {
        let a = db.value(&format!("_anchor{i}"));
        db.add_fact(anchor, vec![a]);
        db.add_entity(a);
        labeling.set(
            a,
            if i % 2 == 0 {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    TrainingDb::new(db, labeling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Engine;
    use relational::DbBuilder;

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    /// Path with one noisy label: 1→2→3→4, labels +,+,−,− except entity 2
    /// flipped to −... build both clean and noisy variants.
    fn path4(labels: [bool; 4]) -> TrainingDb {
        let mut b = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .fact("E", &["3", "4"]);
        for (i, &l) in labels.iter().enumerate() {
            let name = (i + 1).to_string();
            b = if l {
                b.positive(&name)
            } else {
                b.negative(&name)
            };
        }
        b.training()
    }

    #[test]
    fn separable_instance_has_zero_min_errors() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = path4([true, true, false, false]);
        assert_eq!(ghw_min_errors_in(&ctx, &t, 1).unwrap(), 0);
        assert!(ghw_apx_separable_in(&ctx, &t, 1, 0.0).unwrap());
    }

    #[test]
    fn conflicting_twins_force_one_error() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Two disjoint 2-cycles with conflicting labels inside each...
        // simplest: one 2-cycle labeled +/-: the class {a, b} is mixed,
        // majority is a tie -> relabel the whole class positive, 1 error.
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "a"])
            .positive("a")
            .negative("b")
            .training();
        assert_eq!(ghw_min_errors_in(&ctx, &t, 1).unwrap(), 1);
        assert!(!ghw_apx_separable_in(&ctx, &t, 1, 0.0).unwrap());
        assert!(ghw_apx_separable_in(&ctx, &t, 1, 0.5).unwrap());
        // The relabeling is separable and classification succeeds.
        let lab = ghw_apx_classify_in(&ctx, &t, &t.db, 1).unwrap();
        let a = t.db.val_by_name("a").unwrap();
        let b = t.db.val_by_name("b").unwrap();
        assert_eq!(lab.get(a), lab.get(b), "twins get one label");
    }

    #[test]
    fn algorithm_2_is_optimal_on_small_instances() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Brute force: every GHW(k)-separable labeling λ'' must disagree
        // at least as much as Algorithm 2's λ'.
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "a"])
            .fact("E", &["c", "d"])
            .fact("E", &["d", "c"])
            .positive("a")
            .positive("b")
            .positive("c")
            .negative("d")
            .training();
        let best = ghw_min_errors_in(&ctx, &t, 1).unwrap();
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
            if crate::sep_ghw::ghw_separable_in(&ctx, &cand, 1).unwrap() {
                brute = brute.min(t.labeling.disagreement(&lab));
            }
        }
        assert_eq!(best, brute);
    }

    #[test]
    fn cqm_apx_on_noisy_path() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Flip one label on a CQ[1]-separable path; min errors must be 1.
        let clean = path4([true, true, true, false]);
        let (_, e0) = cqm_apx_generate_in(&ctx, &clean, &EnumConfig::cqm(1)).unwrap();
        assert_eq!(e0, 0);
        let noisy = path4([true, false, true, false]);
        let (model, e1) = cqm_apx_generate_in(&ctx, &noisy, &EnumConfig::cqm(1)).unwrap();
        assert_eq!(e1, 1);
        assert_eq!(model.errors_in(&ctx, &noisy).unwrap(), 1);
        assert!(cqm_apx_separable_in(&ctx, &noisy, &EnumConfig::cqm(1), 0.25).unwrap());
        assert!(!cqm_apx_separable_in(&ctx, &noisy, &EnumConfig::cqm(1), 0.2).unwrap());
    }

    #[test]
    fn padding_preserves_separability_status() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        for eps in [0.1, 0.25, 0.4] {
            // Separable instance.
            let t = path4([true, true, false, false]);
            let padded = pad_for_error(&t, eps);
            let n = padded.entities().len() as f64;
            let budget = (eps * n).floor();
            let min = ghw_min_errors_in(&ctx, &padded, 1).unwrap() as f64;
            assert!(
                min <= budget,
                "eps={eps}: separable instance must fit the budget ({min} > {budget})"
            );

            // Inseparable instance (mixed 2-cycle).
            let bad = DbBuilder::new(schema())
                .fact("E", &["a", "b"])
                .fact("E", &["b", "a"])
                .positive("a")
                .negative("b")
                .training();
            let padded = pad_for_error(&bad, eps);
            let n = padded.entities().len() as f64;
            let min = ghw_min_errors_in(&ctx, &padded, 1).unwrap() as f64;
            assert!(
                min > eps * n,
                "eps={eps}: inseparable instance must exceed the budget"
            );
        }
    }

    #[test]
    fn anchors_are_schema_visible() {
        let t = path4([true, true, false, false]);
        let padded = pad_for_error(&t, 0.25);
        assert!(padded.db.schema().rel_by_name("anchor").is_some());
        assert!(padded.entities().len() > t.entities().len());
    }
}
