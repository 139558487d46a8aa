//! Unrestricted CQ-separability (Theorem 3.2 baseline and §6.2).
//!
//! Kimelfeld–Ré: `(D, λ)` is CQ-separable iff no positive/negative pair of
//! entities is CQ-indistinguishable, where indistinguishability is mutual
//! homomorphic implication `(D,e) → (D,e')` — each direction an
//! NP-complete check, putting the problem in coNP (and it is
//! coNP-complete; our solver is exact and exponential only in the
//! homomorphism search).
//!
//! For *generation* (unlike `GHW(k)`!) the canonical features are small:
//! `q_e(x)` is just the canonical CQ of the pointed database `(D, e)`, of
//! size `|D|`, with `q_e(D) = { e' : (D,e) → (D,e') }`. The chain
//! construction of Lemma 5.4 then yields a polynomial-size separating
//! statistic, and classification of evaluation databases runs the same
//! homomorphism tests cross-database.

use crate::chain::{build_chain_in, ChainError, ChainModel};
use crate::statistic::{SeparatorModel, Statistic};
use cq::Cq;
use engine::{Ctx, Interrupted};
use relational::{Database, Labeling, TrainingDb, Val};

/// Decide CQ-separability (Thm 3.2; coNP).
pub fn cq_separable_in(ctx: &Ctx, train: &TrainingDb) -> Result<bool, Interrupted> {
    ctx.check()?;
    // Cheaper than building the full preorder: only pos/neg pairs matter.
    // Each pair is an independent NP query — fan out and stop at the
    // first hom-equivalent pair. Workers report filler verdicts on Stop;
    // the sticky post-fan-in check discards the batch.
    let sep = ctx.engine().par_all_pairs(&train.opposing_pairs(), |p, n| {
        !(ctx
            .hom_exists(&train.db, &train.db, &[(p, n)])
            .unwrap_or(false)
            && ctx
                .hom_exists(&train.db, &train.db, &[(n, p)])
                .unwrap_or(false))
    });
    ctx.check()?;
    Ok(sep)
}

/// The hom-preorder chain model over the training entities.
pub fn cq_chain_in(
    ctx: &Ctx,
    train: &TrainingDb,
) -> Result<Result<ChainModel, ChainError>, Interrupted> {
    ctx.check()?;
    let elems = train.entities();
    let n = elems.len();
    // The n×n preorder matrix: n² independent hom queries, most of them
    // shared with `cq_separable_in`/`cq_classify_in` through the memo cache.
    let cells: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let flat = ctx.engine().par_map(&cells, |&(i, j)| {
        i == j
            || ctx
                .hom_exists(&train.db, &train.db, &[(elems[i], elems[j])])
                .unwrap_or(false)
    });
    ctx.check()?;
    let leq: Vec<Vec<bool>> = flat.chunks(n.max(1)).map(|row| row.to_vec()).collect();
    build_chain_in(ctx, train, &elems, &leq)
}

/// Feature generation for CQ: the explicit chain statistic
/// `Π = (q_{e_1}, …, q_{e_m})` of canonical queries plus its classifier.
/// Polynomial-size output (contrast Theorem 5.7 for `GHW(k)`).
pub fn cq_generate_in(
    ctx: &Ctx,
    train: &TrainingDb,
) -> Result<Option<SeparatorModel>, Interrupted> {
    let chain = match cq_chain_in(ctx, train)? {
        Ok(chain) => chain,
        Err(_) => return Ok(None),
    };
    let features: Vec<Cq> = (0..chain.class_count())
        .map(|c| {
            let e = chain.elems[chain.representative(c)];
            Cq::from_pointed_db(&train.db, e).with_entity_guard()
        })
        .collect();
    Ok(Some(SeparatorModel {
        statistic: Statistic::new(features),
        classifier: chain.classifier.clone(),
    }))
}

/// CQ-Cls: classify an evaluation database consistently with a separating
/// statistic, evaluating the implicit features by cross-database
/// homomorphism tests.
pub fn cq_classify_in(
    ctx: &Ctx,
    train: &TrainingDb,
    eval: &Database,
) -> Result<Option<Labeling>, Interrupted> {
    let chain = match cq_chain_in(ctx, train)? {
        Ok(chain) => chain,
        Err(_) => return Ok(None),
    };
    // Flatten the (entity × class-representative) grid so one parallel
    // sweep covers every cross-database hom test.
    let ents = eval.entities();
    let k = chain.class_count();
    let cells: Vec<(Val, usize)> = ents
        .iter()
        .flat_map(|&f| (0..k).map(move |c| (f, c)))
        .collect();
    let bits = ctx.engine().par_map(&cells, |&(f, c)| {
        let e = chain.elems[chain.representative(c)];
        ctx.hom_exists(&train.db, eval, &[(e, f)]).unwrap_or(false)
    });
    ctx.check()?;
    let mut out = Labeling::new();
    for (row, &f) in ents.iter().enumerate() {
        let v: Vec<i32> = bits[row * k..(row + 1) * k]
            .iter()
            .map(|&b| if b { 1 } else { -1 })
            .collect();
        out.set(f, chain.classify_vector(&v));
    }
    Ok(Some(out))
}

/// The CQ-indistinguishability witness, when inseparable: a positive and
/// a negative entity that are hom-equivalent (the "reason" of Lemma 5.4's
/// criterion, CQ version).
pub fn cq_inseparability_witness_in(
    ctx: &Ctx,
    train: &TrainingDb,
) -> Result<Option<(Val, Val)>, Interrupted> {
    ctx.check()?;
    let pairs = train.opposing_pairs();
    let hit = ctx
        .engine()
        .par_find_first(&pairs, |&(p, n)| {
            ctx.hom_exists(&train.db, &train.db, &[(p, n)])
                .unwrap_or(false)
                && ctx
                    .hom_exists(&train.db, &train.db, &[(n, p)])
                    .unwrap_or(false)
        })
        .map(|i| pairs[i]);
    ctx.check()?;
    Ok(hit)
}

/// ∃FO⁺-separability coincides with CQ-separability (Proposition 8.3(2)):
/// unions/conjunctions of CQs distinguish exactly what single CQs do at
/// the level of entity pairs.
pub fn epfo_separable_in(ctx: &Ctx, train: &TrainingDb) -> Result<bool, Interrupted> {
    cq_separable_in(ctx, train)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Engine;
    use relational::{DbBuilder, Label, Schema};

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    fn path_train() -> TrainingDb {
        DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .positive("1")
            .positive("2")
            .negative("3")
            .training()
    }

    #[test]
    fn path_is_separable_and_generates() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = path_train();
        assert!(cq_separable_in(&ctx, &t).unwrap());
        assert!(cq_inseparability_witness_in(&ctx, &t).unwrap().is_none());
        let model = cq_generate_in(&ctx, &t).unwrap().expect("separable");
        assert!(model.separates_in(&ctx, &t).unwrap(), "{}", model.statistic);
        assert_eq!(model.statistic.dimension(), 3);
    }

    #[test]
    fn hom_equivalent_pair_blocks() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Two disjoint 3-cycles: all six elements hom-equivalent.
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "x"])
            .positive("a")
            .negative("x")
            .training();
        assert!(!cq_separable_in(&ctx, &t).unwrap());
        let (p, n) = cq_inseparability_witness_in(&ctx, &t).unwrap().unwrap();
        assert_eq!(t.labeling.get(p), Label::Positive);
        assert_eq!(t.labeling.get(n), Label::Negative);
        assert!(cq_generate_in(&ctx, &t).unwrap().is_none());
        assert!(cq_classify_in(&ctx, &t, &t.db).unwrap().is_none());
    }

    #[test]
    fn classification_transfers_to_eval_db() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = path_train();
        // Evaluation: a longer all-entity path. The canonical features
        // q_e are whole-database patterns (η facts included), so the
        // eval path must be entity-labeled throughout for them to match.
        let eval = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .fact("E", &["v", "w"])
            .fact("E", &["w", "x"])
            .entity("u")
            .entity("v")
            .entity("w")
            .entity("x")
            .build();
        let lab = cq_classify_in(&ctx, &t, &eval).unwrap().unwrap();
        let u = eval.val_by_name("u").unwrap();
        let w = eval.val_by_name("w").unwrap();
        let x = eval.val_by_name("x").unwrap();
        // u's feature vector equals training entity 1's exactly, so it
        // must inherit that label; likewise x matches entity 3.
        assert_eq!(lab.get(u), Label::Positive);
        assert_eq!(lab.get(x), Label::Negative);
        // w's vector (-,+,+) never occurs in training — any label is a
        // valid CQ-Cls answer for it — so we only require totality.
        let _ = lab.get(w);
    }

    #[test]
    fn classification_agrees_with_model_on_training() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = path_train();
        let lab = cq_classify_in(&ctx, &t, &t.db).unwrap().unwrap();
        for e in t.entities() {
            assert_eq!(lab.get(e), t.labeling.get(e));
        }
        // And with the explicit generated model.
        let model = cq_generate_in(&ctx, &t).unwrap().unwrap();
        let model_lab = model.classify_in(&ctx, &t.db).unwrap();
        for e in t.entities() {
            assert_eq!(model_lab.get(e), t.labeling.get(e));
        }
    }

    #[test]
    fn example_6_2_needs_two_features_but_is_separable() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Example 6.2 of the paper: D = {R(a), S(a), S(c), η(a), η(b),
        // η(c)}, λ(a)=λ(b)=+, λ(c)=−.
        let mut s = Schema::entity_schema();
        s.add_relation("R", 1);
        s.add_relation("S", 1);
        let t = DbBuilder::new(s)
            .fact("R", &["a"])
            .fact("S", &["a"])
            .fact("S", &["c"])
            .positive("a")
            .positive("b")
            .negative("c")
            .training();
        assert!(cq_separable_in(&ctx, &t).unwrap());
        let model = cq_generate_in(&ctx, &t).unwrap().unwrap();
        assert!(model.separates_in(&ctx, &t).unwrap());
    }
}
