//! `GHW(k)`-classification without materializing the statistic
//! (§5.3, Theorem 5.8, Algorithm 1).
//!
//! The paradox of §5: `GHW(k)`-separability is polynomial (Thm 5.3) but
//! the separating feature queries can be exponentially large (Thm 5.7) —
//! yet evaluation databases can still be classified in polynomial time,
//! because evaluating the implicit feature `q_{e_i}` at a new entity `f`
//! is just the game question `(D, e_i) →_k (D', f)` (Propositions 5.1 and
//! 5.2). This module is Algorithm 1 verbatim:
//!
//! 1. topologically sort the `→_k`-equivalence classes of `η(D)`;
//! 2. build the linear classifier over the implicit chain statistic
//!    (never constructing `Π`);
//! 3. label each `f ∈ η(D')` by playing the `m` cover games.

use crate::chain::ChainError;
use crate::sep_ghw::ghw_chain_in;
use engine::{Ctx, Interrupted};
use relational::{Database, Labeling, TrainingDb, Val};

/// `GHW(k)`-Cls (Algorithm 1): label the entities of `eval` consistently
/// with a statistic-classifier pair that separates `train`. Returns
/// `Err` when the training database is not `GHW(k)`-separable (the
/// problem promise is violated).
pub fn ghw_classify_in(
    ctx: &Ctx,
    train: &TrainingDb,
    eval: &Database,
    k: usize,
) -> Result<Result<Labeling, ChainError>, Interrupted> {
    let chain = match ghw_chain_in(ctx, train, k)? {
        Ok(chain) => chain,
        Err(e) => return Ok(Err(e)),
    };
    // Every game runs from the training database to `eval`: build their
    // union skeleton once for all m × |η(D')| games. The games are
    // pairwise independent, so the whole m × |η(D')| grid fans out on
    // the parallel driver, memoizing through the engine's cache
    // (Algorithm 2 replays exactly these games after relabeling).
    // Workers swallow Stop with filler verdicts; the sticky post-fan-in
    // check discards the batch.
    let skeleton = covergame::UnionSkeleton::build(&train.db, eval, k);
    let evals = eval.entities();
    let m = chain.class_count();
    let cells: Vec<(Val, usize)> = evals
        .iter()
        .flat_map(|&f| (0..m).map(move |c| (f, c)))
        .collect();
    // Lines 3–9 of Algorithm 1: 𝟙_{q_{e_i}(D')}(f) = +1 iff
    // (D, e_i) →_k (D', f).
    let verdicts = ctx.engine().par_map(&cells, |&(f, c)| {
        let e = chain.elems[chain.representative(c)];
        ctx.cover_implies_with_skeleton(&[e], &[f], &skeleton)
            .unwrap_or(false)
    });
    ctx.check()?;
    let mut out = Labeling::new();
    for (fi, &f) in evals.iter().enumerate() {
        let v: Vec<i32> = (0..m)
            .map(|c| if verdicts[fi * m + c] { 1 } else { -1 })
            .collect();
        out.set(f, chain.classify_vector(&v));
    }
    Ok(Ok(out))
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
    fn training_db_classified_consistently() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = path_train();
        let lab = ghw_classify_in(&ctx, &t, &t.db, 1).unwrap().unwrap();
        for e in t.entities() {
            assert_eq!(lab.get(e), t.labeling.get(e), "{}", t.db.val_name(e));
        }
    }

    #[test]
    fn eval_db_gets_pattern_based_labels() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = path_train();
        let eval = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .fact("E", &["v", "w"])
            .fact("E", &["w", "x"])
            .entity("u")
            .entity("v")
            .entity("w")
            .entity("x")
            .build();
        let lab = ghw_classify_in(&ctx, &t, &eval, 1).unwrap().unwrap();
        // Under →_1, u/v start long out-paths like entity 1 or richer;
        // x is a pure sink like entity 3.
        let name = |s: &str| eval.val_by_name(s).unwrap();
        assert_eq!(lab.get(name("u")), Label::Positive);
        assert_eq!(lab.get(name("x")), Label::Negative);
    }

    #[test]
    fn inseparable_training_db_errors() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "a"])
            .positive("a")
            .negative("b")
            .training();
        assert!(ghw_classify_in(&ctx, &t, &t.db, 1).unwrap().is_err());
    }

    #[test]
    fn agrees_with_explicit_generation_when_feasible() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Cross-check Algorithm 1 against the materialized statistic of
        // gen_ghw on a small instance.
        // Use an isomorphic copy of the training database as evaluation:
        // there the finite extracted features and the ideal implicit
        // features provably coincide, so the two classifiers must agree.
        // (On unrelated evaluation databases both outputs are *valid*
        // GHW(k)-Cls answers but need not be equal.)
        let t = path_train();
        let eval = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .fact("E", &["v", "w"])
            .entity("u")
            .entity("v")
            .entity("w")
            .build();
        let implicit = ghw_classify_in(&ctx, &t, &eval, 1).unwrap().unwrap();
        let model = crate::gen_ghw::ghw_generate_in(&ctx, &t, 1, 10_000)
            .unwrap()
            .expect("generation feasible on this instance");
        assert!(model.separates_in(&ctx, &t).unwrap());
        let explicit = model.classify_in(&ctx, &eval).unwrap();
        for f in eval.entities() {
            assert_eq!(implicit.get(f), explicit.get(f), "{}", eval.val_name(f));
        }
    }
}
