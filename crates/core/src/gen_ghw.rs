//! Explicit `GHW(k)` feature generation (§5.2, Proposition 5.6).
//!
//! When `(D, λ)` is `GHW(k)`-separable, a separating statistic of
//! dimension ≤ `|η(D)|` exists whose features `q_e(x)` are conjunctions of
//! cover-game extractions (Lemma 5.4) — each of size up to *exponential*
//! in `|D|`, and Theorem 5.7 shows that blowup is unavoidable. The
//! generator therefore takes a node budget; callers who only need to
//! *classify* should use [`crate::cls_ghw`] instead, which is the whole
//! point of §5.3.

use crate::sep_ghw::ghw_chain_in;
use crate::statistic::{SeparatorModel, Statistic};
use covergame::extract::lemma54_feature;
use covergame::ExtractError;
use cq::Cq;
use engine::{Ctx, Interrupted};
use relational::TrainingDb;
use std::fmt;

/// Why explicit generation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The training database is not `GHW(k)`-separable.
    NotSeparable,
    /// Some feature's strategy unfolding exceeded the node budget
    /// (Theorem 5.7 in action).
    Budget { nodes: usize },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::NotSeparable => write!(f, "training database is not GHW(k)-separable"),
            GenError::Budget { nodes } => {
                write!(f, "feature extraction exceeded the {nodes}-node budget")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// Generate an explicit separating pair `(Π, Λ_w̄)` with features in
/// `GHW(k)` (Proposition 5.6). `max_nodes` bounds each feature's
/// strategy-tree unfolding.
///
/// Interruptible. The strategy unfoldings themselves are budget-bounded and
/// uncached, so the handle is observed between features rather than inside an
/// unfolding.
pub fn ghw_generate_in(
    ctx: &Ctx,
    train: &TrainingDb,
    k: usize,
    max_nodes: usize,
) -> Result<Result<SeparatorModel, GenError>, Interrupted> {
    let chain = match ghw_chain_in(ctx, train, k)? {
        Ok(chain) => chain,
        Err(_) => return Ok(Err(GenError::NotSeparable)),
    };
    let entities = train.entities();
    let mut features: Vec<Cq> = Vec::with_capacity(chain.class_count());
    for c in 0..chain.class_count() {
        ctx.check()?;
        let e = chain.elems[chain.representative(c)];
        let q = match lemma54_feature(&train.db, e, &entities, k, max_nodes) {
            Ok(q) => q,
            Err(ExtractError::Budget { nodes }) => return Ok(Err(GenError::Budget { nodes })),
            Err(ExtractError::DuplicatorWins) => unreachable!("filtered by lemma54_feature"),
        };
        features.push(q);
    }
    Ok(Ok(SeparatorModel {
        statistic: Statistic::new(features),
        classifier: chain.classifier.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::evaluate_unary;
    use engine::Engine;
    use relational::{DbBuilder, Schema};

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    #[test]
    fn generated_model_separates() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .positive("1")
            .positive("2")
            .negative("3")
            .training();
        let model = ghw_generate_in(&ctx, &t, 1, 10_000).unwrap().unwrap();
        assert!(model.separates_in(&ctx, &t).unwrap(), "{}", model.statistic);
        assert_eq!(model.statistic.dimension(), 3);
    }

    #[test]
    fn features_select_up_sets() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Each generated q_{e_i} must select exactly the →_k-upward
        // closure of e_i on the training database.
        let t = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .positive("1")
            .positive("2")
            .negative("3")
            .training();
        let model = ghw_generate_in(&ctx, &t, 1, 10_000).unwrap().unwrap();
        let chain = crate::sep_ghw::ghw_chain_in(&ctx, &t, 1).unwrap().unwrap();
        for (c, q) in model.statistic.features.iter().enumerate() {
            let e = chain.elems[chain.representative(c)];
            let selected = evaluate_unary(q, &t.db);
            for (j, &e2) in chain.elems.iter().enumerate() {
                let expect = covergame::cover_implies(&t.db, &[e], &t.db, &[e2], 1);
                assert_eq!(selected.contains(&e2), expect, "feature {c} at entity {j}");
            }
        }
    }

    #[test]
    fn inseparable_reports_not_separable() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "a"])
            .positive("a")
            .negative("b")
            .training();
        assert!(matches!(
            ghw_generate_in(&ctx, &t, 1, 10_000).unwrap(),
            Err(GenError::NotSeparable)
        ));
    }

    #[test]
    fn tiny_budget_reports_budget() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .fact("E", &["3", "4"])
            .fact("E", &["4", "5"])
            .positive("1")
            .negative("5")
            .training();
        match ghw_generate_in(&ctx, &t, 1, 1).unwrap() {
            Err(GenError::Budget { .. }) => {}
            Ok(model) => assert!(model.separates_in(&ctx, &t).unwrap()),
            Err(other) => panic!("{other}"),
        }
    }

    #[test]
    fn generated_features_have_bounded_ghw() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .positive("1")
            .positive("2")
            .negative("3")
            .training();
        let model = ghw_generate_in(&ctx, &t, 1, 10_000).unwrap().unwrap();
        for q in &model.statistic.features {
            assert!(cq::ghw(q) <= 1, "{q}");
        }
    }
}
