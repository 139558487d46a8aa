//! `GHW(k)`-separability in polynomial time (§5.1, Theorem 5.3).
//!
//! The GHW(k)-separability test (Proposition 5.5): accept iff no
//! positive/negative entity pair is mutually `→_k`-related. Each game
//! solve is polynomial for fixed `k` (and arity), so the whole test is —
//! in sharp contrast to generation (§5.2), which this module deliberately
//! does *not* do.

use crate::chain::{build_chain_in, ChainError, ChainModel};
use covergame::{CoverPreorder, UnionSkeleton};
use engine::{Ctx, Interrupted};
use relational::{TrainingDb, Val};

/// Decide `GHW(k)`-separability (Theorem 5.3).
pub fn ghw_separable_in(ctx: &Ctx, train: &TrainingDb, k: usize) -> Result<bool, Interrupted> {
    Ok(ghw_inseparability_witness_in(ctx, train, k)?.is_none())
}

/// A positive/negative pair that is `GHW(k)`-indistinguishable, if any
/// (the failure certificate of Lemma 5.4 (2)).
pub fn ghw_inseparability_witness_in(
    ctx: &Ctx,
    train: &TrainingDb,
    k: usize,
) -> Result<Option<(Val, Val)>, Interrupted> {
    ctx.check()?;
    // All games run from the training database to itself, hence share
    // one union skeleton and its position tables; each pair's
    // two game solves are independent of every other pair's, so the
    // candidate sweep runs on the parallel driver. Verdicts memoize in
    // the engine's cache, where a later full-preorder sweep reuses them.
    // Workers swallow Stop with a filler verdict; the sticky post-fan-in
    // check discards the batch.
    let skeleton = UnionSkeleton::build(&train.db, &train.db, k);
    let implies = |a: Val, b: Val| {
        ctx.cover_implies_with_skeleton(&[a], &[b], &skeleton)
            .unwrap_or(false)
    };
    let pairs = train.opposing_pairs();
    let hit = ctx
        .engine()
        .par_find_first(&pairs, |&(p, n)| implies(p, n) && implies(n, p))
        .map(|i| pairs[i]);
    ctx.check()?;
    Ok(hit)
}

/// The full `→_k` preorder over the training entities (used by
/// classification and the approximate algorithms; more expensive than the
/// pairwise test above but still polynomial).
pub fn ghw_preorder_in(
    ctx: &Ctx,
    train: &TrainingDb,
    k: usize,
) -> Result<CoverPreorder, Interrupted> {
    ctx.preorder(&train.db, &train.entities(), k)
}

/// The chain model of Lemma 5.4 for the `→_k` preorder: the implicit
/// statistic `Π = (q_{e_1}, …, q_{e_m})` *represented by its preorder
/// only*, plus the linear classifier.
pub fn ghw_chain_in(
    ctx: &Ctx,
    train: &TrainingDb,
    k: usize,
) -> Result<Result<ChainModel, ChainError>, Interrupted> {
    let pre = ghw_preorder_in(ctx, train, k)?;
    build_chain_in(ctx, train, &pre.elems, &pre.leq)
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

    #[test]
    fn path_separable_at_k1() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .positive("1")
            .positive("2")
            .negative("3")
            .training();
        assert!(ghw_separable_in(&ctx, &t, 1).unwrap());
        let chain = ghw_chain_in(&ctx, &t, 1).unwrap().unwrap();
        assert_eq!(chain.class_count(), 3);
    }

    #[test]
    fn width_hierarchy_on_cycles() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // a on a (shared-element) structure: entity x on C2, entity a on
        // C4, labeled oppositely. GHW(1) distinguishes: the 2-cycle query
        // ∃y E(x,y),E(y,x) has ghw 1 and holds only at the C2 members.
        let t = DbBuilder::new(schema())
            .fact("E", &["x", "y"])
            .fact("E", &["y", "x"])
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "d"])
            .fact("E", &["d", "a"])
            .positive("x")
            .negative("a")
            .training();
        assert!(ghw_separable_in(&ctx, &t, 1).unwrap());
        assert!(ghw_separable_in(&ctx, &t, 2).unwrap());
    }

    #[test]
    fn ghw_separable_implies_cq_separable() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // GHW(k) ⊆ CQ: a GHW(k)-separable instance is CQ-separable.
        let samples = [
            vec![("1", "2"), ("2", "3")],
            vec![("a", "b"), ("b", "a")],
            vec![("a", "a"), ("a", "b")],
        ];
        for edges in samples {
            let mut b = DbBuilder::new(schema());
            for (x, y) in &edges {
                b = b.fact("E", &[x, y]);
            }
            let t = b.positive(edges[0].0).negative(edges[0].1).training();
            for k in 1..=2 {
                if ghw_separable_in(&ctx, &t, k).unwrap() {
                    assert!(
                        crate::sep_cq::cq_separable_in(&ctx, &t).unwrap(),
                        "GHW({k}) separated but CQ did not: {edges:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn witness_labels_are_correct() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "a"])
            .positive("a")
            .negative("b")
            .training();
        let (p, n) = ghw_inseparability_witness_in(&ctx, &t, 1)
            .unwrap()
            .expect("2-cycle collapses");
        assert_eq!(t.labeling.get(p), Label::Positive);
        assert_eq!(t.labeling.get(n), Label::Negative);
        assert!(!ghw_separable_in(&ctx, &t, 2).unwrap());
    }

    #[test]
    fn k_monotonicity_of_separability() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // GHW(k) ⊆ GHW(k+1): separability is monotone in k.
        let t = DbBuilder::new(schema())
            .fact("E", &["p", "q"])
            .fact("E", &["q", "r"])
            .fact("E", &["r", "p"])
            .fact("E", &["u", "v"])
            .fact("E", &["v", "w"])
            .fact("E", &["w", "u"])
            .fact("E", &["u", "w"])
            .positive("p")
            .negative("u")
            .training();
        let mut prev = false;
        for k in 1..=2 {
            let now = ghw_separable_in(&ctx, &t, k).unwrap();
            if prev {
                assert!(now, "separability must be monotone in k");
            }
            prev = now;
        }
    }
}
