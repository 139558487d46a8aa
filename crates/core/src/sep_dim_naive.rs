//! The literal `(L, ℓ)`-separability test of Lemma 6.3 — guess a ±1
//! vector per entity, check linear separability, ask an `L`-QBE oracle
//! per coordinate.
//!
//! This is the paper's algorithm verbatim: exhaustive over the
//! `(2^ℓ)^{|η(D)|}` vector assignments. The optimized solver in
//! [`crate::sep_dim`] restricts the guesses using indistinguishability
//! classes and up-set structure; this module exists as an *independent
//! oracle* so the test suite can confirm the two agree (they implement
//! one theorem through two very different searches), and as the honest
//! exhibit of the guess-and-check complexity the paper's upper bounds
//! are built from.

use crate::sep_dim::{DimBudget, DimClass, DimError};
use engine::{Ctx, Interrupted};
use relational::{TrainingDb, Val};

/// Decide `L`-Sep\[ℓ\] by the literal Lemma 6.3 search. Exponential in
/// `ℓ · |η(D)|`; use only on tiny instances (the test suite does).
///
/// Interruptible: the handle is observed once per guessed assignment κ (each LP
/// and QBE call also checks on entry).
pub fn sep_dim_naive_in(
    ctx: &Ctx,
    train: &TrainingDb,
    class: &DimClass,
    ell: usize,
    budget: &DimBudget,
) -> Result<Result<bool, DimError>, Interrupted> {
    ctx.check()?;
    let elems = train.entities();
    let n = elems.len();
    if n == 0 {
        return Ok(Ok(true));
    }
    assert!(
        n * ell <= 20,
        "naive Lemma 6.3 search is exponential; use cqsep::sep_dim instead"
    );
    let labels: Vec<i32> = elems
        .iter()
        .map(|&e| train.labeling.get(e).to_i32())
        .collect();

    // Enumerate κ : entities → {±1}^ℓ as one big bitmask.
    let total_bits = n * ell;
    'outer: for mask in 0u64..(1u64 << total_bits) {
        ctx.check()?;
        let kappa = |i: usize, j: usize| -> i32 {
            if mask & (1u64 << (i * ell + j)) != 0 {
                1
            } else {
                -1
            }
        };
        // Step 1: linear separability of the guessed vectors.
        let vectors: Vec<Vec<i32>> = (0..n)
            .map(|i| (0..ell).map(|j| kappa(i, j)).collect())
            .collect();
        if ctx.separate(&vectors, &labels)?.is_none() {
            continue;
        }
        // Step 2: each coordinate must be L-explainable.
        for j in 0..ell {
            let pos: Vec<Val> = (0..n)
                .filter(|&i| kappa(i, j) == 1)
                .map(|i| elems[i])
                .collect();
            let neg: Vec<Val> = (0..n)
                .filter(|&i| kappa(i, j) == -1)
                .map(|i| elems[i])
                .collect();
            // An all-negative coordinate: a constant-false feature. As in
            // the optimized solver, skip such guesses — a constant column
            // never affects separability (its weight can be zeroed), and
            // whether a never-satisfied CQ exists is schema-dependent.
            if pos.is_empty() {
                continue 'outer;
            }
            let verdict = match class {
                DimClass::Cq => {
                    engine::cq_qbe_decide_in(ctx, &train.db, &pos, &neg, budget.product_budget)?
                }
                DimClass::Ghw(k) => engine::ghw_qbe_decide_in(
                    ctx,
                    &train.db,
                    &pos,
                    &neg,
                    *k,
                    budget.product_budget,
                )?,
            };
            match verdict {
                Ok(true) => {}
                Ok(false) => continue 'outer,
                Err(e) => return Ok(Err(e.into())),
            }
        }
        return Ok(Ok(true));
    }
    Ok(Ok(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sep_dim::{cq_sep_dim_in, ghw_sep_dim_in};
    use engine::Engine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relational::{Database, Label, Labeling, Schema};

    fn random_train(n: usize, seed: u64) -> TrainingDb {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new(s);
        let e = db.schema().rel_by_name("E").unwrap();
        let vals: Vec<Val> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
        for i in 0..n {
            for j in 0..n {
                if rng.random::<f64>() < 0.3 {
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

    /// The optimized up-set solver and the literal Lemma 6.3 search must
    /// agree — two independent implementations of one theorem.
    #[test]
    fn naive_agrees_with_optimized_cq() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let budget = DimBudget::default();
        for seed in 0..10 {
            let t = random_train(4, seed);
            for ell in 1..=2 {
                let naive = sep_dim_naive_in(&ctx, &t, &DimClass::Cq, ell, &budget)
                    .unwrap()
                    .unwrap();
                let smart = cq_sep_dim_in(&ctx, &t, ell, &budget).unwrap().unwrap();
                assert_eq!(naive, smart, "seed {seed}, ℓ={ell}");
            }
        }
    }

    #[test]
    fn naive_agrees_with_optimized_ghw() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let budget = DimBudget::default();
        for seed in 0..8 {
            let t = random_train(3, seed * 7 + 1);
            for ell in 1..=2 {
                let naive = sep_dim_naive_in(&ctx, &t, &DimClass::Ghw(1), ell, &budget)
                    .unwrap()
                    .unwrap();
                let smart = ghw_sep_dim_in(&ctx, &t, 1, ell, &budget).unwrap().unwrap();
                assert_eq!(naive, smart, "seed {seed}, ℓ={ell}");
            }
        }
    }

    #[test]
    fn example_6_2_through_the_naive_path() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = workloads_example();
        let budget = DimBudget::default();
        assert!(!sep_dim_naive_in(&ctx, &t, &DimClass::Cq, 1, &budget)
            .unwrap()
            .unwrap());
        assert!(sep_dim_naive_in(&ctx, &t, &DimClass::Cq, 2, &budget)
            .unwrap()
            .unwrap());
    }

    /// Example 6.2, built locally (workloads is a dev-dependency of the
    /// crate root, not reachable from unit tests... it is, but keep this
    /// self-contained).
    fn workloads_example() -> TrainingDb {
        let mut s = Schema::entity_schema();
        s.add_relation("R", 1);
        s.add_relation("S", 1);
        relational::DbBuilder::new(s)
            .fact("R", &["a"])
            .fact("S", &["a"])
            .fact("S", &["c"])
            .positive("a")
            .positive("b")
            .negative("c")
            .training()
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn size_guard_trips() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = random_train(8, 3);
        let _ = sep_dim_naive_in(&ctx, &t, &DimClass::Cq, 3, &DimBudget::default()).unwrap();
    }
}
