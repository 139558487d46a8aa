//! The executable reduction of Lemma 6.5: `L`-QBE (over instances with
//! `S⁻ = dom(D) ∖ S⁺`) reduces in polynomial time to `L`-Sep\[ℓ\].
//!
//! Given `(D, S⁺, S⁻)` and `ℓ ≥ 1`, the construction extends the schema
//! with the entity symbol `η` and `ℓ − 1` fresh unary symbols
//! `κ_1 … κ_{ℓ-1}`, adds fresh constants `c⁻, c_1 … c_{ℓ-1}` with facts
//! `κ_i(c_i)`, makes *every* element an entity, and labels
//! `S⁺ ∪ {c_1 … c_{ℓ-1}}` positive and `S⁻ ∪ {c⁻}` negative. Then
//! `(D', λ)` is `L`-separable with ℓ features iff `(D, S⁺, S⁻)` has an
//! `L`-explanation: the `κ_i(x)` features burn `ℓ − 1` dimensions, pinning
//! the remaining one to be an explanation.
//!
//! Used by the test suite to cross-validate the QBE solvers against the
//! dimension-bounded separability solvers, exactly as the paper uses it
//! to transfer lower bounds (Theorem 6.6, Theorem 6.10).

use relational::{Database, Label, Labeling, Schema, TrainingDb, Val};

/// Output of the reduction: the training database and the images of the
/// original domain elements.
pub struct ReducedInstance {
    pub train: TrainingDb,
    /// Mapping from original element names to the new database's values.
    pub image: Vec<(String, Val)>,
}

/// Apply the Lemma 6.5 construction.
///
/// `pos` must be nonempty and `pos ∪ neg` must cover `dom(D)` (the
/// restricted QBE form the lemma requires).
///
/// # Panics
/// Panics if the input schema already has an entity symbol (the lemma
/// adds its own) or if `pos`/`neg` do not partition the domain.
pub fn qbe_to_sep_ell(d: &Database, pos: &[Val], neg: &[Val], ell: usize) -> ReducedInstance {
    assert!(ell >= 1, "dimension bound must be at least 1");
    assert!(!pos.is_empty(), "Lemma 6.5 requires a nonempty S+");
    assert!(
        d.schema().entity_rel().is_none(),
        "input schema must not have an entity symbol"
    );
    {
        let mut all: Vec<Val> = pos.iter().chain(neg.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        let dom: Vec<Val> = d.dom().collect();
        assert_eq!(all, dom, "S+ and S- must partition dom(D)");
    }

    // Extended schema: original relations + η + κ_1..κ_{ℓ-1}.
    let mut schema = Schema::new();
    for r in d.schema().rel_ids() {
        schema.add_relation(d.schema().name(r), d.schema().arity(r));
    }
    let eta = schema.add_relation(relational::schema::ENTITY_REL_NAME, 1);
    schema.set_entity(eta);
    let kappas: Vec<_> = (1..ell)
        .map(|i| schema.add_relation(&format!("kappa{i}"), 1))
        .collect();

    let mut db = Database::new(schema);
    // Copy D's elements (by name) and facts.
    let mut image = Vec::new();
    for v in d.dom() {
        let nv = db.value(d.val_name(v));
        image.push((d.val_name(v).to_string(), nv));
    }
    for f in d.facts() {
        let rel = db.schema().rel_by_name(d.schema().name(f.rel)).unwrap();
        let args: Vec<Val> = f.args.iter().map(|&a| db.value(d.val_name(a))).collect();
        db.add_fact(rel, args);
    }
    // Fresh constants and κ facts.
    let c_minus = db.value("c_minus");
    let cs: Vec<Val> = (1..ell).map(|i| db.value(&format!("c{i}"))).collect();
    for (i, &c) in cs.iter().enumerate() {
        db.add_fact(kappas[i], vec![c]);
    }
    // η(D') = everything.
    for v in db.dom().collect::<Vec<_>>() {
        db.add_entity(v);
    }

    // Labeling.
    let mut labeling = Labeling::new();
    for &p in pos {
        labeling.set(db.val_by_name(d.val_name(p)).unwrap(), Label::Positive);
    }
    for &n in neg {
        labeling.set(db.val_by_name(d.val_name(n)).unwrap(), Label::Negative);
    }
    for &c in &cs {
        labeling.set(c, Label::Positive);
    }
    labeling.set(c_minus, Label::Negative);

    ReducedInstance {
        train: TrainingDb::new(db, labeling),
        image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sep_dim::{cq_sep_dim_in, DimBudget};
    use engine::Engine;
    use relational::DbBuilder;

    /// Build a plain (non-entity) database for QBE inputs.
    fn qbe_db() -> Database {
        let mut s = Schema::new();
        s.add_relation("R", 1);
        s.add_relation("E", 2);
        DbBuilder::new(s)
            .fact("R", &["a"])
            .fact("R", &["b"])
            .fact("E", &["a", "c"])
            .build()
    }

    fn v(d: &Database, n: &str) -> Val {
        d.val_by_name(n).unwrap()
    }

    #[test]
    fn reduction_preserves_yes_instances() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let d = qbe_db();
        // S+ = {a, b} (the R elements), S- = {c}: R(x) explains.
        let pos = [v(&d, "a"), v(&d, "b")];
        let neg = [v(&d, "c")];
        assert!(qbe::cq_qbe_decide(&d, &pos, &neg, 100_000).unwrap());
        for ell in 1..=2 {
            let red = qbe_to_sep_ell(&d, &pos, &neg, ell);
            assert!(
                cq_sep_dim_in(&ctx, &red.train, ell, &DimBudget::default())
                    .unwrap()
                    .unwrap(),
                "ℓ={ell}"
            );
        }
    }

    #[test]
    fn reduction_preserves_no_instances() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let d = qbe_db();
        // S+ = {a, c}, S- = {b}: a CQ true at both a (R, out-edge) and c
        // (in-edge only) shares only trivial properties, all true at b?
        // b has R but no edges; c has no R. Common queries of {a,c}:
        // purely existential ones, true at b as well. No explanation.
        let pos = [v(&d, "a"), v(&d, "c")];
        let neg = [v(&d, "b")];
        assert!(!qbe::cq_qbe_decide(&d, &pos, &neg, 100_000).unwrap());
        for ell in 1..=2 {
            let red = qbe_to_sep_ell(&d, &pos, &neg, ell);
            assert!(
                !cq_sep_dim_in(&ctx, &red.train, ell, &DimBudget::default())
                    .unwrap()
                    .unwrap(),
                "ℓ={ell}"
            );
        }
    }

    #[test]
    fn reduction_shape() {
        let d = qbe_db();
        let pos = [v(&d, "a"), v(&d, "b")];
        let neg = [v(&d, "c")];
        let red = qbe_to_sep_ell(&d, &pos, &neg, 3);
        // dom(D') = dom(D) + c_minus + c1 + c2, all entities.
        assert_eq!(red.train.db.entities().len(), 3 + 3);
        assert_eq!(red.train.positives().len(), 2 + 2);
        assert_eq!(red.train.negatives().len(), 1 + 1);
        // κ relations exist.
        assert!(red.train.db.schema().rel_by_name("kappa1").is_some());
        assert!(red.train.db.schema().rel_by_name("kappa2").is_some());
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn partition_enforced() {
        let d = qbe_db();
        let pos = [v(&d, "a")];
        let neg = [v(&d, "c")];
        qbe_to_sep_ell(&d, &pos, &neg, 1);
    }
}
