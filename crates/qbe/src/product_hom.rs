//! CQ-QBE via the product homomorphism problem (ten Cate–Dalmau \[32\]).
//!
//! The canonical CQ `q_P(x)` of the pointed product `P = ∏_{a∈S⁺}(D,a)`
//! satisfies every positive example by the projection homomorphisms, and
//! is the logically strongest such CQ. Hence an explanation exists iff
//! `q_P` itself avoids all negatives, i.e. `(P, ā) ↛ (D, b)` for each
//! `b ∈ S⁻`. The homomorphism tests are NP; the product is exponential in
//! `|S⁺|` — together, the paper's coNEXPTIME upper bound.

use crate::error::QbeError;
use cq::Cq;
use relational::{homomorphism_exists, pointed_power, Database, Val};

/// A homomorphism-existence oracle: `hom(from, to, fixed)` answers
/// "does a hom `from → to` extending `fixed` exist?". The plain entry
/// points pass the raw solver; an engine passes its (possibly cached,
/// possibly deliberately uncached) lookup so product-hom tests share its
/// memo table and counters. The oracle must be exact — QBE correctness
/// rides on it.
pub type HomOracle<'o> = &'o (dyn Fn(&Database, &Database, &[(Val, Val)]) -> bool + Sync);

/// Decide whether a CQ explanation for `(D, S⁺, S⁻)` exists.
pub fn cq_qbe_decide(
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    product_budget: usize,
) -> Result<bool, QbeError> {
    cq_qbe_decide_via(
        &|f, t, x| homomorphism_exists(f, t, x),
        d,
        pos,
        neg,
        product_budget,
    )
}

/// [`cq_qbe_decide`] with the homomorphism tests routed through a
/// caller-supplied oracle.
pub fn cq_qbe_decide_via(
    hom: HomOracle,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    product_budget: usize,
) -> Result<bool, QbeError> {
    if pos.is_empty() {
        return Err(QbeError::EmptyPositives);
    }
    let (p, point) = pointed_power(d, pos, product_budget)?;
    Ok(neg.iter().all(|&b| !hom(&p, d, &[(point, b)])))
}

/// Produce a CQ explanation, or `None` if none exists. The returned query
/// is the canonical CQ of the product — correct but large; callers that
/// only need the decision should use [`cq_qbe_decide`].
pub fn cq_qbe_explain(
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    product_budget: usize,
) -> Result<Option<Cq>, QbeError> {
    cq_qbe_explain_via(
        &|f, t, x| homomorphism_exists(f, t, x),
        d,
        pos,
        neg,
        product_budget,
    )
}

/// [`cq_qbe_explain`] with the homomorphism tests routed through a
/// caller-supplied oracle.
pub fn cq_qbe_explain_via(
    hom: HomOracle,
    d: &Database,
    pos: &[Val],
    neg: &[Val],
    product_budget: usize,
) -> Result<Option<Cq>, QbeError> {
    if pos.is_empty() {
        return Err(QbeError::EmptyPositives);
    }
    let (p, point) = pointed_power(d, pos, product_budget)?;
    for &b in neg {
        if hom(&p, d, &[(point, b)]) {
            return Ok(None);
        }
    }
    Ok(Some(Cq::from_pointed_db(&p, point)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::evaluate_unary;
    use relational::{DbBuilder, Schema};

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s.add_relation("R", 1);
        s
    }

    fn db() -> Database {
        // a, b have R; c does not. a -> b -> c edge chain.
        DbBuilder::new(schema())
            .fact("R", &["a"])
            .fact("R", &["b"])
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .entity("a")
            .entity("b")
            .entity("c")
            .build()
    }

    fn v(d: &Database, n: &str) -> Val {
        d.val_by_name(n).unwrap()
    }

    #[test]
    fn r_property_explains() {
        let d = db();
        let (a, b, c) = (v(&d, "a"), v(&d, "b"), v(&d, "c"));
        assert!(cq_qbe_decide(&d, &[a, b], &[c], 100_000).unwrap());
        let q = cq_qbe_explain(&d, &[a, b], &[c], 100_000)
            .unwrap()
            .expect("explanation exists");
        let sel = evaluate_unary(&q, &d);
        assert!(sel.contains(&a) && sel.contains(&b) && !sel.contains(&c));
    }

    #[test]
    fn impossible_split_detected() {
        let d = db();
        let (a, b, c) = (v(&d, "a"), v(&d, "b"), v(&d, "c"));
        // Separate {a, c} from {b}: a CQ true at a and c must be true at
        // b too? a has (R, out-edge to an R element...), c has nothing
        // special; their common properties are c's properties basically
        // (having only eta... c has an in-edge!). Common: eta(x) plus...
        // a has in-degree 0; c has in-edge but no R. The product (a,c):
        // shared properties = eta only-ish. b satisfies eta. So no
        // explanation.
        assert!(!cq_qbe_decide(&d, &[a, c], &[b], 100_000).unwrap());
        assert_eq!(cq_qbe_explain(&d, &[a, c], &[b], 100_000).unwrap(), None);
    }

    #[test]
    fn single_positive_uses_identity_product() {
        let d = db();
        let (a, b, c) = (v(&d, "a"), v(&d, "b"), v(&d, "c"));
        // a is the only element with an outgoing edge to an R-element.
        assert!(cq_qbe_decide(&d, &[a], &[b, c], 100_000).unwrap());
        let q = cq_qbe_explain(&d, &[a], &[b, c], 100_000).unwrap().unwrap();
        let sel = evaluate_unary(&q, &d);
        assert_eq!(sel, vec![a]);
    }

    #[test]
    fn empty_negatives_always_explained() {
        let d = db();
        let a = v(&d, "a");
        assert!(cq_qbe_decide(&d, &[a], &[], 100_000).unwrap());
    }

    #[test]
    fn empty_positives_is_an_error() {
        let d = db();
        let c = v(&d, "c");
        assert_eq!(
            cq_qbe_decide(&d, &[], &[c], 100_000),
            Err(QbeError::EmptyPositives)
        );
    }

    #[test]
    fn budget_propagates() {
        let d = db();
        let a = v(&d, "a");
        let err = cq_qbe_decide(&d, &[a, a, a, a, a, a], &[], 10).unwrap_err();
        assert_eq!(err, QbeError::ProductTooLarge { budget: 10 });
    }

    #[test]
    fn explanation_is_strongest_common_query() {
        // The product query must be implied by any other query true on
        // all positives: check on a sample query.
        let d = db();
        let (a, b) = (v(&d, "a"), v(&d, "b"));
        let q = cq_qbe_explain(&d, &[a, b], &[], 100_000).unwrap().unwrap();
        // Both a and b satisfy R(x); the product query must entail R(x).
        let rx = cq::parse::parse_cq(d.schema(), "q(x) :- R(x)").unwrap();
        assert!(cq::contained_in(&q, &rx));
    }
}
