//! Direct products of pointed databases (§6.1 machinery).
//!
//! The QBE solvers rest on the *product homomorphism* characterization of
//! ten Cate–Dalmau \[32\] / Barceló–Romero \[6\]: a CQ explanation for
//! `(D, S⁺, S⁻)` exists iff the canonical CQ of the direct product
//! `P = ∏_{a ∈ S⁺} (D, a)` excludes every negative example, i.e.
//! `(P, ā) ↛ (D, b)` for each `b ∈ S⁻` (and `(P, ā) →_k (D, b)` fails, for
//! the `GHW(k)` variant). The product is exponential in `|S⁺|` — this is
//! precisely the source of the paper's coNEXPTIME/EXPTIME lower bounds — so
//! construction takes an explicit size budget and fails loudly instead of
//! exhausting memory.

use crate::database::Database;
use crate::ids::Val;
use std::collections::HashMap;
use std::fmt;

/// Failure modes of product construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProductError {
    /// The requested product would exceed the fact budget. Carries the
    /// budget that was exceeded.
    TooLarge { budget: usize },
    /// A product of zero factors was requested.
    Empty,
}

impl fmt::Display for ProductError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProductError::TooLarge { budget } => {
                write!(f, "direct product exceeds the fact budget of {budget}")
            }
            ProductError::Empty => write!(f, "direct product of zero factors"),
        }
    }
}

impl std::error::Error for ProductError {}

/// The `n`-fold pointed power `∏_i (D, points[i])`.
///
/// Returns the product database `P` and the distinguished element
/// `(points[0], …, points[n-1])`. Only elements that occur in product facts
/// (plus the distinguished tuple) are materialized. Facts of `P`: for each
/// relation `R` and each `n`-tuple `(f_1, …, f_n)` of `R`-facts of `D`, the
/// componentwise tuple fact. Fact count is `Σ_R |R|^n`; `budget` caps it.
pub fn pointed_power(
    d: &Database,
    points: &[Val],
    budget: usize,
) -> Result<(Database, Val), ProductError> {
    let n = points.len();
    if n == 0 {
        return Err(ProductError::Empty);
    }
    // Pre-flight the fact count.
    let mut total: usize = 0;
    for rel in d.schema().rel_ids() {
        let m = d.facts_of_rel(rel).len();
        let mut p = 1usize;
        for _ in 0..n {
            p = p.saturating_mul(m);
            if p > budget {
                return Err(ProductError::TooLarge { budget });
            }
        }
        total = total.saturating_add(p);
        if total > budget {
            return Err(ProductError::TooLarge { budget });
        }
    }

    let mut out = Database::new(d.schema().clone());
    let mut interned: HashMap<Vec<Val>, Val> = HashMap::new();
    let mut intern = |out: &mut Database, tuple: &[Val]| -> Val {
        if let Some(&v) = interned.get(tuple) {
            return v;
        }
        let name = format!(
            "<{}>",
            tuple
                .iter()
                .map(|&t| d.val_name(t))
                .collect::<Vec<_>>()
                .join(",")
        );
        let v = out.value(&name);
        interned.insert(tuple.to_vec(), v);
        v
    };

    let point = intern(&mut out, points);

    for rel in d.schema().rel_ids() {
        let arity = d.schema().arity(rel);
        let fact_idxs = d.facts_of_rel(rel).to_vec();
        if fact_idxs.is_empty() {
            continue;
        }
        // Iterate over all n-tuples of facts via a mixed-radix counter.
        let mut counter = vec![0usize; n];
        loop {
            let mut args = Vec::with_capacity(arity);
            for pos in 0..arity {
                let tuple: Vec<Val> = counter
                    .iter()
                    .map(|&ci| d.fact(fact_idxs[ci]).args[pos])
                    .collect();
                args.push(intern(&mut out, &tuple));
            }
            out.add_fact(rel, args);

            // Advance the counter.
            let mut i = 0;
            loop {
                if i == n {
                    break;
                }
                counter[i] += 1;
                if counter[i] < fact_idxs.len() {
                    break;
                }
                counter[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
        }
    }

    Ok((out, point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DbBuilder;
    use crate::hom::homomorphism_exists;
    use crate::schema::Schema;

    fn graph(edges: &[(&str, &str)]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        b.build()
    }

    #[test]
    fn power_one_is_isomorphic_projection() {
        let d = graph(&[("a", "b"), ("b", "c")]);
        let a = d.val_by_name("a").unwrap();
        let (p, pt) = pointed_power(&d, &[a], 1000).unwrap();
        assert_eq!(p.fact_count(), d.fact_count());
        assert_eq!(p.val_name(pt), "<a>");
        assert!(homomorphism_exists(&p, &d, &[(pt, a)]));
        let b = d.val_by_name("b").unwrap();
        assert!(!homomorphism_exists(&p, &d, &[(pt, b)]));
    }

    #[test]
    fn square_fact_count() {
        let d = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let a = d.val_by_name("a").unwrap();
        let b = d.val_by_name("b").unwrap();
        let (p, _) = pointed_power(&d, &[a, b], 1000).unwrap();
        // E has 3 facts, so E in the square has 9.
        let e = p.schema().rel_by_name("E").unwrap();
        assert_eq!(p.facts_of_rel(e).len(), 9);
    }

    #[test]
    fn product_projects_homomorphically() {
        // The product homomorphically projects to each factor at its point.
        let d = graph(&[("a", "b"), ("b", "a"), ("b", "c")]);
        let a = d.val_by_name("a").unwrap();
        let c = d.val_by_name("c").unwrap();
        let (p, pt) = pointed_power(&d, &[a, c], 10_000).unwrap();
        assert!(homomorphism_exists(&p, &d, &[(pt, a)]));
        assert!(homomorphism_exists(&p, &d, &[(pt, c)]));
    }

    #[test]
    fn product_characterizes_common_properties() {
        // In a 2-cycle {a<->b} versus a self-loop {l->l}: the product of
        // (C2,a) and (L,l)... use one db containing both. An element of the
        // 2-cycle and the loop element have the product capturing shared
        // CQ properties: the product point maps to any element with an
        // outgoing infinite walk, which all three have.
        let d = graph(&[("a", "b"), ("b", "a"), ("l", "l")]);
        let a = d.val_by_name("a").unwrap();
        let l = d.val_by_name("l").unwrap();
        let (p, pt) = pointed_power(&d, &[a, l], 10_000).unwrap();
        assert!(homomorphism_exists(&p, &d, &[(pt, a)]));
        assert!(homomorphism_exists(&p, &d, &[(pt, l)]));
        // b also admits every CQ property shared by a and l (odd/even
        // parity is destroyed by the loop), so the product maps there too.
        let b = d.val_by_name("b").unwrap();
        assert!(homomorphism_exists(&p, &d, &[(pt, b)]));
    }

    #[test]
    fn budget_is_enforced() {
        let d = graph(&[("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]);
        let a = d.val_by_name("a").unwrap();
        let err = pointed_power(&d, &[a, a, a, a, a], 100).unwrap_err();
        assert_eq!(err, ProductError::TooLarge { budget: 100 });
        assert!(pointed_power(&d, &[], 100).is_err());
    }
}
