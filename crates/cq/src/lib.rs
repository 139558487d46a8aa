//! Conjunctive queries without constants (§2 of Barceló et al., PODS 2019)
//! and the regularized classes the paper studies.
//!
//! A CQ `q(x̄) = ∃ȳ (R₁(x̄₁) ∧ … ∧ Rₙ(x̄ₙ))` is represented by [`Cq`]; its
//! semantics is defined, as in the paper, through homomorphisms from the
//! **canonical database** `D_q` ([`Cq::canonical_db`]), evaluated by the
//! solver in the `relational` crate (Chandra–Merlin).
//!
//! The regularized classes:
//!
//! * `CQ[m]` / `CQ[m,p]` — at most `m` atoms (not counting the mandatory
//!   `η(x)` atom of feature queries), at most `p` occurrences per variable;
//!   enumerated up to isomorphism in [`enumerate`] (§4, §6.3);
//! * `GHW(k)` — generalized hypertree width at most `k`; decompositions
//!   and exact width computation live in [`decomp`] (§5).
//!
//! [`contain`] provides containment/equivalence and [`core`] provides core
//! (minimization) computation — both through the homomorphism solver.
//! [`trie`] evaluates a whole bank of short features per entity in one
//! walk over their shared prefixes.

pub mod contain;
pub mod core;
pub mod decomp;
pub mod dedup;
pub mod enumerate;
pub mod eval;
pub mod parse;
pub mod query;
pub mod trie;

pub use contain::{contained_in, equivalent};
pub use decomp::{ghw, ghw_at_most, TreeDecomposition};
pub use dedup::{dedup_by_core, CoreDedup};
pub use enumerate::{enumerate_feature_queries, EnumConfig};
pub use eval::{evaluate_unary, indicator, selects};
pub use query::{Atom, Cq, Var};
