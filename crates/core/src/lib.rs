//! # cqsep — Regularizing Conjunctive Features for Classification
//!
//! A complete implementation of the algorithms and constructions of
//!
//! > P. Barceló, A. Baumgartner, V. Dalmau, B. Kimelfeld.
//! > *Regularizing Conjunctive Features for Classification.* PODS 2019.
//!
//! The framework (Kimelfeld–Ré): a **training database** `(D, λ)` labels
//! the entities `η(D)` of a relational database as ±1; a **statistic**
//! `Π = (q_1, …, q_n)` of unary CQ **feature queries** maps every entity
//! to a ±1 vector; `(D, λ)` is `L`-**separable** when some statistic over
//! the query class `L` makes the labeled vectors linearly separable.
//!
//! This crate provides, per section of the paper:
//!
//! | Module | Paper | Problem |
//! |---|---|---|
//! | [`sep_cq`] | Thm 3.2, §6.2 | unrestricted `CQ`-Sep (coNP baseline), generation, classification |
//! | [`sep_cqm`] | §4 | `CQ[m]` / `CQ[m,p]`-Sep + generation + classification (FPT/PTIME) |
//! | [`sep_ghw`] | §5.1 | `GHW(k)`-Sep in polynomial time (Thm 5.3) |
//! | [`gen_ghw`] | §5.2 | explicit (worst-case exponential) `GHW(k)` feature generation (Prop 5.6) |
//! | [`cls_ghw`] | §5.3 | `GHW(k)`-Cls **without materializing the statistic** (Thm 5.8, Algorithm 1) |
//! | [`sep_dim`] | §6 | bounded-dimension `L`-Sep\[ℓ\] / `L`-Sep\[*\] via QBE |
//! | [`sep_dim_naive`] | Lemma 6.3 | the literal guess-and-check test (cross-validation oracle) |
//! | [`reduction`] | Lemma 6.5 | the executable QBE → Sep\[ℓ\] reduction |
//! | [`apx`] | §7 | approximate separability: Algorithm 2, min-error `CQ[m]`, the ε-padding reduction (Prop 7.1) |
//! | [`generalize`] | §7, motivation | train/test evaluation of the regularized languages (held-out accuracy) |
//! | [`fo`] | §8 | FO / FO_k / ∃FO⁺ separability, dimension collapse, unbounded dimension |
//! | [`statistic`] | §2–3 | statistics, separator models, verification |
//! | [`persist`] | — | text (de)serialization of separator models |
//!
//! # Example
//!
//! ```
//! use cqsep::{cls_ghw, sep_ghw, DbBuilder, Engine, Schema};
//!
//! // An entity schema: the distinguished unary η plus one binary relation.
//! let mut schema = Schema::entity_schema();
//! schema.add_relation("cites", 2);
//!
//! // A labeled training database (D, λ).
//! let train = DbBuilder::new(schema.clone())
//!     .fact("cites", &["a", "b"])
//!     .fact("cites", &["b", "c"])
//!     .positive("a")
//!     .negative("b")
//!     .negative("c")
//!     .training();
//!
//! // Every solver runs under a context over an explicit engine, which
//! // owns the memo caches and counters (`engine.ctx()` has no deadline).
//! let engine = Engine::new();
//! let ctx = engine.ctx();
//!
//! // GHW(1)-separability is decidable in polynomial time (Theorem 5.3)...
//! assert!(sep_ghw::ghw_separable_in(&ctx, &train, 1).unwrap());
//!
//! // ...and evaluation data is classifiable without materializing the
//! // feature queries (Theorem 5.8, Algorithm 1).
//! let eval = DbBuilder::new(schema)
//!     .fact("cites", &["x", "y"])
//!     .entity("x")
//!     .entity("y")
//!     .build();
//! let labels = cls_ghw::ghw_classify_in(&ctx, &train, &eval, 1)
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(labels.len(), 2);
//! ```

pub mod apx;
pub mod chain;
pub mod cls_ghw;
pub mod fo;
pub mod gen_ghw;
pub mod generalize;
pub mod persist;
pub mod reduction;
pub mod sep_cq;
pub mod sep_cqm;
pub mod sep_dim;
pub mod sep_dim_naive;
pub mod sep_ghw;
pub mod statistic;

pub use generalize::{evaluate_in, EvalReport, FitMethod};
pub use statistic::{SeparatorModel, Statistic};

// Re-export the building blocks users need alongside the algorithms.
pub use cq::{Cq, EnumConfig};
pub use engine::{Ctx, Engine, EngineStats, Interrupt, Interrupted, Reason, RestoreSummary};
pub use linsep::LinearClassifier;
pub use relational::{Database, DbBuilder, Label, Labeling, Schema, TrainingDb, Val};
