//! In-memory relational databases and the homomorphism machinery that the
//! separability framework of Barceló et al. (PODS 2019) is built on.
//!
//! The paper's objects (§2–§3):
//!
//! * a **schema** is a finite set of relation symbols with arities; an
//!   **entity schema** distinguishes a unary symbol `η` of entities
//!   ([`Schema`]);
//! * a **database** is a finite set of facts ([`Database`]), with
//!   `dom(D)` the set of elements occurring in them;
//! * a **homomorphism** `(D, ā) → (D', b̄)` is a structure-preserving map
//!   sending the distinguished tuple `ā` to `b̄` ([`hom`]);
//! * a **training database** is a database plus a ±1 labeling of its
//!   entities ([`TrainingDb`]).
//!
//! Homomorphism existence is NP-complete; the solver in [`hom`] is a
//! backtracking CSP search with minimum-remaining-values ordering and
//! forward checking over per-`(relation, position, value)` fact indexes,
//! which is exact and fast on the instance sizes the algorithms generate.
//!
//! [`product`] implements the direct product of pointed databases — the
//! engine behind the QBE solvers (§6.1) whose exponential size is exactly
//! where the paper's coNEXPTIME/EXPTIME lower bounds live.

pub mod builder;
pub mod database;
pub mod delta;
pub mod hom;
pub mod ids;
pub mod iso;
pub mod labeling;
pub mod memo;
pub mod product;
pub mod schema;
pub mod spec;

pub use builder::DbBuilder;
pub use database::{fingerprint_computations, Database, Fact};
pub use delta::{
    Containment, Delta, DeltaError, DeltaKind, DeltaOp, DeltaReceipt, Lineage, LineageStats,
};
pub use hom::cache::{HomCache, HomKey};
pub use hom::stats::{HomCounters, HomStats};
pub use hom::{
    find_homomorphism, hom_equivalent, homomorphism_exists, homomorphism_exists_counted_int,
    HomSearch,
};
pub use ids::{RelId, Val};
/// Re-exported for crates that declare counters without depending on
/// `interrupt` directly (see [`interrupt::counters`]).
pub use interrupt::counter_table;
pub use labeling::{Label, Labeling, TrainingDb};
pub use memo::{Memo, MemoKey, MemoStats};
pub use product::{pointed_power, ProductError};
pub use schema::Schema;
