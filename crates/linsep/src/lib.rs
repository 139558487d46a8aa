//! Exact linear separability — the classifier side of the framework.
//!
//! Every separability algorithm in Barceló et al. (PODS 2019) bottoms out
//! in the question "is this training collection of ±1 vectors linearly
//! separable, and if so, produce `Λ_w̄`?" (§2). Proposition 4.1 solves it
//! through linear programming; §7 additionally needs the *approximate*
//! version — minimize misclassifications — which is NP-complete
//! (Höffgen–Simon–Van Horn [17]).
//!
//! Modules:
//!
//! * [`simplex`] — the fast two-phase primal simplex over hybrid
//!   [`numeric::Rat`] rationals with Bland's anti-cycling rule, in-place
//!   unnormalized pivoting, and per-row integer rescaling. The paper
//!   cites Karmarkar/Khachiyan for polynomial-time LP; simplex is the
//!   faithful exact-arithmetic substitute (see DESIGN.md §4).
//! * [`simplex_big`] — the original all-[`numeric::BigRational`] solver,
//!   kept as a reference oracle for agreement tests and benchmarks.
//! * [`separate`] — strict separation via a maximum-margin feasibility LP,
//!   with a duplicate-conflict scan and an integer perceptron fast path
//!   ahead of it.
//! * [`classifier`] — the [`LinearClassifier`] type `Λ_w̄`.
//! * [`minerror`] — exact minimum-error linear classification by
//!   branch-and-bound over vector-type assignments, plus the greedy
//!   majority upper bound; powers the `CQ[m]`-ApxSep algorithms (§7.2).
//! * [`stats`] — the LP engine counter set ([`LpCounters`], one per
//!   engine) and its snapshot ([`LpStats`]): LPs solved, simplex pivots,
//!   perceptron hits, conflict prunes, and big-number promotions.

pub mod classifier;
pub mod minerror;
pub mod revised;
pub mod separate;
pub mod simplex;
pub mod simplex_big;
pub mod stats;

pub use classifier::LinearClassifier;
pub use minerror::{
    min_error_classifier_counted, min_error_classifier_counted_int, MinErrorResult,
};
pub use revised::{
    solve_lp_sparse, solve_lp_sparse_with_pricing, Pricing, SparseBasis, SparseOutcome,
    SparseReport, Warm,
};
pub use separate::{
    has_label_conflict, separate_counted, separate_counted_int, separate_warm_counted_int,
    separate_with_margin_counted, separate_with_margin_counted_int, LpBackend, SepBasis,
    SepOutcome, VarTag,
};
pub use simplex::{solve_lp, solve_lp_counted, solve_lp_counted_int, LpOutcome};
pub use simplex_big::{solve_lp_big, LpOutcomeBig};
pub use stats::{LpCounters, LpStats};
