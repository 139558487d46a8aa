//! Exact linear separability — the classifier side of the framework.
//!
//! Every separability algorithm in Barceló et al. (PODS 2019) bottoms out
//! in the question "is this training collection of ±1 vectors linearly
//! separable, and if so, produce `Λ_w̄`?" (§2). Proposition 4.1 solves it
//! through linear programming; §7 additionally needs the *approximate*
//! version — minimize misclassifications — which is NP-complete
//! (Höffgen–Simon–Van Horn \[17\]).
//!
//! Every separability question goes through one exact LP path: the
//! sparse revised simplex over hybrid [`numeric::Rat`] rationals. The
//! paper cites Karmarkar/Khachiyan for polynomial-time LP; simplex is the
//! faithful exact-arithmetic substitute (see DESIGN.md §4).
//!
//! Modules:
//!
//! * [`separate`](mod@separate) — strict separation via a maximum-margin LP, with a
//!   duplicate-conflict scan and an integer perceptron fast path ahead
//!   of it; [`separate()`] is the one separation entry point.
//! * [`revised`] — the sparse revised simplex (exact LU + eta file,
//!   partial pricing with a Bland fallback, warm-started bases) that
//!   solves every margin LP. It needs `b ≥ 0`, which the margin LP has.
//! * [`simplex_big`] — the seed all-[`numeric::BigRational`] two-phase
//!   dense tableau, kept as the reference oracle the agreement tests pin
//!   the revised solver against (exact vertex and pivot count).
//! * [`classifier`] — the [`LinearClassifier`] type `Λ_w̄`.
//! * [`minerror`] — exact minimum-error linear classification by
//!   branch-and-bound over vector-type assignments, plus the greedy
//!   majority upper bound; powers the `CQ[m]`-ApxSep algorithms (§7.2).
//! * [`stats`] — the LP engine counter set ([`LpCounters`], one per
//!   engine) and its snapshot ([`LpStats`]): LPs solved, pivots, warm
//!   starts, perceptron hits, conflict prunes, and big-number promotions.

pub mod classifier;
pub mod minerror;
pub mod revised;
pub mod separate;
pub mod simplex_big;
pub mod stats;

pub use classifier::LinearClassifier;
pub use minerror::{min_error_classifier, MinErrorResult};
pub use revised::{
    solve_lp_sparse, solve_lp_sparse_with_pricing, Pricing, SparseBasis, SparseOutcome,
    SparseReport, Warm,
};
pub use separate::{has_label_conflict, margin_lp, separate, SepBasis, SepOutcome, VarTag};
pub use simplex_big::{solve_lp_big, solve_lp_big_counted, LpOutcomeBig};
pub use stats::{LpCounters, LpStats};
