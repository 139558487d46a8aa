//! The existential k-cover game of Chen and Dalmau (§5 of Barceló et al.,
//! PODS 2019), the relation `→_k` it decides, and the machinery built on
//! top of it:
//!
//! * [`game`] — deciding `(D, ā) →_k (D', b̄)` by a greatest-fixpoint
//!   computation over game positions (Proposition 5.1);
//! * [`classes`] — the preorder `e ⪯ e'  ⇔  (D,e) →_k (D,e')` over the
//!   entities, its equivalence classes and topological sort (the spine of
//!   Lemma 5.4, Algorithm 1, and Algorithm 2);
//! * [`extract`] — unfolding Spoiler's winning strategy into an explicit
//!   distinguishing CQ of ghw ≤ k (the constructive content of
//!   Proposition 5.6; sizes can be exponential, per Theorem 5.7, so
//!   extraction carries a budget);
//! * [`pebble`] — the k-pebble (partial isomorphism) game deciding
//!   FO_k-indistinguishability, used for §8.
//!
//! # The union-jump formulation
//!
//! The paper's game has Spoiler place/remove pebbles one at a time subject
//! to the pebbled set being coverable by ≤ k facts. We implement the
//! equivalent *union-jump* game: positions are pairs `(U, h)` where `U` is
//! the element set of a union of ≤ k facts of `D` and `h : U → dom(D')`
//! maps every fact of `D` inside `U ∪ ā` to a fact of `D'` (respecting
//! `ā → b̄`); Spoiler jumps from `U` to any other union `U'`, and
//! Duplicator must answer with an `h'` agreeing with `h` on `U ∩ U'`.
//! Jump moves decompose into legal pebble moves and vice versa, so the
//! winners coincide — but positions are now polynomially enumerable for
//! fixed `k`, which is what Proposition 5.1 requires: `O(|D|^k)` unions,
//! each with at most `|D'|^k` responses (a response is fixed by the
//! facts of `D'` its ≤ k covering facts map to).
//!
//! # Where the work goes
//!
//! * [`skeleton`] — the unions of `D`, their overlaps, and (built once,
//!   on the first game that needs them) each union's position table:
//!   its responses in `D'` before `ā → b̄` is applied, enumerated by an
//!   indexed join of its facts against `D'`. All of it is shared by
//!   every game from `D` to `D'` at width `k`;
//! * [`game`] — per `(ā, b̄)`: keep the table rows that respect the base
//!   map, then run the fixpoint on them. [`CoverGame::decide`] (the
//!   verdict, for [`GameCache`]) first selects only the unions `ā`
//!   touches and stops if one is dry; [`CoverGame::analyze`] (the
//!   strategy, for [`extract`]) always runs the whole fixpoint.

pub mod cache;
pub mod classes;
pub mod extract;
pub mod game;
#[cfg(test)]
mod oracle;
pub mod pebble;
pub mod skeleton;
pub mod stats;
mod table;

pub use cache::GameCache;
pub use classes::CoverPreorder;
pub use extract::{extract_distinguishing_query, ExtractError};
pub use game::{cover_equivalent, cover_implies, CoverGame};
pub use pebble::{pebble_equivalent, PebbleGame};
pub use skeleton::UnionSkeleton;
pub use stats::{GameCounters, GameStats};
