//! Helpers shared by the top-level suites.

use cqsep::{Ctx, Engine};
use std::fmt::Debug;

/// Run `solve` on a fresh cached engine and on a fresh uncached one,
/// assert that both give the same answer, and return it. The suites
/// route every solver call through here, so each of them also checks
/// that memoization never changes a verdict.
pub fn both<T: PartialEq + Debug>(solve: impl Fn(&Ctx) -> T) -> T {
    let cached = solve(&Engine::new().ctx());
    let uncached = solve(&Engine::new().without_cache().ctx());
    assert_eq!(cached, uncached, "cached and uncached engines disagree");
    cached
}
