//! The pair-independent part of a cover-game analysis.
//!
//! A `→_k` analysis of `(D, a) → (D', b)` enumerates the unions of ≤ k
//! facts of `D`, their element sets, their contained facts, the overlap
//! structure between unions, and each union's responses in `D'`.
//! Everything except the facts and responses touching the distinguished
//! tuple is a function of `(D, D', k)` alone — and the paper's
//! algorithms (the preorder of Lemma 5.4, Algorithm 1, Algorithm 2) play
//! `O(|η(D)|²)` games over one pair of databases. [`UnionSkeleton`] is
//! that shared part, built once and reused per game.

use crate::table::PositionTable;
use interrupt::{Interrupt, Stop};
use relational::{Database, Val};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// One union region, without the distinguished-element-dependent facts.
#[derive(Clone, Debug)]
pub struct SkeletonUnion {
    /// Sorted element set of the union.
    pub elems: Vec<Val>,
    /// A generating cover of ≤ k fact indices.
    pub cover: Vec<usize>,
    /// Facts of `D` with all arguments inside `elems`.
    pub inner_facts: Vec<usize>,
    /// Facts with ≥ 1 argument inside `elems` and ≥ 1 outside; whether
    /// they join a game depends on the distinguished tuple covering the
    /// outside arguments.
    pub boundary_facts: Vec<usize>,
}

/// One union's overlap adjacency: the overlapping unions and the aligned
/// index pairs `(i, j)` with `unions[u].elems[i] == unions[v].elems[j]`.
pub type NeighborRow = Vec<(u32, Vec<(u32, u32)>)>;

/// The shared skeleton of every game from `D` to `D'` at width `k`:
/// unions, their overlap adjacency, and (built on first use) each
/// union's position table against `D'`.
pub struct UnionSkeleton<'a> {
    /// The left-hand database `D`, whose unions Spoiler plays.
    pub d: &'a Database,
    /// The target `D'`, where Duplicator answers.
    pub d2: &'a Database,
    pub k: usize,
    pub unions: Vec<SkeletonUnion>,
    /// For each union, its [`NeighborRow`].
    pub neighbors: Vec<NeighborRow>,
    tables: OnceLock<Vec<PositionTable>>,
    /// Held while a table build runs, so concurrent first games wait for
    /// it instead of repeating it.
    building: Mutex<()>,
    /// Set when the tables are stored, cleared by the one
    /// [`UnionSkeleton::claim_table_build`] call that counts the build.
    unclaimed_build: AtomicBool,
}

impl<'a> UnionSkeleton<'a> {
    /// Enumerate all unions of `1..=k` facts of `d` and precompute the
    /// overlap structure. `O(|D|^k)` regions for fixed `k`. With `k = 0`
    /// there are no unions at all, so `→_0` degenerates to base-map
    /// consistency (Duplicator wins iff `ā → b̄` is a partial hom). The
    /// position tables against `d2` wait for the first game that needs
    /// them.
    pub fn build(d: &'a Database, d2: &'a Database, k: usize) -> UnionSkeleton<'a> {
        let nfacts = d.fact_count();
        let mut seen: HashMap<Vec<Val>, usize> = HashMap::new();
        let mut unions: Vec<SkeletonUnion> = Vec::new();

        let mut frontier: Vec<(BTreeSet<Val>, Vec<usize>)> = vec![(BTreeSet::new(), Vec::new())];
        for _ in 0..k {
            let mut next = Vec::new();
            for (elems, cover) in &frontier {
                let from = cover.last().map_or(0, |&l| l + 1);
                for fi in from..nfacts {
                    let mut ne = elems.clone();
                    ne.extend(d.fact(fi).args.iter().copied());
                    let key: Vec<Val> = ne.iter().copied().collect();
                    let mut nc = cover.clone();
                    nc.push(fi);
                    if !seen.contains_key(&key) {
                        seen.insert(key.clone(), unions.len());
                        let (inner, boundary) = split_facts(d, &key);
                        unions.push(SkeletonUnion {
                            elems: key,
                            cover: nc.clone(),
                            inner_facts: inner,
                            boundary_facts: boundary,
                        });
                    }
                    next.push((ne, nc));
                }
            }
            frontier = next;
        }

        // Overlap adjacency.
        let n = unions.len();
        let mut by_elem: HashMap<Val, Vec<u32>> = HashMap::new();
        for (ui, u) in unions.iter().enumerate() {
            for &e in &u.elems {
                by_elem.entry(e).or_default().push(ui as u32);
            }
        }
        let mut neighbors: Vec<NeighborRow> = Vec::with_capacity(n);
        for (ui, u) in unions.iter().enumerate() {
            let mut nb: Vec<u32> = u
                .elems
                .iter()
                .flat_map(|e| by_elem[e].iter().copied())
                .filter(|&v| v as usize != ui)
                .collect();
            nb.sort_unstable();
            nb.dedup();
            let shared = nb
                .into_iter()
                .map(|vi| {
                    let v = &unions[vi as usize];
                    let mut pairs = Vec::new();
                    for (i, e) in u.elems.iter().enumerate() {
                        if let Ok(j) = v.elems.binary_search(e) {
                            pairs.push((i as u32, j as u32));
                        }
                    }
                    (vi, pairs)
                })
                .collect();
            neighbors.push(shared);
        }

        UnionSkeleton {
            d,
            d2,
            k,
            unions,
            neighbors,
            tables: OnceLock::new(),
            building: Mutex::new(()),
            unclaimed_build: AtomicBool::new(false),
        }
    }

    /// Each union's [`PositionTable`] against `d2`, joined on the first
    /// call; concurrent first calls wait for one build. A build stopped
    /// by `intr` stores nothing, and the next call builds afresh.
    pub(crate) fn tables(&self, intr: &Interrupt) -> Result<&[PositionTable], Stop> {
        if let Some(tables) = self.tables.get() {
            return Ok(tables);
        }
        let _building = self.building.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tables) = self.tables.get() {
            return Ok(tables);
        }
        let built = self
            .unions
            .iter()
            .map(|u| PositionTable::build(self.d, self.d2, u, intr))
            .collect::<Result<Vec<_>, Stop>>()?;
        // Only this thread stores: every other first call waits above.
        let tables = self.tables.get_or_init(|| built);
        self.unclaimed_build.store(true, Ordering::Release);
        Ok(tables)
    }

    /// True exactly once after the tables are stored, so a counter that
    /// asks after every game counts each build once, under threads and
    /// even when the game that built the tables was then stopped.
    pub fn claim_table_build(&self) -> bool {
        self.unclaimed_build.swap(false, Ordering::AcqRel)
    }
}

/// Partition the facts touching `elems` into fully-inside and boundary.
fn split_facts(d: &Database, elems: &[Val]) -> (Vec<usize>, Vec<usize>) {
    let inside = |v: Val| elems.binary_search(&v).is_ok();
    let mut inner = Vec::new();
    let mut boundary = Vec::new();
    let mut seen = BTreeSet::new();
    for &e in elems {
        for &fi in d.facts_of_val(e) {
            if !seen.insert(fi) {
                continue;
            }
            if d.fact(fi).args.iter().all(|&v| inside(v)) {
                inner.push(fi);
            } else {
                boundary.push(fi);
            }
        }
    }
    inner.sort_unstable();
    boundary.sort_unstable();
    (inner, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{DbBuilder, Schema};

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
    fn k1_unions_are_fact_element_sets() {
        let d = graph(&[("a", "b"), ("b", "c")]);
        let sk = UnionSkeleton::build(&d, &d, 1);
        assert_eq!(sk.unions.len(), 2);
        for u in &sk.unions {
            assert_eq!(u.cover.len(), 1);
            assert_eq!(u.inner_facts.len(), 1);
            assert_eq!(u.boundary_facts.len(), 1, "the adjacent edge is boundary");
        }
        // The two edge-regions overlap at b.
        assert_eq!(sk.neighbors[0].len(), 1);
        assert_eq!(sk.neighbors[0][0].1.len(), 1);
    }

    #[test]
    fn k2_unions_count_combinations() {
        let d = graph(&[("a", "b"), ("c", "d"), ("e", "f")]);
        let sk = UnionSkeleton::build(&d, &d, 2);
        // 3 singles + 3 pairs (all with distinct element sets).
        assert_eq!(sk.unions.len(), 6);
        // Disjoint singles have no neighbors among singles but overlap
        // with the pairs containing them.
        let single = sk.unions.iter().position(|u| u.cover.len() == 1).unwrap();
        assert!(sk.neighbors[single].iter().all(|(v, _)| {
            let vu = &sk.unions[*v as usize];
            vu.elems.iter().any(|e| sk.unions[single].elems.contains(e))
        }));
    }

    #[test]
    fn inner_vs_boundary_split() {
        let d = graph(&[("a", "b"), ("b", "a"), ("b", "c")]);
        let sk = UnionSkeleton::build(&d, &d, 1);
        // Region {a, b} (from either a->b or b->a) contains both a-b
        // facts as inner and b->c as boundary.
        let ab = sk
            .unions
            .iter()
            .find(|u| u.elems.len() == 2 && u.inner_facts.len() == 2)
            .expect("the {a,b} region");
        assert_eq!(ab.boundary_facts.len(), 1);
    }

    #[test]
    fn stored_table_build_is_claimed_once() {
        let d = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let sk = UnionSkeleton::build(&d, &d, 2);
        assert!(!sk.claim_table_build(), "nothing built yet");
        let stopped = Interrupt::with_deadline(std::time::Duration::ZERO);
        assert!(sk.tables(&stopped).is_err());
        assert!(!sk.claim_table_build(), "a stopped build stores nothing");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| sk.tables(&Interrupt::none()).map(|t| t.len()));
            }
        });
        assert!(sk.claim_table_build(), "the stored build is claimable");
        assert!(!sk.claim_table_build(), "and only once");
        assert!(sk.tables(&Interrupt::none()).is_ok());
        assert!(!sk.claim_table_build(), "a stored table is not rebuilt");
    }
}
