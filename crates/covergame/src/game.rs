//! Deciding `(D, ā) →_k (D', b̄)`: the greatest-fixpoint solver for the
//! existential k-cover game (union-jump formulation; see the crate docs).
//!
//! The solver records, for every killed position, *when* it died and
//! *which* union Spoiler should jump to from it (the witness). Those
//! records are exactly a Spoiler winning strategy, which [`crate::extract`]
//! unfolds into a distinguishing `GHW(k)` query.

use crate::skeleton::UnionSkeleton;
use crate::table::PositionTable;
use interrupt::{Interrupt, Stop};
use relational::{Database, Val};
use std::collections::HashMap;

/// A position's death record: `None` while alive. `Some((seq, w))`: the
/// `seq`-th kill overall, because union `w` admits no surviving agreeing
/// response. Every agreeing response on `w` died with a strictly smaller
/// `seq` — the well-foundedness that strategy extraction recurses on.
pub type Death = Option<(u32, u32)>;

/// The analyzed game for one `(D, ā) → (D', b̄)` instance. Union `u`'s
/// positions are the rows of the skeleton's table for `u` that respect
/// `ā → b̄`; the game borrows them and owns only what depends on
/// `(ā, b̄)`: which rows it keeps, and their deaths.
pub struct CoverGame<'s> {
    skeleton: &'s UnionSkeleton<'s>,
    pub a: Vec<Val>,
    pub b: Vec<Val>,
    /// `ā → b̄` as a consistent map; `None` if `ā → b̄` is not a function
    /// or violates some fact inside `ā` (then Spoiler wins outright).
    base: Option<HashMap<Val, Val>>,
    /// The skeleton's tables; empty while `base` is `None`.
    tables: &'s [PositionTable],
    /// Per union: the boundary facts `ā` closes, i.e. those inside
    /// `elems ∪ ā`.
    joined: Vec<Vec<usize>>,
    /// Per union: the table rows kept, or `None` for all of them.
    kept: Vec<Option<Vec<u32>>>,
    /// Per union and position: the [`Death`] record.
    deaths: Vec<Vec<Death>>,
    /// A union with no surviving positions, if any (Spoiler's opening).
    pub spoiler_opening: Option<u32>,
    sweeps: u32,
}

impl<'s> CoverGame<'s> {
    /// Analyze the game from `(skeleton.d, ā)` to `(skeleton.d2, b̄)` at
    /// width `skeleton.k`. Exhaustive for fixed `k`: the number of regions
    /// is `O(|D|^k)`, and a region holds at most `|D'|^k` positions,
    /// since a position is fixed by the facts of `D'` that its ≤ k
    /// covering facts map to.
    ///
    /// The table enumeration, when this game is the first to need it,
    /// and every fixpoint sweep observe `intr` at bounded intervals. On
    /// [`Stop`] the half-built game is discarded.
    pub fn analyze(
        a: &[Val],
        b: &[Val],
        skeleton: &'s UnionSkeleton<'s>,
        intr: &Interrupt,
    ) -> Result<CoverGame<'s>, Stop> {
        assert_eq!(a.len(), b.len(), "distinguished tuples must align");
        assert_eq!(
            skeleton.d.schema(),
            skeleton.d2.schema(),
            "cover game requires one schema"
        );
        intr.check()?;
        let mut game = CoverGame {
            skeleton,
            a: a.to_vec(),
            b: b.to_vec(),
            base: None,
            tables: &[],
            joined: Vec::new(),
            kept: Vec::new(),
            deaths: Vec::new(),
            spoiler_opening: None,
            sweeps: 0,
        };
        game.base = game.check_base();
        if game.base.is_none() {
            // Spoiler wins before any position exists.
            return Ok(game);
        }
        game.tables = skeleton.tables(intr)?;
        game.select_positions();
        game.fixpoint(intr)?;
        Ok(game)
    }

    /// Does Duplicator win, i.e. does `(D, ā) →_k (D', b̄)` hold?
    pub fn duplicator_wins(&self) -> bool {
        self.base.is_some() && self.spoiler_opening.is_none()
    }

    /// The left-hand database `D`.
    pub fn d(&self) -> &'s Database {
        self.skeleton.d
    }

    /// The target `D'`.
    pub fn d2(&self) -> &'s Database {
        self.skeleton.d2
    }

    /// Number of fixpoint sweeps performed (diagnostics / benches).
    pub fn sweeps(&self) -> u32 {
        self.sweeps
    }

    /// Total positions across all unions (the figure a
    /// [`crate::GameCache`] adds to its `positions_explored` counter).
    pub fn position_count(&self) -> u64 {
        self.deaths.iter().map(|p| p.len() as u64).sum()
    }

    /// The base map `ā → b̄` (None when inconsistent).
    pub fn base_map(&self) -> Option<&HashMap<Val, Val>> {
        self.base.as_ref()
    }

    /// Number of unions in play: the skeleton's, or none when the base
    /// map is inconsistent.
    pub fn union_count(&self) -> usize {
        self.deaths.len()
    }

    /// Sorted element set of union `u`.
    pub fn elems(&self, u: usize) -> &'s [Val] {
        &self.skeleton.unions[u].elems
    }

    /// Indices (into `D.facts()`) of all facts fully inside
    /// `elems ∪ ā` that involve at least one element of union `u`,
    /// ascending.
    pub fn facts_inside(&self, u: usize) -> Vec<usize> {
        let mut facts = self.skeleton.unions[u].inner_facts.clone();
        facts.extend_from_slice(&self.joined[u]);
        facts.sort_unstable();
        facts
    }

    /// Union `u`'s positions in enumeration order: each response (the
    /// images of [`CoverGame::elems`]) with its death record.
    pub fn positions(&self, u: usize) -> impl Iterator<Item = (&'s [Val], Death)> + '_ {
        self.deaths[u]
            .iter()
            .enumerate()
            .map(move |(p, &death)| (self.response(u, p), death))
    }

    fn response(&self, u: usize, p: usize) -> &'s [Val] {
        let table = &self.tables[u];
        match &self.kept[u] {
            None => table.row(p),
            Some(rows) => table.row(rows[p] as usize),
        }
    }

    /// `ā → b̄` must be a function, and every fact of `D` inside `ā` must
    /// map to a fact of `D'`.
    fn check_base(&self) -> Option<HashMap<Val, Val>> {
        let mut m: HashMap<Val, Val> = HashMap::new();
        for (&x, &y) in self.a.iter().zip(self.b.iter()) {
            if let Some(prev) = m.insert(x, y) {
                if prev != y {
                    return None;
                }
            }
        }
        for f in self.d().facts() {
            if f.args.iter().all(|v| m.contains_key(v)) {
                let args: Vec<Val> = f.args.iter().map(|v| m[v]).collect();
                if !self.d2().has_fact(f.rel, &args) {
                    return None;
                }
            }
        }
        Some(m)
    }

    /// Keep, per union, the table rows that respect `ā → b̄`: rows that
    /// send each element of `ā` to its image, and each boundary fact
    /// `ā` closes to a fact of `D'`. A union `ā` does not touch keeps
    /// its whole table.
    fn select_positions(&mut self) {
        let skeleton = self.skeleton;
        let (d, d2) = (skeleton.d, skeleton.d2);
        // `ā` is short and consistent, so a scan beats hashing here.
        let (a, b) = (&self.a, &self.b);
        let image = |v: Val| a.iter().position(|&x| x == v).map(|i| b[i]);
        for (su, table) in skeleton.unions.iter().zip(self.tables) {
            let slot = |v: Val| su.elems.binary_search(&v).ok();
            let fixed: Vec<(usize, Val)> = su
                .elems
                .iter()
                .enumerate()
                .filter_map(|(i, &e)| image(e).map(|img| (i, img)))
                .collect();
            let joined: Vec<usize> = su
                .boundary_facts
                .iter()
                .copied()
                .filter(|&fi| {
                    d.fact(fi)
                        .args
                        .iter()
                        .all(|&v| slot(v).is_some() || a.contains(&v))
                })
                .collect();
            if fixed.is_empty() && joined.is_empty() {
                self.deaths.push(vec![None; table.len()]);
                self.kept.push(None);
                self.joined.push(joined);
                continue;
            }
            let closed: Vec<ClosedFact> = joined
                .iter()
                .map(|&fi| ClosedFact::new(d, d2, fi, slot, image))
                .collect();
            let rows: Vec<u32> = (0..table.len())
                .filter(|&r| {
                    let row = table.row(r);
                    fixed.iter().all(|&(i, img)| row[i] == img)
                        && closed.iter().all(|c| c.holds(row))
                })
                .map(|r| r as u32)
                .collect();
            self.deaths.push(vec![None; rows.len()]);
            self.kept.push(Some(rows));
            self.joined.push(joined);
        }
    }

    /// The greatest fixpoint: repeatedly kill positions that some
    /// neighboring union refutes; if a union runs dry, every remaining
    /// position (and the empty starting position) dies with that union as
    /// witness.
    fn fixpoint(&mut self, intr: &Interrupt) -> Result<(), Stop> {
        let n = self.union_count();
        if n == 0 {
            return Ok(());
        }
        let skeleton = self.skeleton;
        let neighbors = &skeleton.neighbors;
        let mut alive_count: Vec<usize> = self.deaths.iter().map(|p| p.len()).collect();

        let mut seq = 0u32;
        loop {
            self.sweeps += 1;
            let mut changed = false;
            for ui in 0..n {
                // One check per union per sweep: each row below scans
                // `neighbors × positions`, so this bounds the interval
                // between checks without taxing the innermost loop.
                intr.check()?;
                for hi in 0..self.deaths[ui].len() {
                    if self.deaths[ui][hi].is_some() {
                        continue;
                    }
                    let h = self.response(ui, hi);
                    let killer = neighbors[ui].iter().find(|(vi, pairs)| {
                        let vi = *vi as usize;
                        !(0..self.deaths[vi].len()).any(|p2| {
                            self.deaths[vi][p2].is_none() && {
                                let h2 = self.response(vi, p2);
                                pairs.iter().all(|&(i, j)| h[i as usize] == h2[j as usize])
                            }
                        })
                    });
                    if let Some(&(w, _)) = killer {
                        self.deaths[ui][hi] = Some((seq, w));
                        seq += 1;
                        alive_count[ui] -= 1;
                        changed = true;
                    }
                }
            }
            if let Some(zero) = (0..n).find(|&ui| alive_count[ui] == 0) {
                // Spoiler wins: jumping to the dry union defeats every
                // still-alive position, so kill them all with it as the
                // witness; extraction then has a total, well-founded
                // strategy (the dry union's own positions all died with
                // smaller sequence numbers).
                for death in self.deaths.iter_mut().flatten() {
                    if death.is_none() {
                        *death = Some((seq, zero as u32));
                        seq += 1;
                    }
                }
                self.spoiler_opening = Some(zero as u32);
                return Ok(());
            }
            if !changed {
                return Ok(());
            }
        }
    }
}

/// A boundary fact of a union that `ā` closes, resolved against one
/// game's base map: the values its union slots may take together.
struct ClosedFact {
    /// The union slot of each argument inside the union, in argument
    /// order (a slot repeats if the fact repeats the element).
    slots: Vec<usize>,
    /// Rows of `slots.len()` values: the projections onto `slots` of
    /// the facts of `D'` that match the fact's images of `ā`.
    allowed: Vec<Val>,
}

impl ClosedFact {
    fn new(
        d: &Database,
        d2: &Database,
        fi: usize,
        slot: impl Fn(Val) -> Option<usize>,
        image: impl Fn(Val) -> Option<Val>,
    ) -> ClosedFact {
        let f = d.fact(fi);
        // Per argument: the union slot holding it, or its image.
        let pattern: Vec<Result<usize, Val>> = f
            .args
            .iter()
            .map(|&v| slot(v).ok_or_else(|| image(v).expect("ā closes the fact")))
            .collect();
        let (pos, img) = pattern
            .iter()
            .enumerate()
            .find_map(|(p, x)| x.err().map(|img| (p as u32, img)))
            .expect("a boundary fact has an argument outside the union");
        let mut allowed = Vec::new();
        for &g in d2.facts_with(f.rel, pos, img) {
            let args = &d2.fact(g).args;
            if args
                .iter()
                .zip(&pattern)
                .all(|(x, p)| p.err().is_none_or(|img| img == *x))
            {
                allowed.extend(
                    args.iter()
                        .zip(&pattern)
                        .filter(|(_, p)| p.is_ok())
                        .map(|(&x, _)| x),
                );
            }
        }
        ClosedFact {
            slots: pattern.iter().filter_map(|p| p.ok()).collect(),
            allowed,
        }
    }

    /// Does the response `row` send the fact to a fact of `D'`?
    fn holds(&self, row: &[Val]) -> bool {
        self.allowed
            .chunks(self.slots.len())
            .any(|vals| vals.iter().zip(&self.slots).all(|(&x, &i)| row[i] == x))
    }
}

/// `(D, ā) →_k (D', b̄)`: does every `GHW(k)` query satisfied at `ā`
/// transfer to `b̄` (Proposition 5.2)?
pub fn cover_implies(d: &Database, a: &[Val], d2: &Database, b: &[Val], k: usize) -> bool {
    cover_implies_int(d, a, d2, b, k, &Interrupt::none()).expect("an unshared handle cannot trip")
}

/// Interruptible [`cover_implies`].
pub fn cover_implies_int(
    d: &Database,
    a: &[Val],
    d2: &Database,
    b: &[Val],
    k: usize,
    intr: &Interrupt,
) -> Result<bool, Stop> {
    let skeleton = UnionSkeleton::build(d, d2, k);
    Ok(CoverGame::analyze(a, b, &skeleton, intr)?.duplicator_wins())
}

/// Mutual `→_k`: the entities are `GHW(k)`-indistinguishable.
pub fn cover_equivalent(d: &Database, a: Val, d2: &Database, b: Val, k: usize) -> bool {
    cover_implies(d, &[a], d2, &[b], k) && cover_implies(d2, &[b], d, &[a], k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{homomorphism_exists, DbBuilder, Schema};

    fn graph(edges: &[(&str, &str)]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        b.build()
    }

    fn v(d: &Database, n: &str) -> Val {
        d.val_by_name(n).unwrap()
    }

    #[test]
    fn hom_implies_cover_for_all_k() {
        let p2 = graph(&[("a", "b"), ("b", "c")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        // p2 -> c3 exists, so ->_k must hold for every k.
        for k in 1..=3 {
            assert!(cover_implies(&p2, &[v(&p2, "a")], &c3, &[v(&c3, "x")], k));
        }
    }

    #[test]
    fn k1_and_pointed_cycles() {
        // With a distinguished element the free point is "for free": facts
        // among pebbles AND the point count. Pebbling the single fact
        // {b,c} of the triangle puts all three triangle edges in scope, so
        // even k=1 forces Duplicator to realize a triangle through the
        // image point.
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p6 = graph(&[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6")]);
        // Hom p6 -> c3 with 1 -> a exists, so ->_1 holds.
        assert!(homomorphism_exists(&p6, &c3, &[]));
        assert!(cover_implies(&p6, &[v(&p6, "1")], &c3, &[v(&c3, "a")], 1));
        // (C3,a) ->_1 (P6,1) fails: the GHW(1) query
        // q(x) :- E(x,y), E(y,z), E(z,x) (bag {y,z} covered by E(y,z))
        // holds at a but at no path element.
        assert!(!cover_implies(&c3, &[v(&c3, "a")], &p6, &[v(&p6, "1")], 1));
        assert!(!homomorphism_exists(&c3, &p6, &[]));
    }

    #[test]
    fn cover_k_is_monotone_decreasing_in_k() {
        // ->_{k+1} ⊆ ->_k : if Duplicator wins with more constrained
        // Spoiler... i.e. winning at k+1 implies winning at k.
        let c4 = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        for (from, fa, to, ta) in [(&c4, "a", &c2, "x"), (&c2, "x", &c4, "a")] {
            let mut prev = true;
            for k in 1..=3 {
                let now = cover_implies(from, &[v(from, fa)], to, &[v(to, ta)], k);
                if !prev {
                    assert!(!now, "->_k not antitone in k at k={k}");
                }
                prev = now;
            }
        }
    }

    #[test]
    fn boolean_cycles_separate_at_the_right_width() {
        // Boolean (no distinguished tuple) comparisons of C2 and C3.
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let c2 = graph(&[("x", "y"), ("y", "x")]);
        // C2 ->_1 C3 fails already: the 2-cycle query ∃xy E(x,y)∧E(y,x)
        // has ghw 1 (bag {x,y} covered by one atom) and C3 has no 2-cycle.
        assert!(!cover_implies(&c2, &[], &c3, &[], 1));
        // C3 ->_1 C2 holds: width-1 patterns cannot pin down the odd
        // cycle (Duplicator walks the 2-cycle).
        assert!(cover_implies(&c3, &[], &c2, &[], 1));
        // ...but the triangle query has ghw 2, so ->_2 fails.
        assert!(!cover_implies(&c3, &[], &c2, &[], 2));
        // Sanity: no homomorphism C3 -> C2 (odd cycle into bipartite).
        assert!(!homomorphism_exists(&c3, &c2, &[]));
    }

    #[test]
    fn inconsistent_base_fails() {
        let d = graph(&[("a", "b")]);
        let a = v(&d, "a");
        let b = v(&d, "b");
        // a -> a and a -> b simultaneously: not a function.
        assert!(!cover_implies(&d, &[a, a], &d, &[a, b], 1));
        // Fact inside ā violated: E(a,b) with (a,b) -> (b,a) needs E(b,a).
        assert!(!cover_implies(&d, &[a, b], &d, &[b, a], 1));
        // Identity works.
        assert!(cover_implies(&d, &[a, b], &d, &[a, b], 1));
    }

    #[test]
    fn empty_database_trivialities() {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let d = relational::Database::new(s);
        assert!(cover_implies(&d, &[], &d, &[], 1));
    }

    #[test]
    fn equivalence_on_cycle_elements() {
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        assert!(cover_equivalent(&c3, v(&c3, "a"), &c3, v(&c3, "b"), 2));
        let p2 = graph(&[("s", "t")]);
        assert!(!cover_equivalent(&p2, v(&p2, "s"), &p2, v(&p2, "t"), 1));
    }

    #[test]
    fn path_endpoint_hierarchy_k1() {
        // In a directed path 1->2->3->4, (D, i) ->_1 (D, j) iff the tree
        // queries at i transfer to j; "out-path of length L" is the
        // relevant family, so i ->_1 j iff out-length(j) >= out-length(i)
        // ... combined with in-lengths. Element 1: out 3, in 0.
        // Element 2: out 2, in 1. Tree queries at 1 include out-path-3,
        // which 2 lacks.
        let p = graph(&[("1", "2"), ("2", "3"), ("3", "4")]);
        assert!(!cover_implies(&p, &[v(&p, "1")], &p, &[v(&p, "2")], 1));
        assert!(!cover_implies(&p, &[v(&p, "2")], &p, &[v(&p, "1")], 1));
    }

    #[test]
    fn cover_agrees_with_hom_when_target_rich() {
        // Against a reflexive complete digraph every query holds
        // everywhere, so ->_k always holds.
        let k2 = graph(&[("u", "u"), ("u", "w"), ("w", "u"), ("w", "w")]);
        let any = graph(&[("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")]);
        for k in 1..=2 {
            assert!(cover_implies(&any, &[v(&any, "a")], &k2, &[v(&k2, "u")], k));
        }
    }
}
