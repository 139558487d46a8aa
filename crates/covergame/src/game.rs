//! Deciding `(D, ā) →_k (D', b̄)`: the greatest-fixpoint solver for the
//! existential k-cover game (union-jump formulation; see the crate docs).
//!
//! The solver records, for every killed position, *when* it died and
//! *which* union Spoiler should jump to from it (the witness). Those
//! records are exactly a Spoiler winning strategy, which [`crate::extract`]
//! unfolds into a distinguishing `GHW(k)` query.

use crate::skeleton::UnionSkeleton;
use interrupt::{Interrupt, Stop};
use relational::{Database, Val};
use std::collections::HashMap;

/// One candidate pebble region: the element set of a union of ≤ k facts.
#[derive(Clone, Debug)]
pub struct Union {
    /// Sorted element set.
    pub elems: Vec<Val>,
    /// Indices (into `D.facts()`) of all facts fully inside
    /// `elems ∪ ā` that involve at least one element of `elems`.
    pub facts_inside: Vec<usize>,
    /// Indices of ≤ k facts whose union of elements is exactly `elems`
    /// (the cover that generated this region; used for width bookkeeping).
    pub cover: Vec<usize>,
}

/// A Duplicator response at a union: the images of `elems`, parallel to
/// `Union::elems`, plus death bookkeeping.
#[derive(Clone, Debug)]
pub struct Position {
    pub map: Vec<Val>,
    /// `None` while alive. `Some((seq, w))`: the `seq`-th kill overall,
    /// because union `w` admits no surviving agreeing response. Every
    /// agreeing response on `w` died with a strictly smaller `seq` — the
    /// well-foundedness that strategy extraction recurses on.
    pub death: Option<(u32, u32)>,
}

/// The fully analyzed game for one `(D, ā) → (D', b̄)` instance.
pub struct CoverGame<'a> {
    pub d: &'a Database,
    pub d2: &'a Database,
    pub k: usize,
    pub a: Vec<Val>,
    pub b: Vec<Val>,
    /// `ā → b̄` as a consistent map; `None` if `ā → b̄` is not a function
    /// or violates some fact inside `ā` (then Spoiler wins outright).
    base: Option<HashMap<Val, Val>>,
    pub unions: Vec<Union>,
    pub positions: Vec<Vec<Position>>,
    /// A union with no surviving positions, if any (Spoiler's opening).
    pub spoiler_opening: Option<u32>,
    sweeps: u32,
}

impl<'a> CoverGame<'a> {
    /// Analyze the game. Exhaustive for fixed `k` and arity: the number of
    /// regions is `O(|D|^k)` and responses per region are bounded by
    /// `|dom(D')|^{k·arity}` before the partial-homomorphism pruning.
    pub fn analyze(
        d: &'a Database,
        a: &[Val],
        d2: &'a Database,
        b: &[Val],
        k: usize,
    ) -> CoverGame<'a> {
        let skeleton = UnionSkeleton::build(d, k);
        CoverGame::analyze_with_skeleton(d, a, d2, b, &skeleton)
    }

    /// Interruptible [`CoverGame::analyze`]: the position exploration and
    /// every fixpoint sweep observe `intr` at bounded intervals. On
    /// [`Stop`] the half-built game is discarded.
    pub fn analyze_int(
        d: &'a Database,
        a: &[Val],
        d2: &'a Database,
        b: &[Val],
        k: usize,
        intr: &Interrupt,
    ) -> Result<CoverGame<'a>, Stop> {
        intr.check()?;
        let skeleton = UnionSkeleton::build(d, k);
        CoverGame::analyze_inner(d, a, d2, b, &skeleton, Some(intr))
    }

    /// Analyze reusing a prebuilt [`UnionSkeleton`] of `(d, k)`. The
    /// paper's algorithms solve `O(|η(D)|²)` games over one database —
    /// sharing the skeleton removes the dominant per-game setup cost.
    pub fn analyze_with_skeleton(
        d: &'a Database,
        a: &[Val],
        d2: &'a Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
    ) -> CoverGame<'a> {
        CoverGame::analyze_inner(d, a, d2, b, skeleton, None)
            .expect("uninterruptible analysis cannot stop")
    }

    /// Interruptible [`CoverGame::analyze_with_skeleton`].
    pub fn analyze_with_skeleton_int(
        d: &'a Database,
        a: &[Val],
        d2: &'a Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
        intr: &Interrupt,
    ) -> Result<CoverGame<'a>, Stop> {
        CoverGame::analyze_inner(d, a, d2, b, skeleton, Some(intr))
    }

    fn analyze_inner(
        d: &'a Database,
        a: &[Val],
        d2: &'a Database,
        b: &[Val],
        skeleton: &UnionSkeleton,
        intr: Option<&Interrupt>,
    ) -> Result<CoverGame<'a>, Stop> {
        assert_eq!(a.len(), b.len(), "distinguished tuples must align");
        assert_eq!(d.schema(), d2.schema(), "cover game requires one schema");

        if let Some(i) = intr {
            i.check()?;
        }

        let mut game = CoverGame {
            d,
            d2,
            k: skeleton.k,
            a: a.to_vec(),
            b: b.to_vec(),
            base: None,
            unions: Vec::new(),
            positions: Vec::new(),
            spoiler_opening: None,
            sweeps: 0,
        };

        game.base = game.check_base();
        if game.base.is_none() {
            // Spoiler wins before any position exists.
            return Ok(game);
        }
        game.instantiate_unions(skeleton);
        let run = game
            .build_positions(intr)
            .and_then(|()| game.fixpoint(&skeleton.neighbors, intr));
        run.map(|()| game)
    }

    /// Does Duplicator win, i.e. does `(D, ā) →_k (D', b̄)` hold?
    pub fn duplicator_wins(&self) -> bool {
        self.base.is_some() && self.spoiler_opening.is_none()
    }

    /// Number of fixpoint sweeps performed (diagnostics / benches).
    pub fn sweeps(&self) -> u32 {
        self.sweeps
    }

    /// Total positions enumerated across all unions (the figure a
    /// [`crate::GameCache`] adds to its `positions_explored` counter).
    pub fn position_count(&self) -> u64 {
        self.positions.iter().map(|p| p.len() as u64).sum()
    }

    /// The base map `ā → b̄` (None when inconsistent).
    pub fn base_map(&self) -> Option<&HashMap<Val, Val>> {
        self.base.as_ref()
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
        for f in self.d.facts() {
            if f.args.iter().all(|v| m.contains_key(v)) {
                let args: Vec<Val> = f.args.iter().map(|v| m[v]).collect();
                if !self.d2.has_fact(f.rel, &args) {
                    return None;
                }
            }
        }
        Some(m)
    }

    /// Instantiate the per-game unions from the shared skeleton: the
    /// element sets and inner facts are copied; a boundary fact joins iff
    /// its outside arguments are all covered by the distinguished tuple.
    fn instantiate_unions(&mut self, skeleton: &UnionSkeleton) {
        let base = self.base.as_ref().unwrap();
        self.unions = skeleton
            .unions
            .iter()
            .map(|su| {
                let mut facts_inside = su.inner_facts.clone();
                for &fi in &su.boundary_facts {
                    let f = self.d.fact(fi);
                    let ok = f
                        .args
                        .iter()
                        .all(|v| su.elems.binary_search(v).is_ok() || base.contains_key(v));
                    if ok {
                        facts_inside.push(fi);
                    }
                }
                facts_inside.sort_unstable();
                Union {
                    elems: su.elems.clone(),
                    facts_inside,
                    cover: su.cover.clone(),
                }
            })
            .collect();
    }

    /// Enumerate all valid Duplicator responses at every union. With an
    /// interrupt handle, the DFS stops between node expansions; the
    /// partially filled position table stays on `self` for accounting.
    fn build_positions(&mut self, intr: Option<&Interrupt>) -> Result<(), Stop> {
        let base = self.base.clone().unwrap();
        for u in &self.unions {
            let mut maps: Vec<Vec<Val>> = Vec::new();
            let mut cur: Vec<Option<Val>> = vec![None; u.elems.len()];
            let run = self.enumerate_maps(u, &base, 0, &mut cur, &mut maps, intr);
            self.positions.push(
                maps.into_iter()
                    .map(|map| Position { map, death: None })
                    .collect(),
            );
            run?;
        }
        Ok(())
    }

    /// DFS over assignments of `u.elems`, pruning with facts whose
    /// arguments are fully decided. Observes `intr` once per node
    /// expansion (the same cadence as the hom backtracker).
    fn enumerate_maps(
        &self,
        u: &Union,
        base: &HashMap<Val, Val>,
        i: usize,
        cur: &mut Vec<Option<Val>>,
        out: &mut Vec<Vec<Val>>,
        intr: Option<&Interrupt>,
    ) -> Result<(), Stop> {
        if let Some(h) = intr {
            h.check()?;
        }
        if i == u.elems.len() {
            out.push(cur.iter().map(|x| x.unwrap()).collect());
            return Ok(());
        }
        let e = u.elems[i];
        let choices: Vec<Val> = match base.get(&e) {
            Some(&fixed) => vec![fixed],
            None => self.d2.dom().collect(),
        };
        for c in choices {
            cur[i] = Some(c);
            if self.consistent_so_far(u, base, cur, i) {
                self.enumerate_maps(u, base, i + 1, cur, out, intr)?;
            }
        }
        cur[i] = None;
        Ok(())
    }

    /// Check all inside-facts whose arguments are decided once position `i`
    /// is assigned (an argument is decided if it is `ā` or `≤ i` in elems).
    fn consistent_so_far(
        &self,
        u: &Union,
        base: &HashMap<Val, Val>,
        cur: &[Option<Val>],
        i: usize,
    ) -> bool {
        let value = |v: Val| -> Option<Val> {
            match u.elems.binary_search(&v) {
                Ok(pos) => cur[pos],
                Err(_) => base.get(&v).copied(),
            }
        };
        'facts: for &fi in &u.facts_inside {
            let f = self.d.fact(fi);
            // Only re-check facts that involve the just-assigned element;
            // earlier facts were checked at earlier depths.
            if !f.args.contains(&u.elems[i]) {
                continue;
            }
            let mut args = Vec::with_capacity(f.args.len());
            for &v in &f.args {
                match value(v) {
                    Some(x) => args.push(x),
                    None => continue 'facts,
                }
            }
            if !self.d2.has_fact(f.rel, &args) {
                return false;
            }
        }
        true
    }

    /// The greatest fixpoint: repeatedly kill positions that some
    /// neighboring union refutes; if a union runs dry, every remaining
    /// position (and the empty starting position) dies with that union as
    /// witness.
    fn fixpoint(
        &mut self,
        neighbors: &[crate::skeleton::NeighborRow],
        intr: Option<&Interrupt>,
    ) -> Result<(), Stop> {
        let n = self.unions.len();
        if n == 0 {
            return Ok(());
        }
        let mut alive_count: Vec<usize> = self.positions.iter().map(|p| p.len()).collect();

        let mut seq = 0u32;
        let mut sweeps = 0u32;
        loop {
            sweeps += 1;
            self.sweeps = sweeps;
            let mut changed = false;
            for ui in 0..n {
                // One check per union per sweep: each row below scans
                // `neighbors × positions`, so this bounds the interval
                // between checks without taxing the innermost loop.
                if let Some(h) = intr {
                    h.check()?;
                }
                for hi in 0..self.positions[ui].len() {
                    if self.positions[ui][hi].death.is_some() {
                        continue;
                    }
                    let mut killer: Option<u32> = None;
                    for (vi, pairs) in &neighbors[ui] {
                        let vi_us = *vi as usize;
                        let ok = self.positions[vi_us].iter().any(|p2| {
                            p2.death.is_none()
                                && pairs.iter().all(|&(i, j)| {
                                    self.positions[ui][hi].map[i as usize] == p2.map[j as usize]
                                })
                        });
                        if !ok {
                            killer = Some(*vi);
                            break;
                        }
                    }
                    if let Some(w) = killer {
                        self.positions[ui][hi].death = Some((seq, w));
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
                for ui in 0..n {
                    for p in &mut self.positions[ui] {
                        if p.death.is_none() {
                            p.death = Some((seq, zero as u32));
                            seq += 1;
                        }
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

/// `(D, ā) →_k (D', b̄)`: does every `GHW(k)` query satisfied at `ā`
/// transfer to `b̄` (Proposition 5.2)?
pub fn cover_implies(d: &Database, a: &[Val], d2: &Database, b: &[Val], k: usize) -> bool {
    CoverGame::analyze(d, a, d2, b, k).duplicator_wins()
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
    Ok(CoverGame::analyze_int(d, a, d2, b, k, intr)?.duplicator_wins())
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
