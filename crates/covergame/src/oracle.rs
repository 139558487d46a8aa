//! The depth-first cover-game solver that the indexed join and the
//! shared position tables replaced, kept as the test oracle: every game
//! instantiates its own unions, enumerates every response by a DFS over
//! `dom(D')^|U|`, and runs the same greatest fixpoint. The property tests
//! below check that [`CoverGame`] reproduces its position lists element
//! by element and in order, its death records, its verdict, and the
//! query [`extract_from_game`] unfolds.

use crate::extract::{extract_from_game, ExtractError};
use crate::game::{CoverGame, Death};
use crate::skeleton::{NeighborRow, UnionSkeleton};
use cq::{Atom, Cq, TreeDecomposition, Var};
use relational::{Database, Val};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One union as a game sees it.
struct Union {
    elems: Vec<Val>,
    /// Facts fully inside `elems ∪ ā` involving an element of `elems`.
    facts_inside: Vec<usize>,
}

struct Position {
    map: Vec<Val>,
    death: Death,
}

struct OracleGame<'a> {
    d: &'a Database,
    d2: &'a Database,
    a: Vec<Val>,
    b: Vec<Val>,
    base: Option<HashMap<Val, Val>>,
    unions: Vec<Union>,
    positions: Vec<Vec<Position>>,
    spoiler_opening: Option<u32>,
    sweeps: u32,
}

impl<'a> OracleGame<'a> {
    fn analyze(a: &[Val], b: &[Val], skeleton: &UnionSkeleton<'a>) -> OracleGame<'a> {
        let mut game = OracleGame {
            d: skeleton.d,
            d2: skeleton.d2,
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
            return game;
        }
        game.instantiate_unions(skeleton);
        game.build_positions();
        game.fixpoint(&skeleton.neighbors);
        game
    }

    fn duplicator_wins(&self) -> bool {
        self.base.is_some() && self.spoiler_opening.is_none()
    }

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

    /// Copy each skeleton union into the game; a boundary fact joins iff
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
                }
            })
            .collect();
    }

    fn build_positions(&mut self) {
        let base = self.base.clone().unwrap();
        for u in &self.unions {
            let mut maps: Vec<Vec<Val>> = Vec::new();
            let mut cur: Vec<Option<Val>> = vec![None; u.elems.len()];
            self.enumerate_maps(u, &base, 0, &mut cur, &mut maps);
            self.positions.push(
                maps.into_iter()
                    .map(|map| Position { map, death: None })
                    .collect(),
            );
        }
    }

    /// DFS over assignments of `u.elems`, pruning with facts whose
    /// arguments are fully decided.
    fn enumerate_maps(
        &self,
        u: &Union,
        base: &HashMap<Val, Val>,
        i: usize,
        cur: &mut Vec<Option<Val>>,
        out: &mut Vec<Vec<Val>>,
    ) {
        if i == u.elems.len() {
            out.push(cur.iter().map(|x| x.unwrap()).collect());
            return;
        }
        let e = u.elems[i];
        let choices: Vec<Val> = match base.get(&e) {
            Some(&fixed) => vec![fixed],
            None => self.d2.dom().collect(),
        };
        for c in choices {
            cur[i] = Some(c);
            if self.consistent_so_far(u, base, cur, i) {
                self.enumerate_maps(u, base, i + 1, cur, out);
            }
        }
        cur[i] = None;
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

    fn fixpoint(&mut self, neighbors: &[NeighborRow]) {
        let n = self.unions.len();
        if n == 0 {
            return;
        }
        let mut alive_count: Vec<usize> = self.positions.iter().map(|p| p.len()).collect();
        let mut seq = 0u32;
        loop {
            self.sweeps += 1;
            let mut changed = false;
            for ui in 0..n {
                for hi in 0..self.positions[ui].len() {
                    if self.positions[ui][hi].death.is_some() {
                        continue;
                    }
                    let mut killer: Option<u32> = None;
                    for (vi, pairs) in &neighbors[ui] {
                        let ok = self.positions[*vi as usize].iter().any(|p2| {
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
                for ui in 0..n {
                    for p in &mut self.positions[ui] {
                        if p.death.is_none() {
                            p.death = Some((seq, zero as u32));
                            seq += 1;
                        }
                    }
                }
                self.spoiler_opening = Some(zero as u32);
                return;
            }
            if !changed {
                return;
            }
        }
    }
}

/// Strategy extraction over an oracle game, as it read the per-game
/// unions and positions.
fn oracle_extract(
    game: &OracleGame,
    max_nodes: usize,
) -> Result<(Cq, TreeDecomposition), ExtractError> {
    let e = game.a[0];
    let d = game.d;
    let mut b = OracleBuilder {
        game,
        e,
        atoms: Vec::new(),
        bags: Vec::new(),
        edges: Vec::new(),
        next_var: 1,
        max_nodes,
    };
    for &fi in d.facts_of_val(e) {
        let f = d.fact(fi);
        if f.args.iter().all(|&v| v == e) {
            b.atoms
                .push(Atom::new(f.rel, f.args.iter().map(|_| Var(0)).collect()));
        }
    }
    if game.base.is_none() {
        let q = Cq::new(d.schema().clone(), vec![Var(0)], b.atoms);
        return Ok((q, TreeDecomposition::single(BTreeSet::new())));
    }
    let Some(root) = game.spoiler_opening else {
        return Err(ExtractError::DuplicatorWins);
    };
    b.build_node(root, &BTreeMap::new(), &BTreeMap::new())?;
    let q = Cq::new(d.schema().clone(), vec![Var(0)], b.atoms);
    let td = TreeDecomposition {
        bags: b.bags,
        edges: b.edges,
    };
    Ok((q, td))
}

struct OracleBuilder<'g, 'a> {
    game: &'g OracleGame<'a>,
    e: Val,
    atoms: Vec<Atom>,
    bags: Vec<BTreeSet<Var>>,
    edges: Vec<(usize, usize)>,
    next_var: u32,
    max_nodes: usize,
}

impl OracleBuilder<'_, '_> {
    fn build_node(
        &mut self,
        union_idx: u32,
        glue: &BTreeMap<Val, Var>,
        constraint: &BTreeMap<Val, Val>,
    ) -> Result<usize, ExtractError> {
        if self.bags.len() >= self.max_nodes {
            return Err(ExtractError::Budget {
                nodes: self.max_nodes,
            });
        }
        let u = &self.game.unions[union_idx as usize];
        let mut var_of: BTreeMap<Val, Var> = BTreeMap::new();
        for &el in &u.elems {
            let v = if el == self.e {
                Var(0)
            } else if let Some(&g) = glue.get(&el) {
                g
            } else {
                self.next_var += 1;
                Var(self.next_var - 1)
            };
            var_of.insert(el, v);
        }
        for &fi in &u.facts_inside {
            let f = self.game.d.fact(fi);
            let args: Vec<Var> = f
                .args
                .iter()
                .map(|&el| if el == self.e { Var(0) } else { var_of[&el] })
                .collect();
            self.atoms.push(Atom::new(f.rel, args));
        }
        let bag: BTreeSet<Var> = u
            .elems
            .iter()
            .filter(|&&el| el != self.e)
            .map(|el| var_of[el])
            .collect();
        let node = self.bags.len();
        self.bags.push(bag);
        let mut spawned: HashSet<(u32, Vec<(Val, Val)>)> = HashSet::new();
        for pos in &self.game.positions[union_idx as usize] {
            let agrees = u
                .elems
                .iter()
                .enumerate()
                .all(|(i, el)| constraint.get(el).is_none_or(|&c| pos.map[i] == c));
            if !agrees {
                continue;
            }
            let (_, witness) = pos.death.expect("Spoiler wins, so every position is dead");
            let w = &self.game.unions[witness as usize];
            let mut child_glue: BTreeMap<Val, Var> = BTreeMap::new();
            let mut child_constraint: BTreeMap<Val, Val> = BTreeMap::new();
            for (i, &el) in u.elems.iter().enumerate() {
                if w.elems.binary_search(&el).is_ok() {
                    child_glue.insert(el, var_of[&el]);
                    child_constraint.insert(el, pos.map[i]);
                }
            }
            let key = (
                witness,
                child_constraint.iter().map(|(&a, &b)| (a, b)).collect(),
            );
            if !spawned.insert(key) {
                continue;
            }
            let child = self.build_node(witness, &child_glue, &child_constraint)?;
            self.edges.push((node, child));
        }
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interrupt::Interrupt;
    use proptest::prelude::*;
    use relational::{RelId, Schema};

    /// Relations `η/1` (the entity schema's), `E/2` and `T/3`.
    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s.add_relation("T", 3);
        s
    }

    /// A database over `n` named elements (`prefix0..`) with the given
    /// binary, ternary and entity facts; indices wrap modulo `n`.
    fn db(
        prefix: &str,
        n: usize,
        edges: &[(usize, usize)],
        triples: &[(usize, usize, usize)],
        entities: &[usize],
    ) -> Database {
        let s = schema();
        let (e, t) = (rel(&s, "E"), rel(&s, "T"));
        let mut d = Database::new(s);
        let vals: Vec<Val> = (0..n).map(|i| d.value(&format!("{prefix}{i}"))).collect();
        for &(x, y) in edges {
            d.add_fact(e, vec![vals[x % n], vals[y % n]]);
        }
        for &(x, y, z) in triples {
            d.add_fact(t, vec![vals[x % n], vals[y % n], vals[z % n]]);
        }
        for &x in entities {
            d.add_entity(vals[x % n]);
        }
        d
    }

    fn rel(s: &Schema, name: &str) -> RelId {
        s.rel_by_name(name).unwrap()
    }

    /// Play `(ā, b̄)` on `skeleton` with both solvers and compare every
    /// observable: unions, positions in order, deaths, opening, sweeps,
    /// verdict, and (for a single point) the extracted query.
    fn agree(skeleton: &UnionSkeleton, a: &[Val], b: &[Val]) -> Result<(), String> {
        let old = OracleGame::analyze(a, b, skeleton);
        let new = CoverGame::analyze(a, b, skeleton, &Interrupt::none()).unwrap();
        prop_assert_eq!(new.duplicator_wins(), old.duplicator_wins());
        prop_assert_eq!(new.spoiler_opening, old.spoiler_opening);
        prop_assert_eq!(new.sweeps(), old.sweeps);
        prop_assert_eq!(new.union_count(), old.unions.len());
        let mut count = 0;
        for (u, ou) in old.unions.iter().enumerate() {
            prop_assert_eq!(new.elems(u), &ou.elems[..]);
            prop_assert_eq!(new.facts_inside(u), ou.facts_inside.clone());
            let got: Vec<(Vec<Val>, Death)> = new
                .positions(u)
                .map(|(map, death)| (map.to_vec(), death))
                .collect();
            let want: Vec<(Vec<Val>, Death)> = old.positions[u]
                .iter()
                .map(|p| (p.map.clone(), p.death))
                .collect();
            prop_assert_eq!(got, want, "union {}", u);
            count += old.positions[u].len() as u64;
        }
        prop_assert_eq!(new.position_count(), count);
        if a.len() == 1 {
            prop_assert_eq!(extract_from_game(&new, 2_000), oracle_extract(&old, 2_000));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn join_tables_reproduce_the_dfs_games(
            n in 2usize..5,
            edges in proptest::collection::vec((0usize..5, 0usize..5), 1..7),
            triples in proptest::collection::vec((0usize..5, 0usize..5, 0usize..5), 0..3),
            entities in proptest::collection::vec(0usize..5, 0..4),
            other in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6), 0..8),
            same_target in any::<bool>(),
            ab in proptest::collection::vec((0usize..5, 0usize..7), 0..3),
            k in 0usize..3,
        ) {
            let d = db("v", n, &edges, &triples, &entities);
            // A distinct target has two elements that occur in no fact.
            let d2 = if same_target {
                d.clone()
            } else {
                let m = 6;
                let es: Vec<(usize, usize)> = other.iter().map(|&(x, y, _)| (x, y)).collect();
                let ts: Vec<(usize, usize, usize)> = other.iter().take(2).copied().collect();
                let ents: Vec<usize> = other.iter().map(|&(_, _, z)| z).collect();
                let mut t = db("w", m - 2, &es, &ts, &ents);
                t.value("isolated0");
                t.value("isolated1");
                t
            };
            let a: Vec<Val> = ab.iter().map(|&(x, _)| Val((x % n) as u32)).collect();
            let b: Vec<Val> = ab
                .iter()
                .map(|&(_, y)| Val((y % d2.dom_size()) as u32))
                .collect();
            let skeleton = UnionSkeleton::build(&d, &d2, k);
            agree(&skeleton, &a, &b)?;
            // Later games on the same skeleton reuse its tables.
            for x in d.dom().take(3) {
                for y in d2.dom().take(3) {
                    agree(&skeleton, &[x], &[y])?;
                }
            }
        }
    }

    #[test]
    fn join_tables_reproduce_the_dfs_games_on_fixed_corners() {
        // Ternary facts with repeated arguments, self-loops, an isolated
        // target element, repeated points, and an inconsistent base.
        let d = db(
            "v",
            4,
            &[(0, 0), (0, 1), (1, 2), (2, 0), (3, 3)],
            &[(0, 1, 1), (1, 2, 3), (2, 2, 2)],
            &[0, 1, 3],
        );
        let mut d2 = db(
            "w",
            4,
            &[(0, 0), (0, 1), (1, 0), (2, 3), (3, 3)],
            &[(0, 1, 1), (1, 0, 0), (3, 3, 3)],
            &[0, 1, 2, 3],
        );
        let isolated = d2.value("isolated");
        // Elements are interned in name order, so `Val(i)` is `v{i}` in
        // `d` and `w{i}` (or `v{i}`) in the target.
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![0], vec![0]),
            (vec![1], vec![1]),
            (vec![3], vec![3]),
            (vec![0, 0], vec![0, 0]),
            (vec![0, 0], vec![0, 1]),
            (vec![1, 2], vec![0, 1]),
            (vec![2, 0, 1], vec![1, 0, 1]),
        ];
        let vals = |xs: &[u32]| xs.iter().map(|&x| Val(x)).collect::<Vec<_>>();
        for k in 0..3 {
            for d2 in [&d, &d2] {
                let skeleton = UnionSkeleton::build(&d, d2, k);
                for (a, b) in &cases {
                    agree(&skeleton, &vals(a), &vals(b))
                        .unwrap_or_else(|m| panic!("k={k} a={a:?} b={b:?}: {m}"));
                }
            }
            let skeleton = UnionSkeleton::build(&d, &d2, k);
            agree(&skeleton, &[Val(0)], &[isolated]).unwrap();
        }
    }
}
