//! Unfolding Spoiler's winning strategy into a distinguishing `GHW(k)`
//! query (the constructive heart of Proposition 5.6).
//!
//! When `(D, e) ↛_k (D', e')`, Proposition 5.2 guarantees a CQ
//! `q(x) ∈ GHW(k)` with `e ∈ q(D)` and `e' ∉ q(D')`. The fixpoint solver
//! in [`crate::game`] leaves behind exactly the data needed to build one:
//! every killed position `(U, h)` records a witness union Spoiler should
//! jump to. The query is the tree unfolding of that strategy:
//!
//! * each tree node is a played union `U`, contributing fresh variables
//!   for `U`'s elements (glued with its parent on `U ∩ U_parent`; the
//!   distinguished element `e` is always the free variable `x`) and one
//!   atom per fact of `D` inside `U ∪ {e}`;
//! * a node's children are the witness unions of the Duplicator responses
//!   consistent with the path so far — children with identical
//!   `(witness, constraint)` are merged.
//!
//! The node bags (existential variables per node) form a tree
//! decomposition of width ≤ k by construction: each node's variables are
//! covered by the ≤ k facts whose union the node plays. Soundness
//! (`e ∈ q(D)`) is the identity embedding; completeness (`e' ∉ q(D')`)
//! is the descent argument — a counter-model homomorphism would trace an
//! infinite strictly-decreasing chain of kill sequence numbers.
//!
//! Sizes can be exponential (Theorem 5.7 shows they must be in the worst
//! case), so extraction takes a node budget and fails loudly.

use crate::game::CoverGame;
use crate::skeleton::UnionSkeleton;
use cq::{Atom, Cq, TreeDecomposition, Var};
use interrupt::Interrupt;
use relational::{Database, Val};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// Failure modes of query extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// `(D, e) →_k (D', e')` holds: no distinguishing query exists.
    DuplicatorWins,
    /// The strategy unfolding exceeded the node budget.
    Budget { nodes: usize },
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::DuplicatorWins => {
                write!(f, "no distinguishing GHW(k) query exists (Duplicator wins)")
            }
            ExtractError::Budget { nodes } => {
                write!(f, "extraction exceeded the node budget of {nodes}")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// Extract a unary CQ `q(x) ∈ GHW(k)` with `e ∈ q(D)` and `e' ∉ q(D')`,
/// together with a width-≤-k tree decomposition witnessing membership.
///
/// `max_nodes` bounds the strategy-tree size (each node contributes at
/// most `k · arity` variables and a handful of atoms).
pub fn extract_distinguishing_query(
    d: &Database,
    e: Val,
    d2: &Database,
    e2: Val,
    k: usize,
    max_nodes: usize,
) -> Result<(Cq, TreeDecomposition), ExtractError> {
    let skeleton = UnionSkeleton::build(d, d2, k);
    extract_with_skeleton(&skeleton, e, e2, max_nodes)
}

/// [`extract_distinguishing_query`] on a prebuilt skeleton, so queries
/// against several points of one target share its position tables.
fn extract_with_skeleton(
    skeleton: &UnionSkeleton,
    e: Val,
    e2: Val,
    max_nodes: usize,
) -> Result<(Cq, TreeDecomposition), ExtractError> {
    let game = CoverGame::analyze(&[e], &[e2], skeleton, &Interrupt::none())
        .expect("an unshared handle cannot trip");
    extract_from_game(&game, max_nodes)
}

/// Extraction from an already-analyzed game (single distinguished point).
pub fn extract_from_game(
    game: &CoverGame<'_>,
    max_nodes: usize,
) -> Result<(Cq, TreeDecomposition), ExtractError> {
    assert_eq!(game.a.len(), 1, "extraction handles unary queries");
    let e = game.a[0];
    let d = game.d();

    let mut builder = Builder {
        game,
        e,
        atoms: Vec::new(),
        bags: Vec::new(),
        edges: Vec::new(),
        next_var: 1, // Var(0) is the free variable x
        max_nodes,
    };

    // Facts living entirely on the distinguished element (e.g. η(e)):
    // they belong to every position, so add them once, globally.
    for &fi in d.facts_of_val(e) {
        let f = d.fact(fi);
        if f.args.iter().all(|&v| v == e) {
            builder
                .atoms
                .push(Atom::new(f.rel, f.args.iter().map(|_| Var(0)).collect()));
        }
    }

    if game.base_map().is_none() {
        // ā → b̄ itself is inconsistent: the e-only facts distinguish.
        let q = Cq::new(d.schema().clone(), vec![Var(0)], builder.atoms);
        let td = TreeDecomposition::single(BTreeSet::new());
        return Ok((q, td));
    }

    let root_union = match game.spoiler_opening {
        None => return Err(ExtractError::DuplicatorWins),
        Some(z) => z,
    };

    let root = builder.build_node(root_union, &BTreeMap::new(), &BTreeMap::new())?;
    debug_assert_eq!(root, 0);

    let q = Cq::new(d.schema().clone(), vec![Var(0)], builder.atoms);
    let td = TreeDecomposition {
        bags: builder.bags,
        edges: builder.edges,
    };
    Ok((q, td))
}

struct Builder<'g, 's> {
    game: &'g CoverGame<'s>,
    e: Val,
    atoms: Vec<Atom>,
    bags: Vec<BTreeSet<Var>>,
    edges: Vec<(usize, usize)>,
    next_var: u32,
    max_nodes: usize,
}

impl Builder<'_, '_> {
    /// Create the query-tree node for playing `union_idx`, with `glue`
    /// giving the variables of elements shared with the parent and
    /// `constraint` the parent response restricted to those elements.
    /// Returns the decomposition node index.
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
        let game = self.game;
        let elems = game.elems(union_idx as usize);

        // Assign variables to the union's elements.
        let mut var_of: BTreeMap<Val, Var> = BTreeMap::new();
        for &el in elems {
            let v = if el == self.e {
                Var(0)
            } else if let Some(&g) = glue.get(&el) {
                g
            } else {
                let v = Var(self.next_var);
                self.next_var += 1;
                v
            };
            var_of.insert(el, v);
        }

        // Node atoms: all facts of D inside U ∪ {e}.
        for fi in game.facts_inside(union_idx as usize) {
            let f = game.d().fact(fi);
            let args: Vec<Var> = f
                .args
                .iter()
                .map(|&el| if el == self.e { Var(0) } else { var_of[&el] })
                .collect();
            self.atoms.push(Atom::new(f.rel, args));
        }

        // Bag: the existential variables of this node.
        let bag: BTreeSet<Var> = elems
            .iter()
            .filter(|&&el| el != self.e)
            .map(|el| var_of[el])
            .collect();
        let node = self.bags.len();
        self.bags.push(bag);

        // Children: one per distinct (witness, agreeing-response
        // restriction). Responses must agree with `constraint`.
        let mut spawned: HashSet<(u32, Vec<(Val, Val)>)> = HashSet::new();
        for (map, death) in game.positions(union_idx as usize) {
            let agrees = elems
                .iter()
                .enumerate()
                .all(|(i, el)| constraint.get(el).is_none_or(|&c| map[i] == c));
            if !agrees {
                continue;
            }
            let (_, witness) = death.expect("Spoiler wins, so every position is dead");
            let w = game.elems(witness as usize);
            // Overlap between U and the witness union.
            let mut child_glue: BTreeMap<Val, Var> = BTreeMap::new();
            let mut child_constraint: BTreeMap<Val, Val> = BTreeMap::new();
            for (i, &el) in elems.iter().enumerate() {
                if w.binary_search(&el).is_ok() {
                    child_glue.insert(el, var_of[&el]);
                    child_constraint.insert(el, map[i]);
                }
            }
            let key: (u32, Vec<(Val, Val)>) = (
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

/// Convenience wrapper: extract queries distinguishing `e` from each
/// element of `others` (skipping those where Duplicator wins), returning
/// the conjunction — this is the `q_e(x) = ⋀_{e'} q_e^{e'}(x)` of
/// Lemma 5.4. The conjunction of GHW(k) queries stays in GHW(k).
pub fn lemma54_feature(
    d: &Database,
    e: Val,
    others: &[Val],
    k: usize,
    max_nodes: usize,
) -> Result<Cq, ExtractError> {
    let mut acc = Cq::entity_only(d.schema().clone());
    let skeleton = UnionSkeleton::build(d, d, k);
    for &e2 in others {
        match extract_with_skeleton(&skeleton, e, e2, max_nodes) {
            Ok((q, _)) => acc = acc.conjoin(&q),
            Err(ExtractError::DuplicatorWins) => {}
            Err(err) => return Err(err),
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::cover_implies;
    use cq::{evaluate_unary, selects};
    use relational::{DbBuilder, Schema};

    fn graph(edges: &[(&str, &str)], entities: &[&str]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        for &e in entities {
            b = b.entity(e);
        }
        b.build()
    }

    fn v(d: &Database, n: &str) -> Val {
        d.val_by_name(n).unwrap()
    }

    #[test]
    fn duplicator_win_yields_error() {
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")], &[]);
        let err =
            extract_distinguishing_query(&c3, v(&c3, "a"), &c3, v(&c3, "b"), 1, 1000).unwrap_err();
        assert_eq!(err, ExtractError::DuplicatorWins);
    }

    #[test]
    fn path_source_vs_sink() {
        let p = graph(&[("s", "t")], &["s", "t"]);
        let s = v(&p, "s");
        let t = v(&p, "t");
        assert!(!cover_implies(&p, &[s], &p, &[t], 1));
        let (q, td) = extract_distinguishing_query(&p, s, &p, t, 1, 1000).unwrap();
        // The query must hold at s and fail at t.
        assert!(selects(&q, &p, s), "{q}");
        assert!(!selects(&q, &p, t), "{q}");
        // And be certified width ≤ 1.
        td.verify(&q, 1).unwrap();
    }

    #[test]
    fn base_violation_distinguishes_via_point_facts() {
        // e is an entity, e2 is not: η(e) itself distinguishes.
        let d = graph(&[("e", "f")], &["e"]);
        let e = v(&d, "e");
        let f = v(&d, "f");
        let (q, td) = extract_distinguishing_query(&d, e, &d, f, 1, 1000).unwrap();
        assert!(selects(&q, &d, e));
        assert!(!selects(&q, &d, f));
        td.verify(&q, 1).unwrap();
    }

    #[test]
    fn extracted_queries_distinguish_path_positions() {
        let p = graph(&[("1", "2"), ("2", "3"), ("3", "4")], &["1", "2", "3", "4"]);
        let names = ["1", "2", "3", "4"];
        for a in names {
            for b in names {
                if a == b {
                    continue;
                }
                let ea = v(&p, a);
                let eb = v(&p, b);
                if cover_implies(&p, &[ea], &p, &[eb], 1) {
                    continue;
                }
                let (q, td) = extract_distinguishing_query(&p, ea, &p, eb, 1, 10_000).unwrap();
                assert!(selects(&q, &p, ea), "q_{a},{b} must select {a}: {q}");
                assert!(!selects(&q, &p, eb), "q_{a},{b} must reject {b}: {q}");
                td.verify(&q, 1).unwrap();
            }
        }
    }

    #[test]
    fn width_two_extraction_on_cycles() {
        // Boolean-level: C2 vs C3 need width-1 only; pointed odd/even
        // cycle entities need width 2: on C5 vs C4... use C3 member vs a
        // long even cycle member at k=2.
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")], &["a"]);
        let c4 = graph(&[("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")], &["w"]);
        // Give both entity status in a merged database for a fair query.
        // (Separate databases work too: extraction supports D ≠ D'.)
        let a = v(&c3, "a");
        let w = v(&c4, "w");
        // Hmm: entity facts differ across the two databases (η(a) vs η(w)
        // both present), so the base is fine.
        assert!(!cover_implies(&c3, &[a], &c4, &[w], 2));
        let (q, td) = extract_distinguishing_query(&c3, a, &c4, w, 2, 50_000).unwrap();
        assert!(selects(&q, &c3, a));
        assert!(!selects(&q, &c4, w));
        td.verify(&q, 2).unwrap();
    }

    #[test]
    fn budget_is_respected() {
        let p = graph(
            &[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")],
            &["1", "5"],
        );
        let r = extract_distinguishing_query(&p, v(&p, "1"), &p, v(&p, "5"), 1, 1);
        match r {
            Err(ExtractError::Budget { nodes: 1 }) => {}
            Ok((q, _)) => {
                // A 1-node strategy may genuinely suffice; accept it if
                // it actually distinguishes.
                assert!(selects(&q, &p, v(&p, "1")));
                assert!(!selects(&q, &p, v(&p, "5")));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn lemma54_feature_round_trips_at_width_two() {
        // Triangle member vs 4-cycle member in one database: only width 2
        // separates them, and the conjoined feature must evaluate (via
        // the CQ engine) to exactly the →_2-upward closure — holding at
        // the separating entity, failing at the separated one.
        let d = graph(
            &[
                ("a", "b"),
                ("b", "c"),
                ("c", "a"),
                ("w", "x"),
                ("x", "y"),
                ("y", "z"),
                ("z", "w"),
            ],
            &["a", "w"],
        );
        let (a, w) = (v(&d, "a"), v(&d, "w"));
        assert!(!cover_implies(&d, &[a], &d, &[w], 2));
        let others = d.entities();
        let q = lemma54_feature(&d, a, &others, 2, 50_000).unwrap();
        let selected = evaluate_unary(&q, &d);
        assert!(selected.contains(&a), "q_a must hold at a: {q}");
        assert!(!selected.contains(&w), "q_a must fail at w: {q}");
    }

    #[test]
    fn lemma54_feature_selects_upward_closure() {
        // q_e selects exactly { e' : e ⪯ e' }.
        let p = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
        for name in ["1", "2", "3"] {
            let e = v(&p, name);
            let others: Vec<Val> = p.entities();
            let q = lemma54_feature(&p, e, &others, 1, 10_000).unwrap();
            let selected = evaluate_unary(&q, &p);
            for &e2 in &others {
                let expect = cover_implies(&p, &[e], &p, &[e2], 1);
                assert_eq!(
                    selected.contains(&e2),
                    expect,
                    "q_{name} at {}",
                    p.val_name(e2)
                );
            }
        }
    }
}
