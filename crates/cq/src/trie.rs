//! The shared-prefix atom trie and its frontier evaluator: the kernel
//! that evaluates a bank of short unary features on many entities.
//!
//! Every feature is laid out as a *canonical atom path*: a
//! connectivity-aware ordering of its atoms starting from the free
//! variable, with variables renamed by first appearance along that
//! order (free variable = 0). Isomorphic prefixes of different features
//! thereby become *literally identical* atom sequences, and inserting
//! all paths into a trie shares them: one node per distinct prefix
//! atom, features marked on the node completing their path. A bank may
//! repeat a canonical path (syntactic enumeration does), so a node
//! carries a list of features.
//!
//! Evaluation of one entity `e` walks the trie once, maintaining a
//! **frontier** of partial homomorphisms (variable assignments with
//! `x0 ↦ e`) for the current prefix:
//!
//! * extending the frontier over a node's atom uses the database's
//!   `facts_with` position index (forward checking, not scan);
//! * an **empty frontier prunes the entire subtree** — every feature
//!   below keeps verdict "false" without any further work;
//! * the frontier computed at a node is **shared by all child
//!   branches** — the partial-homomorphism work for a common prefix is
//!   paid once, not once per feature;
//! * between nodes the frontier is **projected onto the live
//!   variables** (those still used somewhere below) and deduplicated,
//!   which is sound because equal live-projections have identical
//!   futures, and keeps frontier width bounded by data, not by path
//!   depth;
//! * if the width still exceeds the cap, the evaluator falls back to
//!   one exact homomorphism check per feature in the subtree
//!   (correctness never depends on the cap).
//!
//! The trie pays off on short, prefix-sharing banks such as the
//! enumerated `CQ[m]` statistic. Long features with a shared prefix
//! (explicit `GHW(k)` features run to hundreds of atoms) carry wide
//! frontiers deep into the path; a per-feature hom search serves them
//! better.

use crate::query::{Atom, Cq, Var};
use relational::{Database, Val};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Frontier width at which the evaluator stops carrying partial
/// assignments down a branch and answers its features by exact
/// homomorphism checks instead. Purely a performance valve — verdicts
/// do not depend on it.
pub const DEFAULT_FRONTIER_CAP: usize = 4096;

relational::counter_table! {
    /// Counters from trie evaluation. All additive; batch totals are the
    /// sum over entities.
    #[derive(Serialize, Deserialize)]
    pub struct TrieStats {
        /// Entities evaluated.
        entities: count("entities"),
        /// Trie nodes entered.
        nodes_visited: count("nodes visited"),
        /// Subtrees pruned because their prefix frontier came up empty.
        prefix_prunes: count("prefix prunes"),
        /// Times a node's frontier was reused by an additional sibling
        /// branch (children beyond the first served from shared work).
        reuse_hits: count("reuse hits"),
        /// Partial assignments materialized after projection and dedup.
        frontier_assignments: count("frontier assignments"),
        /// Per-feature exact homomorphism checks taken because a frontier
        /// overflowed the cap.
        hom_fallbacks: count("hom fallbacks"),
    }
}

impl TrieStats {
    /// One-line human-readable summary.
    pub fn report(&self) -> String {
        let parts: Vec<String> = self
            .fields()
            .iter()
            .map(|(l, v)| format!("{l} {v}"))
            .collect();
        parts.join(" · ")
    }
}

/// One atom of a compiled path, plus the shape of the assignment after
/// matching it.
#[derive(Debug, PartialEq, Eq)]
struct Node {
    atom: Atom,
    /// Number of variables bound once this atom is matched. The parent
    /// frontier's assignments have length `bound_after - new vars`.
    bound_after: u32,
    children: Vec<usize>,
    /// Features whose path ends at this node.
    features: Vec<u32>,
    /// Variables (bound at or before this node) still used somewhere
    /// in the subtree below — the projection target for the frontier.
    live: Vec<u32>,
}

/// The compiled forest: all feature paths, prefix-shared.
#[derive(Debug, PartialEq, Eq)]
pub struct Trie {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    /// Features whose body is empty (true on every entity).
    empty_features: Vec<u32>,
    /// Size of the bank the trie was built from.
    n_features: usize,
}

/// The canonical atom path of a unary feature: connectivity-aware
/// ordering from the free variable, variables renamed by first
/// appearance (free variable becomes `Var(0)`). Deterministic in the
/// *set* of atoms, so re-deriving it from a stored (sorted) `Cq`
/// reproduces the exact same path.
///
/// # Panics
/// Panics when `q` is not unary.
pub fn canonical_path(q: &Cq) -> Vec<Atom> {
    assert!(q.is_unary(), "trie features must be unary");
    let free = q.free_var();
    let mut remaining: Vec<&Atom> = q.atoms().iter().collect();
    let mut rename: HashMap<Var, u32> = HashMap::new();
    rename.insert(free, 0);
    let mut next = 1u32;
    let mut path = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Prefer atoms touching an already-bound variable; an atom with
        // no bound variable is only picked when the query is genuinely
        // disconnected from the free variable.
        let connected: Vec<usize> = (0..remaining.len())
            .filter(|&i| remaining[i].args.iter().any(|v| rename.contains_key(v)))
            .collect();
        let pool = if connected.is_empty() {
            (0..remaining.len()).collect()
        } else {
            connected
        };
        // Deterministic pick: smallest (relation, arg pattern), where a
        // bound arg compares by its canonical id and an unbound arg by
        // its first-occurrence position within the atom.
        let best = pool
            .into_iter()
            .min_by_key(|&i| atom_key(remaining[i], &rename))
            .expect("pool is non-empty");
        let atom = remaining.swap_remove(best);
        let args: Vec<Var> = atom
            .args
            .iter()
            .map(|v| {
                let id = *rename.entry(*v).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                Var(id)
            })
            .collect();
        path.push(Atom::new(atom.rel, args));
    }
    path
}

/// Comparison key for the canonical-path atom choice.
fn atom_key(atom: &Atom, rename: &HashMap<Var, u32>) -> (u32, Vec<(u8, u32)>) {
    let mut firsts: Vec<Var> = Vec::new();
    let args = atom
        .args
        .iter()
        .map(|v| match rename.get(v) {
            Some(&id) => (0u8, id),
            None => {
                let pos = firsts.iter().position(|w| w == v).unwrap_or_else(|| {
                    firsts.push(*v);
                    firsts.len() - 1
                });
                (1u8, pos as u32)
            }
        })
        .collect();
    (atom.rel.0, args)
}

impl Trie {
    /// Build the forest over a bank of unary features. Features with
    /// the same canonical path share its final node.
    ///
    /// # Panics
    /// Panics when a feature is not unary.
    pub fn build(features: &[Cq]) -> Trie {
        let mut trie = Trie {
            nodes: Vec::new(),
            roots: Vec::new(),
            empty_features: Vec::new(),
            n_features: features.len(),
        };
        for (id, q) in features.iter().enumerate() {
            let path = canonical_path(q);
            if path.is_empty() {
                trie.empty_features.push(id as u32);
                continue;
            }
            let mut bound = 1u32; // x0 ↦ e is pre-bound
            let mut at: Option<usize> = None;
            for atom in path {
                let new_vars = atom
                    .args
                    .iter()
                    .filter(|v| v.0 >= bound)
                    .collect::<HashSet<_>>()
                    .len() as u32;
                let kids = match at {
                    None => &trie.roots,
                    Some(i) => &trie.nodes[i].children,
                };
                let found = kids.iter().copied().find(|&k| trie.nodes[k].atom == atom);
                let k = found.unwrap_or_else(|| {
                    let k = trie.nodes.len();
                    trie.nodes.push(Node {
                        atom,
                        bound_after: bound + new_vars,
                        children: Vec::new(),
                        features: Vec::new(),
                        live: Vec::new(),
                    });
                    match at {
                        None => trie.roots.push(k),
                        Some(i) => trie.nodes[i].children.push(k),
                    }
                    k
                });
                bound = trie.nodes[k].bound_after;
                at = Some(k);
            }
            let end = at.expect("non-empty path has a final node");
            trie.nodes[end].features.push(id as u32);
        }
        trie.compute_live_sets();
        trie
    }

    /// Does every feature have a canonical path of its own? Always true
    /// for a core-deduplicated bank; false for a syntactic bank that
    /// repeats a feature up to variable renaming.
    pub fn paths_distinct(&self) -> bool {
        self.empty_features.len() <= 1 && self.nodes.iter().all(|n| n.features.len() <= 1)
    }

    /// Fill every node's `live` set: variables bound at or before the
    /// node that some descendant atom still reads. Children always have
    /// larger indices than their parent (created later along the path),
    /// so one reverse sweep is a post-order traversal.
    fn compute_live_sets(&mut self) {
        let n = self.nodes.len();
        let mut below: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for i in (0..n).rev() {
            let mut used = BTreeSet::new();
            for &c in &self.nodes[i].children {
                used.extend(self.nodes[c].atom.args.iter().map(|v| v.0));
                used.extend(below[c].iter().copied());
            }
            self.nodes[i].live = used
                .iter()
                .copied()
                .filter(|&v| v < self.nodes[i].bound_after)
                .collect();
            below[i] = used;
        }
    }

    /// Nodes in the forest (≤ total atoms of the bank; the gap is the
    /// sharing).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Evaluate one entity: the ±1 row of the bank at `e`, one entry per
    /// feature in build order. `fallback(f)` must answer the exact
    /// homomorphism question for feature `f` at `e`; it is consulted
    /// only when a frontier overflows `cap`.
    pub fn eval_entity<F: Fn(u32) -> bool>(
        &self,
        d: &Database,
        e: Val,
        cap: usize,
        fallback: &F,
        stats: &mut TrieStats,
    ) -> Vec<i32> {
        let mut row = vec![-1; self.n_features];
        stats.entities += 1;
        for &f in &self.empty_features {
            row[f as usize] = 1;
        }
        let root_frontier = vec![vec![e]];
        if self.roots.len() > 1 {
            stats.reuse_hits += self.roots.len() as u64 - 1;
        }
        let mut walk = Walk {
            trie: self,
            d,
            cap,
            fallback,
            row: &mut row,
            stats,
        };
        for &r in &self.roots {
            walk.descend(r, &root_frontier);
        }
        row
    }

    fn collect_features(&self, idx: usize, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.nodes[idx].features);
        for &c in &self.nodes[idx].children {
            self.collect_features(c, out);
        }
    }
}

/// One entity's walk down the trie: the fixed inputs plus the row and
/// counters it fills in.
struct Walk<'a, F> {
    trie: &'a Trie,
    d: &'a Database,
    cap: usize,
    fallback: &'a F,
    row: &'a mut [i32],
    stats: &'a mut TrieStats,
}

impl<F: Fn(u32) -> bool> Walk<'_, F> {
    fn mark(&mut self, features: &[u32]) {
        for &f in features {
            self.row[f as usize] = 1;
        }
    }

    fn descend(&mut self, idx: usize, frontier: &[Vec<Val>]) {
        self.stats.nodes_visited += 1;
        let trie = self.trie;
        let node = &trie.nodes[idx];
        if node.children.is_empty() {
            // Leaf: only non-emptiness matters, stop at the first
            // extension instead of materializing the frontier.
            if any_extension(self.d, &node.atom, frontier) {
                self.mark(&node.features);
            } else {
                self.stats.prefix_prunes += 1;
            }
            return;
        }
        let mut ext: Vec<Vec<Val>> = Vec::new();
        for base in frontier {
            extend_one(self.d, &node.atom, base, node.bound_after, &mut ext);
        }
        if ext.is_empty() {
            // The prefix fails to map: every feature below is false.
            self.stats.prefix_prunes += 1;
            return;
        }
        self.mark(&node.features);
        project_dedup(&mut ext, &node.live);
        self.stats.frontier_assignments += ext.len() as u64;
        if ext.len() > self.cap {
            // Frontier too wide to carry further: answer each feature
            // below exactly instead. Correctness is cap-independent.
            let mut feats = Vec::new();
            for &c in &node.children {
                trie.collect_features(c, &mut feats);
            }
            for f in feats {
                self.stats.hom_fallbacks += 1;
                if (self.fallback)(f) {
                    self.row[f as usize] = 1;
                }
            }
            return;
        }
        // The shared frontier is reused by every sibling branch.
        self.stats.reuse_hits += node.children.len() as u64 - 1;
        for &c in &node.children {
            self.descend(c, &ext);
        }
    }
}

/// Extend one assignment over `atom`, appending every consistent
/// binding of the atom's new variables to `out`. Candidate facts come
/// from the database's per-position index when any argument is already
/// bound.
fn extend_one(d: &Database, atom: &Atom, base: &[Val], bound_after: u32, out: &mut Vec<Vec<Val>>) {
    let candidates = candidate_facts(d, atom, base);
    for &fi in candidates {
        let fact = d.fact(fi);
        if let Some(new_vals) = match_fact(atom, base, &fact.args) {
            let mut ext = Vec::with_capacity(bound_after as usize);
            ext.extend_from_slice(base);
            ext.extend(new_vals);
            out.push(ext);
        }
    }
}

/// Does any assignment of the frontier extend over `atom`?
fn any_extension(d: &Database, atom: &Atom, frontier: &[Vec<Val>]) -> bool {
    frontier.iter().any(|base| {
        candidate_facts(d, atom, base)
            .iter()
            .any(|&fi| match_fact(atom, base, &d.fact(fi).args).is_some())
    })
}

/// The smallest available index slice of candidate facts for `atom`
/// under `base`: the sparsest `facts_with` position among the bound
/// arguments, or the relation's full fact list when none is bound.
fn candidate_facts<'d>(d: &'d Database, atom: &Atom, base: &[Val]) -> &'d [usize] {
    let mut best: Option<&'d [usize]> = None;
    for (pos, v) in atom.args.iter().enumerate() {
        if (v.0 as usize) < base.len() {
            let list = d.facts_with(atom.rel, pos as u32, base[v.index()]);
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
            }
        }
    }
    best.unwrap_or_else(|| d.facts_of_rel(atom.rel))
}

/// Match one fact against the atom under `base`; `Some(new_vals)` binds
/// the atom's new variables in first-occurrence order.
fn match_fact(atom: &Atom, base: &[Val], fact_args: &[Val]) -> Option<Vec<Val>> {
    let mut new_vals: Vec<Val> = Vec::new();
    for (v, &fv) in atom.args.iter().zip(fact_args) {
        let vi = v.index();
        if vi < base.len() {
            if base[vi] != fv {
                return None;
            }
        } else {
            let k = vi - base.len();
            if k < new_vals.len() {
                if new_vals[k] != fv {
                    return None;
                }
            } else {
                // New variables are numbered by first appearance within
                // the atom, so each is seen exactly when k == len.
                debug_assert_eq!(k, new_vals.len());
                new_vals.push(fv);
            }
        }
    }
    Some(new_vals)
}

/// Deduplicate the frontier by its projection onto the live variables.
/// Assignments equal on the live set have identical futures, so one
/// representative (kept at full length — deeper nodes index by
/// position) suffices.
fn project_dedup(frontier: &mut Vec<Vec<Val>>, live: &[u32]) {
    if frontier.len() <= 1 {
        return;
    }
    let mut seen: HashSet<Vec<Val>> = HashSet::with_capacity(frontier.len());
    frontier.retain(|a| {
        let key: Vec<Val> = live.iter().map(|&v| a[v as usize]).collect();
        seen.insert(key)
    });
}
