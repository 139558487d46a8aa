//! Homomorphisms between databases: `(D, ā) → (D', b̄)` (§2).
//!
//! Deciding homomorphism existence is the classic NP-complete constraint
//! satisfaction problem. The solver here is a backtracking search with
//!
//! * **node consistency** at setup (a candidate image for `v` must occur at
//!   the right positions of the right relations),
//! * **minimum-remaining-values** variable ordering, and
//! * **forward checking** through per-fact support computation over the
//!   `(relation, position, value)` index of [`Database`].
//!
//! It is exact: `exists()` answers the NP question truthfully, never
//! heuristically. A brute-force cross-check lives in the test module and in
//! the property tests.

use crate::database::Database;
use crate::ids::Val;
use interrupt::{Interrupt, Stop};
use stats::HomStats;
use std::collections::HashMap;

pub mod cache;
pub mod par;
pub mod stats;

/// A configured homomorphism search from one database to another.
///
/// "Variables" are the elements of `dom(from)` that occur in facts, plus
/// any elements constrained via [`HomSearch::fix`] (the distinguished
/// tuple `ā`). The mapping returned by [`HomSearch::find`] covers exactly
/// those elements.
pub struct HomSearch<'a> {
    from: &'a Database,
    to: &'a Database,
    fixed: HashMap<Val, Val>,
    /// Set when two contradictory `fix` calls arrive; forces "no".
    inconsistent: bool,
}

impl<'a> HomSearch<'a> {
    /// # Panics
    /// Panics if the two databases disagree on the schema.
    pub fn new(from: &'a Database, to: &'a Database) -> HomSearch<'a> {
        assert_eq!(
            from.schema(),
            to.schema(),
            "homomorphism requires a common schema"
        );
        HomSearch {
            from,
            to,
            fixed: HashMap::new(),
            inconsistent: false,
        }
    }

    /// Require `h(a) = b` (one component of `ā → b̄`). Contradictory
    /// requirements make the search report non-existence, mirroring the
    /// paper's convention that `ā → b̄` must itself be consistent.
    pub fn fix(mut self, a: Val, b: Val) -> HomSearch<'a> {
        match self.fixed.insert(a, b) {
            Some(prev) if prev != b => self.inconsistent = true,
            _ => {}
        }
        self
    }

    pub fn exists(&self) -> bool {
        // Stop at the first solution; `solve` returns whether one was found.
        self.solve(&mut |_| true)
    }

    /// [`HomSearch::exists`] plus this query's search effort as a
    /// [`HomStats`], for per-instance accounting; interruptible: the backtracking loop
    /// checks `intr` at every node expansion and unwinds with [`Stop`] as
    /// soon as it trips. The effort counters cover the work done up to
    /// the stop, so partial effort stays attributable.
    pub fn exists_counted_int(&self, intr: &Interrupt) -> (Result<bool, Stop>, HomStats) {
        self.solve_counted_int(&mut |_| true, Some(intr))
    }

    /// Find one homomorphism as a map over the constrained elements.
    pub fn find(&self) -> Option<HashMap<Val, Val>> {
        let mut found = None;
        self.solve(&mut |h| {
            found = Some(h);
            true
        });
        found
    }

    /// Count homomorphisms, stopping at `limit`. Exposed for tests and the
    /// enumeration-hungry parts of the benchmark harness.
    pub fn count_up_to(&self, limit: usize) -> usize {
        if limit == 0 {
            // The stop-callback below fires only *after* counting a
            // solution, so without this guard a zero limit would count 1.
            return 0;
        }
        let mut n = 0usize;
        self.solve(&mut |_| {
            n += 1;
            n >= limit
        });
        n
    }

    /// Core search. `on_solution` receives each solution; returning `true`
    /// stops the search. Returns whether any solution was found.
    fn solve(&self, on_solution: &mut dyn FnMut(HashMap<Val, Val>) -> bool) -> bool {
        let (found, _) = self.solve_counted_int(on_solution, None);
        found.expect("uninterruptible search cannot stop")
    }

    /// [`HomSearch::solve`] plus the per-query effort counters and an
    /// optional interrupt handle (`None` = run to completion). Early
    /// returns (before a search state is built) report zeroed counts;
    /// `solves` is 1 exactly when a backtracking search ran. An
    /// interrupted search reports its partial counters and `Err(Stop)`
    /// instead of a verdict.
    fn solve_counted_int(
        &self,
        on_solution: &mut dyn FnMut(HashMap<Val, Val>) -> bool,
        intr: Option<&Interrupt>,
    ) -> (Result<bool, Stop>, HomStats) {
        let counts = HomStats::default();
        if let Some(i) = intr {
            if let Err(stop) = i.check() {
                return (Err(stop), counts);
            }
        }
        if self.inconsistent {
            return (Ok(false), counts);
        }
        // Collect variables: active elements plus fixed ones.
        let mut is_var = vec![false; self.from.dom_size()];
        for v in self.from.dom() {
            if !self.from.facts_of_val(v).is_empty() {
                is_var[v.index()] = true;
            }
        }
        for &a in self.fixed.keys() {
            if a.index() >= self.from.dom_size() {
                // A constraint on an element outside dom(from) cannot be
                // satisfied by any mapping — mirror the out-of-domain
                // target convention below rather than indexing OOB.
                return (Ok(false), counts);
            }
            is_var[a.index()] = true;
        }
        let vars: Vec<Val> = self.from.dom().filter(|v| is_var[v.index()]).collect();
        if vars.is_empty() {
            // The empty homomorphism: vacuously valid even into an empty DB.
            return (Ok(on_solution(HashMap::new())), counts);
        }

        // Initial candidate sets with node consistency.
        let to_dom: Vec<Val> = self.to.dom().collect();
        let mut cand: Vec<Vec<Val>> = vec![Vec::new(); self.from.dom_size()];
        for &v in &vars {
            if let Some(&b) = self.fixed.get(&v) {
                if b.index() >= self.to.dom_size() {
                    return (Ok(false), counts);
                }
                cand[v.index()] = vec![b];
                continue;
            }
            let mut cs = to_dom.clone();
            // Every (rel, pos) occurrence of v must be supportable.
            let mut occurrences: Vec<(crate::ids::RelId, u32)> = Vec::new();
            for &fi in self.from.facts_of_val(v) {
                let f = self.from.fact(fi);
                for (pos, &a) in f.args.iter().enumerate() {
                    if a == v {
                        occurrences.push((f.rel, pos as u32));
                    }
                }
            }
            occurrences.sort_unstable();
            occurrences.dedup();
            for (rel, pos) in occurrences {
                cs.retain(|&d| !self.to.facts_with(rel, pos, d).is_empty());
                if cs.is_empty() {
                    return (Ok(false), counts);
                }
            }
            cand[v.index()] = cs;
        }

        let mut assignment: Vec<Option<Val>> = vec![None; self.from.dom_size()];
        let mut state = SearchState {
            from: self.from,
            to: self.to,
            vars,
            cand,
            assignment: &mut assignment,
            nodes: 0,
            wipeouts: 0,
            backtracks: 0,
        };
        let found = state.backtrack(on_solution, intr);
        let counts = HomStats {
            solves: 1,
            nodes_expanded: state.nodes,
            forward_check_wipeouts: state.wipeouts,
            backtracks: state.backtracks,
            ..HomStats::default()
        };
        (found, counts)
    }
}

struct SearchState<'a, 'b> {
    from: &'a Database,
    to: &'a Database,
    vars: Vec<Val>,
    cand: Vec<Vec<Val>>,
    assignment: &'b mut Vec<Option<Val>>,
    /// Instrumentation (reported once per solve).
    nodes: u64,
    wipeouts: u64,
    backtracks: u64,
}

impl SearchState<'_, '_> {
    /// Iterative backtracking search (an explicit frame stack — recursion
    /// depth equals the variable count, which can reach tens of thousands
    /// on product databases, far past the thread stack).
    ///
    /// When `intr` is supplied it is checked once per node expansion —
    /// the unit of search progress — so an interrupt is observed within
    /// one forward-check of tripping, regardless of how deep or wide the
    /// search has grown.
    fn backtrack(
        &mut self,
        on_solution: &mut dyn FnMut(HashMap<Val, Val>) -> bool,
        intr: Option<&Interrupt>,
    ) -> Result<bool, Stop> {
        struct Frame {
            var: Val,
            options: Vec<Val>,
            next_option: usize,
            trail: Vec<(Val, Vec<Val>)>,
        }

        let mut stack: Vec<Frame> = Vec::new();
        loop {
            // Descend: pick the next variable (MRV) and open a frame.
            let next = self
                .vars
                .iter()
                .copied()
                .filter(|v| self.assignment[v.index()].is_none())
                .min_by_key(|v| self.cand[v.index()].len());
            match next {
                None => {
                    let h: HashMap<Val, Val> = self
                        .vars
                        .iter()
                        .map(|&u| (u, self.assignment[u.index()].unwrap()))
                        .collect();
                    if on_solution(h) {
                        return Ok(true);
                    }
                    // Treat as a dead end: fall through to backtracking.
                }
                Some(v) => {
                    stack.push(Frame {
                        var: v,
                        options: self.cand[v.index()].clone(),
                        next_option: 0,
                        trail: Vec::new(),
                    });
                }
            }

            // Advance the top frame (undoing its previous attempt first);
            // pop exhausted frames.
            'advance: loop {
                let frame = match stack.last_mut() {
                    None => return Ok(false),
                    Some(f) => f,
                };
                // Undo the previous attempt of this frame, if any.
                if self.assignment[frame.var.index()].is_some() {
                    for (u, old) in frame.trail.drain(..).rev() {
                        self.cand[u.index()] = old;
                    }
                    self.assignment[frame.var.index()] = None;
                }
                if frame.next_option >= frame.options.len() {
                    stack.pop();
                    self.backtracks += 1;
                    continue 'advance;
                }
                let d = frame.options[frame.next_option];
                frame.next_option += 1;
                let var = frame.var;
                self.assignment[var.index()] = Some(d);
                self.nodes += 1;
                if let Some(i) = intr {
                    i.check()?;
                }
                // Borrow dance: forward_check needs &mut self.
                let mut trail = Vec::new();
                let ok = self.forward_check(var, &mut trail);
                let frame = stack.last_mut().unwrap();
                frame.trail = trail;
                if ok {
                    break 'advance; // descend deeper
                }
                self.wipeouts += 1;
                // else: loop and try the next option of this frame.
            }
        }
    }

    /// Restrict candidates of unassigned variables sharing a fact with `v`.
    /// Returns `false` on a wipe-out.
    fn forward_check(&mut self, v: Val, trail: &mut Vec<(Val, Vec<Val>)>) -> bool {
        for &fi in self.from.facts_of_val(v) {
            let f = self.from.fact(fi).clone();
            // Compute the support: to-facts matching the assigned pattern.
            // Seed from the most selective assigned position's index.
            let mut seed: Option<&[usize]> = None;
            for (pos, &a) in f.args.iter().enumerate() {
                if let Some(d) = self.assignment[a.index()] {
                    let idxs = self.to.facts_with(f.rel, pos as u32, d);
                    if seed.is_none_or(|s| idxs.len() < s.len()) {
                        seed = Some(idxs);
                    }
                }
            }
            let seed = seed.expect("v is assigned and occurs in f");
            let mut support: Vec<usize> = Vec::with_capacity(seed.len());
            'fact: for &ti in seed {
                let t = self.to.fact(ti);
                for (pos, &a) in f.args.iter().enumerate() {
                    if let Some(d) = self.assignment[a.index()] {
                        if t.args[pos] != d {
                            continue 'fact;
                        }
                    }
                }
                support.push(ti);
            }
            if support.is_empty() {
                return false;
            }
            // Shrink candidates of unassigned variables in f.
            for (pos, &a) in f.args.iter().enumerate() {
                if self.assignment[a.index()].is_some() {
                    continue;
                }
                let allowed: Vec<Val> = {
                    let mut s: Vec<Val> = support
                        .iter()
                        .map(|&ti| self.to.fact(ti).args[pos])
                        .collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                };
                let old = &self.cand[a.index()];
                let shrunk: Vec<Val> = old
                    .iter()
                    .copied()
                    .filter(|d| allowed.binary_search(d).is_ok())
                    .collect();
                if shrunk.len() != old.len() {
                    trail.push((a, std::mem::replace(&mut self.cand[a.index()], shrunk)));
                    if self.cand[a.index()].is_empty() {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Does a homomorphism `from → to` exist extending the given fixed pairs?
pub fn homomorphism_exists(from: &Database, to: &Database, fixed: &[(Val, Val)]) -> bool {
    fixed
        .iter()
        .fold(HomSearch::new(from, to), |s, &(a, b)| s.fix(a, b))
        .exists()
}

/// [`homomorphism_exists`] plus this query's search effort, for callers
/// doing per-instance accounting (the memo caches use this on their miss
/// paths). The backtracking search observes `intr` at every node
/// expansion. The counts always report the
/// effort actually spent, even when the verdict is `Err(Stop)`.
pub fn homomorphism_exists_counted_int(
    from: &Database,
    to: &Database,
    fixed: &[(Val, Val)],
    intr: &Interrupt,
) -> (Result<bool, Stop>, HomStats) {
    fixed
        .iter()
        .fold(HomSearch::new(from, to), |s, &(a, b)| s.fix(a, b))
        .exists_counted_int(intr)
}

/// Find a homomorphism `from → to` extending the given fixed pairs.
pub fn find_homomorphism(
    from: &Database,
    to: &Database,
    fixed: &[(Val, Val)],
) -> Option<HashMap<Val, Val>> {
    fixed
        .iter()
        .fold(HomSearch::new(from, to), |s, &(a, b)| s.fix(a, b))
        .find()
}

/// Are `(D, a)` and `(D', b)` homomorphically equivalent as pointed
/// databases? This is CQ-indistinguishability of `a` and `b` (\[22\]; used by
/// the CQ-Sep baseline and §6.2).
pub fn hom_equivalent(d: &Database, a: Val, d2: &Database, b: Val) -> bool {
    homomorphism_exists(d, d2, &[(a, b)]) && homomorphism_exists(d2, d, &[(b, a)])
}

/// Exhaustive homomorphism check for testing: tries all `|dom(to)|^n`
/// assignments of the active domain. Exponential; only for tiny inputs.
pub fn brute_force_exists(from: &Database, to: &Database, fixed: &[(Val, Val)]) -> bool {
    let mut fixed_map: HashMap<Val, Val> = HashMap::new();
    for &(a, b) in fixed {
        // Same out-of-domain convention as the solver: constraints that
        // mention elements outside either domain are unsatisfiable.
        if a.index() >= from.dom_size() || b.index() >= to.dom_size() {
            return false;
        }
        if let Some(prev) = fixed_map.insert(a, b) {
            if prev != b {
                return false;
            }
        }
    }
    let mut vars: Vec<Val> = from
        .dom()
        .filter(|&v| !from.facts_of_val(v).is_empty() || fixed_map.contains_key(&v))
        .collect();
    vars.sort_unstable();
    let to_dom: Vec<Val> = to.dom().collect();
    if vars.is_empty() {
        return true;
    }
    if to_dom.is_empty() {
        return false;
    }

    fn rec(
        from: &Database,
        to: &Database,
        vars: &[Val],
        to_dom: &[Val],
        fixed: &HashMap<Val, Val>,
        assign: &mut HashMap<Val, Val>,
        i: usize,
    ) -> bool {
        if i == vars.len() {
            return from.facts().iter().all(|f| {
                let args: Vec<Val> = f.args.iter().map(|a| assign[a]).collect();
                to.has_fact(f.rel, &args)
            });
        }
        let v = vars[i];
        let choices: Vec<Val> = match fixed.get(&v) {
            Some(&b) => vec![b],
            None => to_dom.to_vec(),
        };
        for d in choices {
            assign.insert(v, d);
            if rec(from, to, vars, to_dom, fixed, assign, i + 1) {
                return true;
            }
        }
        assign.remove(&v);
        false
    }

    let mut assign = HashMap::new();
    rec(from, to, &vars, &to_dom, &fixed_map, &mut assign, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DbBuilder;
    use crate::schema::Schema;

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
    fn path_maps_into_longer_path() {
        let p2 = graph(&[("a", "b"), ("b", "c")]);
        let p3 = graph(&[("x", "y"), ("y", "z"), ("z", "w")]);
        assert!(homomorphism_exists(&p2, &p3, &[]));
        // A longer path maps into a shorter one only by folding; directed
        // paths do not fold, so there is no hom p3 -> p2... actually there
        // is none because p3 needs 3 consecutive edges and p2's longest
        // directed walk without repetition constraints allows reuse:
        // a->b->c has no outgoing edge from c, so no walk of length 3.
        assert!(!homomorphism_exists(&p3, &p2, &[]));
    }

    #[test]
    fn cycle_vs_path() {
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let p5 = graph(&[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6")]);
        // Path maps into the cycle (wrap around); cycle does not map into
        // the path (no directed cycles there).
        assert!(homomorphism_exists(&p5, &c3, &[]));
        assert!(!homomorphism_exists(&c3, &p5, &[]));
    }

    #[test]
    fn fixed_points_constrain() {
        let p1 = graph(&[("a", "b")]);
        let p2 = graph(&[("x", "y"), ("y", "z")]);
        let a = p1.val_by_name("a").unwrap();
        let b = p1.val_by_name("b").unwrap();
        let x = p2.val_by_name("x").unwrap();
        let y = p2.val_by_name("y").unwrap();
        let z = p2.val_by_name("z").unwrap();
        assert!(homomorphism_exists(&p1, &p2, &[(a, x)]));
        assert!(homomorphism_exists(&p1, &p2, &[(a, y)]));
        assert!(!homomorphism_exists(&p1, &p2, &[(a, z)]));
        assert!(homomorphism_exists(&p1, &p2, &[(a, x), (b, y)]));
        assert!(!homomorphism_exists(&p1, &p2, &[(a, x), (b, z)]));
        // Contradictory fixing of the same source element.
        assert!(!homomorphism_exists(&p1, &p2, &[(a, x), (a, y)]));
    }

    #[test]
    fn find_returns_valid_mapping() {
        let from = graph(&[("a", "b"), ("b", "c")]);
        let to = graph(&[("u", "v"), ("v", "u")]);
        let h = find_homomorphism(&from, &to, &[]).expect("hom into 2-cycle");
        for f in from.facts() {
            let args: Vec<Val> = f.args.iter().map(|a| h[a]).collect();
            assert!(to.has_fact(f.rel, &args));
        }
    }

    #[test]
    fn count_homs_of_edge_into_triangle() {
        let e = graph(&[("a", "b")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        let s = HomSearch::new(&e, &c3);
        assert_eq!(s.count_up_to(100), 3);
    }

    #[test]
    fn count_up_to_zero_counts_nothing() {
        // Regression: the stop-callback fires after counting, so a zero
        // limit used to report 1 even though nothing should be counted.
        let e = graph(&[("a", "b")]);
        let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
        assert_eq!(HomSearch::new(&e, &c3).count_up_to(0), 0);
        assert_eq!(HomSearch::new(&e, &c3).count_up_to(1), 1);
        // Even when no homomorphism exists at all.
        let empty = graph(&[]);
        assert_eq!(HomSearch::new(&e, &empty).count_up_to(0), 0);
    }

    #[test]
    fn fixing_out_of_domain_source_is_no_hom() {
        // Regression: fixing a source element outside dom(from) used to
        // panic with an out-of-bounds index instead of answering "no",
        // which is the convention already used for out-of-domain targets.
        let small = graph(&[("a", "b")]);
        let big = graph(&[("x", "y"), ("y", "z"), ("z", "w")]);
        let phantom = Val(small.dom_size() as u32);
        let x = big.val_by_name("x").unwrap();
        assert!(!homomorphism_exists(&small, &big, &[(phantom, x)]));
        assert!(!brute_force_exists(&small, &big, &[(phantom, x)]));
        // The out-of-domain *target* convention it mirrors.
        let a = small.val_by_name("a").unwrap();
        let phantom_target = Val(big.dom_size() as u32);
        assert!(!homomorphism_exists(&small, &big, &[(a, phantom_target)]));
        assert!(!brute_force_exists(&small, &big, &[(a, phantom_target)]));
    }

    #[test]
    fn hom_equivalence_on_cycles() {
        // Elements of one cycle are all hom-equivalent to each other.
        let c3 = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let a = c3.val_by_name("a").unwrap();
        let b = c3.val_by_name("b").unwrap();
        assert!(hom_equivalent(&c3, a, &c3, b));
        // A path start is not hom-equivalent to a path end.
        let p = graph(&[("s", "t")]);
        let s = p.val_by_name("s").unwrap();
        let t = p.val_by_name("t").unwrap();
        assert!(!hom_equivalent(&p, s, &p, t));
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        // Cross-check solver vs brute force over a set of small digraphs.
        let shapes: Vec<Vec<(&str, &str)>> = vec![
            vec![("a", "a")],
            vec![("a", "b")],
            vec![("a", "b"), ("b", "a")],
            vec![("a", "b"), ("b", "c")],
            vec![("a", "b"), ("b", "c"), ("c", "a")],
            vec![("a", "b"), ("a", "c"), ("b", "c")],
            vec![("a", "b"), ("c", "b"), ("c", "d")],
        ];
        let dbs: Vec<Database> = shapes.iter().map(|s| graph(s)).collect();
        for from in &dbs {
            for to in &dbs {
                assert_eq!(
                    homomorphism_exists(from, to, &[]),
                    brute_force_exists(from, to, &[]),
                    "from={from:?} to={to:?}"
                );
            }
        }
    }

    #[test]
    fn empty_database_edge_cases() {
        let empty = graph(&[]);
        let some = graph(&[("a", "b")]);
        assert!(homomorphism_exists(&empty, &some, &[]));
        assert!(homomorphism_exists(&empty, &empty, &[]));
        assert!(!homomorphism_exists(&some, &empty, &[]));
    }

    #[test]
    fn higher_arity_relations() {
        let mut s = Schema::entity_schema();
        s.add_relation("T", 3);
        let from = DbBuilder::new(s.clone())
            .fact("T", &["x", "y", "x"])
            .build();
        let to_good = DbBuilder::new(s.clone())
            .fact("T", &["1", "2", "1"])
            .build();
        let to_bad = DbBuilder::new(s).fact("T", &["1", "2", "3"]).build();
        assert!(homomorphism_exists(&from, &to_good, &[]));
        // x occurs at positions 0 and 2; the only to-fact has different
        // values there, so the repeated-variable pattern cannot match.
        assert!(!homomorphism_exists(&from, &to_bad, &[]));
    }
}
