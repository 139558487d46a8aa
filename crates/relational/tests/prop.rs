//! Property tests for the relational substrate: the homomorphism solver
//! against brute force, isomorphism relation laws, product projections,
//! the fact index against naive scans, and the text format.

use proptest::prelude::*;
use relational::hom::brute_force_exists;
use relational::hom::par::{par_all_pairs, par_map};
use relational::iso::{isomorphic, same_orbit};
use relational::spec::DatabaseSpec;
use relational::{homomorphism_exists, pointed_power, Database, HomCache, RelId, Schema, Val};
use std::collections::BTreeSet;

/// Build a graph database from an edge list over `n` nodes, with the
/// first `ents` nodes marked as entities.
fn graph(n: usize, edges: &[(usize, usize)], ents: usize) -> Database {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let mut db = Database::new(s);
    let vals: Vec<Val> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    let e = db.schema().rel_by_name("E").unwrap();
    for &(a, b) in edges {
        db.add_fact(e, vec![vals[a % n], vals[b % n]]);
    }
    for &v in vals.iter().take(ents) {
        db.add_entity(v);
    }
    db
}

/// Strategy: a small digraph (n nodes, up to 2n edges).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..5).prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..(2 * n))))
}

/// One mutation of the index oracle test: `(kind, relation, a, b, c)`
/// over five element names and the relations `eta/1`, `E/2`, `T/3`.
type Op = (u8, u32, usize, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0u32..3, 0usize..5, 0usize..5, 0usize..5), 0..24)
}

/// The database under test next to a naive model: its fact set and its
/// entities in insertion order.
#[derive(Clone)]
struct Oracle {
    db: Database,
    facts: BTreeSet<(RelId, Vec<Val>)>,
    entities: Vec<Val>,
}

impl Oracle {
    fn new() -> Oracle {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s.add_relation("T", 3);
        Oracle {
            db: Database::new(s),
            facts: BTreeSet::new(),
            entities: Vec::new(),
        }
    }

    fn step(&mut self, (kind, r, a, b, c): Op) -> Result<(), String> {
        let rel = RelId(r);
        let names = [a, b, c].map(|i| format!("n{i}"));
        let arity = self.db.schema().arity(rel);
        match kind {
            0 => {
                self.db.value(&names[0]);
            }
            1 | 2 => {
                let args: Vec<Val> = names[..arity].iter().map(|n| self.db.value(n)).collect();
                let fresh = self.facts.insert((rel, args.clone()));
                prop_assert_eq!(self.db.add_fact(rel, args.clone()), fresh);
                if fresh && rel == self.db.schema().entity_rel_required() {
                    self.entities.push(args[0]);
                }
            }
            _ => {
                // Kind 3 removes a present fact when there is one, kind 4
                // a tuple of known names (usually absent, maybe short).
                let (rel, args) = match self.facts.iter().nth(a + b) {
                    Some(f) if kind == 3 => f.clone(),
                    _ => (
                        rel,
                        names[..arity]
                            .iter()
                            .filter_map(|n| self.db.val_by_name(n))
                            .collect(),
                    ),
                };
                let present = self.facts.remove(&(rel, args.clone()));
                prop_assert_eq!(self.db.remove_fact(rel, &args), present);
                if present && rel == self.db.schema().entity_rel_required() {
                    self.entities.retain(|&e| e != args[0]);
                }
            }
        }
        self.check()
    }

    /// Every index query equals a naive scan over `facts()`.
    fn check(&self) -> Result<(), String> {
        let d = &self.db;
        let got: BTreeSet<(RelId, Vec<Val>)> =
            d.facts().iter().map(|f| (f.rel, f.args.clone())).collect();
        prop_assert_eq!(&got, &self.facts);
        prop_assert_eq!(d.fact_count(), self.facts.len());
        prop_assert_eq!(d.entities(), self.entities.clone());
        let ids = |keep: &dyn Fn(&relational::Fact) -> bool| -> Vec<usize> {
            (0..d.fact_count()).filter(|&i| keep(d.fact(i))).collect()
        };
        for rel in d.schema().rel_ids() {
            let mut of_rel = d.facts_of_rel(rel).to_vec();
            of_rel.sort_unstable();
            prop_assert_eq!(of_rel, ids(&|f| f.rel == rel));
            for pos in 0..d.schema().arity(rel) as u32 {
                for v in d.dom() {
                    prop_assert_eq!(
                        d.facts_with(rel, pos, v).to_vec(),
                        ids(&|f| f.rel == rel && f.args[pos as usize] == v)
                    );
                }
            }
        }
        for v in d.dom() {
            prop_assert_eq!(d.facts_of_val(v).to_vec(), ids(&|f| f.args.contains(&v)));
        }
        let active: Vec<Val> = d
            .dom()
            .filter(|v| d.facts().iter().any(|f| f.args.contains(v)))
            .collect();
        prop_assert_eq!(d.active_dom(), active);
        // Membership of every candidate tuple over the first three names.
        let vals: Vec<Val> = d.dom().take(3).collect();
        for rel in d.schema().rel_ids() {
            let arity = d.schema().arity(rel);
            for code in 0..vals.len().pow(arity as u32) {
                let args: Vec<Val> = (0..arity)
                    .map(|i| vals[code / vals.len().pow(i as u32) % vals.len()])
                    .collect();
                prop_assert_eq!(
                    d.has_fact(rel, &args),
                    self.facts.contains(&(rel, args.clone()))
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hom_solver_matches_brute_force((n1, e1) in small_graph(), (n2, e2) in small_graph()) {
        let d1 = graph(n1, &e1, 0);
        let d2 = graph(n2, &e2, 0);
        prop_assert_eq!(
            homomorphism_exists(&d1, &d2, &[]),
            brute_force_exists(&d1, &d2, &[])
        );
        // Pointed variant.
        let a = Val(0);
        let b = Val(0);
        prop_assert_eq!(
            homomorphism_exists(&d1, &d2, &[(a, b)]),
            brute_force_exists(&d1, &d2, &[(a, b)])
        );
    }

    #[test]
    fn hom_is_reflexive_and_transitive_on_witnesses((n, e) in small_graph()) {
        let d = graph(n, &e, 0);
        // Identity: D -> D always.
        prop_assert!(homomorphism_exists(&d, &d, &[]));
        // Every found hom is valid (checked inside find via debug, but
        // re-verify explicitly).
        if let Some(h) = relational::find_homomorphism(&d, &d, &[]) {
            for f in d.facts() {
                let args: Vec<Val> = f.args.iter().map(|a| h[a]).collect();
                prop_assert!(d.has_fact(f.rel, &args));
            }
        }
    }

    #[test]
    fn iso_is_an_equivalence((n, e) in small_graph()) {
        let d = graph(n, &e, 0);
        // Reflexive.
        prop_assert!(isomorphic(&d, &d, &[]));
        // Orbit relation is symmetric.
        for a in 0..n.min(3) {
            for b in 0..n.min(3) {
                prop_assert_eq!(
                    same_orbit(&d, Val(a as u32), Val(b as u32)),
                    same_orbit(&d, Val(b as u32), Val(a as u32))
                );
            }
        }
    }

    #[test]
    fn iso_implies_hom_both_ways((n, e) in small_graph(), perm_seed in 0usize..24) {
        // Build an isomorphic copy by permuting names.
        let d = graph(n, &e, 0);
        let mut order: Vec<usize> = (0..n).collect();
        // A cheap permutation from the seed.
        order.rotate_left(perm_seed % n);
        if perm_seed % 2 == 0 && n >= 2 {
            order.swap(0, 1);
        }
        let e2: Vec<(usize, usize)> = e.iter().map(|&(a, b)| (order[a % n], order[b % n])).collect();
        let d2 = graph(n, &e2, 0);
        prop_assert!(isomorphic(&d, &d2, &[]));
        prop_assert!(homomorphism_exists(&d, &d2, &[]));
        prop_assert!(homomorphism_exists(&d2, &d, &[]));
    }

    #[test]
    fn product_projects_to_every_factor((n, e) in small_graph(), i in 0usize..4, j in 0usize..4) {
        let d = graph(n, &e, 0);
        let a = Val((i % n) as u32);
        let b = Val((j % n) as u32);
        // Skip degenerate no-fact cases (no usable point structure).
        if let Ok((p, pt)) = pointed_power(&d, &[a, b], 100_000) {
            prop_assert!(homomorphism_exists(&p, &d, &[(pt, a)]));
            prop_assert!(homomorphism_exists(&p, &d, &[(pt, b)]));
            // The diagonal embedding u ↦ (u, u) always exists when the
            // two points coincide.
            if a == b {
                prop_assert!(homomorphism_exists(&d, &p, &[(a, pt)]));
            }
        }
    }

    #[test]
    fn spec_roundtrip((n, e) in small_graph(), ents in 0usize..3) {
        let d = graph(n, &e, ents.min(n));
        let spec = DatabaseSpec::from_database(&d, None);
        let text = spec.to_text();
        let spec2 = DatabaseSpec::parse(&text).unwrap();
        let d2 = spec2.to_database().unwrap();
        prop_assert_eq!(d.fact_count(), d2.fact_count());
        prop_assert_eq!(d.entities().len(), d2.entities().len());
        // Semantically identical: isomorphic via the identity naming.
        prop_assert!(isomorphic(&d, &d2, &[]) || d.dom_size() != d2.dom_size());
    }

    #[test]
    fn cached_and_parallel_paths_agree_with_sequential(
        (n1, e1) in small_graph(),
        (n2, e2) in small_graph(),
        fixes in proptest::collection::vec((0usize..6, 0usize..6), 0..3),
    ) {
        let d1 = graph(n1, &e1, 0);
        let d2 = graph(n2, &e2, 0);
        // Random fixed pairs, deliberately allowed to fall outside either
        // domain (the out-of-domain convention must agree everywhere) and
        // to contradict each other.
        let fixed: Vec<(Val, Val)> =
            fixes.iter().map(|&(a, b)| (Val(a as u32), Val(b as u32))).collect();
        let expected = homomorphism_exists(&d1, &d2, &fixed);
        prop_assert_eq!(expected, brute_force_exists(&d1, &d2, &fixed));

        // A private cache answers identically on first computation and
        // again from the memo table; a bypassing cache agrees too.
        let cache = HomCache::new();
        let none = interrupt::Interrupt::none();
        let exists = |fixed: &[(Val, Val)]| cache.exists(&d1, &d2, fixed, None, &none).unwrap();
        prop_assert_eq!(expected, exists(&fixed));
        prop_assert_eq!(expected, exists(&fixed));
        let contradictory = {
            let mut srcs: Vec<Val> = fixed.iter().map(|p| p.0).collect();
            srcs.sort_unstable();
            srcs.dedup();
            srcs.len() != fixed.len()
        };
        if !contradictory {
            // Contradictions short-circuit uncached; everything else must
            // have been memoized by now.
            prop_assert!(cache.counts().hits >= 1);
        }
        let bypass = HomCache::new().without_memo();
        prop_assert_eq!(Ok(expected), bypass.exists(&d1, &d2, &fixed, None, &none));

        // The parallel drivers see the same answers as sequential loops.
        let pairs: Vec<(Val, Val)> = (0..n1.min(3) as u32)
            .flat_map(|a| (0..n2.min(3) as u32).map(move |b| (Val(a), Val(b))))
            .collect();
        prop_assert_eq!(
            par_all_pairs(&pairs, None, |a, b| exists(&[(a, b)])),
            pairs.iter().all(|&(a, b)| homomorphism_exists(&d1, &d2, &[(a, b)]))
        );
        let seq: Vec<bool> =
            pairs.iter().map(|&(a, b)| homomorphism_exists(&d1, &d2, &[(a, b)])).collect();
        prop_assert_eq!(par_map(&pairs, None, |&(a, b)| exists(&[(a, b)])), seq);
    }

    #[test]
    fn refinement_never_separates_orbit_mates((n, e) in small_graph()) {
        let d = graph(n, &e, 0);
        let colors = relational::iso::refine_colors(&d, &[]);
        for a in 0..n {
            for b in 0..n {
                if same_orbit(&d, Val(a as u32), Val(b as u32)) {
                    prop_assert_eq!(colors[a], colors[b], "colors must be orbit invariants");
                }
            }
        }
    }

    #[test]
    fn fact_index_matches_naive_scans(first in ops(), second in ops()) {
        let mut o = Oracle::new();
        for op in first {
            o.step(op)?;
        }
        // The delta path: clone after a query (the index is built), then
        // mutate the clone; the original must not see it.
        let before = o.clone();
        let mut c = o.clone();
        for op in second {
            c.step(op)?;
        }
        before.check()?;
        prop_assert_eq!(o.db.facts(), before.db.facts());
        o.check()?;
    }
}
