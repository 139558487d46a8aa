//! The shared-prefix trie against the per-feature oracle: every row the
//! trie evaluates must equal `cq::indicator`, feature by feature, at
//! every frontier cap.

use cq::trie::{Trie, TrieStats, DEFAULT_FRONTIER_CAP};
use cq::{indicator, selects, Atom, Cq, Var};
use proptest::prelude::*;
use relational::{Database, Schema, Val};

fn schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s.add_relation("T", 3);
    s
}

/// A random unary feature over `E`/`T` with ≤ `max_atoms` atoms and
/// variables from a small pool (0 = free). Guarded by `η(x)` unless
/// `guard` is false; with no atoms and no guard the body is empty.
fn random_cq(max_atoms: usize) -> impl Strategy<Value = Cq> {
    let atom = (any::<bool>(), 0u32..4, 0u32..4, 0u32..4);
    (
        proptest::collection::vec(atom, 0..=max_atoms),
        any::<bool>(),
    )
        .prop_map(|(atoms, guard)| {
            let s = schema();
            let e = s.rel_by_name("E").unwrap();
            let t = s.rel_by_name("T").unwrap();
            let atoms: Vec<Atom> = atoms
                .into_iter()
                .map(|(binary, a, b, c)| {
                    if binary {
                        Atom::new(e, vec![Var(a), Var(b)])
                    } else {
                        Atom::new(t, vec![Var(a), Var(b), Var(c)])
                    }
                })
                .collect();
            // Dense variable ids: renumber by first appearance, free first.
            let mut ids = vec![0u32];
            let atoms = atoms
                .into_iter()
                .map(|a| {
                    let args = a
                        .args
                        .iter()
                        .map(|v| {
                            let i = ids.iter().position(|&w| w == v.0).unwrap_or_else(|| {
                                ids.push(v.0);
                                ids.len() - 1
                            });
                            Var(i as u32)
                        })
                        .collect();
                    Atom::new(a.rel, args)
                })
                .collect();
            let q = Cq::new(s, vec![Var(0)], atoms);
            if guard {
                q.with_entity_guard()
            } else {
                q
            }
        })
}

/// A bank with repeats: each drawn feature may appear twice, the second
/// time with its existential variables renamed, so syntactically
/// distinct features share one canonical path. Always holds the
/// empty-body feature.
fn random_bank() -> impl Strategy<Value = Vec<Cq>> {
    proptest::collection::vec((random_cq(3), any::<bool>()), 1..7).prop_map(|drawn| {
        let mut bank = vec![Cq::new(schema(), vec![Var(0)], vec![])];
        for (q, repeat) in drawn {
            if repeat {
                bank.push(renamed(&q));
            }
            bank.push(q);
        }
        bank
    })
}

/// `q` with its existential variables numbered in reverse.
fn renamed(q: &Cq) -> Cq {
    let n = q.var_count();
    let map = |v: &Var| if v.0 == 0 { Var(0) } else { Var(n - v.0) };
    let atoms = q
        .atoms()
        .iter()
        .map(|a| Atom::new(a.rel, a.args.iter().map(map).collect()))
        .collect();
    Cq::new(q.schema().clone(), vec![Var(0)], atoms)
}

/// A small database over `E`/`T`; some values are not entities.
fn random_db() -> impl Strategy<Value = Database> {
    (2usize..6)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..(2 * n)),
                proptest::collection::vec((0..n, 0..n, 0..n), 0..n),
                proptest::collection::vec(any::<bool>(), n),
            )
        })
        .prop_map(|(n, edges, triples, entity)| {
            let mut db = Database::new(schema());
            let vals: Vec<Val> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
            let e = db.schema().rel_by_name("E").unwrap();
            let t = db.schema().rel_by_name("T").unwrap();
            for (a, b) in edges {
                db.add_fact(e, vec![vals[a], vals[b]]);
            }
            for (a, b, c) in triples {
                db.add_fact(t, vec![vals[a], vals[b], vals[c]]);
            }
            for (&v, &is_entity) in vals.iter().zip(&entity) {
                if is_entity {
                    db.add_entity(v);
                }
            }
            db
        })
}

/// The trie's rows at `cap`, with the exact per-feature search as the
/// fallback, for every value of `d` (entities or not).
fn trie_rows(bank: &[Cq], d: &Database, cap: usize) -> (Vec<Vec<i32>>, TrieStats) {
    let trie = Trie::build(bank);
    let mut stats = TrieStats::default();
    let rows = d
        .dom()
        .map(|e| {
            let fallback = |f: u32| selects(&bank[f as usize], d, e);
            trie.eval_entity(d, e, cap, &fallback, &mut stats)
        })
        .collect();
    (rows, stats)
}

/// `indicator` per feature, transposed into rows.
fn oracle_rows(bank: &[Cq], d: &Database) -> Vec<Vec<i32>> {
    let values: Vec<Val> = d.dom().collect();
    let cols: Vec<Vec<i32>> = bank.iter().map(|q| indicator(q, d, &values)).collect();
    (0..values.len())
        .map(|i| cols.iter().map(|c| c[i]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trie_rows_equal_indicator_at_every_cap(bank in random_bank(), d in random_db()) {
        let oracle = oracle_rows(&bank, &d);
        for cap in [1, 2, DEFAULT_FRONTIER_CAP] {
            let (rows, stats) = trie_rows(&bank, &d, cap);
            prop_assert_eq!(&rows, &oracle, "cap {}", cap);
            prop_assert_eq!(stats.entities, d.dom().count() as u64);
        }
    }
}

fn q(text: &str) -> Cq {
    cq::parse::parse_cq(&schema(), text).unwrap()
}

fn path_db() -> Database {
    let mut db = Database::new(schema());
    let e = db.schema().rel_by_name("E").unwrap();
    let vals: Vec<Val> = ["a", "b", "c", "d"].iter().map(|n| db.value(n)).collect();
    db.add_fact(e, vec![vals[0], vals[1]]);
    db.add_fact(e, vec![vals[0], vals[2]]);
    db.add_fact(e, vec![vals[1], vals[2]]);
    for &v in &vals {
        db.add_entity(v);
    }
    db
}

#[test]
fn repeated_paths_share_one_node_and_all_get_the_verdict() {
    let bank = vec![
        q("q(x) :- eta(x), E(x,y)"),
        q("q(x) :- eta(x), E(x,z)"),
        q("q(x) :- eta(x), E(x,y), E(y,z)"),
    ];
    let trie = Trie::build(&bank);
    assert!(!trie.paths_distinct());
    // eta(x0), E(x0,x1), E(x1,x2): the repeat adds no node.
    assert_eq!(trie.node_count(), 3);
    let (rows, _) = trie_rows(&bank, &path_db(), DEFAULT_FRONTIER_CAP);
    assert_eq!(rows, oracle_rows(&bank, &path_db()));
    assert!(Trie::build(&bank[1..]).paths_distinct());
}

#[test]
fn two_empty_bodies_are_a_repeated_path() {
    let empty = Cq::new(schema(), vec![Var(0)], vec![]);
    assert!(Trie::build(std::slice::from_ref(&empty)).paths_distinct());
    assert!(!Trie::build(&[empty.clone(), empty]).paths_distinct());
}

#[test]
fn cap_one_falls_back_and_stays_exact() {
    // a has two out-neighbours, so the frontier after E(x0,x1) has two
    // assignments and overflows cap 1.
    let bank = vec![
        q("q(x) :- eta(x), E(x,y), E(y,z)"),
        q("q(x) :- eta(x), E(x,y), E(y,y)"),
    ];
    let d = path_db();
    let (rows, stats) = trie_rows(&bank, &d, 1);
    assert!(stats.hom_fallbacks > 0, "{}", stats.report());
    assert_eq!(rows, oracle_rows(&bank, &d));
}
