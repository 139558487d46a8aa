//! The engine's `→_k` preorder sweep (`Ctx::preorder`: memoized,
//! parallel, interruptible) against the sequential uncached reference
//! `CoverPreorder::compute_seq`, on random graphs and on the degenerate
//! inputs of the cover-game regression suite.

use covergame::CoverPreorder;
use engine::Engine;
use proptest::prelude::*;
use relational::{Database, DbBuilder, Schema, Val};
use std::time::Duration;

/// The reference sweep and the engine's sweep — under an unbounded
/// context on a cold engine, again warm on the same engine, and under a
/// deadline that does not fire — agree exactly; the warm sweep solves
/// no games.
fn assert_engine_agrees(d: &Database, elems: &[Val], k: usize) -> CoverPreorder {
    let seq = CoverPreorder::compute_seq(d, elems, k);
    let e = Engine::new();
    let cold = e.ctx().preorder(d, elems, k).unwrap();
    let before = e.stats();
    let warm = e.ctx().preorder(d, elems, k).unwrap();
    assert_eq!(e.stats().since(&before).game.games_solved, 0, "warm sweep");
    let bounded = Engine::new()
        .ctx_with_deadline(Duration::from_secs(3600))
        .preorder(d, elems, k)
        .unwrap();
    for (name, pre) in [("cold", &cold), ("warm", &warm), ("bounded", &bounded)] {
        assert_eq!(pre.leq, seq.leq, "{name} sweep disagrees");
        assert_eq!(pre.class_of, seq.class_of, "{name} sweep disagrees");
        assert_eq!(pre.classes, seq.classes, "{name} sweep disagrees");
    }
    seq
}

fn random_graph(n: usize, edges: &[(usize, usize)]) -> Database {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let mut db = Database::new(s);
    let vals: Vec<Val> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    let e = db.schema().rel_by_name("E").unwrap();
    for &(a, b) in edges {
        db.add_fact(e, vec![vals[a % n], vals[b % n]]);
    }
    for &v in &vals {
        db.add_entity(v);
    }
    db
}

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

fn small_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..5).prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..(2 * n))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_preorder_matches_reference((n, e) in small_graph(), k in 1usize..3) {
        let d = random_graph(n, &e);
        assert_engine_agrees(&d, &d.entities(), k);
    }
}

#[test]
fn empty_elems_slice() {
    let d = graph(&[("a", "b")], &["a"]);
    assert_eq!(assert_engine_agrees(&d, &[], 1).class_count(), 0);
}

#[test]
fn single_entity() {
    let d = graph(&[("a", "b")], &["a"]);
    let a = d.val_by_name("a").unwrap();
    assert_eq!(assert_engine_agrees(&d, &[a], 1).leq, vec![vec![true]]);
}

#[test]
fn k_zero_and_k_beyond_the_fact_count() {
    let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
    assert_eq!(assert_engine_agrees(&d, &d.entities(), 0).class_count(), 1);
    assert_eq!(assert_engine_agrees(&d, &d.entities(), 10).class_count(), 3);
}

#[test]
fn empty_database() {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let d = Database::new(s);
    for k in [0, 1, 3] {
        assert_eq!(assert_engine_agrees(&d, &[], k).class_count(), 0);
    }
}
