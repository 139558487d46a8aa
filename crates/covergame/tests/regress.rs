//! Regression tests for cover-game edge cases: degenerate element lists,
//! the `k = 0` game (no unions — `→_0` is bare base-map consistency),
//! and `k` exceeding the number of facts in the database.

use covergame::{cover_implies, CoverPreorder, GameCache, UnionSkeleton};
use interrupt::Interrupt;
use relational::{Database, DbBuilder, Schema, Val};

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

/// The reference sweep and the memoized game, cold and warm, must agree
/// exactly on the same input. The engine's parallel, interruptible sweep
/// runs the same edge cases in `crates/engine/tests/preorder_agreement.rs`.
fn all_paths(d: &Database, elems: &[Val], k: usize) -> CoverPreorder {
    let seq = CoverPreorder::compute_seq(d, elems, k);
    let skeleton = UnionSkeleton::build(d, d, k);
    let iso = GameCache::new();
    for _ in 0..2 {
        for (i, &a) in elems.iter().enumerate() {
            for (j, &b) in elems.iter().enumerate() {
                let cached = i == j
                    || iso
                        .implies_with_skeleton(&[a], &[b], &skeleton, None, &Interrupt::none())
                        .unwrap();
                assert_eq!(cached, seq.leq[i][j], "({i}, {j})");
            }
        }
    }
    seq
}

#[test]
fn empty_elems_slice() {
    let d = graph(&[("a", "b")], &["a"]);
    let pre = all_paths(&d, &[], 1);
    assert_eq!(pre.class_count(), 0);
    assert!(pre.leq.is_empty());
    assert!(pre.class_of.is_empty());
}

#[test]
fn single_entity() {
    let d = graph(&[("a", "b")], &["a"]);
    let pre = all_paths(&d, &[v(&d, "a")], 1);
    assert_eq!(pre.class_count(), 1);
    assert_eq!(pre.leq, vec![vec![true]]);
    assert_eq!(pre.chain_vector(0), vec![1]);
}

#[test]
fn k_zero_skeleton_has_no_unions() {
    let d = graph(&[("a", "b"), ("b", "c")], &["a"]);
    let sk = UnionSkeleton::build(&d, &d, 0);
    assert_eq!(sk.k, 0);
    assert!(sk.unions.is_empty());
    assert!(sk.neighbors.is_empty());
}

#[test]
fn k_zero_is_base_map_consistency() {
    // With no unions Spoiler has no move: Duplicator wins iff ā → b̄ is a
    // consistent partial homomorphism on the facts inside ā.
    let d = graph(&[("a", "b")], &["a"]);
    let (a, b) = (v(&d, "a"), v(&d, "b"));
    // η(a) holds but η(b) does not, so a ↛_0 b; nothing holds inside
    // {b} alone, so b →_0 a.
    assert!(!cover_implies(&d, &[a], &d, &[b], 0));
    assert!(cover_implies(&d, &[b], &d, &[a], 0));
    // Reflexivity survives at k = 0.
    assert!(cover_implies(&d, &[a], &d, &[a], 0));
    // A non-functional tuple map still fails.
    assert!(!cover_implies(&d, &[a, a], &d, &[a, b], 0));
}

#[test]
fn preorder_at_k_zero() {
    // All entities carry η and no further →_0 obligations, so they
    // collapse into one class regardless of graph structure.
    let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
    let pre = all_paths(&d, &d.entities(), 0);
    assert_eq!(pre.class_count(), 1);
    assert_eq!(pre.classes[0].len(), 3);
}

#[test]
fn k_larger_than_database() {
    // k exceeding the fact count: every union is the whole fact set at
    // the tail, the frontier empties, and the game degenerates to full
    // homomorphism transfer. Must not panic, and more pebbles can only
    // strengthen Spoiler (antitone in k).
    let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
    let pre = all_paths(&d, &d.entities(), 10);
    assert_eq!(pre.class_count(), 3, "path positions stay distinct");
    for (i, &a) in pre.elems.iter().enumerate() {
        for (j, &b) in pre.elems.iter().enumerate() {
            if pre.leq[i][j] {
                assert!(
                    cover_implies(&d, &[a], &d, &[b], 1),
                    "→_10 must be contained in →_1"
                );
            }
        }
    }
}

#[test]
fn empty_database_edge_cases() {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let d = Database::new(s);
    for k in [0, 1, 3] {
        assert!(cover_implies(&d, &[], &d, &[], k), "k={k}");
        let pre = all_paths(&d, &[], k);
        assert_eq!(pre.class_count(), 0);
    }
}
