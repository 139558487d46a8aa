//! The skeleton-sharing fast path must be observationally identical to
//! the self-contained analysis — property-tested across random instances,
//! points, and widths. A shared skeleton's position tables are built by
//! whichever game runs first and reused by every later one.

use covergame::{CoverGame, UnionSkeleton};
use interrupt::Interrupt;
use proptest::prelude::*;
use relational::{Database, Schema, Val};

fn graph(n: usize, edges: &[(usize, usize)]) -> Database {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skeleton_path_matches_direct_path(
        n in 2usize..5,
        edges in proptest::collection::vec((0usize..5, 0usize..5), 1..8),
        i in 0usize..4,
        j in 0usize..4,
        k in 1usize..3,
    ) {
        let d = graph(n, &edges);
        let a = Val((i % n) as u32);
        let b = Val((j % n) as u32);
        let none = Interrupt::none();
        let own = UnionSkeleton::build(&d, &d, k);
        let direct = CoverGame::analyze(&[a], &[b], &own, &none).unwrap();
        let skeleton = UnionSkeleton::build(&d, &d, k);
        // Another game builds the shared tables first.
        CoverGame::analyze(&[b], &[a], &skeleton, &none).unwrap();
        let shared = CoverGame::analyze(&[a], &[b], &skeleton, &none).unwrap();
        prop_assert_eq!(direct.duplicator_wins(), shared.duplicator_wins());
        // Same region structure.
        prop_assert_eq!(direct.union_count(), shared.union_count());
        for u in 0..direct.union_count() {
            prop_assert_eq!(direct.elems(u), shared.elems(u));
            prop_assert_eq!(direct.facts_inside(u), shared.facts_inside(u));
            // Same positions, in order, with the same deaths.
            let dp: Vec<_> = direct.positions(u).collect();
            let sp: Vec<_> = shared.positions(u).collect();
            prop_assert_eq!(dp, sp);
        }
    }

    #[test]
    fn skeleton_reuse_across_pairs_is_safe(
        n in 2usize..5,
        edges in proptest::collection::vec((0usize..5, 0usize..5), 1..8),
        k in 1usize..3,
    ) {
        let d = graph(n, &edges);
        let skeleton = UnionSkeleton::build(&d, &d, k);
        let none = Interrupt::none();
        // Run every ordered pair through the shared skeleton and compare
        // with fresh analyses; interleave to catch state leakage.
        for i in 0..n.min(3) {
            for j in 0..n.min(3) {
                let a = Val(i as u32);
                let b = Val(j as u32);
                let shared = CoverGame::analyze(&[a], &[b], &skeleton, &none)
                    .unwrap()
                    .duplicator_wins();
                let fresh = covergame::cover_implies(&d, &[a], &d, &[b], k);
                prop_assert_eq!(shared, fresh, "pair ({},{})", i, j);
            }
        }
    }
}
