//! Property tests for the existential cover game: engine-path agreement,
//! the approximation sandwich, extraction soundness, preorder laws, and
//! the pebble game.

use covergame::extract::{extract_distinguishing_query, lemma54_feature};
use covergame::{
    cover_implies, pebble_equivalent, CoverPreorder, ExtractError, GameCache, UnionSkeleton,
};
use cq::{evaluate_unary, selects};
use interrupt::Interrupt;
use proptest::prelude::*;
use relational::{homomorphism_exists, Database, Schema, Val};

fn graph(n: usize, edges: &[(usize, usize)], all_entities: bool) -> Database {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let mut db = Database::new(s);
    let vals: Vec<Val> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    let e = db.schema().rel_by_name("E").unwrap();
    for &(a, b) in edges {
        db.add_fact(e, vec![vals[a % n], vals[b % n]]);
    }
    if all_entities {
        for &v in &vals {
            db.add_entity(v);
        }
    }
    db
}

fn small_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..5).prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..(2 * n))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The memoized game agrees with the reference sweep: the `leq`
    /// matrix read through a cold isolated cache and again warm equals
    /// the sequential uncached `CoverPreorder::compute_seq`, and all of
    /// them match pairwise brute-force `cover_implies`. The resulting
    /// `leq` matrix is a preorder (reflexive and transitive). The
    /// engine's parallel, interruptible sweep is checked against the same
    /// reference in `crates/engine/tests/preorder_agreement.rs`.
    #[test]
    fn engine_agreement((n, e) in small_graph(), k in 1usize..3) {
        let d = graph(n, &e, true);
        let ents = d.entities();
        let seq = CoverPreorder::compute_seq(&d, &ents, k);
        let skeleton = UnionSkeleton::build(&d, &d, k);
        let isolated = GameCache::new();
        let sweep = || -> Vec<Vec<bool>> {
            ents.iter()
                .map(|&a| {
                    ents.iter()
                        .map(|&b| {
                            a == b
                                || isolated
                                    .implies_with_skeleton(&[a], &[b], &skeleton, None, &Interrupt::none())
                                    .unwrap()
                        })
                        .collect()
                })
                .collect()
        };
        let cold = sweep();
        let warm = sweep();
        prop_assert_eq!(&cold, &seq.leq, "cold isolated cache disagrees");
        prop_assert_eq!(&warm, &seq.leq, "warm re-sweep disagrees");
        for (i, &a) in ents.iter().enumerate() {
            for (j, &b) in ents.iter().enumerate() {
                let brute = cover_implies(&d, &[a], &d, &[b], k);
                prop_assert_eq!(seq.leq[i][j], brute, "brute force disagrees at ({}, {})", i, j);
            }
        }
        let m = ents.len();
        for i in 0..m {
            prop_assert!(seq.leq[i][i], "leq must be reflexive");
            for j in 0..m {
                for l in 0..m {
                    if seq.leq[i][j] && seq.leq[j][l] {
                        prop_assert!(seq.leq[i][l], "leq must be transitive");
                    }
                }
            }
        }
    }

    /// Lemma 5.4 round trip: the feature `q_e` evaluated with the CQ
    /// engine selects exactly the `→_k`-upward closure of `e` — it holds
    /// at `e` itself and fails at every entity `e'` the game separates.
    #[test]
    fn lemma54_feature_round_trip((n, e) in small_graph(), k in 1usize..3) {
        let d = graph(n, &e, true);
        let ents = d.entities();
        for &e1 in &ents {
            match lemma54_feature(&d, e1, &ents, k, 50_000) {
                Ok(q) => {
                    let selected = evaluate_unary(&q, &d);
                    prop_assert!(selected.contains(&e1), "q_e must hold at e: {}", q);
                    for &e2 in &ents {
                        let expect = cover_implies(&d, &[e1], &d, &[e2], k);
                        prop_assert_eq!(
                            selected.contains(&e2), expect,
                            "q at {}: {}", d.val_name(e2), q
                        );
                    }
                }
                Err(ExtractError::Budget { .. }) => {} // permitted blowup
                Err(ExtractError::DuplicatorWins) => {
                    prop_assert!(false, "lemma54_feature filters Duplicator wins");
                }
            }
        }
    }

    /// The approximation chain of §5: `→ ⊆ →_{k+1} ⊆ →_k`.
    #[test]
    fn sandwich((n1, e1) in small_graph(), (n2, e2) in small_graph(), i in 0usize..4, j in 0usize..4) {
        let d1 = graph(n1, &e1, true);
        let d2 = graph(n2, &e2, true);
        let a = Val((i % n1) as u32);
        let b = Val((j % n2) as u32);
        let hom = homomorphism_exists(&d1, &d2, &[(a, b)]);
        let k2 = cover_implies(&d1, &[a], &d2, &[b], 2);
        let k1 = cover_implies(&d1, &[a], &d2, &[b], 1);
        if hom {
            prop_assert!(k2, "→ ⊄ →_2");
        }
        if k2 {
            prop_assert!(k1, "→_2 ⊄ →_1");
        }
    }

    /// `→_k` is reflexive and transitive (it is a preorder).
    #[test]
    fn preorder_laws((n, e) in small_graph(), k in 1usize..3) {
        let d = graph(n, &e, true);
        let vals: Vec<Val> = (0..n as u32).map(Val).collect();
        for &a in &vals {
            prop_assert!(cover_implies(&d, &[a], &d, &[a], k), "reflexivity");
        }
        for &a in vals.iter().take(3) {
            for &b in vals.iter().take(3) {
                for &c in vals.iter().take(3) {
                    if cover_implies(&d, &[a], &d, &[b], k)
                        && cover_implies(&d, &[b], &d, &[c], k)
                    {
                        prop_assert!(
                            cover_implies(&d, &[a], &d, &[c], k),
                            "transitivity at k={k}"
                        );
                    }
                }
            }
        }
    }

    /// When Spoiler wins, the extracted query really distinguishes and
    /// its decomposition certificate verifies at width k.
    #[test]
    fn extraction_soundness((n, e) in small_graph(), i in 0usize..4, j in 0usize..4, k in 1usize..3) {
        let d = graph(n, &e, true);
        let a = Val((i % n) as u32);
        let b = Val((j % n) as u32);
        match extract_distinguishing_query(&d, a, &d, b, k, 200_000) {
            Ok((q, td)) => {
                prop_assert!(!cover_implies(&d, &[a], &d, &[b], k));
                prop_assert!(selects(&q, &d, a), "q must select a: {q}");
                prop_assert!(!selects(&q, &d, b), "q must reject b: {q}");
                td.verify(&q, k).unwrap();
            }
            Err(ExtractError::DuplicatorWins) => {
                prop_assert!(cover_implies(&d, &[a], &d, &[b], k));
            }
            Err(ExtractError::Budget { .. }) => {
                // Permitted: sizes can blow up. Nothing to check.
            }
        }
    }

    /// The preorder structure is internally consistent: classes are
    /// mutual, topological order respects ⪯, chain vectors are monotone.
    #[test]
    fn preorder_structure((n, e) in small_graph(), k in 1usize..3) {
        let d = graph(n, &e, true);
        let ents = d.entities();
        let pre = CoverPreorder::compute_seq(&d, &ents, k);
        for (i, _) in ents.iter().enumerate() {
            for (j, _) in ents.iter().enumerate() {
                let same = pre.class_of[i] == pre.class_of[j];
                let mutual = pre.leq[i][j] && pre.leq[j][i];
                prop_assert_eq!(same, mutual);
            }
        }
        for c in 0..pre.class_count() {
            for e2 in 0..pre.class_count() {
                if c != e2 && pre.class_leq(c, e2) {
                    prop_assert!(c < e2, "topological order violated");
                }
            }
        }
    }

    /// FO_k equivalence sandwich: automorphic ⇒ FO_k-equivalent for all
    /// k, and FO_{k+1}-equivalence implies FO_k-equivalence.
    #[test]
    fn pebble_sandwich((n, e) in small_graph(), i in 0usize..4, j in 0usize..4) {
        let d = graph(n, &e, true);
        let a = Val((i % n) as u32);
        let b = Val((j % n) as u32);
        let orbit = relational::iso::same_orbit(&d, a, b);
        let p3 = pebble_equivalent(&d, a, &d, b, 3);
        let p2 = pebble_equivalent(&d, a, &d, b, 2);
        let p1 = pebble_equivalent(&d, a, &d, b, 1);
        if orbit {
            prop_assert!(p3 && p2 && p1, "automorphic pairs are FO_k-equivalent");
        }
        if p3 {
            prop_assert!(p2);
        }
        if p2 {
            prop_assert!(p1);
        }
    }

    /// FO_k-equivalence refines →_k-equivalence... more precisely,
    /// FO_k-equivalent pointed structures agree on all GHW(k-1)-ish
    /// queries; we check the robust direction: FO_n-equivalence on an
    /// n-element structure means automorphic, hence mutually →_k-related.
    #[test]
    fn full_pebble_equivalence_implies_cover_equivalence((n, e) in small_graph(), i in 0usize..4, j in 0usize..4) {
        let d = graph(n, &e, true);
        let a = Val((i % n) as u32);
        let b = Val((j % n) as u32);
        if pebble_equivalent(&d, a, &d, b, n) {
            for k in 1..=2 {
                prop_assert!(covergame::cover_equivalent(&d, a, &d, b, k));
            }
        }
    }
}
