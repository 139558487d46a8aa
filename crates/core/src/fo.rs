//! Separability for more expressive feature languages (§8): FO, FO_k,
//! ∃FO, ∃FO⁺, the dimension-collapse property, and the
//! unbounded-dimension property.
//!
//! On a *finite* database, two entities satisfy the same unary FO queries
//! iff some automorphism maps one to the other; so FO-Sep reduces to
//! automorphism-orbit tests (GI-complete, matching Corollary 8.2 and the
//! Arenas–Díaz result the paper cites). FO_k-indistinguishability is the
//! k-pebble partial-isomorphism game. ∃FO collapses to FO
//! (Proposition 8.3(1)) and ∃FO⁺ to CQ (Proposition 8.3(2)).
//!
//! The dimension-collapse characterization (Theorem 8.4) — `L` collapses
//! iff `⋃_{q∈L} {q(D), η(D)∖q(D)}` is closed under intersection — is
//! implemented as a checker over explicit finite query sets, used by
//! the tests to *witness* that CQ and GHW(k) do not collapse while finite
//! FO-style families do.

use crate::statistic::Statistic;
use covergame::pebble_equivalent;
use cq::evaluate_unary;
use relational::iso::same_orbit;
use relational::{Database, Label, Labeling, TrainingDb, Val};
use std::collections::BTreeSet;

/// FO-Sep: separable iff no positive/negative pair lies in one
/// automorphism orbit. Also answers ∃FO-Sep and Σ_k-Sep by the collapse
/// results (Prop 8.3(1), Cor 8.5).
pub fn fo_separable(train: &TrainingDb) -> bool {
    fo_inseparability_witness(train).is_none()
}

/// A positive/negative automorphic pair, if any.
pub fn fo_inseparability_witness(train: &TrainingDb) -> Option<(Val, Val)> {
    train
        .opposing_pairs()
        .into_iter()
        .find(|&(p, n)| same_orbit(&train.db, p, n))
}

/// FO_k-Sep: separable iff no positive/negative pair is
/// FO_k-indistinguishable (k-pebble game equivalence). Needs `k ≥ 1`
/// (the free variable occupies one pebble).
pub fn fo_k_separable(train: &TrainingDb, k: usize) -> bool {
    train
        .opposing_pairs()
        .into_iter()
        .all(|(p, n)| !pebble_equivalent(&train.db, p, &train.db, n, k))
}

/// FO-Cls: label evaluation entities consistently with a single FO
/// feature that separates the training data (the dimension collapse of
/// Proposition 8.1 means one feature always suffices).
///
/// An FO query transfers labels exactly along pointed isomorphisms, so an
/// evaluation entity isomorphic (as a pointed structure) to a training
/// entity inherits its label; all others may be labeled freely — we label
/// them negative, which some FO feature realizes (FO defines every finite
/// pointed-isomorphism type).
pub fn fo_classify(train: &TrainingDb, eval: &Database) -> Option<Labeling> {
    if !fo_separable(train) {
        return None;
    }
    let train_entities = train.entities();
    let mut out = Labeling::new();
    for f in eval.entities() {
        let inherited = train_entities.iter().find_map(|&e| {
            if relational::iso::isomorphic(&train.db, eval, &[(e, f)]) {
                Some(train.labeling.get(e))
            } else {
                None
            }
        });
        out.set(f, inherited.unwrap_or(Label::Negative));
    }
    Some(out)
}

/// Constructive Proposition 8.1: the single FO feature separating an
/// FO-separable training database (delegates to the `folog` crate's
/// describing-formula machinery). `None` when not FO-separable.
///
/// The returned formula has free variable `folog::FoVar(0)`; evaluate
/// with [`folog::fo_selects`]. Describing formulas are exponential to
/// evaluate — this is the paper's constructiveness made concrete, not a
/// production classifier (use [`fo_classify`] for that).
pub fn fo_generate_single_feature(train: &TrainingDb) -> Option<folog::FoFormula> {
    folog::fo_single_feature(train)
}

/// FO-QBE (§8, Arenas–Díaz \[4\]): an FO explanation for `(D, S⁺, S⁻)`
/// exists iff no automorphism orbit of `D` contains both a positive and a
/// negative example — FO defines every orbit, so orbit-disjointness is
/// both necessary and sufficient. GI-complete, decided here through the
/// color-refinement + individualization iso solver.
pub fn fo_qbe(d: &Database, pos: &[Val], neg: &[Val]) -> bool {
    pos.iter()
        .all(|&p| neg.iter().all(|&n| !same_orbit(d, p, n)))
}

/// FO_k-QBE: as [`fo_qbe`] with k-pebble-game indistinguishability.
pub fn fo_k_qbe(d: &Database, pos: &[Val], neg: &[Val], k: usize) -> bool {
    pos.iter()
        .all(|&p| neg.iter().all(|&n| !pebble_equivalent(d, p, d, n, k)))
}

/// The Theorem 8.4 condition, checked for an explicit finite family of
/// feature queries on a concrete database: is
/// `⋃_q {q(D), η(D) ∖ q(D)}` closed under pairwise intersection (within
/// the family's generated sets)?
///
/// Returns a violating pair of sets if closure fails — i.e. a concrete
/// witness that the language fragment cannot have the dimension-collapse
/// property on this database.
pub fn intersection_closure_violation(
    d: &Database,
    queries: &[cq::Cq],
) -> Option<(BTreeSet<Val>, BTreeSet<Val>)> {
    let entities: BTreeSet<Val> = d.entities().into_iter().collect();
    let mut sets: Vec<BTreeSet<Val>> = Vec::new();
    for q in queries {
        let sel: BTreeSet<Val> = evaluate_unary(q, d).into_iter().collect();
        let co: BTreeSet<Val> = entities.difference(&sel).copied().collect();
        sets.push(sel);
        sets.push(co);
    }
    sets.sort();
    sets.dedup();
    for a in &sets {
        for b in &sets {
            let inter: BTreeSet<Val> = a.intersection(b).copied().collect();
            if !sets.contains(&inter) {
                return Some((a.clone(), b.clone()));
            }
        }
    }
    None
}

/// The Proposition 8.6 linear-family witness for the unbounded-dimension
/// property of CQ / GHW(k) / Σ_k⁺: a database (a directed path of entity
/// nodes) on which the out-path queries produce a strictly linear family
/// of `n` answer sets. Returns the training database whose alternating
/// labeling requires at least ~n/2... (in fact `n`) features — measured
/// empirically via [`min_dimension_of_in`] in tests and benches.
pub fn linear_family_db(n: usize) -> TrainingDb {
    let mut schema = relational::Schema::entity_schema();
    schema.add_relation("E", 2);
    let mut b = relational::DbBuilder::new(schema);
    for i in 0..n {
        let from = format!("v{i}");
        let to = format!("v{}", i + 1);
        b = b.fact("E", &[&from, &to]);
    }
    // Alternate labels along the path; only path elements are entities.
    for i in 0..=n {
        let name = format!("v{i}");
        b = if i % 2 == 0 {
            b.positive(&name)
        } else {
            b.negative(&name)
        };
    }
    b.training()
}

/// The minimal dimension of a statistic from the given (finite) candidate
/// pool that linearly separates `train` — brute force, for the
/// unbounded-dimension experiments (Theorems 5.7/8.7 measurements).
///
/// Interruptible: the handle is observed at every subset-search node and inside
/// each LP.
pub fn min_dimension_of_in(
    ctx: &engine::Ctx,
    train: &TrainingDb,
    pool: &[cq::Cq],
    cap: usize,
) -> Result<Option<usize>, engine::Interrupted> {
    ctx.check()?;
    let entities = train.entities();
    let labels: Vec<i32> = entities
        .iter()
        .map(|&e| train.labeling.get(e).to_i32())
        .collect();
    let stat = Statistic::new(pool.to_vec());
    let rows = stat.apply_in(ctx, &train.db, &entities)?;
    // Columns of the pool.
    let columns: Vec<Vec<i32>> = (0..pool.len())
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect();

    fn rec(
        ctx: &engine::Ctx,
        columns: &[Vec<i32>],
        labels: &[i32],
        chosen: &mut Vec<usize>,
        start: usize,
        want: usize,
    ) -> Result<bool, engine::Interrupted> {
        ctx.check()?;
        if chosen.len() == want {
            let rows: Vec<Vec<i32>> = (0..labels.len())
                .map(|r| chosen.iter().map(|&c| columns[c][r]).collect())
                .collect();
            return Ok(ctx.separate(&rows, labels)?.is_some());
        }
        for c in start..columns.len() {
            chosen.push(c);
            if rec(ctx, columns, labels, chosen, c + 1, want)? {
                return Ok(true);
            }
            chosen.pop();
        }
        Ok(false)
    }

    for want in 0..=cap.min(pool.len()) {
        if labels.iter().all(|&l| l == labels[0]) {
            return Ok(Some(0));
        }
        let mut chosen = Vec::new();
        if want > 0 && rec(ctx, &columns, &labels, &mut chosen, 0, want)? {
            return Ok(Some(want));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse::parse_cq;
    use engine::Engine;
    use relational::{DbBuilder, Schema};

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    #[test]
    fn fo_separates_what_cq_cannot() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Two disjoint 3-cycles: CQ-inseparable (hom-equivalent), but FO
        // separates iff the pointed structures are non-automorphic —
        // they ARE automorphic here (swap the cycles), so FO also fails.
        let sym = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "x"])
            .positive("a")
            .negative("x")
            .training();
        assert!(!crate::sep_cq::cq_separable_in(&ctx, &sym).unwrap());
        assert!(!fo_separable(&sym));

        // Break the symmetry: a 3-cycle vs a 4-cycle — still
        // CQ-inseparable? (C3,a) -> (C4,?) has no hom (odd into even);
        // so CQ separates. Use 3-cycle vs TWO 3-cycles sharing... take
        // one 3-cycle and a 6-cycle: hom both ways? C6 -> C3 yes; C3 ->
        // C6 no. So CQ separates too. The FO-vs-CQ gap needs
        // hom-equivalence with non-isomorphism:
        // one 3-cycle vs a disjoint pair of 3-cycles.
        let gap = DbBuilder::new(schema())
            // component 1: single triangle; entity a
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            // component 2: two triangles; entity x in the first
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "x"])
            .fact("E", &["p", "q"])
            .fact("E", &["q", "r"])
            .fact("E", &["r", "p"])
            .positive("a")
            .negative("x")
            .training();
        // All triangle elements are hom-equivalent: CQ fails.
        assert!(!crate::sep_cq::cq_separable_in(&ctx, &gap).unwrap());
        // But no automorphism maps a to x: a's "database" has p,q,r
        // distinguishable... the automorphism must preserve the whole
        // structure, and both a and x lie on triangles, with the
        // structure symmetric under swapping the x- and p-triangles and
        // the a-triangle fixed? a can map to x only if some automorphism
        // does it — all three triangles are interchangeable! So FO also
        // fails here. The real FO winner: make the triangles
        // *distinguishable* by attaching a pendant edge to a's triangle.
        assert!(!fo_separable(&gap));

        let fo_wins = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "x"])
            // pendant *out of* x's triangle breaks interchangeability
            // without affecting hom-equivalence of a and x... an edge
            // x -> t adds outgoing structure matched by the cycle
            // (fold t onto y), so hom-equivalence survives.
            .fact("E", &["x", "t"])
            .positive("a")
            .negative("x")
            .training();
        assert!(
            !crate::sep_cq::cq_separable_in(&ctx, &fo_wins).unwrap(),
            "still hom-equivalent"
        );
        assert!(fo_separable(&fo_wins), "FO sees the pendant");
    }

    #[test]
    fn fo_k_hierarchy() {
        // Path endpoints: FO_2 already separates (∃y E(x,y)).
        let t = DbBuilder::new(schema())
            .fact("E", &["s", "t"])
            .positive("s")
            .negative("t")
            .training();
        assert!(!fo_k_separable(&t, 1));
        assert!(fo_k_separable(&t, 2));
        assert!(fo_separable(&t));
    }

    #[test]
    fn fo_classify_transfers_by_isomorphism() {
        let t = DbBuilder::new(schema())
            .fact("E", &["s", "t"])
            .positive("s")
            .negative("t")
            .training();
        // Eval: an isomorphic copy.
        let eval = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .entity("u")
            .entity("v")
            .build();
        let lab = fo_classify(&t, &eval).unwrap();
        assert_eq!(lab.get(eval.val_by_name("u").unwrap()), Label::Positive);
        assert_eq!(lab.get(eval.val_by_name("v").unwrap()), Label::Negative);
        // Non-isomorphic eval entities default to negative.
        let other = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .fact("E", &["v", "w"])
            .entity("u")
            .build();
        let lab = fo_classify(&t, &other).unwrap();
        assert_eq!(lab.get(other.val_by_name("u").unwrap()), Label::Negative);
    }

    #[test]
    fn single_fo_feature_is_constructive() {
        // Proposition 8.1 end-to-end: decision and construction agree,
        // and the constructed feature reproduces λ.
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .positive("a")
            .negative("b")
            .negative("c")
            .training();
        assert!(fo_separable(&t));
        let f = fo_generate_single_feature(&t).expect("separable");
        for e in t.entities() {
            assert_eq!(
                folog::fo_selects(&t.db, &f, folog::FoVar(0), e),
                t.labeling.get(e) == Label::Positive
            );
        }
        // Inseparable: decision and construction agree on None.
        let bad = DbBuilder::new(schema())
            .fact("E", &["u", "u"])
            .fact("E", &["v", "v"])
            .positive("u")
            .negative("v")
            .training();
        assert!(!fo_separable(&bad));
        assert!(fo_generate_single_feature(&bad).is_none());
    }

    #[test]
    fn fo_qbe_matches_separability_on_partitions() {
        // When (S+, S-) partitions the entities, FO-QBE coincides with
        // FO-Sep (the dimension collapse: one FO feature explains).
        let t = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "a"])
            .fact("E", &["x", "y"])
            .fact("E", &["y", "z"])
            .fact("E", &["z", "x"])
            .fact("E", &["x", "t"])
            .positive("a")
            .negative("x")
            .training();
        assert_eq!(
            fo_qbe(&t.db, &t.positives(), &t.negatives()),
            fo_separable(&t)
        );
        // FO_k-QBE is weaker for small k and monotone in k.
        let mut prev = false;
        for k in 1..=3 {
            let now = fo_k_qbe(&t.db, &t.positives(), &t.negatives(), k);
            if prev {
                assert!(now, "FO_k-QBE must be monotone in k");
            }
            prev = now;
        }
    }

    #[test]
    fn cq_fails_intersection_closure() {
        // Theorem 8.4 witness on Example 6.2's database: with q1 = R(x),
        // q2 = S(x), the family {q(D), η∖q(D)} is not ∩-closed.
        let mut s = Schema::entity_schema();
        s.add_relation("R", 1);
        s.add_relation("S", 1);
        let d = DbBuilder::new(s.clone())
            .fact("R", &["a"])
            .fact("S", &["a"])
            .fact("S", &["c"])
            .entity("a")
            .entity("b")
            .entity("c")
            .build();
        let q1 = parse_cq(&s, "q(x) :- eta(x), R(x)").unwrap();
        let q2 = parse_cq(&s, "q(x) :- eta(x), S(x)").unwrap();
        // q1(D) = {a}; q2(D) = {a,c}; complements {b,c}, {b}.
        // {b,c} ∩ {a,c} = {c}: not in the family → violation.
        assert!(intersection_closure_violation(&d, &[q1, q2]).is_some());
    }

    #[test]
    fn linear_family_needs_growing_dimension() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Proposition 8.6 / Theorem 8.7 in miniature: on the alternating
        // path of length n, the pool of out-path queries (a linear
        // family) needs at least ⌈n/2⌉-ish features; measure exactly.
        let schema = schema();
        for n in [2usize, 4] {
            let t = linear_family_db(n);
            // Pool: out-path queries of lengths 1..=n.
            let pool: Vec<cq::Cq> = (1..=n)
                .map(|len| {
                    let mut body = String::from("q(x0) :- eta(x0)");
                    for i in 0..len {
                        body += &format!(", E(x{i},x{})", i + 1);
                    }
                    parse_cq(&schema, &body).unwrap()
                })
                .collect();
            let dim = min_dimension_of_in(&ctx, &t, &pool, n + 1)
                .unwrap()
                .expect("pool suffices");
            assert!(
                dim >= n / 2,
                "n={n}: alternating labels need ≥ n/2 linear-family features, got {dim}"
            );
        }
    }
}
