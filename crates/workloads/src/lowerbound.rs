//! The paper's lower-bound families, as generators.
//!
//! * [`alternating_paths`] — Theorem 5.7(a) / Proposition 8.6 shape: `m`
//!   entities forming a strict `→_k`-chain with alternating labels. Every
//!   feature's answer set on a chain is an up-set (a suffix), so a
//!   separating statistic needs at least `m − 1` features: each suffix
//!   indicator contributes one step to the score sequence along the
//!   chain, and the labels alternate `m − 1` times.
//! * [`twin_paths`] — the feature-size growth shape of Theorem 5.7(b):
//!   adjacent chain entities whose every distinguishing `GHW(k)` query
//!   needs `n` atoms. (The paper's appendix construction achieves
//!   `2^Ω(n)`; this family exhibits measurable growth with a transparent
//!   certificate. See DESIGN.md §4.)
//! * [`example_6_2`] — the paper's Example 6.2 verbatim.
//! * [`twin_cycles`] — the canonical CQ-inseparable instance (two
//!   disjoint, hom-equivalent cycles with opposite labels).

use relational::{DbBuilder, Schema, TrainingDb};

fn graph_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

/// `m` disjoint out-paths of lengths `1..=m`; entity `e_i` is the start
/// of the length-`i` path; labels alternate along the chain
/// `e_1 ⪯ e_2 ⪯ … ⪯ e_m` (where `⪯` is `→_k` for every `k ≥ 1`, and also
/// the hom preorder). `|D| = O(m²)` facts, `m` entities.
pub fn alternating_paths(m: usize) -> TrainingDb {
    let mut b = DbBuilder::new(graph_schema());
    for i in 1..=m {
        for step in 0..i {
            let from = format!("p{i}_{step}");
            let to = format!("p{i}_{}", step + 1);
            b = b.fact("E", &[&from, &to]);
        }
        let start = format!("p{i}_0");
        b = if i % 2 == 0 {
            b.positive(&start)
        } else {
            b.negative(&start)
        };
    }
    b.training()
}

/// Two path-start entities forming one adjacent `→_k` chain step:
/// `u` starts a directed out-path of length `n`, `v` one of length
/// `n − 1`. Then `v ⪯ u` strictly, and *every* `GHW(k)` query
/// distinguishing `u` from `v` must entail the out-path-of-length-`n`
/// pattern — `n` atoms, growing linearly with the family parameter. This
/// is the measurable feature-size-growth family used by experiment E4
/// (Theorem 5.7(b) exhibits a `2^Ω(n)` blowup via an appendix
/// construction the paper does not include; see DESIGN.md §4 for the
/// substitution note). Labels: `u` positive, `v` negative.
pub fn twin_paths(n: usize) -> TrainingDb {
    assert!(n >= 2);
    let mut b = DbBuilder::new(graph_schema());
    for i in 0..n {
        let from = if i == 0 {
            "u".to_string()
        } else {
            format!("u{i}")
        };
        let to = format!("u{}", i + 1);
        b = b.fact("E", &[&from, &to]);
    }
    for i in 0..n - 1 {
        let from = if i == 0 {
            "v".to_string()
        } else {
            format!("v{i}")
        };
        let to = format!("v{}", i + 1);
        b = b.fact("E", &[&from, &to]);
    }
    b.positive("u").negative("v").training()
}

/// The paper's Example 6.2: `D = {R(a), S(a), S(c)}`, entities `a, b, c`,
/// `λ(a) = λ(b) = +`, `λ(c) = −`. CQ-separable, but not with one feature.
pub fn example_6_2() -> TrainingDb {
    let mut s = Schema::entity_schema();
    s.add_relation("R", 1);
    s.add_relation("S", 1);
    DbBuilder::new(s)
        .fact("R", &["a"])
        .fact("S", &["a"])
        .fact("S", &["c"])
        .positive("a")
        .positive("b")
        .negative("c")
        .training()
}

/// Two disjoint directed `n`-cycles with one entity each, labeled
/// oppositely: hom-equivalent (and `→_k`-equivalent, and automorphic),
/// hence inseparable in every class the paper studies.
pub fn twin_cycles(n: usize) -> TrainingDb {
    assert!(n >= 1);
    let mut b = DbBuilder::new(graph_schema());
    for (prefix, _) in [("x", 0), ("y", 1)] {
        for i in 0..n {
            let from = format!("{prefix}{i}");
            let to = format!("{prefix}{}", (i + 1) % n);
            b = b.fact("E", &[&from, &to]);
        }
    }
    b.positive("x0").negative("y0").training()
}

#[cfg(test)]
mod tests {
    use super::*;
    use covergame::cover_implies;
    use cqsep::sep_cq::cq_separable_in;
    use cqsep::sep_ghw::ghw_separable_in;
    use cqsep::Engine;

    #[test]
    fn alternating_paths_form_a_chain() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = alternating_paths(4);
        let ents = t.entities();
        assert_eq!(ents.len(), 4);
        // Entity of path length i is e_i; order entities by name.
        let mut named: Vec<(String, relational::Val)> = ents
            .iter()
            .map(|&e| (t.db.val_name(e).to_string(), e))
            .collect();
        named.sort();
        // p1_0 ⪯ p2_0 ⪯ p3_0 ⪯ p4_0 under →_1 (longer out-paths satisfy
        // more)... direction check: e_i has out-path length i; queries at
        // e_i transfer to e_j iff j ≥ i.
        for i in 0..4 {
            for j in 0..4 {
                let holds = cover_implies(&t.db, &[named[i].1], &t.db, &[named[j].1], 1);
                assert_eq!(holds, i <= j, "{} vs {}", named[i].0, named[j].0);
            }
        }
        // Chain is separable (all classes singleton).
        assert!(ghw_separable_in(&ctx, &t, 1).unwrap());
        assert!(cq_separable_in(&ctx, &t).unwrap());
    }

    #[test]
    fn twin_paths_order_and_distinguishing_size() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        for n in [3usize, 5] {
            let t = twin_paths(n);
            let u = t.db.val_by_name("u").unwrap();
            let v = t.db.val_by_name("v").unwrap();
            assert!(cover_implies(&t.db, &[v], &t.db, &[u], 1), "v ⪯ u");
            assert!(!cover_implies(&t.db, &[u], &t.db, &[v], 1), "u ⋠ v");
            assert!(ghw_separable_in(&ctx, &t, 1).unwrap());
            // The extracted distinguishing query needs ≥ n E-atoms (the
            // out-path of length n is the only distinguishing pattern).
            let (q, td) =
                covergame::extract_distinguishing_query(&t.db, u, &t.db, v, 1, 100_000).unwrap();
            td.verify(&q, 1).unwrap();
            let e_atoms = q
                .atoms()
                .iter()
                .filter(|a| t.db.schema().name(a.rel) == "E")
                .count();
            assert!(e_atoms >= n, "n={n}: got only {e_atoms} E-atoms in {q}");
        }
    }

    #[test]
    fn example_6_2_matches_paper() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = example_6_2();
        assert!(cq_separable_in(&ctx, &t).unwrap());
        let bud = cqsep::sep_dim::DimBudget::default();
        assert!(!cqsep::sep_dim::cq_sep_dim_in(&ctx, &t, 1, &bud)
            .unwrap()
            .unwrap());
        assert!(cqsep::sep_dim::cq_sep_dim_in(&ctx, &t, 2, &bud)
            .unwrap()
            .unwrap());
    }

    #[test]
    fn twin_cycles_inseparable_everywhere() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = twin_cycles(3);
        assert!(!cq_separable_in(&ctx, &t).unwrap());
        assert!(!ghw_separable_in(&ctx, &t, 1).unwrap());
        assert!(!ghw_separable_in(&ctx, &t, 2).unwrap());
        assert!(!cqsep::fo::fo_separable(&t));
    }

    #[test]
    fn alternating_chain_needs_linear_dimension() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // The headline of Theorem 5.7(a), measured: the minimum number of
        // out-path features separating the m-chain is m - 1.
        let schema = graph_schema();
        for m in [3usize, 4] {
            let t = alternating_paths(m);
            let pool: Vec<cq::Cq> = (1..=m)
                .map(|len| {
                    let mut body = String::from("q(x0) :- eta(x0)");
                    for i in 0..len {
                        body += &format!(", E(x{i},x{})", i + 1);
                    }
                    cq::parse::parse_cq(&schema, &body).unwrap()
                })
                .collect();
            let dim = cqsep::fo::min_dimension_of_in(&ctx, &t, &pool, m)
                .unwrap()
                .expect("pool suffices");
            assert_eq!(dim, m - 1, "m={m}");
        }
    }
}
