//! Random and structured training databases with known ground truth.

use cq::{selects, Cq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::{Database, DbBuilder, Label, Labeling, Schema, TrainingDb};

/// The standard graph entity schema used throughout: `η/1`, `E/2`.
pub fn graph_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s
}

/// A random digraph on `n` vertices where each of the `n·(n-1)` ordered
/// pairs is an edge with probability `p`; every vertex is an entity,
/// labeled by whether it has an outgoing edge (so the instance is
/// `CQ[1]`-separable by construction).
pub fn random_digraph_train(n: usize, p: f64, seed: u64) -> TrainingDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(graph_schema());
    let e = db.schema().rel_by_name("E").unwrap();
    let vals: Vec<_> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    let mut has_out = vec![false; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.random::<f64>() < p {
                db.add_fact(e, vec![vals[i], vals[j]]);
                has_out[i] = true;
            }
        }
    }
    let mut labeling = Labeling::new();
    for i in 0..n {
        db.add_entity(vals[i]);
        labeling.set(
            vals[i],
            if has_out[i] {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    TrainingDb::new(db, labeling)
}

/// Configuration for [`planted_feature_graph`].
#[derive(Clone, Debug)]
pub struct PlantedConfig {
    pub n: usize,
    pub edge_prob: f64,
    pub seed: u64,
}

/// A random digraph labeled by a *planted* feature query: the labels are
/// exactly `q(D)` for the given unary CQ, so the instance is separable by
/// any class containing `q` (dimension 1!). Ideal for crossover and
/// correctness experiments: every solver must answer "separable".
pub fn planted_feature_graph(config: &PlantedConfig, q: &Cq) -> TrainingDb {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::new(graph_schema());
    let e = db.schema().rel_by_name("E").unwrap();
    let vals: Vec<_> = (0..config.n).map(|i| db.value(&format!("v{i}"))).collect();
    for i in 0..config.n {
        for j in 0..config.n {
            if i != j && rng.random::<f64>() < config.edge_prob {
                db.add_fact(e, vec![vals[i], vals[j]]);
            }
        }
    }
    for &v in &vals {
        db.add_entity(v);
    }
    let mut labeling = Labeling::new();
    for &v in &vals {
        let lab = if selects(q, &db, v) {
            Label::Positive
        } else {
            Label::Negative
        };
        labeling.set(v, lab);
    }
    TrainingDb::new(db, labeling)
}

/// A directed cycle of length `n` with `chords` random chords; entities
/// are all vertices, labeled positive iff they are a chord source. Used
/// by the CQ-Sep hardness-shape bench (hom tests on cyclic structures are
/// the expensive case).
pub fn cycle_with_chords(n: usize, chords: usize, seed: u64) -> TrainingDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(graph_schema());
    let e = db.schema().rel_by_name("E").unwrap();
    let vals: Vec<_> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    for i in 0..n {
        db.add_fact(e, vec![vals[i], vals[(i + 1) % n]]);
    }
    let mut is_source = vec![false; n];
    for _ in 0..chords {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b && (a + 1) % n != b {
            db.add_fact(e, vec![vals[a], vals[b]]);
            is_source[a] = true;
        }
    }
    let mut labeling = Labeling::new();
    for i in 0..n {
        db.add_entity(vals[i]);
        labeling.set(
            vals[i],
            if is_source[i] {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    TrainingDb::new(db, labeling)
}

/// `copies` disjoint out-paths of each length in `1..=max_len`; the path
/// starts are entities labeled by length parity (even = positive). The
/// `→_k`-equivalence classes are exactly the groups of same-length starts
/// (`copies` twins each), so label noise *inside* a class is irreparable
/// — the workload for the approximate-separability experiments (§7).
pub fn replicated_paths(max_len: usize, copies: usize) -> TrainingDb {
    let mut b = DbBuilder::new(graph_schema());
    for len in 1..=max_len {
        for c in 0..copies {
            for step in 0..len {
                let from = format!("p{len}c{c}_{step}");
                let to = format!("p{len}c{c}_{}", step + 1);
                b = b.fact("E", &[&from, &to]);
            }
            let start = format!("p{len}c{c}_0");
            b = if len % 2 == 0 {
                b.positive(&start)
            } else {
                b.negative(&start)
            };
        }
    }
    b.training()
}

/// An `r × c` directed grid (edges right and down); entities are all
/// nodes, labeled positive iff they lie in the top-left quadrant. Grids
/// are the classic high-treewidth stressor for the homomorphism solver.
pub fn grid_train(r: usize, c: usize) -> TrainingDb {
    let mut b = DbBuilder::new(graph_schema());
    let name = |i: usize, j: usize| format!("g{i}_{j}");
    for i in 0..r {
        for j in 0..c {
            if i + 1 < r {
                b = b.fact("E", &[&name(i, j), &name(i + 1, j)]);
            }
            if j + 1 < c {
                b = b.fact("E", &[&name(i, j), &name(i, j + 1)]);
            }
        }
    }
    for i in 0..r {
        for j in 0..c {
            let n = name(i, j);
            b = if i < r / 2 && j < c / 2 {
                b.positive(&n)
            } else {
                b.negative(&n)
            };
        }
    }
    b.training()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse::parse_cq;
    use cqsep::Engine;

    #[test]
    fn random_digraph_is_out_edge_separable() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = random_digraph_train(12, 0.15, 7);
        assert_eq!(t.entities().len(), 12);
        // Separable by CQ[1] with the out-edge feature, by construction.
        let model = cqsep::sep_cqm::cqm_generate_in(&ctx, &t, &cq::EnumConfig::cqm(1))
            .unwrap()
            .expect("planted out-edge labels are CQ[1]-separable");
        assert!(model.separates_in(&ctx, &t).unwrap());
    }

    #[test]
    fn planted_feature_is_recovered() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let q = parse_cq(&graph_schema(), "q(x) :- eta(x), E(x,y), E(y,x)").unwrap();
        let t = planted_feature_graph(
            &PlantedConfig {
                n: 10,
                edge_prob: 0.3,
                seed: 3,
            },
            &q,
        );
        assert!(cqsep::sep_cqm::cqm_separable_in(&ctx, &t, &cq::EnumConfig::cqm(2)).unwrap());
        assert!(cqsep::sep_ghw::ghw_separable_in(&ctx, &t, 1).unwrap());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = random_digraph_train(10, 0.2, 42);
        let b = random_digraph_train(10, 0.2, 42);
        assert_eq!(a.db.fact_count(), b.db.fact_count());
        let c = random_digraph_train(10, 0.2, 43);
        // (Almost surely) different.
        assert!(
            a.db.fact_count() != c.db.fact_count() || {
                // Same count is possible; compare fact sets then.
                let fa: std::collections::BTreeSet<_> =
                    a.db.facts()
                        .iter()
                        .map(|f| a.db.fact_to_string(f))
                        .collect();
                let fc: std::collections::BTreeSet<_> =
                    c.db.facts()
                        .iter()
                        .map(|f| c.db.fact_to_string(f))
                        .collect();
                fa != fc
            }
        );
    }

    #[test]
    fn replicated_paths_have_twin_classes() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = replicated_paths(3, 2);
        assert_eq!(t.entities().len(), 6);
        // Twins are →_1 equivalent; different lengths are not.
        let v = |n: &str| t.db.val_by_name(n).unwrap();
        assert!(covergame::cover_equivalent(
            &t.db,
            v("p2c0_0"),
            &t.db,
            v("p2c1_0"),
            1
        ));
        assert!(!covergame::cover_equivalent(
            &t.db,
            v("p2c0_0"),
            &t.db,
            v("p3c0_0"),
            1
        ));
        assert!(cqsep::sep_ghw::ghw_separable_in(&ctx, &t, 1).unwrap());
    }

    #[test]
    fn grid_shape() {
        let t = grid_train(3, 4);
        assert_eq!(t.entities().len(), 12);
        // Edge count: 2*3*4 - 3 - 4 = 17.
        let e = t.db.schema().rel_by_name("E").unwrap();
        assert_eq!(t.db.facts_of_rel(e).len(), 17);
    }

    #[test]
    fn cycle_with_chords_has_cycle_backbone() {
        let t = cycle_with_chords(8, 3, 1);
        let e = t.db.schema().rel_by_name("E").unwrap();
        assert!(t.db.facts_of_rel(e).len() >= 8);
        assert_eq!(t.entities().len(), 8);
    }
}
