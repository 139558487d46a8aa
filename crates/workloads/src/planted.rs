//! Planted-query train/test generator families for the generalization
//! harness.
//!
//! Each [`PlantedFamily`] plants a unary target query `q*` over the
//! standard graph schema (`η/1`, `E/2`), samples *independent* train and
//! held-out test databases from the same distribution, labels every
//! entity by `q*`, and optionally flips a fraction of the *training*
//! labels (layered on [`crate::noise::flip_labels`]). The result is a
//! supervised-learning instance whose ground truth is known exactly:
//!
//! * at noise 0 the training database is separable by any language
//!   containing `q*` (the "matching tier"), and a learner that recovers
//!   `q*` — or anything extensionally equivalent on the test
//!   distribution — scores 100% held-out accuracy;
//! * under noise, exact fitting must either fail or overfit, which is
//!   precisely the trade-off the regularized languages (`CQ[m]`, `GHW(k)`,
//!   `Sep[ℓ]`) and the min-error path are meant to navigate (§7 of the
//!   paper; cf. the non-generalization results of arXiv:2312.03407).
//!
//! Everything is deterministic in the explicit seeds: same
//! [`SampleConfig`], same instance, forever.

use crate::noise::flip_labels;
use crate::synthetic::graph_schema;
use cq::parse::parse_cq;
use cq::{selects, Cq};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relational::{Database, Label, Labeling, TrainingDb};

/// How a family wires its random digraphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wiring {
    /// Every ordered pair is an edge independently with probability
    /// `density`.
    Uniform,
    /// `⌈density · n · (n-1)⌉` edges; sources uniform, targets drawn by
    /// preferential attachment (weight `in_degree + 1`), so hubs — and
    /// the short cycles through them — form at much lower density.
    Preferential,
}

/// A generator family with a planted target query.
#[derive(Clone, Debug)]
pub struct PlantedFamily {
    /// Short identifier (used in reports and `BENCH_generalize.json`).
    pub name: &'static str,
    /// The planted query in `cq::parse` syntax.
    pub query_text: &'static str,
    /// Number of non-η atoms of the target — the matching `CQ[m]` tier.
    pub atoms: usize,
    /// Edge density that reliably yields both label classes at the
    /// harness's default sizes (families differ: a triangle needs far
    /// more wiring than an out-edge).
    pub default_density: f64,
    wiring: Wiring,
}

impl PlantedFamily {
    /// The planted target query `q*`.
    pub fn target(&self) -> Cq {
        parse_cq(&graph_schema(), self.query_text).expect("family target parses")
    }
}

/// The built-in families, in increasing target complexity. All are over
/// the graph schema; `atoms` is the matching `CQ[m]` tier and every
/// target has generalized hypertree width 1.
pub fn families() -> Vec<PlantedFamily> {
    vec![
        PlantedFamily {
            name: "out_edge",
            query_text: "q(x) :- eta(x), E(x,y)",
            atoms: 1,
            default_density: 0.10,
            wiring: Wiring::Uniform,
        },
        PlantedFamily {
            name: "two_cycle",
            query_text: "q(x) :- eta(x), E(x,y), E(y,x)",
            atoms: 2,
            default_density: 0.18,
            wiring: Wiring::Uniform,
        },
        PlantedFamily {
            name: "out_path2",
            query_text: "q(x) :- eta(x), E(x,y), E(y,z)",
            atoms: 2,
            default_density: 0.06,
            wiring: Wiring::Uniform,
        },
        PlantedFamily {
            name: "triangle",
            query_text: "q(x) :- eta(x), E(x,y), E(y,z), E(z,x)",
            atoms: 3,
            default_density: 0.16,
            wiring: Wiring::Preferential,
        },
    ]
}

/// Look up a built-in family by name.
pub fn family_by_name(name: &str) -> Option<PlantedFamily> {
    families().into_iter().find(|f| f.name == name)
}

/// Parameters of one train/test sample.
#[derive(Clone, Debug)]
pub struct SampleConfig {
    /// Training database size (vertices = entities).
    pub train_n: usize,
    /// Held-out test database size.
    pub test_n: usize,
    /// Edge density: each edge's probability under uniform wiring, the
    /// edge count over `n · (n-1)` under preferential wiring.
    pub density: f64,
    /// Fraction of *training* labels flipped (exact count
    /// `⌊noise · train_n⌋`, via [`flip_labels`]). The test labels are
    /// always the clean ground truth.
    pub noise: f64,
    /// Master seed; train, test, and noise streams are derived from it.
    pub seed: u64,
}

impl SampleConfig {
    /// A config at the family's default density with zero noise.
    pub fn for_family(family: &PlantedFamily, train_n: usize, test_n: usize, seed: u64) -> Self {
        SampleConfig {
            train_n,
            test_n,
            density: family.default_density,
            noise: 0.0,
            seed,
        }
    }
}

/// One train/test instance of a planted family.
#[derive(Clone, Debug)]
pub struct PlantedSplit {
    /// The (possibly noisy) training database.
    pub train: TrainingDb,
    /// The clean training labels (before noise) — ground truth for
    /// measuring how much of the noise a fit absorbed.
    pub clean_train: TrainingDb,
    /// The held-out test database with clean ground-truth labels.
    pub test: TrainingDb,
    /// How many training labels were flipped.
    pub flips: usize,
    /// The planted target query.
    pub target: Cq,
}

/// Sample a labeled database of the family: a random digraph labeled by
/// the planted target, resampled (with derived seeds) until both label
/// classes are present. Deterministic per `(family, n, density, seed)`.
///
/// # Panics
/// After 64 fruitless resamples — the density is pathological for the
/// size (e.g. a triangle family too sparse to contain any triangle).
pub fn sample_labeled(family: &PlantedFamily, n: usize, density: f64, seed: u64) -> TrainingDb {
    assert!(n >= 2, "need at least two entities for two classes");
    let target = family.target();
    for attempt in 0..64u64 {
        let s = seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let db = sample_digraph(family.wiring, n, density, s);
        let labeling = label_by(&target, &db);
        let t = TrainingDb::new(db, labeling);
        if !t.positives().is_empty() && !t.negatives().is_empty() {
            return t;
        }
    }
    panic!(
        "family {:?} produced a single label class in 64 samples \
         (n={n}, density={density})",
        family.name
    );
}

/// Sample a full train/test split with label noise on the training side.
pub fn planted_split(family: &PlantedFamily, config: &SampleConfig) -> PlantedSplit {
    let clean_train = sample_labeled(family, config.train_n, config.density, config.seed);
    // Distinct derived streams for test and noise so the three sampling
    // decisions never alias even under equal sizes.
    let test = sample_labeled(
        family,
        config.test_n,
        config.density,
        config.seed ^ 0xD1CE_4E5B_0BAD_F00D,
    );
    let (train, flips) = flip_labels(
        &clean_train,
        config.noise,
        config.seed ^ 0x5EED_0F11_CE55_1234,
    );
    PlantedSplit {
        train,
        clean_train,
        test,
        flips,
        target: family.target(),
    }
}

fn sample_digraph(wiring: Wiring, n: usize, density: f64, seed: u64) -> Database {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(graph_schema());
    let e = db.schema().rel_by_name("E").unwrap();
    let vals: Vec<_> = (0..n).map(|i| db.value(&format!("v{i}"))).collect();
    match wiring {
        Wiring::Uniform => {
            for i in 0..n {
                for j in 0..n {
                    if i != j && rng.random::<f64>() < density {
                        db.add_fact(e, vec![vals[i], vals[j]]);
                    }
                }
            }
        }
        Wiring::Preferential => {
            let edges = (density * (n * (n - 1)) as f64).ceil() as usize;
            let mut in_deg = vec![0usize; n];
            let mut present = std::collections::HashSet::new();
            let idx: Vec<usize> = (0..n).collect();
            for _ in 0..edges {
                let &src = idx.choose(&mut rng).expect("n >= 2");
                let &dst = idx
                    .choose_weighted(&mut rng, |&j| {
                        if j == src {
                            0.0
                        } else {
                            (in_deg[j] + 1) as f64
                        }
                    })
                    .expect("some target has positive weight");
                if present.insert((src, dst)) {
                    db.add_fact(e, vec![vals[src], vals[dst]]);
                    in_deg[dst] += 1;
                }
            }
        }
    }
    for &v in &vals {
        db.add_entity(v);
    }
    db
}

fn label_by(target: &Cq, db: &Database) -> Labeling {
    let mut labeling = Labeling::new();
    for v in db.entities() {
        let lab = if selects(target, db, v) {
            Label::Positive
        } else {
            Label::Negative
        };
        labeling.set(v, lab);
    }
    labeling
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqsep::Engine;

    #[test]
    fn all_families_sample_both_classes() {
        for family in families() {
            let t = sample_labeled(&family, 24, family.default_density, 7);
            assert_eq!(t.entities().len(), 24, "{}", family.name);
            assert!(!t.positives().is_empty(), "{}: no positives", family.name);
            assert!(!t.negatives().is_empty(), "{}: no negatives", family.name);
        }
    }

    #[test]
    fn splits_are_deterministic_per_seed() {
        let family = family_by_name("two_cycle").unwrap();
        let cfg = SampleConfig {
            train_n: 16,
            test_n: 12,
            density: family.default_density,
            noise: 0.25,
            seed: 42,
        };
        let a = planted_split(&family, &cfg);
        let b = planted_split(&family, &cfg);
        assert_eq!(a.flips, b.flips);
        assert_eq!(a.train.db.fact_count(), b.train.db.fact_count());
        assert_eq!(a.train.labeling.disagreement(&b.train.labeling), 0);
        assert_eq!(a.test.labeling.disagreement(&b.test.labeling), 0);
        // Train and test are genuinely different databases.
        let c = planted_split(
            &family,
            &SampleConfig {
                seed: 43,
                ..cfg.clone()
            },
        );
        assert!(
            a.train.db.fact_count() != c.train.db.fact_count()
                || a.train.labeling.disagreement(&c.train.labeling) != 0,
            "different seeds must diverge"
        );
    }

    #[test]
    fn noise_flips_exactly_the_requested_fraction() {
        let family = family_by_name("out_edge").unwrap();
        let cfg = SampleConfig {
            train_n: 20,
            test_n: 10,
            density: family.default_density,
            noise: 0.2,
            seed: 5,
        };
        let split = planted_split(&family, &cfg);
        assert_eq!(split.flips, 4);
        assert_eq!(
            split
                .clean_train
                .labeling
                .disagreement(&split.train.labeling),
            4
        );
        // Test labels are the clean ground truth of the planted query.
        for e in split.test.entities() {
            let expect = if cq::selects(&split.target, &split.test.db, e) {
                Label::Positive
            } else {
                Label::Negative
            };
            assert_eq!(split.test.labeling.get(e), expect);
        }
    }

    #[test]
    fn zero_noise_split_is_matching_tier_separable() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        for family in families() {
            let cfg = SampleConfig::for_family(&family, 14, 10, 11);
            let split = planted_split(&family, &cfg);
            assert_eq!(split.flips, 0);
            let model = cqsep::sep_cqm::cqm_generate_in(
                &ctx,
                &split.train,
                &cq::EnumConfig::cqm(family.atoms),
            )
            .unwrap()
            .unwrap_or_else(|| {
                panic!(
                    "{}: zero-noise instance must be CQ[{}]-separable",
                    family.name, family.atoms
                )
            });
            assert!(
                model.separates_in(&ctx, &split.train).unwrap(),
                "{}",
                family.name
            );
        }
    }

    #[test]
    fn preferential_wiring_reaches_triangles() {
        let family = family_by_name("triangle").unwrap();
        let t = sample_labeled(&family, 24, family.default_density, 3);
        // The positive class is exactly the on-a-triangle vertices.
        assert!(!t.positives().is_empty());
    }
}
