//! The `CQ[m]` solvers evaluate their enumerated feature bank through
//! the shared-prefix trie (`cq::trie`). This file holds that kernel to
//! the per-feature oracle on every planted family: the trie's rows equal
//! `cq::indicator` cell for cell, and the fit and classify entry points
//! return what the per-feature sweep of `Statistic::apply_in` gives.

use cq::trie::{Trie, TrieStats, DEFAULT_FRONTIER_CAP};
use cq::{indicator, selects, EnumConfig};
use cqsep::sep_cqm::{
    column_reduced_statistic_in, cqm_classify_in, cqm_generate_in, full_statistic,
};
use cqsep::Statistic;
use engine::Engine;
use relational::{Database, TrainingDb};
use std::collections::HashSet;
use workloads::{families, sample_labeled};

/// `indicator` per feature, transposed into one row per entity.
fn oracle_rows(stat: &Statistic, d: &Database) -> Vec<Vec<i32>> {
    let entities = d.entities();
    let cols: Vec<Vec<i32>> = stat
        .features
        .iter()
        .map(|q| indicator(q, d, &entities))
        .collect();
    (0..entities.len())
        .map(|i| cols.iter().map(|c| c[i]).collect())
        .collect()
}

#[test]
fn trie_rows_equal_indicator_on_every_planted_family_up_to_cq3() {
    let mut cells = 0usize;
    for family in families() {
        for (seed, n) in [(0x5EED, 8), (0xD1CE, 12)] {
            let d = sample_labeled(&family, n, family.default_density, seed).db;
            for m in 1..=3 {
                let stat = full_statistic(&d, &EnumConfig::cqm(m).syntactic());
                let trie = Trie::build(&stat.features);
                let mut stats = TrieStats::default();
                let rows: Vec<Vec<i32>> = d
                    .entities()
                    .into_iter()
                    .map(|e| {
                        let fallback = |f: u32| selects(&stat.features[f as usize], &d, e);
                        trie.eval_entity(&d, e, DEFAULT_FRONTIER_CAP, &fallback, &mut stats)
                    })
                    .collect();
                assert_eq!(
                    rows,
                    oracle_rows(&stat, &d),
                    "{} n={n} seed={seed:#x} CQ[{m}]",
                    family.name
                );
                cells += rows.len() * stat.dimension();
            }
        }
    }
    assert!(cells > 10_000, "the sweep covers {cells} cells");
}

/// `column_reduced_statistic_in` as it was computed before the trie:
/// `Statistic::apply_in`, then one feature per distinct column.
fn reduced_by_sweep(train: &TrainingDb, m: usize) -> (Statistic, Vec<Vec<i32>>) {
    let engine = Engine::new();
    let stat = full_statistic(&train.db, &EnumConfig::cqm(m).syntactic());
    let rows = stat
        .apply_in(&engine.ctx(), &train.db, &train.entities())
        .unwrap();
    let mut seen = HashSet::new();
    let kept: Vec<usize> = (0..stat.dimension())
        .filter(|&j| seen.insert(rows.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .collect();
    let features = kept.iter().map(|&j| stat.features[j].clone()).collect();
    let rows = rows
        .iter()
        .map(|r| kept.iter().map(|&j| r[j]).collect())
        .collect();
    (Statistic::new(features), rows)
}

#[test]
fn fit_and_classify_match_the_per_feature_sweep_on_every_planted_family() {
    for family in families() {
        let train = sample_labeled(&family, 16, family.default_density, 0xFACE);
        let eval = sample_labeled(&family, 20, family.default_density, 0xF00D).db;
        for m in 1..=2 {
            let engine = Engine::new();
            let ctx = engine.ctx();
            let (stat, rows, labels) =
                column_reduced_statistic_in(&ctx, &train, &EnumConfig::cqm(m)).unwrap();
            let (want_stat, want_rows) = reduced_by_sweep(&train, m);
            assert_eq!(stat, want_stat, "{} CQ[{m}] features", family.name);
            assert_eq!(rows, want_rows, "{} CQ[{m}] rows", family.name);
            assert_eq!(labels.len(), train.entities().len());
            // The trie runs no counted hom search, as `indicator` ran none.
            assert_eq!(engine.stats().hom.solves, 0, "{} CQ[{m}]", family.name);

            let Some(model) = cqm_generate_in(&ctx, &train, &EnumConfig::cqm(m)).unwrap() else {
                continue;
            };
            let want = model.classify_in(&ctx, &eval).unwrap();
            let got = cqm_classify_in(&ctx, &train, &eval, &EnumConfig::cqm(m))
                .unwrap()
                .expect("separable, as the fit above found");
            for e in eval.entities() {
                assert_eq!(got.get(e), want.get(e), "{} CQ[{m}]", family.name);
            }
        }
    }
}
