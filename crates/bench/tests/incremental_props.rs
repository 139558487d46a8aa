//! Property tests for the delta layer's cache subsumption: across
//! randomized workloads and edits, a warm engine (whose caches may
//! answer grown/shrunk-database queries through fingerprint-lineage
//! subsumption instead of fresh searches) must agree verdict-for-verdict
//! with an uncached oracle — including when a tiny cache capacity forces
//! eviction between the warm-up and the re-query. Debug-friendly sizes;
//! the wall-clock acceptance claim lives in `bench_incremental.rs`.

use cq::{enumerate_feature_queries, EnumConfig};
use engine::Engine;
use relational::{Database, Delta, DeltaKind, Val};
use workloads::synthetic::graph_schema;
use workloads::{family_by_name, sample_labeled};

const SEEDS: [u64; 4] = [11, 23, 47, 91];

/// The `CQ[1]` feature bank as (canonical database, free variable).
fn bank() -> Vec<(Database, Val)> {
    enumerate_feature_queries(&graph_schema(), &EnumConfig::cqm(1).syntactic())
        .iter()
        .map(|q| {
            let (canon, frees) = q.canonical_db();
            (canon, frees[0])
        })
        .collect()
}

/// Every feature verdict over every entity of `d`, through `engine`.
fn verdicts(engine: &Engine, bank: &[(Database, Val)], d: &Database) -> Vec<bool> {
    d.entities()
        .iter()
        .flat_map(|&e| {
            bank.iter()
                .map(move |(canon, root)| engine.ctx().hom_exists(canon, d, &[(*root, e)]).unwrap())
        })
        .collect()
}

/// An insert-only edit derived from the seed: one fresh entity wired to
/// two existing vertices (deterministic but workload-dependent).
fn grow(d: &Database, seed: u64) -> Delta {
    let ents = d.entities();
    let a = d.val_name(ents[seed as usize % ents.len()]).to_string();
    let b = d
        .val_name(ents[(seed as usize / 3) % ents.len()])
        .to_string();
    Delta::new()
        .add_entity("fresh", None)
        .add_fact("E", &[&a, "fresh"])
        .add_fact("E", &["fresh", &b])
}

/// A delete-only edit: drop one non-η fact picked by the seed.
fn shrink(d: &Database, seed: u64) -> Option<Delta> {
    let eta = d.schema().entity_rel();
    let victims: Vec<_> = d.facts().iter().filter(|f| Some(f.rel) != eta).collect();
    if victims.is_empty() {
        return None;
    }
    let f = victims[seed as usize % victims.len()];
    let rel = d.schema().name(f.rel).to_string();
    let args: Vec<String> = f.args.iter().map(|&v| d.val_name(v).to_string()).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    Some(Delta::new().remove_fact(&rel, &refs))
}

/// Warm an engine on `d`, apply `delta`, re-query the grown/shrunk
/// database, and compare every verdict against an uncached oracle.
/// Returns the warm engine's subsumption hits for accumulation.
fn check_edit(engine: Engine, bank: &[(Database, Val)], d: &Database, delta: &Delta) -> u64 {
    verdicts(&engine, bank, d);
    let mut edited = d.clone();
    let receipt = engine
        .apply_delta(&mut edited, delta)
        .expect("derived edits apply cleanly");
    assert!(matches!(
        receipt.kind,
        DeltaKind::InsertOnly | DeltaKind::DeleteOnly
    ));
    let warm = verdicts(&engine, bank, &edited);
    let oracle = Engine::new().without_cache();
    assert_eq!(
        warm,
        verdicts(&oracle, bank, &edited),
        "subsumption changed a verdict (delta kind {})",
        receipt.kind
    );
    engine.stats().sub.hom_subsumption_hits
}

#[test]
fn insert_only_subsumption_is_sound_and_fires() {
    let bank = bank();
    let family = family_by_name("out_edge").unwrap();
    let mut sub_hits = 0;
    for seed in SEEDS {
        let d = sample_labeled(&family, 8, 0.25, seed).db;
        sub_hits += check_edit(Engine::new(), &bank, &d, &grow(&d, seed));
    }
    assert!(
        sub_hits > 0,
        "no insert-only subsumption hit across {} workloads",
        SEEDS.len()
    );
}

#[test]
fn delete_only_subsumption_is_sound_and_fires() {
    let bank = bank();
    let family = family_by_name("two_cycle").unwrap();
    let mut sub_hits = 0;
    for seed in SEEDS {
        let d = sample_labeled(&family, 8, 0.3, seed).db;
        let Some(delta) = shrink(&d, seed) else {
            continue;
        };
        sub_hits += check_edit(Engine::new(), &bank, &d, &delta);
    }
    assert!(
        sub_hits > 0,
        "no delete-only subsumption hit across {} workloads",
        SEEDS.len()
    );
}

/// Eviction interplay: with a cache capacity far smaller than the
/// warm-up's entry count, entries the subsumption probe would want may
/// be gone — the answers must still match the oracle (a missing
/// ancestor entry degrades to a fresh search, never to a wrong
/// verdict).
#[test]
fn tiny_cache_eviction_never_breaks_subsumption() {
    let bank = bank();
    let family = family_by_name("out_path2").unwrap();
    for seed in SEEDS {
        let d = sample_labeled(&family, 8, 0.25, seed).db;
        check_edit(Engine::with_capacity(4), &bank, &d, &grow(&d, seed));
        if let Some(delta) = shrink(&d, seed) {
            check_edit(Engine::with_capacity(4), &bank, &d, &delta);
        }
    }
}

/// Cross-database games keep one stable side across the edit: cached
/// positive game verdicts must transfer (and stay sound) when only the
/// right-hand database grows.
#[test]
fn game_subsumption_across_growth_agrees_with_oracle() {
    let family = family_by_name("out_edge").unwrap();
    let mut sub_hits = 0;
    for seed in SEEDS {
        let train = sample_labeled(&family, 6, 0.3, seed);
        let eval = sample_labeled(&family, 6, 0.3, seed ^ 0xA5A5).db;
        let engine = Engine::new();
        let pairs: Vec<(Val, Val)> = train
            .entities()
            .iter()
            .flat_map(|&a| eval.entities().into_iter().map(move |b| (a, b)))
            .collect();
        for &(a, b) in &pairs {
            engine
                .ctx()
                .cover_implies(&train.db, &[a], &eval, &[b], 1)
                .unwrap();
        }
        let mut grown = eval.clone();
        engine
            .apply_delta(&mut grown, &grow(&eval, seed))
            .expect("growth applies cleanly");
        let oracle = Engine::new().without_cache();
        for &(a, b) in &pairs {
            assert_eq!(
                engine
                    .ctx()
                    .cover_implies(&train.db, &[a], &grown, &[b], 1)
                    .unwrap(),
                oracle
                    .ctx()
                    .cover_implies(&train.db, &[a], &grown, &[b], 1)
                    .unwrap(),
                "game verdict changed under growth (seed {seed})"
            );
        }
        sub_hits += engine.stats().sub.game_subsumption_hits;
    }
    assert!(
        sub_hits > 0,
        "no game subsumption hit across {} workloads",
        SEEDS.len()
    );
}
