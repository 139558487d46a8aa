//! Compiled-classifier acceptance benchmark: naive per-feature sweep vs
//! the shared-prefix trie artifact on a planted-family serving workload
//! (thousands of entities × hundreds of features), recorded in
//! `BENCH_classifier.json` at the repository root.
//!
//! The workload models the production shape the artifact exists for: a
//! large sparse evaluation database and a redundant feature bank — the
//! enumerated `CQ[2]` statistic inflated with conjunctions of its own
//! features, the way stacked training rounds and per-tier sweeps
//! accumulate equivalent-up-to-core features in practice. The naive leg
//! evaluates every feature independently (a fresh backtracking hom
//! search per feature × entity, exactly what `Statistic::apply_in` does);
//! the compiled leg runs `Model::compile` once and streams entities
//! through the trie.
//!
//! Hard assertions (the CI contract):
//!
//! * both legs produce identical predictions for every entity;
//! * the compiled artifact is ≥ 3× faster than the naive sweep at equal
//!   parallelism (both legs pinned to one worker thread — raw per-core
//!   throughput, no parallel amortization credit).

use classifier::Model;
use cq::{enumerate_feature_queries, Cq, EnumConfig};
use cqsep::Statistic;
use engine::Engine;
use linsep::LinearClassifier;
use numeric::qint;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::synthetic::graph_schema;
use workloads::{family_by_name, sample_labeled};

/// Evaluation-database size (entities = vertices).
const ENTITIES: usize = 1500;
/// Target size of the inflated feature bank.
const BANK_TARGET: usize = 240;
/// Required sequential predict-time speedup.
const MIN_SPEEDUP: f64 = 3.0;

/// The redundant bank: every enumerated `CQ[2]` feature, plus pairwise
/// conjunctions `q_i ∧ q_j` (hom-equivalent to a core the dedup layer
/// must rediscover — `q ∧ q` collapses to `q` exactly), until the bank
/// reaches [`BANK_TARGET`].
fn inflated_bank() -> Vec<Cq> {
    let base = enumerate_feature_queries(&graph_schema(), &EnumConfig::cqm(2).syntactic());
    let mut bank = base.clone();
    'outer: for i in 0..base.len() {
        for j in 0..base.len() {
            if bank.len() >= BANK_TARGET {
                break 'outer;
            }
            bank.push(base[i].conjoin(&base[j]));
        }
    }
    bank
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "sized for release builds (the naive leg alone is minutes in debug); \
              debug-mode agreement coverage lives in classifier_agreement.rs"
)]
fn compiled_trie_beats_naive_sweep_sequentially() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // A large sparse digraph: average out-degree ~3, so per-entity
    // frontiers stay small and the workload is serving-shaped rather
    // than hom-search-bound.
    let family = family_by_name("out_path2").expect("built-in family");
    let density = 3.0 / (ENTITIES as f64 - 1.0);
    let eval = sample_labeled(&family, ENTITIES, density, 0x5EED_CAFE).db;
    let entities = eval.entities();

    let bank = inflated_bank();
    let statistic = Statistic::new(bank);
    let dim = statistic.dimension();
    // Deterministic non-degenerate weights: every residue class mod 7
    // appears, so folding genuinely mixes signs and magnitudes.
    let weights = (0..dim).map(|j| qint(j as i64 % 7 - 3)).collect();
    let naive_cls = LinearClassifier::new(qint(1), weights);

    // Both legs run on a single worker thread: the speedup claimed here
    // is algorithmic (core dedup + prefix sharing), not parallelism.
    let sequential = Engine::new().with_threads(1);

    let compile_start = Instant::now();
    let compiled = Model::compile(&statistic, &naive_cls);
    let compile_s = compile_start.elapsed().as_secs_f64();
    assert!(
        compiled.compiled_dimension() < dim,
        "the inflated bank must actually deduplicate ({} -> {})",
        dim,
        compiled.compiled_dimension()
    );

    let naive_start = Instant::now();
    let naive_rows = statistic
        .apply_in(&sequential.ctx(), &eval, &entities)
        .unwrap();
    let naive_s = naive_start.elapsed().as_secs_f64();
    let naive_preds: Vec<i32> = naive_rows.iter().map(|r| naive_cls.classify(r)).collect();

    let compiled_start = Instant::now();
    let (compiled_preds, stats) = compiled
        .predict_in(&sequential.ctx(), &eval, &entities)
        .expect("unbounded ctx cannot interrupt");
    let compiled_s = compiled_start.elapsed().as_secs_f64();

    assert_eq!(
        naive_preds, compiled_preds,
        "naive and compiled predictions must agree on every entity"
    );

    let speedup = naive_s / compiled_s.max(1e-9);
    println!(
        "entities {}  features {} -> {} cores ({} trie nodes)",
        entities.len(),
        dim,
        compiled.compiled_dimension(),
        compiled.trie_nodes()
    );
    println!(
        "naive {naive_s:.3}s  compiled {compiled_s:.3}s (compile {compile_s:.3}s)  speedup {speedup:.1}x"
    );
    println!("stats: {}", stats.report());

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"available_parallelism\": {cores},\n",
            "  \"workload\": {{\n",
            "    \"family\": \"{family}\",\n",
            "    \"entities\": {entities},\n",
            "    \"density\": {density:.6},\n",
            "    \"facts\": {facts}\n",
            "  }},\n",
            "  \"bank\": {{\n",
            "    \"features\": {dim},\n",
            "    \"cores\": {cores_dim},\n",
            "    \"trie_nodes\": {nodes}\n",
            "  }},\n",
            "  \"sequential\": {{\n",
            "    \"naive_s\": {naive:.6},\n",
            "    \"compiled_s\": {compiled:.6},\n",
            "    \"compile_s\": {compile:.6},\n",
            "    \"speedup\": {speedup:.2},\n",
            "    \"min_speedup\": {min_speedup:.1},\n",
            "    \"agreement\": true\n",
            "  }},\n",
            "  \"classifier_stats\": {{\n",
            "    \"entities\": {s_entities},\n",
            "    \"nodes_visited\": {s_nodes},\n",
            "    \"prefix_prunes\": {s_prunes},\n",
            "    \"reuse_hits\": {s_reuse},\n",
            "    \"frontier_assignments\": {s_frontier},\n",
            "    \"hom_fallbacks\": {s_fallbacks}\n",
            "  }}\n",
            "}}\n",
        ),
        cores = cores,
        family = family.name,
        entities = entities.len(),
        density = density,
        facts = eval.fact_count(),
        dim = dim,
        cores_dim = compiled.compiled_dimension(),
        nodes = compiled.trie_nodes(),
        naive = naive_s,
        compiled = compiled_s,
        compile = compile_s,
        speedup = speedup,
        min_speedup = MIN_SPEEDUP,
        s_entities = stats.entities,
        s_nodes = stats.nodes_visited,
        s_prunes = stats.prefix_prunes,
        s_reuse = stats.reuse_hits,
        s_frontier = stats.frontier_assignments,
        s_fallbacks = stats.hom_fallbacks,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_classifier.json");
    std::fs::write(path, json).expect("write BENCH_classifier.json");

    // Counter sanity: the claimed amortization mechanisms actually ran.
    assert_eq!(stats.entities as usize, entities.len());
    assert!(stats.prefix_prunes > 0, "prefix pruning never fired");
    assert!(stats.reuse_hits > 0, "prefix sharing never fired");

    assert!(
        speedup >= MIN_SPEEDUP,
        "sequential speedup {speedup:.2}x below the {MIN_SPEEDUP:.1}x floor \
         (naive {naive_s:.3}s, compiled {compiled_s:.3}s)"
    );
}
