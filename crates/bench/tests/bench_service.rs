//! Throughput benchmark for the task layer: a mixed check/classify
//! batch pushed through `service::run_task_in` on a single-threaded
//! engine vs the default (all-cores) engine. Outcomes are verified for
//! agreement before anything is timed, and the measured tasks/sec plus
//! the engine counters are recorded in the `"service_batch"` key of
//! `BENCH_service.json` at the repository root, together with the
//! machine that measured them (`available_parallelism`,
//! `effective_threads`), merged around the `"loadgen"` key owned by the
//! service crate's load bench, which records its own machine. No
//! speedup is asserted — single-task parallelism depends on the host —
//! but on multi-core hosts the default engine must never lose by more
//! than noise (single-core hosts record a note instead of asserting on
//! scheduler jitter), and the batch must do real hom/game/LP work on a
//! cold engine.

use bench::{time_median, with_engine_stats};
use cqsep::Engine;
use relational::spec::DatabaseSpec;
use relational::TrainingDb;
use service::json::{escape, Json};
use service::{run_task_in, ClassSpec, Outcome, Task};
use workloads::lowerbound;

fn spec_text(train: &TrainingDb) -> String {
    DatabaseSpec::from_database(&train.db, Some(&train.labeling)).to_text()
}

/// The mixed batch: separability reports and classification runs over
/// the paper's small lower-bound families. Sized so one cold pass takes
/// well under a second per engine leg on a typical host.
fn service_batch() -> Vec<Task> {
    let example = spec_text(&lowerbound::example_6_2());
    let cycles = spec_text(&lowerbound::twin_cycles(3));
    let paths = spec_text(&lowerbound::twin_paths(4));
    let alternating = spec_text(&lowerbound::alternating_paths(4));
    let check = |train: &String| Task::Check {
        train: train.clone(),
        classes: vec![ClassSpec::Cq, ClassSpec::Ghw(1)],
    };
    let classify = |train: &String, class: ClassSpec| Task::Classify {
        train: train.clone(),
        eval: train.clone(),
        class,
    };
    vec![
        // Separability reports: the twin families are inseparable for
        // both classes, which is a valid (and cheap-to-render) answer.
        check(&example),
        check(&cycles),
        check(&paths),
        // Classification: only (family, class) pairs known separable —
        // an inseparable pair is a task *failure*, not a benchmark.
        classify(&example, ClassSpec::Cq),
        classify(&example, ClassSpec::Cqm(1)),
        classify(&paths, ClassSpec::Cq),
        classify(&paths, ClassSpec::Ghw(1)),
        classify(&alternating, ClassSpec::Ghw(1)),
    ]
}

/// Run the whole batch on a fresh engine built by `mk`, returning the
/// outputs. Fresh engines keep every pass cold: the hom/game caches
/// would otherwise absorb all solver work after the first repetition
/// and the two legs would time nothing but memo lookups.
fn run_batch(mk: &dyn Fn() -> Engine, tasks: &[Task]) -> Vec<String> {
    let engine = mk();
    tasks
        .iter()
        .map(|t| match run_task_in(&engine.ctx(), t).unwrap() {
            Ok(out) => out.output,
            Err(e) => panic!("{} task failed: {e}", t.kind()),
        })
        .collect()
}

#[test]
fn service_throughput_single_vs_default_threads() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let effective_threads = Engine::new().effective_parallelism();
    let tasks = service_batch();
    let checks = tasks.iter().filter(|t| t.kind() == "check").count();
    let classifies = tasks.len() - checks;

    let single = || Engine::new().with_threads(1);
    let default = Engine::new;

    // Agreement before speed: both engines must produce identical
    // reports and labelings for every task in the batch.
    let single_out = run_batch(&single, &tasks);
    let default_out = run_batch(&default, &tasks);
    assert_eq!(
        single_out, default_out,
        "engine parallelism must not change any task's output"
    );

    // One instrumented cold pass: the batch must exercise all three
    // solver layers for the throughput numbers to mean anything.
    let stats_engine = Engine::new();
    let (_, stats) = with_engine_stats(&stats_engine, || {
        for t in &tasks {
            let out = run_task_in(&stats_engine.ctx(), t)
                .unwrap()
                .expect("task failed");
            std::hint::black_box(out);
        }
    });
    assert!(stats.hom.solves > 0, "batch did no hom-engine work");
    assert!(stats.game.games_solved > 0, "batch did no game-engine work");
    let lp_activity = stats.lp.lps_solved + stats.lp.perceptron_hits + stats.lp.conflict_prunes;
    assert!(lp_activity > 0, "batch did no LP-engine work");
    assert_eq!(stats.restored_entries, 0, "nothing was loaded from disk");

    // The batch is only a few ms per leg, so medians need enough
    // repetitions to shrug off scheduler hiccups.
    let single_s = time_median(9, || {
        std::hint::black_box(run_batch(&single, &tasks));
    });
    let default_s = time_median(9, || {
        std::hint::black_box(run_batch(&default, &tasks));
    });
    let per_sec = |s: f64| tasks.len() as f64 / s;

    // The default engine must never lose to the single-threaded one by
    // more than noise: with adaptive parallelism, an engine that cannot
    // actually fan out (single-core host) takes the same sequential
    // paths. On multi-core hosts this is a weak floor, not a speedup
    // claim — single-task parallelism depends on the workload shape.
    if cores >= 2 {
        assert!(
            default_s <= single_s * 1.25,
            "default engine lost to single-threaded: default={default_s:.6}s single={single_s:.6}s"
        );
    } else {
        // One core: both legs run the adaptive sequential paths and the
        // only difference is scheduler noise, which on a busy CI box can
        // exceed any fixed tolerance. Record, note, and move on — the
        // same convention the LP bench uses for host-dependent legs.
        eprintln!(
            "note: {cores} core(s), effective budget {effective_threads} — \
             skipping the parallel-speedup assertion \
             (default={default_s:.6}s single={single_s:.6}s)"
        );
    }

    let round = |x: f64, places: f64| (x * places).round() / places;
    let batch = Json::Obj(vec![
        ("available_parallelism".to_string(), Json::Num(cores as f64)),
        (
            "effective_threads".to_string(),
            Json::Num(effective_threads as f64),
        ),
        ("tasks".to_string(), Json::Num(tasks.len() as f64)),
        ("check_tasks".to_string(), Json::Num(checks as f64)),
        ("classify_tasks".to_string(), Json::Num(classifies as f64)),
        (
            "single_thread_s".to_string(),
            Json::Num(round(single_s, 1e6)),
        ),
        (
            "default_threads_s".to_string(),
            Json::Num(round(default_s, 1e6)),
        ),
        (
            "single_thread_tasks_per_s".to_string(),
            Json::Num(round(per_sec(single_s), 1e2)),
        ),
        (
            "default_tasks_per_s".to_string(),
            Json::Num(round(per_sec(default_s), 1e2)),
        ),
        (
            "speedup".to_string(),
            Json::Num(round(single_s / default_s, 1e2)),
        ),
        ("hom_solves".to_string(), Json::Num(stats.hom.solves as f64)),
        (
            "games_solved".to_string(),
            Json::Num(stats.game.games_solved as f64),
        ),
        ("lp_activity".to_string(), Json::Num(lp_activity as f64)),
        (
            "warm_start_hits".to_string(),
            Json::Num(stats.lp.warm_start_hits as f64),
        ),
    ]);
    // Debug builds run the batch but leave the tracked ledger alone; the
    // release run writes it.
    if cfg!(debug_assertions) {
        eprintln!("note: debug build — BENCH_service.json untouched");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    merge_bench_json(path, vec![("service_batch".to_string(), batch)]);
}

/// Replace `updates` keys in the root-level BENCH_service.json object,
/// preserving every other key (the loadgen bench owns `"loadgen"`).
/// Each key carries its own machine fields, so top-level scalars (a
/// machine description shared by keys measured on different hosts) are
/// dropped.
fn merge_bench_json(path: &str, updates: Vec<(String, Json)>) {
    let mut fields: Vec<(String, Json)> = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(fields)) => fields,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    fields.retain(|(_, v)| matches!(v, Json::Obj(_)));
    for (key, value) in updates {
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => fields.push((key, value)),
        }
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        out.push_str(&format!("  {}: {v}{comma}\n", escape(k)));
    }
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH_service.json");
}

/// The service layer's `Outcome` flattener feeds the same throughput
/// path the server uses; sanity-check it end to end on one engine so
/// the benchmark's numbers describe the real serving pipeline.
#[test]
fn execute_in_matches_run_task_with() {
    let engine = Engine::new();
    for task in service_batch() {
        let direct = run_task_in(&engine.ctx(), &task)
            .unwrap()
            .expect("task failed");
        match service::execute_in(&engine.ctx(), &task) {
            Outcome::Success(out) => assert_eq!(out.output, direct.output),
            other => panic!("execute_in diverged: {other:?}"),
        }
    }
}
