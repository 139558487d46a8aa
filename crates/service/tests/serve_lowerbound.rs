//! Acceptance test: `cqsep-serve` survives the paper's lower-bound
//! workload under a 1-second per-task budget. The batch must complete
//! (exactly one response per request), tasks that blow the budget must
//! report `interrupted` with the deadline reason, and tasks arriving
//! *after* a timed-out one must still succeed on the same engine — an
//! interrupted solve may not poison the shared memo tables.

use relational::spec::DatabaseSpec;
use relational::TrainingDb;
use service::json::Json;
use service::{serve, ServeOpts, TenantConfig, TenantRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::lowerbound;

fn spec_text(train: &TrainingDb) -> String {
    DatabaseSpec::from_database(&train.db, Some(&train.labeling)).to_text()
}

fn check_request(id: u64, train: &TrainingDb, classes: &[&str]) -> String {
    let classes = Json::Arr(classes.iter().map(|c| Json::Str(c.to_string())).collect());
    Json::Obj(vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("task".to_string(), Json::Str("check".to_string())),
        ("train".to_string(), Json::Str(spec_text(train))),
        ("classes".to_string(), classes),
    ])
    .to_string()
}

#[test]
fn lowerbound_workload_with_one_second_budget() {
    // The paper's lower-bound families, escalating in size. The larger
    // alternating chains force real work (quadratic fact counts, m
    // entities, every pairwise cover game); whether a given host
    // finishes one inside a second is irrelevant — the protocol
    // guarantees are what is under test.
    let families: Vec<TrainingDb> = vec![
        lowerbound::example_6_2(),
        lowerbound::twin_cycles(3),
        lowerbound::twin_paths(5),
        lowerbound::alternating_paths(4),
        lowerbound::alternating_paths(7),
        lowerbound::alternating_paths(10),
    ];
    let mut lines: Vec<String> = families
        .iter()
        .enumerate()
        .map(|(i, t)| check_request(i as u64 + 1, t, &["cq", "ghw1"]))
        .collect();
    // The sentinel task: arrives after every heavyweight job, must
    // still succeed on the same (possibly partially warmed) engine.
    let sentinel_id = lines.len() as u64 + 1;
    lines.push(check_request(
        sentinel_id,
        &lowerbound::example_6_2(),
        &["cq"],
    ));
    let expected = lines.len();

    let opts = ServeOpts {
        workers: 2,
        queue_cap: 16,
        default_timeout: Some(Duration::from_secs(1)),
    };
    let input = lines.join("\n");
    let mut output = Vec::new();
    let started = Instant::now();
    let summary = serve(
        Arc::new(TenantRegistry::new(TenantConfig::default())),
        input.as_bytes(),
        &mut output,
        &opts,
    )
    .unwrap();
    let elapsed = started.elapsed();

    // The batch completes: one response per request, none dropped, and
    // the 1-second budgets bound the total wall clock (generous slack
    // for slow hosts; without deadlines the big chains could run far
    // longer).
    assert_eq!(summary.total(), expected, "one response per request");
    assert_eq!(summary.failed, 0, "no task may fail outright");
    assert!(
        elapsed < Duration::from_secs(30),
        "budgeted batch took {elapsed:?}"
    );

    let responses: Vec<Json> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(responses.len(), expected);

    for resp in &responses {
        let id = resp.get("id").and_then(Json::as_u64).unwrap();
        let status = resp.get("status").and_then(Json::as_str).unwrap();
        match status {
            "ok" => {
                let out = resp.get("output").and_then(Json::as_str).unwrap();
                assert!(out.contains("separable"), "id {id}: {out}");
            }
            "interrupted" => {
                assert_eq!(
                    resp.get("reason").and_then(Json::as_str),
                    Some("deadline exceeded"),
                    "id {id}"
                );
                // The partial-stats report rides along.
                let stats = resp.get("stats").and_then(Json::as_str).unwrap();
                assert!(stats.contains("engine stats"), "id {id}: {stats}");
                // A timed-out task must not have consumed much more
                // than its budget.
                let elapsed_s = resp.get("elapsed_s").and_then(Json::as_f64).unwrap();
                assert!(elapsed_s < 10.0, "id {id} overran its budget: {elapsed_s}s");
            }
            other => panic!("id {id}: unexpected status {other:?}"),
        }
    }

    // Subsequent tasks on the same engine still succeed after timeouts.
    let sentinel = responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_u64) == Some(sentinel_id))
        .expect("sentinel response");
    assert_eq!(
        sentinel.get("status").and_then(Json::as_str),
        Some("ok"),
        "the easy task after the heavyweights must succeed: {sentinel:?}"
    );
    let out = sentinel.get("output").and_then(Json::as_str).unwrap();
    assert!(out.contains("CQ-separable: true"), "{out}");
}
