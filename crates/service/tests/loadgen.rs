//! Latency-percentile load bench: ≥100 concurrent closed-loop NDJSON
//! clients hammering a 2-shard `cqsep-router`, measuring per-request
//! latency (p50/p99) and saturation throughput, with per-shard
//! forwarded counts proving the rendezvous hash spreads tenants.
//!
//! Results merge into `BENCH_service.json` at the repository root under
//! the `"loadgen"` key (other keys — the task-layer throughput section —
//! are preserved). Debug builds run a small smoke instead and skip the
//! file write: percentile numbers from an unoptimized binary would only
//! churn the benchmark record.

use service::json::{escape, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const TRAIN: &str = "rel E/2\nfact E(a,b)\nfact E(b,c)\nentity a +\nentity b +\nentity c -\n";

fn request_line(id: u64, tenant: &str) -> String {
    format!(
        "{{\"id\":{id},\"task\":\"check\",\"train\":{},\"classes\":[\"cq\"],\"tenant\":{}}}\n",
        escape(TRAIN),
        escape(tenant),
    )
}

fn read_json_line(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    assert!(!line.is_empty(), "router closed the stream early");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// `nproc` as the shell reports it (`null` where the command is missing).
fn nproc() -> Json {
    Command::new("nproc")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse::<u64>().ok())
        .map_or(Json::Null, |n| Json::Num(n as f64))
}

/// The first `model name` in `/proc/cpuinfo`, else `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replace `updates` keys in the root-level BENCH_service.json object,
/// preserving every other key (the task-layer bench owns its own).
fn merge_bench_json(path: &str, updates: Vec<(String, Json)>) {
    let mut fields: Vec<(String, Json)> = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(fields)) => fields,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
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

#[test]
fn loadgen_p50_p99_through_two_shard_router() {
    // Debug builds smoke the same path at a fraction of the load.
    let full = !cfg!(debug_assertions);
    let (clients, reqs_per_client) = if full { (100, 20) } else { (12, 4) };
    if !full {
        eprintln!("note: debug build — {clients}-client smoke, BENCH_service.json untouched");
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_cqsep-router"))
        .args([
            "--shards",
            "2",
            "--serve-bin",
            env!("CARGO_BIN_EXE_cqsep-serve"),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cqsep-router");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("router prints its address");
    let addr: String = first
        .trim()
        .rsplit("listening on ")
        .next()
        .expect("'listening on <addr>' line")
        .to_string();

    // Closed-loop clients: each holds one connection and issues its next
    // request only after the previous answer lands, so concurrency is
    // exactly `clients` and every latency sample includes queueing.
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect to router");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let tenant = format!("t{}", c % 16);
                let mut latencies = Vec::with_capacity(reqs_per_client);
                for r in 0..reqs_per_client {
                    let id = (c as u64) * 10_000 + r as u64 + 1;
                    let line = request_line(id, &tenant);
                    let t0 = Instant::now();
                    writer.write_all(line.as_bytes()).unwrap();
                    writer.flush().unwrap();
                    let resp = read_json_line(&mut reader);
                    latencies.push(t0.elapsed());
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "client {c} response: {resp}"
                    );
                    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(id));
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    let wall = started.elapsed();
    latencies.sort();

    let total = clients * reqs_per_client;
    assert_eq!(latencies.len(), total);
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let throughput = total as f64 / wall.as_secs_f64();

    // Per-shard forwarded counts from the router's local stats op: the
    // 16 tenants must rendezvous onto both shards, and every request
    // must be accounted for.
    let control = TcpStream::connect(&addr).expect("connect control");
    control
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(control.try_clone().unwrap());
    let mut writer = control;
    writer.write_all(b"{\"op\":\"stats\",\"id\":1}\n").unwrap();
    writer.flush().unwrap();
    let stats = read_json_line(&mut reader);
    let doc = Json::parse(stats.get("output").and_then(Json::as_str).expect("output"))
        .expect("stats output is JSON");
    assert_eq!(
        doc.get("forwarded").and_then(Json::as_u64),
        Some(total as u64)
    );
    let shard_counts: Vec<u64> = doc
        .get("shards")
        .and_then(Json::as_array)
        .expect("shards")
        .iter()
        .map(|s| s.get("forwarded").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(shard_counts.len(), 2);
    assert!(
        shard_counts.iter().all(|&n| n > 0),
        "rendezvous hash left a shard idle: {shard_counts:?}"
    );

    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    writer.flush().unwrap();
    drop(writer);
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("try_wait").is_none() {
        assert!(Instant::now() < deadline, "router did not exit on shutdown");
        std::thread::sleep(Duration::from_millis(50));
    }

    let ms = |d: Duration| (d.as_secs_f64() * 1e5).round() / 100.0;
    println!(
        "loadgen: {clients} clients x {reqs_per_client} reqs, wall {:.2}s, \
         {throughput:.0} req/s, p50 {:.2}ms, p99 {:.2}ms, shards {shard_counts:?}",
        wall.as_secs_f64(),
        ms(p50),
        ms(p99),
    );

    if full {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let num = |x: f64| Json::Num((x * 100.0).round() / 100.0);
        let loadgen = Json::Obj(vec![
            ("clients".to_string(), Json::Num(clients as f64)),
            (
                "requests_per_client".to_string(),
                Json::Num(reqs_per_client as f64),
            ),
            ("total_requests".to_string(), Json::Num(total as f64)),
            ("shards".to_string(), Json::Num(2.0)),
            ("available_parallelism".to_string(), Json::Num(cores as f64)),
            ("nproc".to_string(), nproc()),
            ("cpu_model".to_string(), Json::Str(cpu_model())),
            ("wall_s".to_string(), num(wall.as_secs_f64())),
            ("throughput_req_per_s".to_string(), num(throughput)),
            ("p50_ms".to_string(), num(ms(p50))),
            ("p99_ms".to_string(), num(ms(p99))),
            (
                "per_shard_forwarded".to_string(),
                Json::Arr(shard_counts.iter().map(|&n| Json::Num(n as f64)).collect()),
            ),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
        merge_bench_json(path, vec![("loadgen".to_string(), loadgen)]);
    }
}
