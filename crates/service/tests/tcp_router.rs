//! End-to-end tests of the shard router: NDJSON round trips through
//! `cqsep-router` → `cqsep-serve --tcp` worker processes, tenant spread
//! across shards, and crash-restart resend (kill a worker mid-batch,
//! the batch still completes).

use service::json::Json;
use service::shard_for;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TRAIN: &str = "rel E/2\nfact E(a,b)\nfact E(b,c)\nentity a +\nentity b +\nentity c -\n";

/// A running router process plus its captured stdout/stderr streams.
struct RouterUnderTest {
    child: Child,
    addr: String,
    stderr_lines: Arc<Mutex<Vec<String>>>,
}

impl RouterUnderTest {
    fn spawn(shards: usize, extra: &[&str]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cqsep-router"));
        cmd.arg("--shards")
            .arg(shards.to_string())
            .arg("--serve-bin")
            .arg(env!("CARGO_BIN_EXE_cqsep-serve"))
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn cqsep-router");

        let stderr = child.stderr.take().expect("stderr piped");
        let stderr_lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stderr_lines);
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });

        let stdout = child.stdout.take().expect("stdout piped");
        let mut first = String::new();
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("router prints its address");
        let addr = first
            .trim()
            .rsplit("listening on ")
            .next()
            .expect("'listening on <addr>' line")
            .to_string();
        RouterUnderTest {
            child,
            addr,
            stderr_lines,
        }
    }

    /// Wait until a stderr line satisfying `pred` appears; return it.
    fn wait_stderr(&self, what: &str, pred: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(line) = self.stderr_lines.lock().unwrap().iter().find(|l| pred(l)) {
                return line.clone();
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Pid of shard `i`'s *current* worker process, from the supervisor's
    /// `shard {i} up (pid {p}, {addr}, generation {g})` stderr line.
    fn shard_pid(&self, shard: usize, generation: u64) -> u32 {
        let tag = format!("shard {shard} up (pid ");
        let gen_tag = format!("generation {generation})");
        let line = self.wait_stderr(&format!("shard {shard} generation {generation}"), |l| {
            l.contains(&tag) && l.contains(&gen_tag)
        });
        up_line_pid(&line).unwrap_or_else(|| panic!("unparseable shard-up line: {line}"))
    }

    fn connect(&self) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(&self.addr).expect("connect to router");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }
}

impl Drop for RouterUnderTest {
    /// Shut the router down the way an operator would, so it stops its
    /// workers itself: send `{"op":"shutdown"}`, wait a bounded time,
    /// and only then SIGKILL it. Any worker still alive after that (the
    /// router was killed, or a test shot it mid-run) is killed by pid.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            if let Ok(mut s) = TcpStream::connect(&self.addr) {
                let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
                let _ = s.flush();
            }
            let deadline = Instant::now() + Duration::from_secs(15);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Each push leaves the line log valid, so a poisoned lock's data
        // is still usable; `Drop` must not panic on it.
        let pids: Vec<u32> = self
            .stderr_lines
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .filter(|l| l.contains(" up (pid "))
            .filter_map(|l| up_line_pid(l))
            .collect();
        for pid in pids {
            if is_live_worker(pid) {
                // SAFETY: kill(2) has no memory-safety preconditions, and
                // the pid was just checked to be a running worker.
                unsafe { libc_kill(pid as i32) };
            }
        }
    }
}

/// The worker pid in a supervisor line `shard {i} up (pid {p}, …)`.
fn up_line_pid(line: &str) -> Option<u32> {
    line.split("(pid ")
        .nth(1)?
        .split(',')
        .next()?
        .trim()
        .parse()
        .ok()
}

/// Is `pid` still a running `cqsep-serve`? Checked through `/proc` so a
/// recycled pid is never shot; hosts without `/proc` skip the sweep.
fn is_live_worker(pid: u32) -> bool {
    std::fs::read(format!("/proc/{pid}/cmdline"))
        .is_ok_and(|cmd| String::from_utf8_lossy(&cmd).contains("cqsep-serve"))
}

fn request_line(id: u64, tenant: &str) -> String {
    format!(
        "{{\"id\":{id},\"task\":\"check\",\"train\":{},\"classes\":[\"cq\"],\"tenant\":{}}}\n",
        service::json::escape(TRAIN),
        service::json::escape(tenant),
    )
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    assert!(!line.is_empty(), "router closed the stream early");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// Tenants that rendezvous-hash onto each of the two shards, so the
/// spread assertion is deterministic rather than probabilistic.
fn tenants_for_both_shards() -> Vec<String> {
    let mut per_shard = [Vec::new(), Vec::new()];
    for i in 0.. {
        let t = format!("tenant-{i}");
        let shard = shard_for(&t, 2);
        if per_shard[shard].len() < 3 {
            per_shard[shard].push(t);
        }
        if per_shard.iter().all(|v| v.len() == 3) {
            break;
        }
    }
    per_shard.concat()
}

#[test]
fn round_trip_spreads_tenants_across_shards() {
    let mut router = RouterUnderTest::spawn(2, &[]);
    let (mut reader, mut writer) = router.connect();

    let tenants = tenants_for_both_shards();
    for (i, tenant) in tenants.iter().enumerate() {
        writer
            .write_all(request_line(i as u64 + 1, tenant).as_bytes())
            .unwrap();
    }
    writer.flush().unwrap();

    let mut ok = 0;
    for _ in &tenants {
        let resp = read_response(&mut reader);
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "response: {resp}"
        );
        ok += 1;
    }
    assert_eq!(ok, tenants.len());

    // Router-local stats: every request forwarded, both shards busy.
    writer.write_all(b"{\"op\":\"stats\",\"id\":77}\n").unwrap();
    writer.flush().unwrap();
    let stats = read_response(&mut reader);
    assert_eq!(stats.get("status").and_then(Json::as_str), Some("ok"));
    let doc = Json::parse(stats.get("output").and_then(Json::as_str).expect("output"))
        .expect("stats output is JSON");
    assert_eq!(
        doc.get("forwarded").and_then(Json::as_u64),
        Some(tenants.len() as u64)
    );
    let shards = doc.get("shards").and_then(Json::as_array).expect("shards");
    assert_eq!(shards.len(), 2);
    for shard in shards {
        let forwarded = shard.get("forwarded").and_then(Json::as_u64).unwrap();
        assert_eq!(forwarded, 3, "rendezvous spread: {doc}");
    }

    // Shutdown stops workers and router.
    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    writer.flush().unwrap();
    drop(writer);
    drop(reader);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if router.child.try_wait().ok().flatten().is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "router did not exit on shutdown");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killed_worker_restarts_and_the_batch_still_completes() {
    let router = RouterUnderTest::spawn(1, &[]);
    let pid = router.shard_pid(0, 1);
    let (mut reader, mut writer) = router.connect();

    // Warm-up proves the shard serves before we shoot it.
    writer
        .write_all(request_line(1, "acme").as_bytes())
        .unwrap();
    writer.flush().unwrap();
    assert_eq!(
        read_response(&mut reader)
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );

    // Queue a batch, then kill the worker while lines are in flight.
    const BATCH: u64 = 24;
    for id in 2..2 + BATCH {
        writer
            .write_all(request_line(id, "acme").as_bytes())
            .unwrap();
    }
    writer.flush().unwrap();
    unsafe {
        libc_kill(pid as i32);
    }

    // The supervisor restarts the shard (generation 2) and the router
    // resends whatever was pending: all 24 answers arrive, exactly once.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..BATCH {
        let resp = read_response(&mut reader);
        let id = resp.get("id").and_then(Json::as_u64).expect("response id");
        assert!(seen.insert(id), "duplicate response id {id}");
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "response: {resp}"
        );
    }
    assert_eq!(seen.len(), BATCH as usize);
    router.wait_stderr("restart notice", |l| l.contains("restarting"));
}

/// SIGKILL via the raw syscall so the test needs no extra crates.
unsafe fn libc_kill(pid: i32) {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        kill(pid, 9);
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        panic!("worker-kill test is unix-only");
    }
}
