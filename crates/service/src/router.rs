//! The `cqsep-router` shard front-end: one listening socket fanning
//! tenants out over N supervised `cqsep-serve --tcp` worker processes.
//!
//! # Placement
//!
//! Each request's tenant id (requests without one share the `""`
//! tenant) is placed by *rendezvous hashing*: the owning shard is
//! `argmax_i fnv1a(tenant, i)`. Placement is therefore stable (the
//! same tenant always lands on the same shard, so its engine caches,
//! residents, and snapshots live in exactly one worker) and needs no
//! coordination state.
//!
//! # Supervision
//!
//! Each shard is a child `cqsep-serve --tcp 127.0.0.1:0` process. A
//! supervisor thread reads the worker's `listening on <addr>` stdout
//! line, publishes the address (bumping a generation counter), and
//! polls the child; if it exits outside a shutdown it is respawned and
//! the new address published. Worker lifecycle is reported on stderr
//! as `cqsep-router: shard <i> up (pid <p>, <addr>, generation <g>)`.
//!
//! # Proxying
//!
//! Each client connection opens (lazily) one upstream connection per
//! shard it touches. The router guarantees every forwarded request has
//! a numeric `id` (assigning router ids from [`AUTO_ID_BASE`] when the
//! client sent none) and keeps the line in a pending table until the
//! matching response arrives. If the upstream connection dies — worker
//! crash — the router reconnects to the shard's next generation and
//! **resends every pending line**, so a batch survives a crash-restart.
//! That is at-least-once delivery: a request that executed but whose
//! response was lost runs again (duplicate responses are dropped by the
//! pending table). Clients that reuse an in-flight `id` on one
//! connection get the two responses collapsed into one.
//!
//! `{"op":"stats"}` is answered by the router itself (shard addresses,
//! generations, forwarded counts) so probes can find and query the
//! shards directly; `{"op":"shutdown"}` is broadcast to every worker
//! (each snapshots its tenants and exits) and stops the router.

use crate::json::Json;
use crate::server::{accept_conn, read_request_line, LineOut, RawLine, MAX_REQUEST_BYTES};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Router ids assigned to requests that arrive without one start here
/// (far above any plausible client id, well inside `f64` exactness).
pub const AUTO_ID_BASE: u64 = 900_000_000_000;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterOpts {
    /// Worker processes to spawn and hash tenants across.
    pub shards: usize,
    /// Path to the `cqsep-serve` binary; defaults to the sibling of the
    /// running executable.
    pub serve_bin: Option<PathBuf>,
    /// Extra arguments passed to every worker (`--workers`, `--tenants`, …).
    pub worker_args: Vec<String>,
    /// Snapshot root; shard `i` gets `<dir>/shard-<i>` as its own
    /// `--cache-dir` (tenant sets are disjoint across shards).
    pub cache_dir: Option<PathBuf>,
}

impl Default for RouterOpts {
    fn default() -> RouterOpts {
        RouterOpts {
            shards: 2,
            serve_bin: None,
            worker_args: Vec::new(),
            cache_dir: None,
        }
    }
}

/// Rendezvous (highest-random-weight) placement: stable under shard
/// count, no coordination state, every tenant owned by exactly one
/// shard.
pub fn shard_for(tenant: &str, shards: usize) -> usize {
    assert!(shards >= 1);
    let mut best = 0;
    let mut best_weight = 0u64;
    for i in 0..shards {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &b in tenant.as_bytes() {
            mix(b);
        }
        mix(0xff); // separator: "" and shard bytes must not collide
        for b in (i as u64).to_le_bytes() {
            mix(b);
        }
        if i == 0 || h > best_weight {
            best_weight = h;
            best = i;
        }
    }
    best
}

#[derive(Debug, Default)]
struct ShardState {
    addr: Option<SocketAddr>,
    generation: u64,
}

struct Shard {
    index: usize,
    state: Mutex<ShardState>,
    ready: Condvar,
    forwarded: AtomicU64,
}

impl Shard {
    fn new(index: usize) -> Shard {
        Shard {
            index,
            state: Mutex::new(ShardState::default()),
            ready: Condvar::new(),
            forwarded: AtomicU64::new(0),
        }
    }

    /// Block until the shard has a published address (or the budget or
    /// the router runs out).
    fn wait_addr(&self, budget: Duration, shutting_down: &AtomicBool) -> Option<SocketAddr> {
        let deadline = Instant::now() + budget;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(addr) = st.addr {
                return Some(addr);
            }
            if shutting_down.load(Ordering::SeqCst) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.ready.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }
}

#[derive(Clone)]
struct WorkerSpec {
    bin: PathBuf,
    args: Vec<String>,
    cache_dir: Option<PathBuf>,
}

impl WorkerSpec {
    fn spawn(&self, shard: usize) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--tcp").arg("127.0.0.1:0");
        if let Some(dir) = &self.cache_dir {
            cmd.arg("--cache-dir")
                .arg(dir.join(format!("shard-{shard}")));
        }
        cmd.args(&self.args);
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        cmd.spawn()
    }
}

/// Spawn → publish address → poll → (restart | reap), forever.
fn supervise(shard: Arc<Shard>, spec: WorkerSpec, shutting_down: Arc<AtomicBool>) {
    let mut backoff: u32 = 0;
    while !shutting_down.load(Ordering::SeqCst) {
        let mut child = match spec.spawn(shard.index) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cqsep-router: shard {}: spawn failed: {e}", shard.index);
                std::thread::sleep(Duration::from_millis(500));
                continue;
            }
        };
        let pid = child.id();
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr: Option<SocketAddr> = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.trim().parse().ok();
                break;
            }
        }
        let Some(addr) = addr else {
            eprintln!(
                "cqsep-router: shard {} worker (pid {pid}) exited before listening",
                shard.index
            );
            let _ = child.kill();
            let _ = child.wait();
            std::thread::sleep(Duration::from_millis(250u64 << backoff.min(4)));
            backoff += 1;
            continue;
        };
        backoff = 0;
        let generation = {
            let mut st = shard.state.lock().unwrap();
            st.generation += 1;
            st.addr = Some(addr);
            shard.ready.notify_all();
            st.generation
        };
        eprintln!(
            "cqsep-router: shard {} up (pid {pid}, {addr}, generation {generation})",
            shard.index
        );
        // Keep the worker's stdout drained while we poll its status.
        let drain = std::thread::spawn(move || for _ in lines {});
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) => {
                    if shutting_down.load(Ordering::SeqCst) {
                        // The shutdown broadcast asks it to exit (and
                        // snapshot); grant a grace period, then insist.
                        let mut waited = Duration::ZERO;
                        let grace = loop {
                            if let Ok(Some(s)) = child.try_wait() {
                                break Some(s);
                            }
                            if waited >= Duration::from_secs(5) {
                                break None;
                            }
                            std::thread::sleep(Duration::from_millis(100));
                            waited += Duration::from_millis(100);
                        };
                        if grace.is_none() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        break grace;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(_) => break None,
            }
        };
        let _ = drain.join();
        shard.state.lock().unwrap().addr = None;
        if shutting_down.load(Ordering::SeqCst) {
            break;
        }
        eprintln!(
            "cqsep-router: shard {} worker (pid {pid}) exited{}; restarting",
            shard.index,
            status.map(|s| format!(" ({s})")).unwrap_or_default()
        );
    }
}

/// The client-facing half of one connection: serialized writes plus an
/// outstanding-response gauge, so EOF can wait for in-flight work.
struct ClientOut {
    stream: Mutex<LineOut<TcpStream>>,
    outstanding: Mutex<u64>,
    drained: Condvar,
}

impl ClientOut {
    fn send_line(&self, line: impl Display) {
        let _ = self.stream.lock().unwrap().send(line);
    }

    fn add(&self) {
        *self.outstanding.lock().unwrap() += 1;
    }

    fn settle(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self, budget: Duration) {
        let deadline = Instant::now() + budget;
        let mut n = self.outstanding.lock().unwrap();
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self.drained.wait_timeout(n, deadline - now).unwrap();
            n = guard;
        }
    }
}

#[derive(Default)]
struct WriterSlot {
    conn: Option<LineOut<TcpStream>>,
    generation: u64,
}

/// One client connection's lazy channel to one shard. Pending lines
/// survive worker restarts (they are resent on reconnect).
struct Upstream {
    shard: Arc<Shard>,
    writer: Mutex<WriterSlot>,
    pending: Mutex<HashMap<u64, String>>,
    client: Arc<ClientOut>,
    shutting_down: Arc<AtomicBool>,
    /// The client connection closed: stop reconnecting on its behalf.
    closed: AtomicBool,
}

fn forward(up: &Arc<Upstream>, id: u64, line: String) {
    up.pending.lock().unwrap().insert(id, line.clone());
    up.client.add();
    up.shard.forwarded.fetch_add(1, Ordering::Relaxed);
    loop {
        let mut slot = up.writer.lock().unwrap();
        if slot.conn.is_none() {
            // connect_locked resends the whole pending table (which
            // includes this line) once the shard answers.
            if let Err(why) = connect_locked(up, &mut slot) {
                drop(slot);
                fail_pending(up, &why);
            }
            return;
        }
        match slot.conn.as_mut().unwrap().send(&line) {
            Ok(()) => return,
            Err(_) => {
                // Stale connection: drop it and reconnect-with-resend.
                slot.conn = None;
            }
        }
    }
}

/// Open an upstream connection to a shard worker, with `TCP_NODELAY`
/// set (see [`LineOut`]).
fn connect_upstream(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send every pending line, in id order, as one buffer.
fn resend_pending<W: Write>(
    out: &mut LineOut<W>,
    pending: &HashMap<u64, String>,
) -> std::io::Result<()> {
    let mut lines: Vec<(&u64, &String)> = pending.iter().collect();
    lines.sort_unstable_by_key(|(id, _)| **id);
    out.send_all(lines.into_iter().map(|(_, line)| line))
}

/// With the writer slot held: connect to the shard's current worker,
/// resend every pending line, and start a reader for the responses.
fn connect_locked(up: &Arc<Upstream>, slot: &mut WriterSlot) -> Result<(), String> {
    for _ in 0..60 {
        if up.shutting_down.load(Ordering::SeqCst) {
            return Err("router shutting down".to_string());
        }
        if up.closed.load(Ordering::SeqCst) {
            return Err("client connection closed".to_string());
        }
        let Some(addr) = up
            .shard
            .wait_addr(Duration::from_millis(250), &up.shutting_down)
        else {
            continue;
        };
        let stream = match connect_upstream(addr) {
            Ok(s) => s,
            Err(_) => {
                // Likely a stale address from a just-dead worker; the
                // supervisor will republish.
                std::thread::sleep(Duration::from_millis(250));
                continue;
            }
        };
        let mut out = LineOut::new(stream);
        let pending = up.pending.lock().unwrap().clone();
        if resend_pending(&mut out, &pending).is_err() {
            continue;
        }
        let Ok(read_half) = out.get_ref().try_clone() else {
            continue;
        };
        slot.generation += 1;
        slot.conn = Some(out);
        let up = Arc::clone(up);
        let generation = slot.generation;
        std::thread::spawn(move || reader_loop(&up, read_half, generation));
        return Ok(());
    }
    Err(format!("shard {} unavailable", up.shard.index))
}

/// Pump one upstream connection's responses back to the client; on
/// disconnect, recover (reconnect + resend) if work is still pending.
fn reader_loop(up: &Arc<Upstream>, stream: TcpStream, my_generation: u64) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = line.trim_end();
                if trimmed.is_empty() {
                    continue;
                }
                let id = Json::parse(trimmed)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_u64));
                // Responses not in the pending table (duplicates from a
                // resend that had in fact executed) are dropped.
                if let Some(id) = id {
                    if up.pending.lock().unwrap().remove(&id).is_some() {
                        up.client.send_line(trimmed);
                        up.client.settle();
                    }
                }
            }
        }
    }
    {
        let mut slot = up.writer.lock().unwrap();
        if slot.generation == my_generation {
            slot.conn = None;
        }
    }
    if up.pending.lock().unwrap().is_empty() {
        return;
    }
    if up.shutting_down.load(Ordering::SeqCst) || up.closed.load(Ordering::SeqCst) {
        fail_pending(up, "router shutting down");
        return;
    }
    // Worker crash with work in flight: reconnect and resend, unless a
    // concurrent forward() already did.
    let mut slot = up.writer.lock().unwrap();
    if slot.conn.is_some() {
        return;
    }
    if let Err(why) = connect_locked(up, &mut slot) {
        drop(slot);
        fail_pending(up, &why);
    }
}

/// Answer every pending line with a typed error so the client is never
/// left waiting on a shard that cannot come back.
fn fail_pending(up: &Arc<Upstream>, why: &str) {
    let ids: Vec<u64> = up
        .pending
        .lock()
        .unwrap()
        .drain()
        .map(|(id, _)| id)
        .collect();
    for id in ids {
        let msg = format!("shard {}: {why}", up.shard.index);
        up.client.send_line(error_line(id, &msg));
        up.client.settle();
    }
}

struct Router {
    shards: Vec<Arc<Shard>>,
    shutting_down: Arc<AtomicBool>,
    listen_addr: SocketAddr,
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Router {
    /// Broadcast shutdown to the workers (each snapshots its tenants
    /// and exits), then unblock every client reader and the accept loop.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            let addr = shard.state.lock().unwrap().addr;
            if let Some(addr) = addr {
                if let Ok(mut s) = connect_upstream(addr) {
                    let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
                }
            }
        }
        for stream in self.live.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.listen_addr);
    }

    fn stats_doc(&self) -> Json {
        let total: u64 = self
            .shards
            .iter()
            .map(|s| s.forwarded.load(Ordering::Relaxed))
            .sum();
        Json::Obj(vec![
            ("forwarded".to_string(), Json::Num(total as f64)),
            (
                "shards".to_string(),
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            let st = s.state.lock().unwrap();
                            Json::Obj(vec![
                                ("shard".to_string(), Json::Num(s.index as f64)),
                                (
                                    "addr".to_string(),
                                    st.addr
                                        .map(|a| Json::Str(a.to_string()))
                                        .unwrap_or(Json::Null),
                                ),
                                ("generation".to_string(), Json::Num(st.generation as f64)),
                                (
                                    "forwarded".to_string(),
                                    Json::Num(s.forwarded.load(Ordering::Relaxed) as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn error_line(id: u64, msg: &str) -> Json {
    Json::Obj(vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("status".to_string(), Json::Str("error".to_string())),
        ("error".to_string(), Json::Str(msg.to_string())),
    ])
}

/// Ensure the request carries `id`, rewriting or inserting as needed.
fn with_id(mut value: Json, id: u64) -> Json {
    if let Json::Obj(fields) = &mut value {
        for (key, val) in fields.iter_mut() {
            if key == "id" {
                *val = Json::Num(id as f64);
                return value;
            }
        }
        fields.insert(0, ("id".to_string(), Json::Num(id as f64)));
    }
    value
}

fn handle_client(router: &Arc<Router>, conn_id: u64, stream: TcpStream) {
    let out = match stream.try_clone() {
        Ok(w) => Arc::new(ClientOut {
            stream: Mutex::new(LineOut::new(w)),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
        }),
        Err(_) => return,
    };
    let mut upstreams: Vec<Option<Arc<Upstream>>> =
        (0..router.shards.len()).map(|_| None).collect();
    let mut reader = BufReader::new(stream);
    let mut auto_seq: u64 = 0;
    loop {
        let mut auto_id = || {
            auto_seq += 1;
            AUTO_ID_BASE + conn_id * 1_000_000 + auto_seq
        };
        let line = match read_request_line(&mut reader) {
            Ok(RawLine::Eof) | Err(_) => break,
            Ok(RawLine::Line(l)) => l,
            Ok(RawLine::Oversized { bytes }) => {
                out.send_line(error_line(
                    auto_id(),
                    &format!("request line exceeds {MAX_REQUEST_BYTES} bytes ({bytes} discarded)"),
                ));
                continue;
            }
            Ok(RawLine::NotUtf8) => {
                out.send_line(error_line(auto_id(), "request line is not valid UTF-8"));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let value = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                out.send_line(error_line(auto_id(), &format!("bad request: {e}")));
                continue;
            }
        };
        if !matches!(value, Json::Obj(_)) {
            out.send_line(error_line(auto_id(), "bad request: expected a JSON object"));
            continue;
        }
        match value.get("op").and_then(Json::as_str) {
            Some("shutdown") => {
                router.initiate_shutdown();
                break;
            }
            Some("stats") => {
                let id = value
                    .get("id")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(auto_id);
                let resp = Json::Obj(vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("status".to_string(), Json::Str("ok".to_string())),
                    (
                        "output".to_string(),
                        Json::Str(router.stats_doc().to_string()),
                    ),
                ]);
                out.send_line(resp);
                continue;
            }
            _ => {}
        }
        let tenant = value.get("tenant").and_then(Json::as_str).unwrap_or("");
        let shard_index = shard_for(tenant, router.shards.len());
        let (id, wire_line) = match value.get("id").and_then(Json::as_u64) {
            Some(id) => (id, line.trim_end().to_string()),
            None => {
                let id = auto_id();
                (id, with_id(value, id).to_string())
            }
        };
        let upstream = upstreams[shard_index].get_or_insert_with(|| {
            Arc::new(Upstream {
                shard: Arc::clone(&router.shards[shard_index]),
                writer: Mutex::new(WriterSlot::default()),
                pending: Mutex::new(HashMap::new()),
                client: Arc::clone(&out),
                shutting_down: Arc::clone(&router.shutting_down),
                closed: AtomicBool::new(false),
            })
        });
        forward(upstream, id, wire_line);
    }
    // Let in-flight work answer, then tear the channels down.
    out.wait_drained(Duration::from_secs(120));
    for upstream in upstreams.into_iter().flatten() {
        upstream.closed.store(true, Ordering::SeqCst);
        if let Some(conn) = upstream.writer.lock().unwrap().conn.take() {
            let _ = conn.get_ref().shutdown(Shutdown::Both);
        }
    }
    router.live.lock().unwrap().remove(&conn_id);
    let _ = out
        .stream
        .lock()
        .unwrap()
        .get_ref()
        .shutdown(Shutdown::Both);
}

/// Run the router on a pre-bound listener until a client sends
/// `{"op":"shutdown"}`. Prints `cqsep-router: listening on <addr>` to
/// stdout once the shard supervisors are started.
pub fn run_router(listener: TcpListener, opts: &RouterOpts) -> std::io::Result<()> {
    assert!(opts.shards >= 1, "need at least one shard");
    let listen_addr = listener.local_addr()?;
    let serve_bin = match &opts.serve_bin {
        Some(p) => p.clone(),
        None => {
            let me = std::env::current_exe()?;
            me.parent()
                .map(|d| d.join("cqsep-serve"))
                .unwrap_or_else(|| PathBuf::from("cqsep-serve"))
        }
    };
    let spec = WorkerSpec {
        bin: serve_bin,
        args: opts.worker_args.clone(),
        cache_dir: opts.cache_dir.clone(),
    };
    let shutting_down = Arc::new(AtomicBool::new(false));
    let shards: Vec<Arc<Shard>> = (0..opts.shards).map(|i| Arc::new(Shard::new(i))).collect();
    let supervisors: Vec<_> = shards
        .iter()
        .map(|shard| {
            let shard = Arc::clone(shard);
            let spec = spec.clone();
            let shutting_down = Arc::clone(&shutting_down);
            std::thread::spawn(move || supervise(shard, spec, shutting_down))
        })
        .collect();
    let router = Arc::new(Router {
        shards,
        shutting_down: Arc::clone(&shutting_down),
        listen_addr,
        live: Mutex::new(HashMap::new()),
    });
    println!("cqsep-router: listening on {listen_addr}");
    let _ = std::io::stdout().flush();

    let mut clients = Vec::new();
    let mut next_conn: u64 = 0;
    while let Some((stream, _)) = accept_conn(&listener, &shutting_down)? {
        next_conn += 1;
        let conn_id = next_conn;
        if let Ok(clone) = stream.try_clone() {
            router.live.lock().unwrap().insert(conn_id, clone);
        }
        let router = Arc::clone(&router);
        clients.push(std::thread::spawn(move || {
            handle_client(&router, conn_id, stream)
        }));
    }
    for c in clients {
        let _ = c.join();
    }
    for s in supervisors {
        let _ = s.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::CountingWriter;

    #[test]
    fn line_writer_sends_one_write_per_line_and_per_resend() {
        let mut out = LineOut::new(CountingWriter::default());
        out.send(error_line(7, "shard 0: gone")).unwrap();
        let mut pending = HashMap::new();
        for id in [12u64, 10, 11] {
            pending.insert(id, format!("{{\"id\":{id},\"task\":\"check\"}}"));
        }
        resend_pending(&mut out, &pending).unwrap();
        let writes: Vec<&str> = out
            .get_ref()
            .writes
            .iter()
            .map(|w| std::str::from_utf8(w).unwrap())
            .collect();
        assert_eq!(writes.len(), 2, "{writes:?}");
        assert_eq!(writes[0], format!("{}\n", error_line(7, "shard 0: gone")));
        assert_eq!(
            writes[1],
            "{\"id\":10,\"task\":\"check\"}\n\
             {\"id\":11,\"task\":\"check\"}\n\
             {\"id\":12,\"task\":\"check\"}\n"
        );
    }

    #[test]
    fn accepted_and_upstream_sockets_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let upstream = connect_upstream(addr).unwrap();
        assert!(upstream.nodelay().unwrap());
        let running = AtomicBool::new(false);
        let (accepted, _) = accept_conn(&listener, &running).unwrap().unwrap();
        assert!(accepted.nodelay().unwrap());
        // Once shutting down, the next accept (the wake-up) is refused.
        let _wake = TcpStream::connect(addr).unwrap();
        assert!(accept_conn(&listener, &AtomicBool::new(true))
            .unwrap()
            .is_none());
    }

    #[test]
    fn rendezvous_placement_is_stable_and_spread() {
        // Stable: the same tenant maps to the same shard every time.
        for tenant in ["", "acme", "t0", "t15", "a-very-long-tenant-name.x"] {
            assert_eq!(shard_for(tenant, 4), shard_for(tenant, 4));
        }
        // Spread: 64 tenants over 4 shards touch every shard.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[shard_for(&format!("tenant-{i}"), 4)] = true;
        }
        assert!(hit.iter().all(|h| *h), "{hit:?}");
        // Monotone-ish: growing the pool only moves tenants to the new
        // shard, never between old shards (the rendezvous property).
        for i in 0..64 {
            let t = format!("tenant-{i}");
            let before = shard_for(&t, 3);
            let after = shard_for(&t, 4);
            assert!(after == before || after == 3, "{t}: {before} -> {after}");
        }
    }

    #[test]
    fn with_id_rewrites_or_inserts() {
        let v = Json::parse(r#"{"id":7,"task":"check"}"#).unwrap();
        let w = with_id(v, 42);
        assert_eq!(w.get("id").and_then(Json::as_u64), Some(42));
        let v = Json::parse(r#"{"task":"check"}"#).unwrap();
        let w = with_id(v, 9);
        assert_eq!(w.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(w.get("task").and_then(Json::as_str), Some("check"));
    }
}
