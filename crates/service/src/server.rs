//! The `cqsep-serve` protocol: newline-delimited JSON requests in,
//! newline-delimited JSON responses out, over any `BufRead`/`Write`
//! pair (stdin/stdout, a Unix socket connection, a TCP connection, or
//! an in-memory buffer in the test suite).
//!
//! # Requests (one JSON object per line)
//!
//! ```text
//! {"id":1,"task":"check","train":"rel E/2\n…","classes":["cq","ghw1"]}
//! {"id":2,"task":"train","train_path":"t.db","class":"cqm2"}
//! {"id":3,"task":"classify","train":"…","eval":"…","class":"ghw1","timeout_secs":1.0}
//! {"id":6,"task":"classify-batch","train":"…","eval":"…","class":"cqm2"}
//! {"id":4,"task":"relabel","train":"…","k":1,"priority":5}
//! {"id":5,"task":"evaluate","train":"…","test":"…","methods":["cqm2","ghw1"],"fit_timeout_secs":2.0}
//! {"id":7,"task":"append","name":"t","base":"rel E/2\n…","delta":"add-fact E(c,d)\nadd-entity d -\n"}
//! {"id":8,"task":"append","name":"t","delta":"add-fact E(d,e)\nadd-entity e -\n","tenant":"acme"}
//! {"id":9,"task":"recheck","name":"t","classes":["cq","cqm2"],"tenant":"acme"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Databases come inline (`train`, `eval`, `test`: spec-format text) or
//! by path (`train_path`, `eval_path`, `test_path`: read server-side).
//! `append`/`recheck` address *resident* databases by `name` (see the
//! module docs of [`crate::task`]). An optional `tenant` field routes
//! the request to that tenant's private engine and resident registry
//! (see [`crate::tenant`]); requests without one share the default
//! tenant. `id` defaults to a per-connection counter, `timeout_secs`
//! to the server's default budget, `priority` to 0 (higher runs first,
//! with aging — see [`crate::queue`]). An `evaluate` request may bound
//! each individual fit with `fit_timeout_secs`; `methods` defaults to
//! the [`DEFAULT_EVALUATE_METHODS`](crate::task::DEFAULT_EVALUATE_METHODS)
//! sweep when absent.
//!
//! Request lines are size-capped at [`MAX_REQUEST_BYTES`]: an oversized
//! or non-UTF-8 line yields a typed `error` response (the remainder of
//! the line is discarded to resynchronize) and serving continues.
//!
//! `{"op":"stats"}` answers immediately — without queueing — with a
//! snapshot of the server's counters as a JSON document in the
//! response's `output` field: connections (total/live), pool totals
//! (executed/ok/interrupted/failed/queue depth), tenant-registry state
//! (resident/evictions/warm restores/restored entries), and the
//! per-tenant fair-share ledger.
//!
//! # Responses (one JSON object per line, in completion order)
//!
//! ```text
//! {"id":1,"status":"ok","elapsed_s":0.004,"output":"…"}
//! {"id":2,"status":"ok","elapsed_s":0.1,"output":"…","model":"…"}
//! {"id":3,"status":"interrupted","reason":"deadline exceeded","elapsed_s":1.0,"stats":"…"}
//! {"id":4,"status":"error","error":"…"}
//! ```
//!
//! With more than one worker, responses interleave across jobs —
//! correlate by `id`. End of input drains gracefully (queued jobs still
//! run); `{"op":"shutdown"}` is the cancelling path: queued jobs are
//! reported as `interrupted`/`cancelled` without running, in-flight
//! solvers are tripped via their [`Ctx`](engine::Ctx) handles and
//! unwind at their next cancellation check. Over TCP ([`serve_tcp`])
//! a shutdown additionally stops the accept loop and drains every live
//! connection. Every carrier ([`serve`], `serve_unix`, [`serve_tcp`])
//! runs against one [`TenantRegistry`] and snapshots all its resident
//! tenants to the cache directory before returning.

use crate::json::Json;
use crate::pool::{Job, Pool, Response};
use crate::task::{ClassSpec, Outcome, Task};
use crate::tenant::{validate_tenant_id, TenantRegistry};
use cqsep::generalize::FitMethod;
use std::fmt::Display;
use std::io::{BufRead, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Hard cap on one request line (bytes, newline included). Inline
/// databases are text, so the cap is generous; anything past it is a
/// protocol error, not a memory commitment.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024 * 1024;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Worker threads sharing the tenant registry.
    pub workers: usize,
    /// Bounded queue capacity (backpressure past this).
    pub queue_cap: usize,
    /// Budget applied to requests that carry no `timeout_secs`.
    pub default_timeout: Option<Duration>,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            workers: 2,
            queue_cap: 64,
            default_timeout: None,
        }
    }
}

/// What one connection processed, for callers that loop (the accept
/// loops) or assert (the test suite).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Responses written, by status.
    pub ok: usize,
    pub interrupted: usize,
    pub failed: usize,
    /// A `{"op":"shutdown"}` line was received: the whole server (not
    /// just this connection) should stop.
    pub shutdown_requested: bool,
}

impl ServeSummary {
    pub fn total(&self) -> usize {
        self.ok + self.interrupted + self.failed
    }
}

/// What one [`serve_tcp`] run processed across all connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpSummary {
    /// Connections accepted over the listener's lifetime.
    pub connections: u64,
    /// Responses written across all connections, by status.
    pub ok: usize,
    pub interrupted: usize,
    pub failed: usize,
    pub shutdown_requested: bool,
}

/// Live connection gauges shared by every connection of one server.
#[derive(Debug, Default)]
struct ServerStats {
    connections_total: AtomicU64,
    connections_live: AtomicU64,
}

enum Line {
    Job(Job),
    Shutdown,
    Stats { id: u64 },
}

/// One bounded read from the wire (see [`MAX_REQUEST_BYTES`]).
pub(crate) enum RawLine {
    Eof,
    Line(String),
    /// The line exceeded the cap; `bytes` were discarded up to the next
    /// newline (or EOF) to resynchronize the stream.
    Oversized {
        bytes: usize,
    },
    NotUtf8,
}

/// Read one `\n`-terminated request line without ever buffering more
/// than [`MAX_REQUEST_BYTES`] + one block of it.
pub(crate) fn read_request_line<R: BufRead>(reader: &mut R) -> std::io::Result<RawLine> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take((MAX_REQUEST_BYTES + 1) as u64)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(RawLine::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > MAX_REQUEST_BYTES {
        let mut discarded = buf.len();
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    reader.consume(i + 1);
                    discarded += i + 1;
                    break;
                }
                None => {
                    let len = chunk.len();
                    reader.consume(len);
                    discarded += len;
                }
            }
        }
        return Ok(RawLine::Oversized { bytes: discarded });
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(RawLine::Line(s)),
        Err(_) => Ok(RawLine::NotUtf8),
    }
}

/// The write half of one NDJSON connection. Each line is rendered into
/// one reused buffer, terminated with `\n`, and sent with a single
/// `write_all`. A line split over several small writes (the `Display`
/// of a [`Json`] writes token by token) meets Nagle's algorithm on a
/// TCP socket: the tail waits for the peer's delayed ACK, about 40 ms
/// per hop on a request/response protocol.
pub(crate) struct LineOut<W> {
    writer: W,
    buf: String,
}

impl<W: Write> LineOut<W> {
    pub(crate) fn new(writer: W) -> LineOut<W> {
        LineOut {
            writer,
            buf: String::new(),
        }
    }

    /// Send one line.
    pub(crate) fn send(&mut self, line: impl Display) -> std::io::Result<()> {
        self.send_all(std::iter::once(line))
    }

    /// Send several lines, in order, as one buffer.
    pub(crate) fn send_all<T: Display>(
        &mut self,
        lines: impl IntoIterator<Item = T>,
    ) -> std::io::Result<()> {
        use std::fmt::Write as _;
        self.buf.clear();
        for line in lines {
            // Formatting into a `String` cannot fail.
            let _ = writeln!(self.buf, "{line}");
        }
        self.writer.write_all(self.buf.as_bytes())
    }

    pub(crate) fn get_ref(&self) -> &W {
        &self.writer
    }
}

/// The next connection of an accept loop, with `TCP_NODELAY` set (see
/// [`LineOut`]). `Ok(None)` once `shutting_down` is set: the accept that
/// returns then is the shutdown's wake-up connection (or a raced
/// client), which is refused.
pub(crate) fn accept_conn(
    listener: &TcpListener,
    shutting_down: &AtomicBool,
) -> std::io::Result<Option<(TcpStream, SocketAddr)>> {
    let accepted = listener.accept();
    if shutting_down.load(Ordering::SeqCst) {
        return Ok(None);
    }
    let (stream, peer) = accepted?;
    // A socket that refuses the option still serves, only slower.
    let _ = stream.set_nodelay(true);
    Ok(Some((stream, peer)))
}

/// Serve one connection (stdin/stdout, a socket, an in-memory buffer)
/// on a fresh pool over `tenants`: read requests until EOF or shutdown,
/// write one response per job in completion order, then snapshot every
/// resident tenant to the registry's cache directory. See the module
/// docs for the wire format.
pub fn serve<R, W>(
    tenants: Arc<TenantRegistry>,
    reader: R,
    writer: W,
    opts: &ServeOpts,
) -> std::io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    let pool = Pool::with_tenants(Arc::clone(&tenants), opts.workers, opts.queue_cap);
    let summary = serve_conn(&pool, reader, writer, opts, None);
    finish(&pool, &tenants);
    summary
}

/// Wind a server down: join the pool's workers once the backlog drains
/// (a shutdown op already ran the cancelling close inside
/// [`serve_conn`]), then snapshot every resident tenant.
fn finish(pool: &Pool, tenants: &TenantRegistry) {
    pool.close();
    pool.join();
    match tenants.snapshot_all() {
        Ok(saved) if saved > 0 => {
            eprintln!("cqsep-serve: snapshotted {saved} tenant(s) on shutdown")
        }
        Ok(_) => {}
        Err(e) => eprintln!("cqsep-serve: shutdown snapshot failed: {e}"),
    }
}

/// Serve one connection against a shared pool. On a shutdown op this
/// runs the pool's cancelling close (so this connection's queued jobs
/// resolve and every other connection's submit fails fast) but leaves
/// joining the workers to the caller.
fn serve_conn<R, W>(
    pool: &Pool,
    mut reader: R,
    writer: W,
    opts: &ServeOpts,
    server: Option<&ServerStats>,
) -> std::io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    let (tx, rx) = mpsc::channel::<Response>();
    std::thread::scope(|s| {
        let writer_handle = s.spawn(move || write_responses(writer, rx));
        let mut next_id: u64 = 0;
        let mut shutdown = false;
        let mut read_error = None;
        loop {
            let line = match read_request_line(&mut reader) {
                Ok(RawLine::Eof) => break,
                Ok(RawLine::Line(l)) => l,
                Ok(RawLine::Oversized { bytes }) => {
                    next_id += 1;
                    let _ = tx.send(Response {
                        id: next_id,
                        outcome: Outcome::Failed(format!(
                            "request line exceeds {MAX_REQUEST_BYTES} bytes ({bytes} discarded)"
                        )),
                        elapsed: Duration::ZERO,
                    });
                    continue;
                }
                Ok(RawLine::NotUtf8) => {
                    next_id += 1;
                    let _ = tx.send(Response {
                        id: next_id,
                        outcome: Outcome::Failed("request line is not valid UTF-8".to_string()),
                        elapsed: Duration::ZERO,
                    });
                    continue;
                }
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            next_id += 1;
            match parse_request(&line, next_id, opts) {
                Ok(Line::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Ok(Line::Stats { id }) => {
                    let _ = tx.send(Response {
                        id,
                        outcome: Outcome::Success(crate::task::TaskOutput {
                            output: render_stats(pool, server).to_string(),
                            model: None,
                        }),
                        elapsed: Duration::ZERO,
                    });
                }
                Ok(Line::Job(job)) => {
                    if pool.submit(job, tx.clone()).is_err() {
                        break;
                    }
                }
                Err((id, msg)) => {
                    let _ = tx.send(Response {
                        id,
                        outcome: Outcome::Failed(msg),
                        elapsed: Duration::ZERO,
                    });
                }
            }
        }
        if shutdown {
            // Resolve queued jobs (ours and everyone else's) as
            // cancelled so every connection's writer can finish.
            pool.cancel_all();
        }
        // Drop our sender so the writer loop terminates once every
        // worker-held clone is gone too.
        drop(tx);
        let mut summary = writer_handle.join().expect("writer thread panicked")?;
        summary.shutdown_requested = shutdown;
        match read_error {
            Some(e) => Err(e),
            None => Ok(summary),
        }
    })
}

/// Accept loop over a Unix domain socket: one connection at a time, all
/// sharing one worker pool and one tenant registry (memo tables and
/// resident databases persist across connections). A
/// `{"op":"shutdown"}` on any connection stops the loop; the socket file
/// is removed and every resident tenant snapshotted on the way out.
#[cfg(unix)]
pub fn serve_unix(
    tenants: Arc<TenantRegistry>,
    path: &std::path::Path,
    opts: &ServeOpts,
) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    let pool = Pool::with_tenants(Arc::clone(&tenants), opts.workers, opts.queue_cap);
    let served = (|| -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let reader = std::io::BufReader::new(stream.try_clone()?);
            if serve_conn(&pool, reader, stream, opts, None)?.shutdown_requested {
                break;
            }
        }
        Ok(())
    })();
    finish(&pool, &tenants);
    let _ = std::fs::remove_file(path);
    served
}

/// TCP accept loop: concurrent connections, each served on its own
/// thread, all sharing one worker pool and one tenant registry (one
/// queue — scheduling is global, memo tables are per tenant). A
/// `{"op":"shutdown"}` on any connection stops the accept loop, shuts
/// down every live connection's stream (their readers see EOF and
/// drain), joins everything, and snapshots all resident tenants to the
/// registry's cache directory. Connection-level stats go to stderr on
/// close and aggregate into the returned [`TcpSummary`].
pub fn serve_tcp(
    tenants: Arc<TenantRegistry>,
    listener: TcpListener,
    opts: &ServeOpts,
) -> std::io::Result<TcpSummary> {
    let addr = listener.local_addr()?;
    let pool = Arc::new(Pool::with_tenants(
        Arc::clone(&tenants),
        opts.workers,
        opts.queue_cap,
    ));
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let live: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    let totals = Arc::new(Mutex::new(TcpSummary::default()));
    let mut conn_threads = Vec::new();

    while let Some((stream, peer)) = accept_conn(&listener, &shutdown)? {
        let conn_id = stats.connections_total.fetch_add(1, Ordering::SeqCst);
        stats.connections_live.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            live.lock().unwrap().insert(conn_id, clone);
        }
        let pool = Arc::clone(&pool);
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        let live = Arc::clone(&live);
        let totals = Arc::clone(&totals);
        let opts = opts.clone();
        conn_threads.push(std::thread::spawn(move || {
            let result = stream
                .try_clone()
                .map(std::io::BufReader::new)
                .and_then(|reader| serve_conn(&pool, reader, &stream, &opts, Some(&stats)));
            live.lock().unwrap().remove(&conn_id);
            stats.connections_live.fetch_sub(1, Ordering::SeqCst);
            let summary = match result {
                Ok(summary) => summary,
                Err(e) => {
                    eprintln!("cqsep-serve: connection {conn_id} ({peer}): {e}");
                    return;
                }
            };
            eprintln!(
                "cqsep-serve: connection {conn_id} ({peer}) closed: {} ok, {} interrupted, {} error{}",
                summary.ok,
                summary.interrupted,
                summary.failed,
                if summary.shutdown_requested {
                    "; shutdown requested"
                } else {
                    ""
                }
            );
            {
                let mut t = totals.lock().unwrap();
                t.ok += summary.ok;
                t.interrupted += summary.interrupted;
                t.failed += summary.failed;
                t.shutdown_requested |= summary.shutdown_requested;
            }
            if summary.shutdown_requested && !shutdown.swap(true, Ordering::SeqCst) {
                // Unblock every other connection's reader, then the
                // accept loop. The pool's cancelling close already ran
                // inside serve_conn.
                for (_, s) in live.lock().unwrap().iter() {
                    let _ = s.shutdown(Shutdown::Both);
                }
                let _ = TcpStream::connect(addr);
            }
        }));
    }

    for t in conn_threads {
        let _ = t.join();
    }
    finish(&pool, &tenants);
    let mut summary = *totals.lock().unwrap();
    summary.connections = stats.connections_total.load(Ordering::SeqCst);
    Ok(summary)
}

/// Write each response as one line (one `write_all`, see [`LineOut`]),
/// in completion order. The flush only matters for a buffered `W`.
fn write_responses<W: Write>(
    writer: W,
    rx: mpsc::Receiver<Response>,
) -> std::io::Result<ServeSummary> {
    let mut out = LineOut::new(writer);
    let mut summary = ServeSummary::default();
    for resp in rx {
        match &resp.outcome {
            Outcome::Success(_) => summary.ok += 1,
            Outcome::Interrupted(_) => summary.interrupted += 1,
            Outcome::Failed(_) => summary.failed += 1,
        }
        out.send(render_response(resp))?;
        out.writer.flush()?;
    }
    Ok(summary)
}

fn render_response(resp: Response) -> Json {
    let mut fields = vec![("id".to_string(), Json::Num(resp.id as f64))];
    let elapsed = (
        "elapsed_s".to_string(),
        Json::Num((resp.elapsed.as_secs_f64() * 1e6).round() / 1e6),
    );
    match resp.outcome {
        Outcome::Success(out) => {
            fields.push(("status".to_string(), Json::Str("ok".to_string())));
            fields.push(elapsed);
            fields.push(("output".to_string(), Json::Str(out.output)));
            if let Some(model) = out.model {
                fields.push(("model".to_string(), Json::Str(model)));
            }
        }
        Outcome::Interrupted(i) => {
            fields.push(("status".to_string(), Json::Str("interrupted".to_string())));
            fields.push(("reason".to_string(), Json::Str(i.reason.to_string())));
            fields.push(elapsed);
            fields.push(("stats".to_string(), Json::Str(i.partial_stats.report())));
        }
        Outcome::Failed(msg) => {
            fields.push(("status".to_string(), Json::Str("error".to_string())));
            fields.push(("error".to_string(), Json::Str(msg)));
        }
    }
    Json::Obj(fields)
}

/// The `{"op":"stats"}` document (serialized into the response's
/// `output` field).
fn render_stats(pool: &Pool, server: Option<&ServerStats>) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let counters = pool.counters();
    let tenants = pool.tenants();
    let mut fields = Vec::new();
    if let Some(s) = server {
        fields.push((
            "connections".to_string(),
            Json::Obj(vec![
                (
                    "total".to_string(),
                    num(s.connections_total.load(Ordering::SeqCst)),
                ),
                (
                    "live".to_string(),
                    num(s.connections_live.load(Ordering::SeqCst)),
                ),
            ]),
        ));
    }
    fields.push((
        "pool".to_string(),
        Json::Obj(vec![
            (
                "executed".to_string(),
                num(counters.executed.load(Ordering::Relaxed)),
            ),
            ("ok".to_string(), num(counters.ok.load(Ordering::Relaxed))),
            (
                "interrupted".to_string(),
                num(counters.interrupted.load(Ordering::Relaxed)),
            ),
            (
                "failed".to_string(),
                num(counters.failed.load(Ordering::Relaxed)),
            ),
            ("queue_depth".to_string(), num(pool.queue_depth() as u64)),
        ]),
    ));
    fields.push((
        "tenants".to_string(),
        Json::Obj(vec![
            (
                "resident".to_string(),
                num(tenants.resident_tenants() as u64),
            ),
            ("evictions".to_string(), num(tenants.evictions())),
            ("warm_restores".to_string(), num(tenants.warm_restores())),
            (
                "restored_entries".to_string(),
                num(tenants.restored_entries()),
            ),
        ]),
    ));
    fields.push((
        "fair_share".to_string(),
        Json::Arr(
            pool.fair_share()
                .snapshot()
                .into_iter()
                .map(|(tenant, bill)| {
                    Json::Obj(vec![
                        ("tenant".to_string(), Json::Str(tenant)),
                        ("jobs".to_string(), num(bill.jobs)),
                        ("cost".to_string(), num(bill.cost)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

fn parse_request(line: &str, auto_id: u64, opts: &ServeOpts) -> Result<Line, (u64, String)> {
    let value = Json::parse(line).map_err(|e| (auto_id, format!("bad request: {e}")))?;
    if let Some(op) = value.get("op").and_then(Json::as_str) {
        return match op {
            "shutdown" => Ok(Line::Shutdown),
            "stats" => Ok(Line::Stats {
                id: value.get("id").and_then(Json::as_u64).unwrap_or(auto_id),
            }),
            other => Err((auto_id, format!("unknown op {other:?}"))),
        };
    }
    let id = value.get("id").and_then(Json::as_u64).unwrap_or(auto_id);
    let fail = |msg: String| (id, msg);
    let verb = value
        .get("task")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("request needs a \"task\" verb".to_string()))?;

    let text_field = |inline: &str, path: &str| -> Result<String, (u64, String)> {
        if let Some(text) = value.get(inline).and_then(Json::as_str) {
            return Ok(text.to_string());
        }
        if let Some(p) = value.get(path).and_then(Json::as_str) {
            return std::fs::read_to_string(p).map_err(|e| fail(format!("cannot read {p}: {e}")));
        }
        Err(fail(format!(
            "{verb} needs {inline:?} (inline text) or {path:?} (server-side file)"
        )))
    };
    let class_field = || -> Result<ClassSpec, (u64, String)> {
        match value.get("class").and_then(Json::as_str) {
            Some(s) => ClassSpec::parse(s).map_err(fail),
            None => Ok(ClassSpec::Cqm(2)),
        }
    };

    let classes_field = || -> Result<Vec<ClassSpec>, (u64, String)> {
        let mut classes = Vec::new();
        if let Some(list) = value.get("classes").and_then(Json::as_array) {
            for item in list {
                let s = item
                    .as_str()
                    .ok_or_else(|| fail("\"classes\" must hold strings".to_string()))?;
                classes.push(ClassSpec::parse(s).map_err(fail)?);
            }
        }
        Ok(classes)
    };
    let name_field = || -> Result<String, (u64, String)> {
        value
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| fail(format!("{verb} needs a \"name\" (resident database)")))
    };

    let task = match verb {
        "check" => Task::Check {
            train: text_field("train", "train_path")?,
            classes: classes_field()?,
        },
        "train" => Task::Train {
            train: text_field("train", "train_path")?,
            class: class_field()?,
        },
        "classify" => Task::Classify {
            train: text_field("train", "train_path")?,
            eval: text_field("eval", "eval_path")?,
            class: class_field()?,
        },
        "classify-batch" => Task::ClassifyBatch {
            train: text_field("train", "train_path")?,
            eval: text_field("eval", "eval_path")?,
            class: class_field()?,
        },
        "relabel" => {
            let name = value.get("name").and_then(Json::as_str).map(str::to_string);
            let train = match &name {
                // Resident-addressed: no database text travels.
                Some(_) => String::new(),
                None => text_field("train", "train_path")?,
            };
            Task::Relabel {
                train,
                k: match value.get("k") {
                    None => 1,
                    Some(v) => v
                        .as_u64()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| fail("\"k\" must be an integer ≥ 1".to_string()))?
                        as usize,
                },
                name,
            }
        }
        "append" => {
            let base = if value.get("base").is_some() || value.get("base_path").is_some() {
                Some(text_field("base", "base_path")?)
            } else {
                None
            };
            Task::Append {
                name: name_field()?,
                base,
                delta: text_field("delta", "delta_path")?,
            }
        }
        "recheck" => Task::Recheck {
            name: name_field()?,
            classes: classes_field()?,
        },
        "evaluate" => {
            let mut methods = Vec::new();
            if let Some(list) = value.get("methods").and_then(Json::as_array) {
                for item in list {
                    let s = item
                        .as_str()
                        .ok_or_else(|| fail("\"methods\" must hold strings".to_string()))?;
                    methods.push(FitMethod::parse(s).map_err(fail)?);
                }
            }
            let fit_timeout = match value.get("fit_timeout_secs") {
                None => None,
                Some(v) => {
                    // try_from: from_secs_f64 panics past u64::MAX secs.
                    let secs = v.as_f64().and_then(|s| Duration::try_from_secs_f64(s).ok());
                    Some(secs.ok_or_else(|| {
                        fail("\"fit_timeout_secs\" must be a non-negative number".to_string())
                    })?)
                }
            };
            Task::Evaluate {
                train: text_field("train", "train_path")?,
                test: text_field("test", "test_path")?,
                methods,
                fit_timeout,
            }
        }
        other => return Err(fail(format!("unknown task {other:?}"))),
    };

    let timeout = match value.get("timeout_secs") {
        None => opts.default_timeout,
        Some(v) => {
            // try_from: from_secs_f64 panics past u64::MAX secs.
            let secs = v.as_f64().and_then(|s| Duration::try_from_secs_f64(s).ok());
            Some(secs.ok_or_else(|| {
                fail("\"timeout_secs\" must be a non-negative number".to_string())
            })?)
        }
    };
    let priority = match value.get("priority") {
        None => 0,
        Some(v) => v
            .as_i64()
            .ok_or_else(|| fail("\"priority\" must be an integer".to_string()))?,
    };
    let tenant = match value.get("tenant") {
        None => None,
        Some(v) => {
            let id = v
                .as_str()
                .ok_or_else(|| fail("\"tenant\" must be a string".to_string()))?;
            validate_tenant_id(id).map_err(fail)?;
            Some(id.to_string())
        }
    };

    Ok(Line::Job(Job {
        id,
        task,
        timeout,
        priority,
        tenant,
    }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tenant::TenantConfig;

    /// A `Write` that records the bytes of every `write` call.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_line_is_one_write() {
        let labels: String = (0..600).map(|i| format!("e{i} +\n")).collect();
        let batch_output = format!(
            "{labels}# compiled: 3 features -> 2 cores, 5 trie nodes\n# batch: 600 entities\n"
        );
        assert!(batch_output.len() > 4096);
        let outcomes = vec![
            Outcome::Success(crate::task::TaskOutput {
                output: "CQ-separable: true\n".to_string(),
                model: None,
            }),
            Outcome::Success(crate::task::TaskOutput {
                output: batch_output.clone(),
                model: None,
            }),
            Outcome::Interrupted(engine::Interrupted {
                reason: engine::Reason::Deadline,
                partial_stats: Box::default(),
            }),
            Outcome::Failed("bad request: expected a JSON object".to_string()),
        ];
        let (tx, rx) = mpsc::channel();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            tx.send(Response {
                id: i as u64 + 1,
                outcome,
                elapsed: Duration::from_millis(3),
            })
            .unwrap();
        }
        drop(tx);
        let mut out = CountingWriter::default();
        let summary = write_responses(&mut out, rx).unwrap();
        assert_eq!((summary.ok, summary.interrupted, summary.failed), (2, 1, 1));
        assert_eq!(out.writes.len(), 4, "one write per response line");
        let statuses = ["ok", "ok", "interrupted", "error"];
        for (i, write) in out.writes.iter().enumerate() {
            let text = std::str::from_utf8(write).unwrap();
            assert!(text.ends_with('\n'), "line {i} is unterminated");
            assert_eq!(text.matches('\n').count(), 1, "line {i} is not one line");
            let resp = Json::parse(text.trim_end()).unwrap();
            assert_eq!(resp.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
            assert_eq!(resp.get("status").and_then(Json::as_str), Some(statuses[i]));
        }
        let batch = Json::parse(std::str::from_utf8(&out.writes[1]).unwrap().trim_end()).unwrap();
        assert_eq!(
            batch.get("output").and_then(Json::as_str),
            Some(batch_output.as_str())
        );
    }

    const TRAIN: &str = "rel E/2\nfact E(a,b)\nfact E(b,c)\nentity a +\nentity b +\nentity c -\n";
    const EVAL: &str = "rel E/2\nfact E(u,v)\nentity u\nentity v\n";

    /// A registry of the default configuration: no cache directory.
    fn registry() -> Arc<TenantRegistry> {
        Arc::new(TenantRegistry::new(TenantConfig::default()))
    }

    fn run_lines(lines: &[String], opts: &ServeOpts) -> (Vec<Json>, ServeSummary) {
        serve_lines(registry(), lines, opts)
    }

    fn serve_lines(
        tenants: Arc<TenantRegistry>,
        lines: &[String],
        opts: &ServeOpts,
    ) -> (Vec<Json>, ServeSummary) {
        let input = lines.join("\n");
        let mut output = Vec::new();
        let summary = serve(tenants, input.as_bytes(), &mut output, opts).unwrap();
        let responses = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        (responses, summary)
    }

    fn req(fields: &[(&str, Json)]) -> String {
        Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
        .to_string()
    }

    fn status_of(responses: &[Json], id: u64) -> String {
        responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no response with id {id}"))
            .to_string()
    }

    #[test]
    fn batch_of_mixed_tasks_round_trips() {
        let lines = vec![
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                (
                    "classes",
                    Json::Arr(vec![
                        Json::Str("cq".to_string()),
                        Json::Str("ghw1".to_string()),
                    ]),
                ),
            ]),
            req(&[
                ("id", Json::Num(2.0)),
                ("task", Json::Str("classify".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("eval", Json::Str(EVAL.to_string())),
                ("class", Json::Str("ghw1".to_string())),
            ]),
            req(&[
                ("id", Json::Num(3.0)),
                ("task", Json::Str("train".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("class", Json::Str("cqm1".to_string())),
            ]),
        ];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.ok, 3, "{responses:?}");
        assert_eq!(summary.total(), 3);
        assert!(!summary.shutdown_requested);
        assert_eq!(status_of(&responses, 1), "ok");
        assert_eq!(status_of(&responses, 2), "ok");
        assert_eq!(status_of(&responses, 3), "ok");
        let train_resp = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(3))
            .unwrap();
        assert!(
            train_resp.get("model").and_then(Json::as_str).is_some(),
            "train response carries the model text"
        );
    }

    #[test]
    fn classify_batch_request_reports_labels_and_stats() {
        let lines = vec![req(&[
            ("id", Json::Num(4.0)),
            ("task", Json::Str("classify-batch".to_string())),
            ("train", Json::Str(TRAIN.to_string())),
            ("eval", Json::Str(EVAL.to_string())),
            ("class", Json::Str("cqm1".to_string())),
        ])];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.ok, 1, "{responses:?}");
        assert_eq!(status_of(&responses, 4), "ok");
        let out = responses[0]
            .get("output")
            .and_then(Json::as_str)
            .expect("classify-batch carries an output");
        assert!(out.contains("u +"), "{out}");
        assert!(out.contains("v -"), "{out}");
        assert!(out.contains("# compiled: "), "{out}");
        assert!(out.contains("# batch: "), "{out}");
    }

    #[test]
    fn zero_timeout_reports_interrupted() {
        let lines = vec![req(&[
            ("id", Json::Num(7.0)),
            ("task", Json::Str("check".to_string())),
            ("train", Json::Str(TRAIN.to_string())),
            ("timeout_secs", Json::Num(0.0)),
        ])];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.interrupted, 1);
        assert_eq!(status_of(&responses, 7), "interrupted");
        let resp = &responses[0];
        assert_eq!(
            resp.get("reason").and_then(Json::as_str),
            Some("deadline exceeded")
        );
        assert!(resp.get("stats").and_then(Json::as_str).is_some());
    }

    #[test]
    fn evaluate_request_round_trips_with_methods_and_fit_timeout() {
        let test_db = "rel E/2\nfact E(t,u)\nfact E(u,v)\nentity t +\nentity u +\nentity v -\n";
        let lines = vec![
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("evaluate".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("test", Json::Str(test_db.to_string())),
                (
                    "methods",
                    Json::Arr(vec![
                        Json::Str("cqm1".to_string()),
                        Json::Str("minerr1".to_string()),
                    ]),
                ),
                ("fit_timeout_secs", Json::Num(30.0)),
            ]),
            // Malformed method spelling: error response, serving continues.
            req(&[
                ("id", Json::Num(2.0)),
                ("task", Json::Str("evaluate".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("test", Json::Str(test_db.to_string())),
                ("methods", Json::Arr(vec![Json::Str("cqm0".to_string())])),
            ]),
        ];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.ok, 1, "{responses:?}");
        assert_eq!(summary.failed, 1);
        assert_eq!(status_of(&responses, 1), "ok");
        let out = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(1))
            .and_then(|r| r.get("output"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(out.contains("CQ[1]"), "{out}");
        assert!(out.contains("MinErr[1]"), "{out}");
        let err = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(2))
            .and_then(|r| r.get("error"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(err.contains("bad method"), "{err}");
    }

    #[test]
    fn append_recheck_relabel_round_trip_on_one_connection() {
        // One worker so the jobs run in submission order: the recheck
        // must observe both appends.
        let opts = ServeOpts {
            workers: 1,
            ..ServeOpts::default()
        };
        let lines = vec![
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("append".to_string())),
                ("name", Json::Str("t".to_string())),
                ("base", Json::Str(TRAIN.to_string())),
                (
                    "delta",
                    Json::Str("add-fact E(c,d)\nadd-entity d -\n".to_string()),
                ),
            ]),
            req(&[
                ("id", Json::Num(2.0)),
                ("task", Json::Str("append".to_string())),
                ("name", Json::Str("t".to_string())),
                (
                    "delta",
                    Json::Str("add-fact E(d,e)\nadd-entity e -\n".to_string()),
                ),
            ]),
            req(&[
                ("id", Json::Num(3.0)),
                ("task", Json::Str("recheck".to_string())),
                ("name", Json::Str("t".to_string())),
                ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
            ]),
            req(&[
                ("id", Json::Num(4.0)),
                ("task", Json::Str("relabel".to_string())),
                ("name", Json::Str("t".to_string())),
                ("k", Json::Num(1.0)),
            ]),
            // Unknown resident: a domain failure, serving continues.
            req(&[
                ("id", Json::Num(5.0)),
                ("task", Json::Str("recheck".to_string())),
                ("name", Json::Str("ghost".to_string())),
            ]),
        ];
        let (responses, summary) = run_lines(&lines, &opts);
        assert_eq!(summary.ok, 4, "{responses:?}");
        assert_eq!(summary.failed, 1);
        let output_of = |id: u64| {
            responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
                .and_then(|r| r.get("output"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert!(
            output_of(1).contains("applied insert-only"),
            "{responses:?}"
        );
        assert!(output_of(2).contains("5 entities"), "{responses:?}");
        let recheck = output_of(3);
        assert!(recheck.contains("5 entities"), "{recheck}");
        assert!(recheck.contains("CQ-separable"), "{recheck}");
        let ghost = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(5))
            .and_then(|r| r.get("error"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(ghost.contains("no resident database"), "{ghost}");
    }

    #[test]
    fn malformed_lines_get_error_responses_and_serving_continues() {
        let lines = vec![
            "{not json".to_string(),
            req(&[
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("classes", Json::Arr(vec![Json::Str("ghw0".to_string())])),
            ]),
            req(&[
                ("id", Json::Num(5.0)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
            ]),
        ];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.failed, 2);
        assert_eq!(summary.ok, 1);
        assert_eq!(status_of(&responses, 5), "ok");
        // The unified ClassSpec message crosses the protocol verbatim.
        let class_err = responses
            .iter()
            .filter_map(|r| r.get("error").and_then(Json::as_str))
            .find(|e| e.contains("bad class"));
        assert_eq!(
            class_err,
            Some("bad class \"ghw0\" (expected cq, ghw<k≥1>, cqm<m≥1>)")
        );
    }

    #[test]
    fn shutdown_op_stops_reading_and_cancels() {
        let lines = vec![
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
            ]),
            "{\"op\":\"shutdown\"}".to_string(),
            // Past the shutdown line: must never be parsed or served.
            req(&[
                ("id", Json::Num(99.0)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
            ]),
        ];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert!(summary.shutdown_requested);
        assert!(
            responses
                .iter()
                .all(|r| r.get("id").and_then(Json::as_u64) != Some(99)),
            "lines after shutdown must be ignored: {responses:?}"
        );
        // Job 1 either completed or was cancelled; it got exactly one
        // response either way.
        assert_eq!(summary.total(), 1);
    }

    #[test]
    fn stats_op_reports_pool_and_tenant_counters() {
        let lines = vec![
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
                ("tenant", Json::Str("acme".to_string())),
            ]),
            "{\"op\":\"stats\",\"id\":50}".to_string(),
        ];
        // One worker so the stats line is answered after the job ran…
        // except stats never queues: it reads counters at arrival time.
        // Ordering is therefore not asserted beyond "both answered".
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.ok, 2, "{responses:?}");
        let stats_out = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(50))
            .and_then(|r| r.get("output"))
            .and_then(Json::as_str)
            .expect("stats response carries an output document");
        let doc = Json::parse(stats_out).expect("stats output is JSON");
        assert!(doc.get("pool").is_some(), "{stats_out}");
        assert!(doc.get("tenants").is_some(), "{stats_out}");
        assert!(doc.get("fair_share").is_some(), "{stats_out}");
    }

    #[test]
    fn tenant_requests_are_isolated_by_engine_and_residents() {
        // Same resident name, conflicting labels, two tenants: each
        // recheck must answer from its own tenant's resident.
        let opts = ServeOpts {
            workers: 1,
            ..ServeOpts::default()
        };
        let a_base = "rel E/2\nfact E(a,b)\nentity a +\nentity b -\n";
        let b_base = "rel E/2\nfact E(a,b)\nentity a -\nentity b +\n";
        let lines = vec![
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("append".to_string())),
                ("name", Json::Str("t".to_string())),
                ("base", Json::Str(a_base.to_string())),
                ("delta", Json::Str(String::new())),
                ("tenant", Json::Str("alpha".to_string())),
            ]),
            req(&[
                ("id", Json::Num(2.0)),
                ("task", Json::Str("append".to_string())),
                ("name", Json::Str("t".to_string())),
                ("base", Json::Str(b_base.to_string())),
                ("delta", Json::Str(String::new())),
                ("tenant", Json::Str("beta".to_string())),
            ]),
            req(&[
                ("id", Json::Num(3.0)),
                ("task", Json::Str("relabel".to_string())),
                ("name", Json::Str("t".to_string())),
                ("tenant", Json::Str("alpha".to_string())),
            ]),
            // No tenant: the default registry has no resident "t".
            req(&[
                ("id", Json::Num(4.0)),
                ("task", Json::Str("recheck".to_string())),
                ("name", Json::Str("t".to_string())),
            ]),
        ];
        let (responses, summary) = run_lines(&lines, &opts);
        assert_eq!(summary.ok, 3, "{responses:?}");
        assert_eq!(summary.failed, 1);
        let relabel_out = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(3))
            .and_then(|r| r.get("output"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(relabel_out.contains("a +"), "{relabel_out}");
        let ghost = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(4))
            .and_then(|r| r.get("error"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(
            ghost.contains("no resident database"),
            "default tenant must not see tenant residents: {ghost}"
        );
    }

    #[test]
    fn bad_tenant_ids_are_rejected_at_parse_time() {
        let lines = vec![req(&[
            ("id", Json::Num(1.0)),
            ("task", Json::Str("check".to_string())),
            ("train", Json::Str(TRAIN.to_string())),
            ("tenant", Json::Str("../../etc".to_string())),
        ])];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!(summary.failed, 1);
        let err = responses[0].get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains("bad tenant id"), "{err}");
    }

    #[test]
    fn hostile_specs_get_typed_errors_and_serving_continues() {
        let check = |id: f64, train: &str| {
            req(&[
                ("id", Json::Num(id)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(train.to_string())),
                ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
            ])
        };
        let lines = vec![
            check(1.0, "rel eta/1\nentity a +\n"),
            check(2.0, "rel E/0\nentity a +\n"),
            check(3.0, "rel E/2\nrel E/2\nentity a +\n"),
            check(4.0, TRAIN),
        ];
        let (responses, summary) = run_lines(&lines, &ServeOpts::default());
        assert_eq!((summary.failed, summary.ok), (3, 1));
        for (id, needle) in [
            (1, "reserved"),
            (2, "positive arity"),
            (3, "declared twice"),
        ] {
            assert_eq!(status_of(&responses, id), "error");
            let err = responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
                .and_then(|r| r.get("error"))
                .and_then(Json::as_str)
                .unwrap();
            assert!(err.contains("database spec error"), "{err}");
            assert!(err.contains(needle), "{err}");
        }
        assert_eq!(status_of(&responses, 4), "ok");
    }

    #[test]
    fn oversized_and_non_utf8_lines_get_typed_errors() {
        let mut input = Vec::new();
        // An oversized line: valid JSON prefix, then padding past the cap.
        input.extend_from_slice(b"{\"task\":\"check\",\"train\":\"");
        input.extend_from_slice(&vec![b'x'; MAX_REQUEST_BYTES]);
        input.extend_from_slice(b"\"}\n");
        // A non-UTF-8 line.
        input.extend_from_slice(&[0xFF, 0xFE, b'{', b'}', b'\n']);
        // A well-formed request: serving must have resynchronized.
        let good = req(&[
            ("id", Json::Num(9.0)),
            ("task", Json::Str("check".to_string())),
            ("train", Json::Str(TRAIN.to_string())),
            ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
        ]);
        input.extend_from_slice(good.as_bytes());
        input.push(b'\n');

        let mut output = Vec::new();
        let summary = serve(
            registry(),
            input.as_slice(),
            &mut output,
            &ServeOpts::default(),
        )
        .unwrap();
        assert_eq!(summary.failed, 2, "oversized + non-UTF-8");
        assert_eq!(summary.ok, 1);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("exceeds"), "{text}");
        assert!(text.contains("not valid UTF-8"), "{text}");
    }

    #[test]
    fn serve_restores_residents_from_the_cache_dir_of_an_earlier_run() {
        // Named after this test and process; removed on drop.
        struct CacheDir(std::path::PathBuf);
        impl Drop for CacheDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = CacheDir(std::env::temp_dir().join(format!(
            "cqsep_serve_restores_residents_{}",
            std::process::id()
        )));
        let run = |line: String| {
            let tenants = Arc::new(TenantRegistry::new(TenantConfig {
                cache_dir: Some(dir.0.clone()),
                ..TenantConfig::default()
            }));
            serve_lines(tenants, &[line], &ServeOpts::default()).0
        };
        let appended = run(req(&[
            ("id", Json::Num(1.0)),
            ("task", Json::Str("append".to_string())),
            ("name", Json::Str("t".to_string())),
            ("base", Json::Str(TRAIN.to_string())),
            (
                "delta",
                Json::Str("add-fact E(c,d)\nadd-entity d -\n".to_string()),
            ),
        ]));
        assert_eq!(status_of(&appended, 1), "ok", "{appended:?}");
        // A second server on the same cache dir finds the resident the
        // first one snapshotted on exit.
        let rechecked = run(req(&[
            ("id", Json::Num(2.0)),
            ("task", Json::Str("recheck".to_string())),
            ("name", Json::Str("t".to_string())),
            ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
        ]));
        assert_eq!(status_of(&rechecked, 2), "ok", "{rechecked:?}");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_a_connection() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        // Named after this test and process; removed on drop.
        struct SockDir(std::path::PathBuf);
        impl Drop for SockDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = SockDir(std::env::temp_dir().join(format!(
            "cqsep_unix_socket_serves_a_connection_{}",
            std::process::id()
        )));
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("serve.sock");
        let spath = path.clone();
        let server =
            std::thread::spawn(move || serve_unix(registry(), &spath, &ServeOpts::default()));
        // Wait for the socket to appear.
        let mut stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let request = req(&[
            ("id", Json::Num(1.0)),
            ("task", Json::Str("check".to_string())),
            ("train", Json::Str(TRAIN.to_string())),
            ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
        ]);
        writeln!(stream, "{request}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        let parsed = Json::parse(reply.trim()).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
        drop(stream);
        server.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file is removed on shutdown");
    }

    #[test]
    fn tcp_serves_concurrent_connections_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tenants = registry();
        let opts = ServeOpts::default();
        let server = std::thread::spawn(move || serve_tcp(tenants, listener, &opts));

        let request = |tenant: &str| {
            req(&[
                ("id", Json::Num(1.0)),
                ("task", Json::Str("check".to_string())),
                ("train", Json::Str(TRAIN.to_string())),
                ("classes", Json::Arr(vec![Json::Str("cq".to_string())])),
                ("tenant", Json::Str(tenant.to_string())),
            ])
        };
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let line = request(&format!("t{i}"));
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    writeln!(stream, "{line}").unwrap();
                    let mut reply = String::new();
                    BufReader::new(stream.try_clone().unwrap())
                        .read_line(&mut reply)
                        .unwrap();
                    drop(stream);
                    Json::parse(reply.trim())
                        .unwrap()
                        .get("status")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                })
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap().as_deref(), Some("ok"));
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
        drop(stream);
        let summary = server.join().unwrap().unwrap();
        assert!(summary.shutdown_requested);
        assert_eq!(summary.connections, 5);
        assert_eq!(summary.ok, 4);
    }
}
