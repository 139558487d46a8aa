//! `cqsep-serve`: a long-lived solver service speaking newline-delimited
//! JSON over stdin/stdout (default), a Unix domain socket
//! (`--socket <path>`), or TCP (`--tcp <addr>`, concurrent
//! connections). All three serve one multi-tenant engine registry,
//! warm-started from and snapshotted to `--cache-dir`. See
//! `service::server` for the wire format.

use service::{ServeOpts, TenantConfig, TenantRegistry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: cqsep-serve [options]
  --workers <n>        worker threads sharing the engine pool (default 2)
  --queue <n>          bounded job-queue capacity (default 64)
  --timeout <secs>     default per-task budget for requests without one
  --socket <path>      serve a Unix domain socket instead of stdin/stdout
  --tcp <addr>         serve TCP (e.g. 127.0.0.1:0); prints the bound
                       address as 'listening on <addr>' on stdout
  --tenants <n>        resident-tenant LRU capacity (default 8)
  --cache-dir <dir>    tenant snapshot root: warm-start tenants (the
                       default one from <dir>/_default/) and their
                       residents from <dir>/<tenant>/, snapshot on
                       evict and on exit, in every mode
  --threads <n>        cap solver parallelism per task at n threads
  --no-cache           run every hom/game query unmemoized
protocol: one JSON request per line in, one JSON response per line out;
          requests may carry \"tenant\" for isolated engines (any mode);
          {\"op\":\"stats\"} reports counters, end of input drains,
          {\"op\":\"shutdown\"} cancels in-flight work";

enum Mode {
    Stdio,
    Socket(String),
    Tcp(String),
}

fn parse_args(args: &[String]) -> Result<(ServeOpts, Mode, TenantConfig), String> {
    let mut opts = ServeOpts::default();
    let mut mode = Mode::Stdio;
    let mut config = TenantConfig::default();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let v = value(args, i, "--workers")?;
                opts.workers = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --workers value {v:?}"))?;
                i += 1;
            }
            "--queue" => {
                let v = value(args, i, "--queue")?;
                opts.queue_cap = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --queue value {v:?}"))?;
                i += 1;
            }
            "--timeout" => {
                let v = value(args, i, "--timeout")?;
                let secs = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --timeout value {v:?}"))?;
                opts.default_timeout = Some(Duration::from_secs_f64(secs));
                i += 1;
            }
            "--socket" => {
                mode = Mode::Socket(value(args, i, "--socket")?);
                i += 1;
            }
            "--tcp" => {
                mode = Mode::Tcp(value(args, i, "--tcp")?);
                i += 1;
            }
            "--tenants" => {
                let v = value(args, i, "--tenants")?;
                config.capacity = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --tenants value {v:?}"))?;
                i += 1;
            }
            "--cache-dir" => {
                config.cache_dir = Some(PathBuf::from(value(args, i, "--cache-dir")?));
                i += 1;
            }
            "--threads" => {
                let v = value(args, i, "--threads")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --threads value {v:?}"))?;
                config.threads = Some(n);
                i += 1;
            }
            "--no-cache" => config.use_cache = false,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok((opts, mode, config))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, mode, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let tenants = Arc::new(TenantRegistry::new(config));
    let result = match mode {
        Mode::Socket(path) => {
            #[cfg(unix)]
            {
                service::serve_unix(tenants, std::path::Path::new(&path), &opts)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                eprintln!("cqsep-serve: --socket is only available on Unix");
                std::process::exit(2);
            }
        }
        Mode::Tcp(addr) => match std::net::TcpListener::bind(&addr) {
            Ok(listener) => match listener.local_addr() {
                Ok(bound) => {
                    // The router (and scripts) parse this line.
                    println!("cqsep-serve: listening on {bound}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    service::serve_tcp(tenants, listener, &opts).map(|summary| {
                        eprintln!(
                            "cqsep-serve: done: {} connection(s), {} ok, {} interrupted, {} error",
                            summary.connections, summary.ok, summary.interrupted, summary.failed
                        );
                    })
                }
                Err(e) => Err(e),
            },
            Err(e) => Err(e),
        },
        Mode::Stdio => {
            let stdin = std::io::stdin().lock();
            service::serve(tenants, stdin, std::io::stdout(), &opts).map(|_| ())
        }
    };
    if let Err(e) = result {
        eprintln!("cqsep-serve: {e}");
        std::process::exit(1);
    }
}
