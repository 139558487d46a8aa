//! The `cqsep-cli` command logic, separated from `main` so the test suite
//! can drive it without spawning processes.
//!
//! Databases are read in the text format of `relational::spec`
//! (`rel`/`fact`/`entity` lines); models in the format of
//! `cqsep::persist`. Commands:
//!
//! ```text
//! cqsep-cli check <train.db> [--class <spec>]...     separability report
//! cqsep-cli train <train.db> --class <spec> [-o F]   generate a model
//! cqsep-cli classify <train.db> <eval.db> [--class <spec>]
//! cqsep-cli classify-batch <train.db> <eval.db> [--class <spec>]
//! cqsep-cli classify-model <model.txt> <eval.db>
//! cqsep-cli relabel <train.db> [--k <k>]             Algorithm 2
//! cqsep-cli evaluate <train.db> <test.db> [--method <mspec>]... [--fit-timeout <secs>]
//! cqsep-cli append <file.db> <delta.txt> [-o out.db]
//! cqsep-cli recheck <train.db> [<delta.txt>] [--class <spec>]...
//! cqsep-cli info <file.db>
//! ```
//!
//! `append` applies an edit script (`relational::Delta` text format:
//! `add-value`/`add-fact`/`del-fact`/`add-entity`/`flip-label` lines) to
//! a database through the engine's delta layer and prints the descendant
//! spec (or writes it with `-o`), with the delta receipt — parent and
//! child fingerprints, op counts — as a leading `#` comment. `recheck`
//! loads a training database as a resident, optionally appends a delta,
//! and reruns the separability report warm; combined with `--cache-dir`
//! both commands persist the fingerprint lineage alongside the verdict
//! tables, so a later run can subsume across the edit.
//!
//! `<spec>` is one of `cq`, `ghw<k>` (e.g. `ghw1`), `cqm<m>` (e.g.
//! `cqm2`). Defaults: `check` runs all of `cq`, `ghw1`, `cqm1`, `cqm2`;
//! `train`/`classify`/`classify-batch` default to `cqm2` (`classify-batch`
//! always evaluates through the compiled trie artifact and appends the
//! `ClassifierStats` counters as `#`-comment lines). `<mspec>` is a generalization
//! fit method — `cqm<m>`, `ghw<k>`, `sep<ℓ>` (features from the `CQ[2]`
//! bank), or `minerr<m>`; `evaluate` defaults to the
//! [`service::DEFAULT_EVALUATE_METHODS`] sweep and `--fit-timeout`
//! bounds each individual fit (the whole command is still bounded by
//! `--timeout`).
//!
//! The solver-facing subcommands (`check`, `train`, `classify`,
//! `classify-batch`, `relabel`, `evaluate`) are thin clients of the [`service`] task layer: each
//! builds a [`service::Task`] from the files it read and hands it to
//! [`service::run_task_in`] under a [`Ctx`] — the same executor the
//! `cqsep-serve` worker pool drives.
//!
//! Engine flags (any position):
//!
//! * `--stats` — append the unified [`Engine`] counter report for exactly
//!   this call;
//! * `--cache-dir <path>` — load persisted hom/game verdict tables from
//!   `<path>` before running (warm start) and save them back after;
//! * `--tenant <id>` — scope `--cache-dir` to `<path>/<id>`, the same
//!   per-tenant snapshot layout `cqsep-serve --cache-dir` maintains, so
//!   the CLI can warm-start from (and feed) one tenant of a service;
//! * `--threads <n>` — cap solver parallelism at `n` worker threads;
//! * `--no-cache` — run every hom/game query uncached;
//! * `--timeout <secs>` — give the whole command a deadline. On expiry
//!   the command prints a one-line `interrupted:` report plus the
//!   partial engine stats instead of an answer.

use engine::{Ctx, Engine, Interrupted};
use relational::spec::{self, DatabaseSpec, Loaded};
use relational::Delta;
use service::{
    load_database, render_labels, run_task_in, run_task_res_in, Residents, Task, TaskOutput,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

pub use cqsep::generalize::FitMethod;
pub use service::ClassSpec;

/// Engine flags stripped from a command line by
/// [`split_engine_flags`]: everything that configures *how* the solvers
/// run rather than *what* they solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineOpts {
    /// Append the unified [`Engine`] counter report for exactly this call.
    pub stats: bool,
    /// Load persisted verdict tables from here before running; save the
    /// (grown) tables back after.
    pub cache_dir: Option<String>,
    /// Scope `--cache-dir` to one tenant's snapshot (`<dir>/<tenant>`),
    /// the same layout `cqsep-serve --cache-dir` maintains.
    pub tenant: Option<String>,
    /// Cap solver parallelism at this many worker threads.
    pub threads: Option<usize>,
    /// Run every hom/game query uncached.
    pub no_cache: bool,
    /// Deadline for the whole command ([`Ctx::with_deadline`]).
    pub timeout: Option<Duration>,
}

/// Strip the engine flags (`--stats`, `--cache-dir <path>`,
/// `--threads <n>`, `--no-cache`, `--timeout <secs>`) from any position
/// of a command line, returning them with the remaining positional
/// arguments intact.
pub fn split_engine_flags(args: &[String]) -> Result<(EngineOpts, Vec<String>), String> {
    let mut opts = EngineOpts::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => opts.stats = true,
            "--no-cache" => opts.no_cache = true,
            "--cache-dir" => {
                let v = args.get(i + 1).ok_or("--cache-dir needs a path")?;
                opts.cache_dir = Some(v.clone());
                i += 1;
            }
            "--tenant" => {
                let v = args.get(i + 1).ok_or("--tenant needs an id")?;
                service::validate_tenant_id(v)?;
                opts.tenant = Some(v.clone());
                i += 1;
            }
            "--threads" => {
                let v = args.get(i + 1).ok_or("--threads needs a count")?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --threads value {v:?}"))?;
                opts.threads = Some(n);
                i += 1;
            }
            "--timeout" => {
                let v = args.get(i + 1).ok_or("--timeout needs a seconds value")?;
                let secs: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --timeout value {v:?}"))?;
                opts.timeout = Some(Duration::from_secs_f64(secs));
                i += 1;
            }
            _ => rest.push(args[i].clone()),
        }
        i += 1;
    }
    Ok((opts, rest))
}

/// Run a command line (without the program name). Returns the text to
/// print, or an error message.
///
/// Each call builds one fresh [`Engine`]; the engine flags (any
/// position) configure it: `--stats` appends the unified counter report (hom searches,
/// cover games, LP decisions, cache traffic, restored entries) covering
/// exactly this call; `--cache-dir` makes warm starts possible across
/// process runs; `--threads`/`--no-cache` bound parallelism and disable
/// memoization; `--timeout` bounds wall-clock time — on expiry the
/// output is a one-line `interrupted: deadline exceeded after …s`
/// report followed by the partial engine counters.
pub fn run(args: &[String]) -> Result<String, String> {
    let (opts, rest) = split_engine_flags(args)?;
    let mut engine = Engine::new();
    if let Some(n) = opts.threads {
        engine = engine.with_threads(n);
    }
    if opts.no_cache {
        engine = engine.without_cache();
    }
    let before = engine.stats();
    let cache_dir = match (&opts.cache_dir, &opts.tenant) {
        (Some(dir), Some(tenant)) => Some(Path::new(dir).join(tenant)),
        (Some(dir), None) => Some(Path::new(dir).to_path_buf()),
        (None, Some(_)) => {
            return Err("--tenant scopes a cache: it needs --cache-dir <path>".to_string())
        }
        (None, None) => None,
    };
    if let Some(dir) = &cache_dir {
        engine
            .load(dir)
            .map_err(|e| format!("cannot load cache from {}: {e}", dir.display()))?;
    }
    let ctx = match opts.timeout {
        Some(budget) => engine.ctx_with_deadline(budget),
        None => engine.ctx(),
    };
    let started = std::time::Instant::now();
    let mut out = match run_in(&ctx, &rest) {
        Ok(result) => result?,
        Err(interrupted) => {
            // The deadline fired mid-solve: report what happened and how
            // much engine work the truncated command performed.
            return Ok(interrupted_report(&interrupted, started.elapsed()));
        }
    };
    if let Some(dir) = &cache_dir {
        engine
            .save(dir)
            .map_err(|e| format!("cannot save cache to {}: {e}", dir.display()))?;
    }
    if opts.stats {
        let delta = engine.stats().since(&before);
        if !out.ends_with('\n') && !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&delta.report());
        out.push('\n');
    }
    Ok(out)
}

/// The `--timeout` expiry report: one summary line, then the partial
/// engine counters the truncated command accumulated.
fn interrupted_report(interrupted: &Interrupted, elapsed: Duration) -> String {
    format!(
        "interrupted: {} after {:.1}s\n{}\n",
        interrupted.reason,
        elapsed.as_secs_f64(),
        interrupted.partial_stats.report()
    )
}

/// Dispatch a flag-free command line under a task context. The outer
/// `Err` is interruption (deadline passed or handle cancelled); the
/// inner `Err` is a usage or domain error.
pub fn run_in(ctx: &Ctx, args: &[String]) -> Result<Result<String, String>, Interrupted> {
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    // The service task layer does the solving for the four solver-facing
    // subcommands; this dispatcher only reads files, builds the Task,
    // and decides what to do with the model text.
    let task_output =
        |task: Task| -> Result<Result<TaskOutput, String>, Interrupted> { run_task_in(ctx, &task) };
    if let Err(e) = check_flags(args) {
        return Ok(Err(e));
    }
    match args.first().map(String::as_str) {
        Some("check") => {
            let path = match args.get(1) {
                Some(p) => p,
                None => return Ok(Err(USAGE.to_string())),
            };
            let classes = match parse_classes(&args[2..]) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            let train = match read(path) {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            Ok(task_output(Task::Check { train, classes })?.map(|out| out.output))
        }
        Some("train") => {
            let path = match args.get(1) {
                Some(p) => p,
                None => return Ok(Err(USAGE.to_string())),
            };
            let classes = match parse_classes(&args[2..]) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            let class = classes.first().copied().unwrap_or(ClassSpec::Cqm(2));
            let out_path = flag_value(&args[2..], "-o");
            let train = match read(path) {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            let out = match task_output(Task::Train { train, class })? {
                Ok(out) => out,
                Err(e) => return Ok(Err(e)),
            };
            let model_text = out.model.expect("train tasks always produce a model");
            Ok(Ok(match out_path {
                Some(p) => match std::fs::write(&p, &model_text) {
                    Ok(()) => format!("{}model written to {p}\n", out.output),
                    Err(e) => return Ok(Err(format!("cannot write {p}: {e}"))),
                },
                None => format!("{}{model_text}", out.output),
            }))
        }
        Some("classify") => {
            let (train_path, eval_path) = match (args.get(1), args.get(2)) {
                (Some(t), Some(e)) => (t, e),
                _ => return Ok(Err(USAGE.to_string())),
            };
            let classes = match parse_classes(&args[3..]) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            let class = classes.first().copied().unwrap_or(ClassSpec::Cqm(2));
            let (train, eval) = match (read(train_path), read(eval_path)) {
                (Ok(t), Ok(e)) => (t, e),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            Ok(task_output(Task::Classify { train, eval, class })?.map(|out| out.output))
        }
        Some("classify-batch") => {
            let (train_path, eval_path) = match (args.get(1), args.get(2)) {
                (Some(t), Some(e)) => (t, e),
                _ => return Ok(Err(USAGE.to_string())),
            };
            let classes = match parse_classes(&args[3..]) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            let class = classes.first().copied().unwrap_or(ClassSpec::Cqm(2));
            let (train, eval) = match (read(train_path), read(eval_path)) {
                (Ok(t), Ok(e)) => (t, e),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            Ok(task_output(Task::ClassifyBatch { train, eval, class })?.map(|out| out.output))
        }
        Some("relabel") => {
            let path = match args.get(1) {
                Some(p) => p,
                None => return Ok(Err(USAGE.to_string())),
            };
            let k: usize = match flag_value(&args[2..], "--k")
                .map(|v| v.parse().map_err(|_| "bad --k".to_string()))
                .transpose()
            {
                Ok(k) => k.unwrap_or(1),
                Err(e) => return Ok(Err(e)),
            };
            let train = match read(path) {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            Ok(task_output(Task::Relabel {
                train,
                k,
                name: None,
            })?
            .map(|out| out.output))
        }
        Some("append") => {
            let (db_path, delta_path) = match (args.get(1), args.get(2)) {
                (Some(d), Some(t)) => (d, t),
                _ => return Ok(Err(USAGE.to_string())),
            };
            let out_path = flag_value(&args[3..], "-o");
            let (db_text, delta_text) = match (read(db_path), read(delta_path)) {
                (Ok(d), Ok(t)) => (d, t),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            let delta = match Delta::parse(&delta_text) {
                Ok(d) => d,
                Err(e) => return Ok(Err(e.to_string())),
            };
            // A labeled spec goes through the training path so label ops
            // (add-entity with +/-, flip-label) are legal; either way the
            // edit runs through the engine's lineage registry, so with
            // `--cache-dir` the fingerprint edge survives to later runs.
            let loaded = match spec::load_any(&db_text) {
                Ok(l) => l,
                Err(e) => return Ok(Err(e.to_string())),
            };
            let (receipt, descendant) = match loaded {
                Loaded::Training(mut train) => {
                    match ctx.apply_training_delta(&mut train, &delta)? {
                        Ok(r) => {
                            let spec =
                                DatabaseSpec::from_database(&train.db, Some(&train.labeling));
                            (r, spec.to_text())
                        }
                        Err(e) => return Ok(Err(e.to_string())),
                    }
                }
                Loaded::Plain(mut db) => match ctx.apply_delta(&mut db, &delta)? {
                    Ok(r) => (r, DatabaseSpec::from_database(&db, None).to_text()),
                    Err(e) => return Ok(Err(e.to_string())),
                },
            };
            Ok(Ok(match out_path {
                Some(p) => match std::fs::write(&p, &descendant) {
                    Ok(()) => format!("{}\ndescendant written to {p}\n", receipt.summary()),
                    Err(e) => return Ok(Err(format!("cannot write {p}: {e}"))),
                },
                // No -o: emit a valid spec on stdout, receipt as comment.
                None => format!("# {}\n{descendant}", receipt.summary()),
            }))
        }
        Some("recheck") => {
            let path = match args.get(1) {
                Some(p) => p,
                None => return Ok(Err(USAGE.to_string())),
            };
            let delta_path = args.get(2).filter(|a| !a.starts_with("--"));
            let classes = match parse_classes(&args[2..]) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            let train = match read(path) {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            // Thin client of the service residents path: make the file a
            // resident, optionally append the delta, then recheck — the
            // same append/recheck flow `cqsep-serve` runs, so verdicts
            // proved before the edit are reusable after it.
            let residents = Residents::new();
            let name = "db".to_string();
            let birth = Task::Append {
                name: name.clone(),
                base: Some(train),
                delta: String::new(),
            };
            if let Err(e) = run_task_res_in(ctx, &residents, &birth)? {
                return Ok(Err(e));
            }
            let mut out = String::new();
            if let Some(dp) = delta_path {
                let delta = match read(dp) {
                    Ok(d) => d,
                    Err(e) => return Ok(Err(e)),
                };
                let append = Task::Append {
                    name: name.clone(),
                    base: None,
                    delta,
                };
                match run_task_res_in(ctx, &residents, &append)? {
                    Ok(o) => out.push_str(&o.output),
                    Err(e) => return Ok(Err(e)),
                }
            }
            match run_task_res_in(ctx, &residents, &Task::Recheck { name, classes })? {
                Ok(o) => {
                    out.push_str(&o.output);
                    Ok(Ok(out))
                }
                Err(e) => Ok(Err(e)),
            }
        }
        Some("evaluate") => {
            let (train_path, test_path) = match (args.get(1), args.get(2)) {
                (Some(t), Some(e)) => (t, e),
                _ => return Ok(Err(USAGE.to_string())),
            };
            let methods = match parse_methods(&args[3..]) {
                Ok(m) => m,
                Err(e) => return Ok(Err(e)),
            };
            let fit_timeout = match flag_value(&args[3..], "--fit-timeout")
                .map(|v| {
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0 && s.is_finite())
                        .map(Duration::from_secs_f64)
                        .ok_or_else(|| format!("bad --fit-timeout value {v:?}"))
                })
                .transpose()
            {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            let (train, test) = match (read(train_path), read(test_path)) {
                (Ok(t), Ok(e)) => (t, e),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            Ok(task_output(Task::Evaluate {
                train,
                test,
                methods,
                fit_timeout,
            })?
            .map(|out| out.output))
        }
        Some("classify-model") => {
            let loaded = (|| {
                let model_path = args.get(1).ok_or(USAGE)?;
                let eval_path = args.get(2).ok_or(USAGE)?;
                let eval = load_database(&read(eval_path)?)?;
                let model = cqsep::persist::parse_model(eval.schema(), &read(model_path)?)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((model, eval))
            })();
            let (model, eval) = match loaded {
                Ok(loaded) => loaded,
                Err(e) => return Ok(Err(e)),
            };
            let labels = model.classify_in(ctx, &eval)?;
            Ok(Ok(render_labels(&eval, |e| labels.get(e))))
        }
        Some("info") => Ok((|| {
            let path = args.get(1).ok_or(USAGE)?;
            let spec = DatabaseSpec::parse(&read(path)?).map_err(|e| e.to_string())?;
            let db = spec.to_database().map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(out, "schema:   {}", db.schema());
            let _ = writeln!(out, "elements: {}", db.dom_size());
            let _ = writeln!(out, "facts:    {}", db.fact_count());
            let _ = writeln!(out, "entities: {}", db.entities().len());
            let labeled = spec.entities.iter().filter(|(_, l)| l.is_some()).count();
            let _ = writeln!(out, "labeled:  {labeled}");
            Ok(out)
        })()),
        _ => Ok(Err(USAGE.to_string())),
    }
}

const USAGE: &str = "usage:
  cqsep-cli check <train.db> [--class cq|ghw<k>|cqm<m>]...
  cqsep-cli train <train.db> [--class <spec>] [-o model.txt]
  cqsep-cli classify <train.db> <eval.db> [--class <spec>]
  cqsep-cli classify-batch <train.db> <eval.db> [--class <spec>]
  cqsep-cli classify-model <model.txt> <eval.db>
  cqsep-cli relabel <train.db> [--k <k>]
  cqsep-cli evaluate <train.db> <test.db> [--method cqm<m>|ghw<k>|sep<l>|minerr<m>]... [--fit-timeout <secs>]
  cqsep-cli append <file.db> <delta.txt> [-o out.db]
  cqsep-cli recheck <train.db> [<delta.txt>] [--class <spec>]...
  cqsep-cli info <file.db>
engine flags (any command, any position):
  --stats              append the unified engine counter report
  --cache-dir <path>   warm-start from (and save back to) a verdict cache
  --tenant <id>        scope --cache-dir to <path>/<id> (the cqsep-serve
                       multi-tenant snapshot layout)
  --threads <n>        cap solver parallelism at n worker threads
  --no-cache           run every hom/game query unmemoized
  --timeout <secs>     deadline for the whole command (report on expiry)";

/// The flags each subcommand accepts after its positional arguments;
/// every one of them takes a value.
fn command_flags(command: &str) -> &'static [&'static str] {
    match command {
        "check" | "classify" | "classify-batch" | "recheck" => &["--class"],
        "train" => &["--class", "-o"],
        "append" => &["-o"],
        "relabel" => &["--k"],
        "evaluate" => &["--method", "--fit-timeout"],
        _ => &[],
    }
}

/// Reject any `-…` argument the subcommand does not accept (engine flags
/// are already stripped), so a typo such as `--stat` is an error rather
/// than silently ignored.
fn check_flags(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Ok(());
    };
    let allowed = command_flags(command);
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if arg.len() > 1 && arg.starts_with('-') {
            if !allowed.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg} for {command}\n{USAGE}"));
            }
            rest.next();
        }
    }
    Ok(())
}

/// Collect every `--class <spec>` occurrence (empty when none given —
/// the task layer or the caller applies the default).
fn parse_classes(args: &[String]) -> Result<Vec<ClassSpec>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--class" {
            let v = args.get(i + 1).ok_or("--class needs a value")?;
            out.push(ClassSpec::parse(v)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// Collect every `--method <mspec>` occurrence (empty when none given —
/// the task layer applies the default sweep).
fn parse_methods(args: &[String]) -> Result<Vec<FitMethod>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--method" {
            let v = args.get(i + 1).ok_or("--method needs a value")?;
            out.push(FitMethod::parse(v)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const TRAIN: &str = "\
rel E/2
fact E(a,b)
fact E(b,c)
entity a +
entity b +
entity c -
";

    const EVAL: &str = "\
rel E/2
fact E(u,v)
entity u
entity v
";

    /// A scratch directory unique to this process and call (tests run
    /// concurrently, so a pid alone is not enough), removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("cqsep_cli_{tag}_{}_{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn with_files<F: FnOnce(&str, &str) -> R, R>(f: F) -> R {
        let tmp = TempDir::new("files");
        let dir = &tmp.0;
        let train = dir.join("train.db");
        let eval = dir.join("eval.db");
        std::fs::write(&train, TRAIN).unwrap();
        std::fs::write(&eval, EVAL).unwrap();
        f(train.to_str().unwrap(), eval.to_str().unwrap())
    }

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn class_spec_parsing() {
        assert_eq!(ClassSpec::parse("cq"), Ok(ClassSpec::Cq));
        assert_eq!(ClassSpec::parse("ghw2"), Ok(ClassSpec::Ghw(2)));
        assert_eq!(ClassSpec::parse("cqm3"), Ok(ClassSpec::Cqm(3)));
        assert!(ClassSpec::parse("ghw0").is_err());
        assert!(ClassSpec::parse("nope").is_err());
        assert!(ClassSpec::parse("cqmx").is_err());
    }

    /// Every malformed class spelling produces the one unified message
    /// (historically `ghw0`, `cqm0`, and unknown prefixes diverged).
    #[test]
    fn class_spec_errors_use_the_unified_message() {
        for bad in ["ghw0", "cqm0", "ghw", "cqmx", "nope"] {
            assert_eq!(
                ClassSpec::parse(bad).unwrap_err(),
                format!("bad class {bad:?} (expected cq, ghw<k≥1>, cqm<m≥1>)")
            );
        }
    }

    #[test]
    fn check_reports_all_classes() {
        with_files(|train, _| {
            let out = run(&s(&["check", train])).unwrap();
            assert!(out.contains("CQ-separable: true"), "{out}");
            assert!(out.contains("GHW(1)-separable: true"), "{out}");
            assert!(out.contains("CQ[1]-separable: true"), "{out}");
        });
    }

    #[test]
    fn check_prints_witness_when_inseparable() {
        let tmp = TempDir::new("w");
        let dir = &tmp.0;
        let p = dir.join("bad.db");
        std::fs::write(
            &p,
            "rel E/2\nfact E(a,b)\nfact E(b,a)\nentity a +\nentity b -\n",
        )
        .unwrap();
        let out = run(&s(&["check", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("CQ-separable: false"), "{out}");
        assert!(out.contains("witness"), "{out}");
    }

    #[test]
    fn train_then_classify_model_roundtrip() {
        with_files(|train, eval| {
            let tmp = TempDir::new("m");
            let dir = &tmp.0;
            let model = dir.join("model.txt");
            let out = run(&s(&[
                "train",
                train,
                "--class",
                "cqm1",
                "-o",
                model.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("model written"), "{out}");
            let out = run(&s(&["classify-model", model.to_str().unwrap(), eval])).unwrap();
            assert!(out.contains("u +"), "{out}");
            assert!(out.contains("v -"), "{out}");
        });
    }

    #[test]
    fn classify_via_algorithm_1() {
        with_files(|train, eval| {
            let out = run(&s(&["classify", train, eval, "--class", "ghw1"])).unwrap();
            assert!(out.contains("u "), "{out}");
            assert!(out.contains("v "), "{out}");
        });
    }

    #[test]
    fn classify_batch_reports_labels_and_stats() {
        with_files(|train, eval| {
            let out = run(&s(&["classify-batch", train, eval, "--class", "cqm1"])).unwrap();
            assert!(out.contains("u +"), "{out}");
            assert!(out.contains("v -"), "{out}");
            assert!(out.contains("# compiled: "), "{out}");
            assert!(out.contains("# batch: "), "{out}");
            // Same positional-argument contract as classify.
            assert!(run(&s(&["classify-batch", train])).is_err());
        });
    }

    #[test]
    fn relabel_reports_disagreements() {
        let tmp = TempDir::new("r");
        let dir = &tmp.0;
        let p = dir.join("noisy.db");
        std::fs::write(
            &p,
            "rel E/2\nfact E(a,b)\nfact E(b,a)\nentity a +\nentity b -\n",
        )
        .unwrap();
        let out = run(&s(&["relabel", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("1 disagreement"), "{out}");
        assert!(out.contains('*'), "{out}");
    }

    #[test]
    fn evaluate_reports_heldout_accuracy_table() {
        with_files(|train, _| {
            let tmp = TempDir::new("e");
            let dir = &tmp.0;
            let test = dir.join("test.db");
            std::fs::write(
                &test,
                "rel E/2\nfact E(t,u)\nfact E(u,v)\nentity t +\nentity u +\nentity v -\n",
            )
            .unwrap();
            let test = test.to_str().unwrap();
            // Default sweep: every default method appears with a header.
            let out = run(&s(&["evaluate", train, test])).unwrap();
            assert!(out.contains("method"), "{out}");
            for needle in ["CQ[1]", "CQ[2]", "GHW(1)", "CQ[2]-Sep[1]", "MinErr[2]"] {
                assert!(out.contains(needle), "missing {needle}: {out}");
            }
            // Explicit methods narrow the table; the out-edge split is
            // aced exactly.
            let out = run(&s(&[
                "evaluate",
                train,
                test,
                "--method",
                "cqm1",
                "--method",
                "sep1",
                "--fit-timeout",
                "30",
            ]))
            .unwrap();
            assert!(out.contains("CQ[1]"), "{out}");
            assert!(out.contains("CQ[2]-Sep[1]"), "{out}");
            assert!(!out.contains("GHW"), "{out}");
            assert!(out.contains("1.000"), "{out}");
            assert!(out.contains("exact"), "{out}");
            // Usage and method-spelling errors.
            assert!(run(&s(&["evaluate", train])).is_err());
            assert!(run(&s(&["evaluate", train, test, "--method", "cqm0"])).is_err());
            assert!(run(&s(&["evaluate", train, test, "--fit-timeout", "soon"])).is_err());
        });
    }

    #[test]
    fn append_applies_a_delta_and_emits_the_descendant_spec() {
        with_files(|train, eval| {
            let tmp = TempDir::new("a");
            let dir = &tmp.0;
            let delta = dir.join("grow.delta");
            std::fs::write(&delta, "add-fact E(c,d)\nadd-entity d -\n").unwrap();
            let delta = delta.to_str().unwrap();
            // Labeled database, stdout descendant: a valid spec with the
            // receipt as a leading comment.
            let out = run(&s(&["append", train, delta])).unwrap();
            assert!(out.starts_with("# applied insert-only delta"), "{out}");
            assert!(out.contains("fact E(c,d)"), "{out}");
            assert!(out.contains("entity d -"), "{out}");
            DatabaseSpec::parse(&out).expect("stdout descendant must reparse");
            // -o writes the descendant and reports where.
            let grown = dir.join("grown.db");
            let out = run(&s(&["append", train, delta, "-o", grown.to_str().unwrap()])).unwrap();
            assert!(out.contains("applied insert-only delta"), "{out}");
            assert!(out.contains("descendant written to"), "{out}");
            let text = std::fs::read_to_string(&grown).unwrap();
            assert!(text.contains("entity d -"), "{text}");
            // Unlabeled databases take the plain-database path; label ops
            // are rejected there.
            let plain = dir.join("plain.delta");
            std::fs::write(&plain, "add-fact E(v,u)\n").unwrap();
            let out = run(&s(&["append", eval, plain.to_str().unwrap()])).unwrap();
            assert!(out.contains("fact E(v,u)"), "{out}");
            let bad = dir.join("bad.delta");
            std::fs::write(&bad, "flip-label u\n").unwrap();
            let err = run(&s(&["append", eval, bad.to_str().unwrap()])).unwrap_err();
            assert!(err.contains("labeled"), "{err}");
            // A partly labeled database is a training database with a
            // missing label, named with its line.
            let partial = dir.join("partial.db");
            std::fs::write(&partial, "rel E/2\nfact E(a,b)\nentity a +\nentity b\n").unwrap();
            let err = run(&s(&[
                "append",
                partial.to_str().unwrap(),
                plain.to_str().unwrap(),
            ]))
            .unwrap_err();
            assert_eq!(
                err, "database spec error: line 4: entity \"b\" has no label",
                "{err}"
            );
            // Usage errors.
            assert!(run(&s(&["append", train])).is_err());
            assert!(run(&s(&["append", train, "/no/such.delta"])).is_err());
        });
    }

    #[test]
    fn recheck_reports_after_an_optional_delta() {
        with_files(|train, _| {
            let tmp = TempDir::new("rc");
            let dir = &tmp.0;
            // Without a delta: the plain separability report.
            let out = run(&s(&["recheck", train, "--class", "cq"])).unwrap();
            assert!(out.contains("CQ-separable: true"), "{out}");
            // With a delta: the receipt lines, then the report over the
            // grown database.
            let delta = dir.join("grow.delta");
            std::fs::write(&delta, "add-fact E(c,d)\nadd-entity d -\n").unwrap();
            let out = run(&s(&["recheck", train, delta.to_str().unwrap()])).unwrap();
            assert!(out.contains("applied insert-only delta"), "{out}");
            assert!(out.contains("4 entities"), "{out}");
            assert!(out.contains("CQ-separable"), "{out}");
            assert!(run(&s(&["recheck"])).is_err());
        });
    }

    #[test]
    fn info_summarizes() {
        with_files(|train, _| {
            let out = run(&s(&["info", train])).unwrap();
            assert!(out.contains("entities: 3"), "{out}");
            assert!(out.contains("labeled:  3"), "{out}");
        });
    }

    #[test]
    fn stats_flag_appends_engine_counters() {
        with_files(|train, _| {
            let out = run(&s(&["check", train, "--stats"])).unwrap();
            assert!(out.contains("CQ-separable: true"), "{out}");
            assert!(out.contains("hom engine stats"), "{out}");
            assert!(out.contains("nodes expanded"), "{out}");
            assert!(out.contains("cache hit"), "{out}");
            assert!(out.contains("cover-game engine stats"), "{out}");
            assert!(out.contains("games solved"), "{out}");
            // The default check runs GHW(1), so games actually happen.
            assert!(out.contains("fixpoint sweeps"), "{out}");
            assert!(out.contains("lp engine stats"), "{out}");
            assert!(out.contains("simplex pivots"), "{out}");
            assert!(out.contains("bignum promotions"), "{out}");
            // Flag position must not matter.
            let out2 = run(&s(&["--stats", "check", train])).unwrap();
            assert!(out2.contains("hom engine stats"), "{out2}");
            assert!(out2.contains("cover-game engine stats"), "{out2}");
            assert!(out2.contains("lp engine stats"), "{out2}");
        });
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        with_files(|train, eval| {
            // `--stat` is a typo of the engine flag `--stats`.
            let err = run(&s(&["check", train, "--stat"])).unwrap_err();
            assert!(err.starts_with("unknown flag --stat for check"), "{err}");
            assert!(err.contains("usage:"), "{err}");
            let err = run(&s(&["classify", train, eval, "-x", "1"])).unwrap_err();
            assert!(err.contains("unknown flag -x"), "{err}");
            // A flag another subcommand accepts is still unknown here.
            let err = run(&s(&["check", train, "-o", "out.txt"])).unwrap_err();
            assert!(err.contains("unknown flag -o"), "{err}");
            // Accepted flags and engine flags pass.
            assert!(run(&s(&["check", train, "--class", "cq", "--stats"])).is_ok());
        });
    }

    #[test]
    fn bad_usage_is_an_error() {
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["check"])).is_err());
        assert!(run(&s(&["check", "/no/such/file"])).is_err());
        assert!(run(&s(&["check", "--threads"])).is_err());
        assert!(run(&s(&["check", "--threads", "0"])).is_err());
        assert!(run(&s(&["check", "--threads", "lots"])).is_err());
        assert!(run(&s(&["check", "--cache-dir"])).is_err());
        assert!(run(&s(&["check", "--timeout"])).is_err());
        assert!(run(&s(&["check", "--timeout", "-1"])).is_err());
        assert!(run(&s(&["check", "--timeout", "soon"])).is_err());
    }

    #[test]
    fn engine_flags_are_stripped_from_any_position() {
        let (opts, rest) = split_engine_flags(&s(&[
            "--threads",
            "2",
            "check",
            "--no-cache",
            "x.db",
            "--timeout",
            "1.5",
            "--cache-dir",
            "/tmp/c",
            "--stats",
        ]))
        .unwrap();
        assert!(opts.stats);
        assert!(opts.no_cache);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.timeout, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(rest, s(&["check", "x.db"]));
    }

    /// Satellite requirement: a zero budget expires before any solving
    /// starts, and the command reports the interruption (one summary
    /// line plus the partial engine counters) instead of an answer.
    /// Flag position must not matter.
    #[test]
    fn timeout_expiry_prints_interrupted_report() {
        with_files(|train, _| {
            for args in [
                s(&["check", train, "--timeout", "0"]),
                s(&["--timeout", "0", "classify", train, train]),
                s(&["train", train, "--timeout", "0"]),
                s(&["relabel", train, "--timeout", "0"]),
            ] {
                let out = run(&args).unwrap();
                assert!(
                    out.starts_with("interrupted: deadline exceeded after "),
                    "args {args:?}: {out}"
                );
                assert!(out.contains("hom engine stats"), "{out}");
                assert!(out.contains("lp engine stats"), "{out}");
            }
        });
    }

    #[test]
    fn generous_timeout_does_not_perturb_answers() {
        with_files(|train, _| {
            let out = run(&s(&["check", train, "--timeout", "3600"])).unwrap();
            assert!(out.contains("CQ-separable: true"), "{out}");
            assert!(out.contains("GHW(1)-separable: true"), "{out}");
        });
    }

    #[test]
    fn no_cache_and_threads_still_answer_correctly() {
        with_files(|train, _| {
            let out = run(&s(&["check", train, "--no-cache", "--threads", "1"])).unwrap();
            assert!(out.contains("CQ-separable: true"), "{out}");
            assert!(out.contains("GHW(1)-separable: true"), "{out}");
        });
    }

    #[test]
    fn cache_dir_warm_start_restores_entries() {
        with_files(|train, _| {
            let tmp = TempDir::new("c");
            let dir = &tmp.0;
            let cache = dir.to_str().unwrap();
            // Every run builds a fresh engine, so the second run can only
            // know the verdicts by reading them back from disk.
            let cold = run(&s(&[
                "check",
                train,
                "--threads",
                "2",
                "--cache-dir",
                cache,
                "--stats",
            ]))
            .unwrap();
            assert!(cold.contains("restored cache entries: 0"), "{cold}");
            assert!(dir.join("hom.cache").exists());
            assert!(dir.join("game.cache").exists());
            let warm = run(&s(&[
                "check",
                train,
                "--threads",
                "2",
                "--cache-dir",
                cache,
                "--stats",
            ]))
            .unwrap();
            assert!(!warm.contains("restored cache entries: 0"), "{warm}");
            assert!(warm.contains("restored cache entries:"), "{warm}");
            // Same verdicts either way.
            assert!(warm.contains("CQ-separable: true"), "{warm}");
            assert!(warm.contains("GHW(1)-separable: true"), "{warm}");
        });
    }

    #[test]
    fn tenant_flag_scopes_the_cache_dir() {
        with_files(|train, _| {
            let tmp = TempDir::new("t");
            let dir = &tmp.0;
            let cache = dir.to_str().unwrap().to_string();
            let out = run(&s(&[
                "check",
                train,
                "--threads",
                "2",
                "--cache-dir",
                &cache,
                "--tenant",
                "acme",
            ]))
            .unwrap();
            assert!(out.contains("CQ-separable: true"), "{out}");
            // The snapshot landed under the tenant's directory, exactly
            // where cqsep-serve would warm-start it from.
            assert!(dir.join("acme").join("hom.cache").exists());
            assert!(!dir.join("hom.cache").exists());
            // Bad ids and an unscoped --tenant are rejected up front.
            let err = run(&s(&[
                "check",
                train,
                "--cache-dir",
                &cache,
                "--tenant",
                "../up",
            ]))
            .unwrap_err();
            assert!(err.contains("bad tenant id"), "{err}");
            let err = run(&s(&["check", train, "--tenant", "acme"])).unwrap_err();
            assert!(err.contains("needs --cache-dir"), "{err}");
        });
    }
}
