//! The typed task layer: what a job asks for ([`Task`]), what it
//! produces ([`Outcome`]), and the interruptible executor
//! [`run_task_in`] that both the CLI subcommands and the
//! `cqsep-serve` worker pool are thin clients of.
//!
//! A [`Task`] carries its inputs *by value* (database text in the
//! `relational::spec` format), so a job is self-contained: it can cross
//! a process boundary on an NDJSON line, sit in the bounded queue, or
//! be built in-process by the CLI from a file it just read — the
//! executor cannot tell the difference.

use cq::EnumConfig;
use cqsep::generalize::{self, FitMethod};
use cqsep::{apx, cls_ghw, gen_ghw, sep_cq, sep_cqm, sep_ghw};
use engine::{Ctx, Interrupted};
use relational::spec;
use relational::{Database, Delta, Label, TrainingDb};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A parsed feature-class specification: `cq`, `ghw<k>`, or `cqm<m>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassSpec {
    Cq,
    Ghw(usize),
    Cqm(usize),
}

impl ClassSpec {
    /// Parse `cq` / `ghw<k>` / `cqm<m>` (`k, m ≥ 1`). Every malformed
    /// spelling — unknown prefix, `ghw0`, `cqm0`, bare `ghw`, non-numeric
    /// suffix — produces the same one-line message.
    pub fn parse(s: &str) -> Result<ClassSpec, String> {
        let bad = || format!("bad class {s:?} (expected cq, ghw<k≥1>, cqm<m≥1>)");
        if s == "cq" {
            return Ok(ClassSpec::Cq);
        }
        if let Some(k) = s.strip_prefix("ghw") {
            return k
                .parse::<usize>()
                .ok()
                .filter(|&k| k >= 1)
                .map(ClassSpec::Ghw)
                .ok_or_else(bad);
        }
        if let Some(m) = s.strip_prefix("cqm") {
            return m
                .parse::<usize>()
                .ok()
                .filter(|&m| m >= 1)
                .map(ClassSpec::Cqm)
                .ok_or_else(bad);
        }
        Err(bad())
    }
}

impl std::fmt::Display for ClassSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassSpec::Cq => write!(f, "CQ"),
            ClassSpec::Ghw(k) => write!(f, "GHW({k})"),
            ClassSpec::Cqm(m) => write!(f, "CQ[{m}]"),
        }
    }
}

/// The default class list for a [`Task::Check`] with no explicit
/// classes, matching the CLI's historical default.
pub const DEFAULT_CHECK_CLASSES: [ClassSpec; 4] = [
    ClassSpec::Cq,
    ClassSpec::Ghw(1),
    ClassSpec::Cqm(1),
    ClassSpec::Cqm(2),
];

/// The atom-count budget [`Task::Train`] grants explicit `GHW(k)`
/// feature extraction (Proposition 5.6 is worst-case exponential).
pub const TRAIN_GHW_BUDGET: usize = 1_000_000;

/// The default method list for a [`Task::Evaluate`] with no explicit
/// methods: one strength sweep per regularized language plus the
/// min-error path.
pub const DEFAULT_EVALUATE_METHODS: [FitMethod; 6] = [
    FitMethod::Cqm(1),
    FitMethod::Cqm(2),
    FitMethod::Ghw(1),
    FitMethod::Sep { m: 2, ell: 1 },
    FitMethod::Sep { m: 2, ell: 2 },
    FitMethod::MinError(2),
];

/// One unit of work. Databases are inline text in the
/// `relational::spec` format (`rel`/`fact`/`entity` lines).
#[derive(Clone, Debug)]
pub enum Task {
    /// Separability report over `classes` (all four defaults if empty).
    Check {
        train: String,
        classes: Vec<ClassSpec>,
    },
    /// Generate a separator model for one class.
    Train { train: String, class: ClassSpec },
    /// Train on `train`, label the entities of `eval`.
    Classify {
        train: String,
        eval: String,
        class: ClassSpec,
    },
    /// Train on `train`, compile the model into the shared-prefix trie
    /// artifact, and stream the entities of `eval` through it. Output
    /// is the per-entity predictions plus the `ClassifierStats`
    /// counters (nodes visited, prefix prunes, reuse hits).
    ClassifyBatch {
        train: String,
        eval: String,
        class: ClassSpec,
    },
    /// Algorithm 2: optimal `GHW(k)`-separable relabeling. With `name`
    /// set, relabel the resident database of that name instead of
    /// parsing `train` (which is then ignored and conventionally
    /// empty). The repair is routed through the delta layer, so
    /// repeated identical requests are lineage-registry hits.
    Relabel {
        train: String,
        k: usize,
        name: Option<String>,
    },
    /// Mutate the named resident training database by a delta script
    /// (`add-fact` / `del-fact` / `add-entity` / `flip-label` lines).
    /// With `base` set, park that spec text under `name` first — the
    /// way a resident is born. The edit goes through the engine, so the
    /// lineage registry learns the fingerprint edge and later queries
    /// against the grown database can reuse cached verdicts.
    Append {
        name: String,
        base: Option<String>,
        delta: String,
    },
    /// Re-run a separability check against the named resident, warm:
    /// same report as [`Task::Check`], but the databases and the
    /// engine's caches persist across requests, so repeat checks after
    /// an [`Task::Append`] reuse prior verdicts (exactly or by
    /// subsumption) instead of recomputing them.
    Recheck {
        name: String,
        classes: Vec<ClassSpec>,
    },
    /// Generalization report: fit each method on `train`, score held-out
    /// accuracy/precision/recall on the labeled `test`. Each fit runs
    /// under its own `fit_timeout` child budget (when set), so one
    /// runaway method times out without sinking the whole report.
    Evaluate {
        train: String,
        test: String,
        methods: Vec<FitMethod>,
        fit_timeout: Option<Duration>,
    },
}

impl Task {
    /// The protocol verb for this task (`check`, `train`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Task::Check { .. } => "check",
            Task::Train { .. } => "train",
            Task::Classify { .. } => "classify",
            Task::ClassifyBatch { .. } => "classify-batch",
            Task::Relabel { .. } => "relabel",
            Task::Evaluate { .. } => "evaluate",
            Task::Append { .. } => "append",
            Task::Recheck { .. } => "recheck",
        }
    }
}

/// Named resident training databases: parsed once, mutated in place by
/// [`Task::Append`], and re-queried warm by [`Task::Recheck`] and
/// [`Task::Relabel`]. A cheap cloneable handle (the map lives behind an
/// `Arc`); the server keeps one per process so residents — and their
/// cached fingerprints — survive across jobs.
#[derive(Clone, Debug, Default)]
pub struct Residents {
    inner: Arc<Mutex<HashMap<String, TrainingDb>>>,
}

impl Residents {
    pub fn new() -> Residents {
        Residents::default()
    }

    /// Park `train` under `name`, replacing any previous resident.
    pub fn insert(&self, name: &str, train: TrainingDb) {
        self.inner.lock().unwrap().insert(name.to_string(), train);
    }

    /// Clone out the resident named `name`. The clone carries the
    /// cached fingerprint, so readers pay no recompute.
    pub fn get(&self, name: &str) -> Option<TrainingDb> {
        self.inner.lock().unwrap().get(name).cloned()
    }

    /// Resident names, sorted (for diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Clone out every resident, sorted by name — the snapshot the
    /// tenant registry persists before evicting a cold tenant.
    pub fn entries(&self) -> Vec<(String, TrainingDb)> {
        let mut entries: Vec<(String, TrainingDb)> = self
            .inner
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Number of parked residents.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn missing(&self, name: &str) -> String {
        let names = self.names();
        if names.is_empty() {
            format!("no resident database named {name:?} (create one with append + base text)")
        } else {
            format!(
                "no resident database named {name:?} (residents: {})",
                names.join(", ")
            )
        }
    }
}

/// What a successfully executed [`Task`] produced.
#[derive(Clone, Debug)]
pub struct TaskOutput {
    /// Human-readable report (the CLI prints this verbatim).
    pub output: String,
    /// For [`Task::Train`]: the persisted model text.
    pub model: Option<String>,
}

/// The terminal state of a job: exactly one of these comes back for
/// every submitted task, including tasks cancelled by shutdown.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The task ran to completion.
    Success(TaskOutput),
    /// The task's deadline passed or its handle was cancelled;
    /// [`Interrupted`] carries the reason and the partial engine stats.
    Interrupted(Interrupted),
    /// The task failed (unparsable database, inseparable training data,
    /// budget exhaustion, …).
    Failed(String),
}

impl Outcome {
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success(_))
    }

    pub fn is_interrupted(&self) -> bool {
        matches!(self, Outcome::Interrupted(_))
    }
}

/// Parse training-database text (spec format, labeled entities).
pub fn load_training(text: &str) -> Result<TrainingDb, String> {
    spec::load_training(text).map_err(|e| e.to_string())
}

/// Parse evaluation-database text (spec format, labels optional).
pub fn load_database(text: &str) -> Result<Database, String> {
    spec::load_database(text).map_err(|e| e.to_string())
}

/// Execute a task under a [`Ctx`]. The outer `Err` is interruption
/// (deadline passed or handle cancelled — the task should be reported
/// as [`Outcome::Interrupted`]); the inner `Err` is a domain failure
/// (bad input, inseparable data, exhausted budget). Stateless form:
/// resident-addressed tasks run against a throwaway registry, so an
/// `Append` with base text works (and reports its receipt) but nothing
/// survives the call — use [`run_task_res_in`] to keep residents.
pub fn run_task_in(ctx: &Ctx, task: &Task) -> Result<Result<TaskOutput, String>, Interrupted> {
    run_task_res_in(ctx, &Residents::new(), task)
}

/// [`run_task_in`] against a caller-owned resident registry — the warm
/// path the server and the CLI's `append`/`recheck` subcommands use.
pub fn run_task_res_in(
    ctx: &Ctx,
    residents: &Residents,
    task: &Task,
) -> Result<Result<TaskOutput, String>, Interrupted> {
    ctx.check()?;
    match task {
        Task::Check { train, classes } => {
            let train = match load_training(train) {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            let classes: &[ClassSpec] = if classes.is_empty() {
                &DEFAULT_CHECK_CLASSES
            } else {
                classes
            };
            let output = check_in(ctx, &train, classes)?;
            Ok(Ok(TaskOutput {
                output,
                model: None,
            }))
        }
        Task::Train { train, class } => {
            let train = match load_training(train) {
                Ok(t) => t,
                Err(e) => return Ok(Err(e)),
            };
            train_in(ctx, &train, *class)
        }
        Task::Classify { train, eval, class } => {
            let (train, eval) = match (load_training(train), load_database(eval)) {
                (Ok(t), Ok(e)) => (t, e),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            classify_in(ctx, &train, &eval, *class)
        }
        Task::ClassifyBatch { train, eval, class } => {
            let (train, eval) = match (load_training(train), load_database(eval)) {
                (Ok(t), Ok(e)) => (t, e),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            classify_batch_in(ctx, &train, &eval, *class)
        }
        Task::Relabel { train, k, name } => {
            let train = match name {
                Some(n) => match residents.get(n) {
                    Some(t) => t,
                    None => return Ok(Err(residents.missing(n))),
                },
                None => match load_training(train) {
                    Ok(t) => t,
                    Err(e) => return Ok(Err(e)),
                },
            };
            let output = relabel_in(ctx, &train, *k)?;
            Ok(Ok(TaskOutput {
                output,
                model: None,
            }))
        }
        Task::Append { name, base, delta } => {
            let delta = match Delta::parse(delta) {
                Ok(d) => d,
                Err(e) => return Ok(Err(e.to_string())),
            };
            if let Some(base) = base {
                let train = match load_training(base) {
                    Ok(t) => t,
                    Err(e) => return Ok(Err(e)),
                };
                residents.insert(name, train);
            }
            // Mutate in place under the registry lock: delta application
            // is cheap (clone + ops + fingerprint bookkeeping), and
            // atomicity means a failed apply leaves the resident intact.
            let mut map = residents.inner.lock().unwrap();
            let Some(train) = map.get_mut(name.as_str()) else {
                drop(map);
                return Ok(Err(residents.missing(name)));
            };
            let receipt = match ctx.apply_training_delta(train, &delta)? {
                Ok(r) => r,
                Err(e) => return Ok(Err(e.to_string())),
            };
            let output = format!(
                "{name}: {}\n{name}: now {} entities ({} positive, {} negative), {} facts\n",
                receipt.summary(),
                train.entities().len(),
                train.positives().len(),
                train.negatives().len(),
                train.db.fact_count()
            );
            Ok(Ok(TaskOutput {
                output,
                model: None,
            }))
        }
        Task::Recheck { name, classes } => {
            let Some(train) = residents.get(name) else {
                return Ok(Err(residents.missing(name)));
            };
            let classes: &[ClassSpec] = if classes.is_empty() {
                &DEFAULT_CHECK_CLASSES
            } else {
                classes
            };
            let output = check_in(ctx, &train, classes)?;
            Ok(Ok(TaskOutput {
                output,
                model: None,
            }))
        }
        Task::Evaluate {
            train,
            test,
            methods,
            fit_timeout,
        } => {
            let (train, test) = match (load_training(train), load_training(test)) {
                (Ok(t), Ok(e)) => (t, e),
                (Err(e), _) | (_, Err(e)) => return Ok(Err(e)),
            };
            let methods: &[FitMethod] = if methods.is_empty() {
                &DEFAULT_EVALUATE_METHODS
            } else {
                methods
            };
            let output = evaluate_in(ctx, &train, &test, methods, *fit_timeout)?;
            Ok(Ok(TaskOutput {
                output,
                model: None,
            }))
        }
    }
}

/// Execute a task and flatten all three terminal states into an
/// [`Outcome`]. Stateless registry — see [`execute_res_in`].
pub fn execute_in(ctx: &Ctx, task: &Task) -> Outcome {
    execute_res_in(ctx, &Residents::new(), task)
}

/// Execute a task against a caller-owned resident registry and flatten
/// all three terminal states into an [`Outcome`] — what the worker pool
/// reports per job.
pub fn execute_res_in(ctx: &Ctx, residents: &Residents, task: &Task) -> Outcome {
    match run_task_res_in(ctx, residents, task) {
        Ok(Ok(out)) => Outcome::Success(out),
        Ok(Err(msg)) => Outcome::Failed(msg),
        Err(interrupted) => Outcome::Interrupted(interrupted),
    }
}

fn check_in(ctx: &Ctx, train: &TrainingDb, classes: &[ClassSpec]) -> Result<String, Interrupted> {
    let mut out = String::new();
    let n = train.entities().len();
    let _ = writeln!(
        out,
        "{} entities ({} positive, {} negative), {} facts",
        n,
        train.positives().len(),
        train.negatives().len(),
        train.db.fact_count()
    );
    for &c in classes {
        let answer = match c {
            ClassSpec::Cq => sep_cq::cq_separable_in(ctx, train)?,
            ClassSpec::Ghw(k) => sep_ghw::ghw_separable_in(ctx, train, k)?,
            ClassSpec::Cqm(m) => sep_cqm::cqm_separable_in(ctx, train, &EnumConfig::cqm(m))?,
        };
        let _ = writeln!(out, "{c:>8}-separable: {answer}");
        if !answer {
            let witness = match c {
                ClassSpec::Cq => sep_cq::cq_inseparability_witness_in(ctx, train)?,
                ClassSpec::Ghw(k) => sep_ghw::ghw_inseparability_witness_in(ctx, train, k)?,
                ClassSpec::Cqm(_) => None,
            };
            if let Some((p, q)) = witness {
                let _ = writeln!(
                    out,
                    "         witness: {} (+) and {} (-) are indistinguishable",
                    train.db.val_name(p),
                    train.db.val_name(q)
                );
            }
        }
    }
    Ok(out)
}

/// Generate a separator model for one class — the shared front half of
/// [`Task::Train`] and [`Task::ClassifyBatch`].
fn generate_model_in(
    ctx: &Ctx,
    train: &TrainingDb,
    class: ClassSpec,
) -> Result<Result<cqsep::SeparatorModel, String>, Interrupted> {
    let model = match class {
        ClassSpec::Cq => match sep_cq::cq_generate_in(ctx, train)? {
            Some(m) => m,
            None => return Ok(Err("not CQ-separable".to_string())),
        },
        ClassSpec::Ghw(k) => match gen_ghw::ghw_generate_in(ctx, train, k, TRAIN_GHW_BUDGET)? {
            Ok(m) => m,
            Err(e) => return Ok(Err(e.to_string())),
        },
        ClassSpec::Cqm(m) => match sep_cqm::cqm_generate_in(ctx, train, &EnumConfig::cqm(m))? {
            Some(model) => model,
            None => return Ok(Err(format!("not CQ[{m}]-separable"))),
        },
    };
    Ok(Ok(model))
}

fn train_in(
    ctx: &Ctx,
    train: &TrainingDb,
    class: ClassSpec,
) -> Result<Result<TaskOutput, String>, Interrupted> {
    let model = match generate_model_in(ctx, train, class)? {
        Ok(m) => m,
        Err(e) => return Ok(Err(e)),
    };
    let report = format!(
        "{class}: {} features, {} total atoms\n",
        model.statistic.dimension(),
        model.statistic.total_atoms()
    );
    Ok(Ok(TaskOutput {
        output: report,
        model: Some(cqsep::persist::model_to_text(&model)),
    }))
}

fn classify_in(
    ctx: &Ctx,
    train: &TrainingDb,
    eval: &Database,
    class: ClassSpec,
) -> Result<Result<TaskOutput, String>, Interrupted> {
    let labels = match class {
        ClassSpec::Ghw(k) => match cls_ghw::ghw_classify_in(ctx, train, eval, k)? {
            Ok(l) => l,
            Err(_) => return Ok(Err(format!("training data is not GHW({k})-separable"))),
        },
        ClassSpec::Cq => match sep_cq::cq_classify_in(ctx, train, eval)? {
            Some(l) => l,
            None => return Ok(Err("training data is not CQ-separable".to_string())),
        },
        ClassSpec::Cqm(m) => match sep_cqm::cqm_classify_in(ctx, train, eval, &EnumConfig::cqm(m))?
        {
            Some(l) => l,
            None => return Ok(Err(format!("training data is not CQ[{m}]-separable"))),
        },
    };
    Ok(Ok(TaskOutput {
        output: render_labels(eval, |e| labels.get(e)),
        model: None,
    }))
}

fn classify_batch_in(
    ctx: &Ctx,
    train: &TrainingDb,
    eval: &Database,
    class: ClassSpec,
) -> Result<Result<TaskOutput, String>, Interrupted> {
    let model = match generate_model_in(ctx, train, class)? {
        Ok(m) => m,
        Err(e) => return Ok(Err(e)),
    };
    let compiled = classifier::Model::compile_separator(&model);
    let (labels, stats) = compiled.classify_in(ctx, eval)?;
    let mut output = render_labels(eval, |e| labels.get(e));
    let _ = writeln!(
        output,
        "# compiled: {} features -> {} cores, {} trie nodes",
        compiled.original_dimension(),
        compiled.compiled_dimension(),
        compiled.trie_nodes()
    );
    let _ = writeln!(output, "# batch: {}", stats.report());
    Ok(Ok(TaskOutput {
        output,
        model: None,
    }))
}

fn relabel_in(ctx: &Ctx, train: &TrainingDb, k: usize) -> Result<String, Interrupted> {
    let relabeled = apx::ghw_optimal_relabeling_in(ctx, train, k)?;
    let errors = train.labeling.disagreement(&relabeled);
    // Express the repair as a label-only delta and push it through the
    // engine's delta layer against a scratch copy (relabel reports, it
    // does not mutate its input). Label flips are fingerprint-neutral,
    // so the receipt's edge is an identity edge — and a repeated
    // identical request is a lineage-registry hit: no fingerprint is
    // recomputed the second time.
    let mut delta = Delta::new();
    for e in train.entities() {
        if train.labeling.get(e) != relabeled.get(e) {
            delta = delta.flip_label(train.db.val_name(e));
        }
    }
    let mut scratch = train.clone();
    let receipt = ctx
        .apply_training_delta(&mut scratch, &delta)?
        .expect("flip-label delta over the training database's own entities cannot fail");
    let mut out = format!(
        "optimal GHW({k})-separable relabeling: {} disagreement(s)\n",
        errors
    );
    for e in train.entities() {
        let old = train.labeling.get(e);
        let new = relabeled.get(e);
        let mark = if old == new { " " } else { "*" };
        let _ = writeln!(
            out,
            "{mark} {} {} -> {}",
            train.db.val_name(e),
            sign(old),
            sign(new)
        );
    }
    let _ = writeln!(out, "# {}", receipt.summary());
    Ok(out)
}

fn evaluate_in(
    ctx: &Ctx,
    train: &TrainingDb,
    test: &TrainingDb,
    methods: &[FitMethod],
    fit_timeout: Option<Duration>,
) -> Result<String, Interrupted> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "train: {} entities ({}+ {}-), {} facts | test: {} entities ({}+ {}-), {} facts",
        train.entities().len(),
        train.positives().len(),
        train.negatives().len(),
        train.db.fact_count(),
        test.entities().len(),
        test.positives().len(),
        test.negatives().len(),
        test.db.fact_count()
    );
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>6} {:>6} {:>6} {:>9} {:>4}  fit",
        "method", "acc", "prec", "rec", "tp/fp", "train_err", "dim"
    );
    for &method in methods {
        // Each fit gets a child handle: its own budget capped by the
        // task deadline, sharing the task's cancel flag. A fit that
        // exhausts only its own budget becomes a "timed out" row; any
        // trip of the *task* handle aborts the whole report.
        let result = match fit_timeout {
            Some(budget) => {
                let fit_ctx = Ctx::with_interrupt(ctx.engine(), ctx.interrupt().child(budget));
                generalize::evaluate_in(&fit_ctx, train, test, method)
            }
            None => generalize::evaluate_in(ctx, train, test, method),
        };
        match result {
            Ok(r) => {
                let fit = if r.fit_exact {
                    "exact"
                } else {
                    match method {
                        FitMethod::Cqm(_) | FitMethod::Sep { .. } => "fallback(majority)",
                        FitMethod::Ghw(_) | FitMethod::MinError(_) => "approx",
                    }
                };
                let dim = r
                    .dimension
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let _ = writeln!(
                    out,
                    "{:<14} {:>5.3} {:>6.3} {:>6.3} {:>6} {:>9} {:>4}  {fit}",
                    method.to_string(),
                    r.accuracy(),
                    r.precision(),
                    r.recall(),
                    format!("{}/{}", r.tp, r.fp),
                    r.train_errors,
                    dim
                );
            }
            Err(_) => {
                // Distinguish "this fit's budget ran out" (a row; keep
                // going) from "the task handle tripped" (abort): the
                // sticky task handle answers directly.
                ctx.check()?;
                let _ = writeln!(
                    out,
                    "{:<14} fit timed out (budget {:.1}s)",
                    method.to_string(),
                    fit_timeout.map(|d| d.as_secs_f64()).unwrap_or(0.0)
                );
            }
        }
    }
    Ok(out)
}

/// Render entity labels one per line, sorted by entity name — the
/// classification output format shared by `classify` and
/// `classify-model`.
pub fn render_labels(db: &Database, get: impl Fn(relational::Val) -> Label) -> String {
    let mut out = String::new();
    let mut named: Vec<(String, relational::Val)> = db
        .entities()
        .into_iter()
        .map(|e| (db.val_name(e).to_string(), e))
        .collect();
    named.sort();
    for (name, e) in named {
        let _ = writeln!(out, "{name} {}", sign(get(e)));
    }
    out
}

fn sign(l: Label) -> &'static str {
    match l {
        Label::Positive => "+",
        Label::Negative => "-",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Engine;
    use std::time::Duration;

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

    #[test]
    fn class_spec_parses_valid_forms() {
        assert_eq!(ClassSpec::parse("cq"), Ok(ClassSpec::Cq));
        assert_eq!(ClassSpec::parse("ghw2"), Ok(ClassSpec::Ghw(2)));
        assert_eq!(ClassSpec::parse("cqm3"), Ok(ClassSpec::Cqm(3)));
    }

    /// Satellite requirement: every malformed spelling produces the one
    /// unified message — `ghw0`/`cqm0`, empty suffixes, and unknown
    /// prefixes are indistinguishable to the caller.
    #[test]
    fn class_spec_errors_are_unified() {
        for bad in ["ghw0", "cqm0", "ghw", "cqm", "ghwx", "cqm-1", "nope", ""] {
            let err = ClassSpec::parse(bad).unwrap_err();
            assert_eq!(
                err,
                format!("bad class {bad:?} (expected cq, ghw<k≥1>, cqm<m≥1>)"),
                "spelling {bad:?} must use the unified message"
            );
        }
    }

    #[test]
    fn check_task_reports_all_default_classes() {
        let engine = Engine::new();
        let out = run_task_in(
            &engine.ctx(),
            &Task::Check {
                train: TRAIN.to_string(),
                classes: vec![],
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("CQ-separable: true"), "{}", out.output);
        assert!(
            out.output.contains("GHW(1)-separable: true"),
            "{}",
            out.output
        );
        assert!(
            out.output.contains("CQ[2]-separable: true"),
            "{}",
            out.output
        );
        assert!(out.model.is_none());
    }

    #[test]
    fn train_task_returns_a_model() {
        let engine = Engine::new();
        let out = run_task_in(
            &engine.ctx(),
            &Task::Train {
                train: TRAIN.to_string(),
                class: ClassSpec::Cqm(1),
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("features"), "{}", out.output);
        let model = out.model.expect("train returns the model text");
        assert!(model.contains("feature"), "{model}");
    }

    #[test]
    fn classify_task_labels_eval_entities() {
        let engine = Engine::new();
        let out = run_task_in(
            &engine.ctx(),
            &Task::Classify {
                train: TRAIN.to_string(),
                eval: EVAL.to_string(),
                class: ClassSpec::Ghw(1),
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("u "), "{}", out.output);
        assert!(out.output.contains("v "), "{}", out.output);
    }

    #[test]
    fn classify_batch_task_labels_and_reports_stats() {
        let engine = Engine::new();
        let out = run_task_in(
            &engine.ctx(),
            &Task::ClassifyBatch {
                train: TRAIN.to_string(),
                eval: EVAL.to_string(),
                class: ClassSpec::Cqm(1),
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("u +"), "{}", out.output);
        assert!(out.output.contains("v -"), "{}", out.output);
        assert!(out.output.contains("# compiled: "), "{}", out.output);
        assert!(out.output.contains("# batch: "), "{}", out.output);
        assert!(out.model.is_none());
    }

    /// The batch path and the plain classify path agree on every entity —
    /// the compiled trie is an evaluation strategy, not a new model.
    #[test]
    fn classify_batch_agrees_with_classify() {
        let engine = Engine::new();
        let run = |task| run_task_in(&engine.ctx(), &task).unwrap().unwrap().output;
        let plain = run(Task::Classify {
            train: TRAIN.to_string(),
            eval: EVAL.to_string(),
            class: ClassSpec::Cqm(2),
        });
        let batch = run(Task::ClassifyBatch {
            train: TRAIN.to_string(),
            eval: EVAL.to_string(),
            class: ClassSpec::Cqm(2),
        });
        let labels_only = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(labels_only(&plain), labels_only(&batch));
    }

    #[test]
    fn relabel_task_reports_disagreements() {
        let engine = Engine::new();
        let noisy = "rel E/2\nfact E(a,b)\nfact E(b,a)\nentity a +\nentity b -\n";
        let out = run_task_in(
            &engine.ctx(),
            &Task::Relabel {
                train: noisy.to_string(),
                k: 1,
                name: None,
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("1 disagreement"), "{}", out.output);
        assert!(
            out.output.contains("applied label-only delta"),
            "{}",
            out.output
        );
    }

    #[test]
    fn append_creates_mutates_and_recheck_reads_residents() {
        let engine = Engine::new();
        let residents = Residents::new();
        let ctx = engine.ctx();
        // Born from base text, immediately grown by one entity.
        let out = run_task_res_in(
            &ctx,
            &residents,
            &Task::Append {
                name: "t".to_string(),
                base: Some(TRAIN.to_string()),
                delta: "add-fact E(c,d)\nadd-entity d -\n".to_string(),
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("applied insert-only"), "{}", out.output);
        assert!(out.output.contains("4 entities"), "{}", out.output);
        // The resident grew in place...
        assert_eq!(residents.get("t").unwrap().entities().len(), 4);
        // ...and recheck sees the grown database.
        let check = run_task_res_in(
            &ctx,
            &residents,
            &Task::Recheck {
                name: "t".to_string(),
                classes: vec![ClassSpec::Cq],
            },
        )
        .unwrap()
        .unwrap();
        assert!(check.output.contains("4 entities"), "{}", check.output);
        assert!(check.output.contains("CQ-separable"), "{}", check.output);
        // The engine recorded the fingerprint edge.
        assert!(engine.stats().sub.lineage_edges >= 1);
    }

    #[test]
    fn append_without_base_or_resident_is_a_domain_failure() {
        let engine = Engine::new();
        let residents = Residents::new();
        let err = run_task_res_in(
            &engine.ctx(),
            &residents,
            &Task::Append {
                name: "ghost".to_string(),
                base: None,
                delta: "add-fact E(a,b)\n".to_string(),
            },
        )
        .unwrap()
        .unwrap_err();
        assert!(err.contains("no resident database"), "{err}");
        // A bad delta is atomic: the resident is untouched.
        residents.insert("t", load_training(TRAIN).unwrap());
        let before = residents.get("t").unwrap().db.fact_count();
        let err = run_task_res_in(
            &engine.ctx(),
            &residents,
            &Task::Append {
                name: "t".to_string(),
                base: None,
                delta: "add-fact E(a,b)\ndel-fact E(z,z)\n".to_string(),
            },
        )
        .unwrap()
        .unwrap_err();
        assert!(err.contains("unknown element"), "{err}");
        assert_eq!(residents.get("t").unwrap().db.fact_count(), before);
    }

    #[test]
    fn relabel_by_name_reads_the_resident() {
        let engine = Engine::new();
        let residents = Residents::new();
        let noisy = "rel E/2\nfact E(a,b)\nfact E(b,a)\nentity a +\nentity b -\n";
        residents.insert("noisy", load_training(noisy).unwrap());
        let out = run_task_res_in(
            &engine.ctx(),
            &residents,
            &Task::Relabel {
                train: String::new(),
                k: 1,
                name: Some("noisy".to_string()),
            },
        )
        .unwrap()
        .unwrap();
        assert!(out.output.contains("1 disagreement"), "{}", out.output);
        // Report-only: the resident keeps its labels.
        let t = residents.get("noisy").unwrap();
        assert_eq!(t.positives().len(), 1);
    }

    const TEST_DB: &str = "\
rel E/2
fact E(t,u)
fact E(u,v)
entity t +
entity u +
entity v -
";

    #[test]
    fn evaluate_task_reports_heldout_metrics_for_all_default_methods() {
        let engine = Engine::new();
        let out = run_task_in(
            &engine.ctx(),
            &Task::Evaluate {
                train: TRAIN.to_string(),
                test: TEST_DB.to_string(),
                methods: vec![],
                fit_timeout: None,
            },
        )
        .unwrap()
        .unwrap();
        for m in DEFAULT_EVALUATE_METHODS {
            assert!(out.output.contains(&m.to_string()), "{m}: {}", out.output);
        }
        // The out-edge split is aced by every default method.
        assert!(out.output.contains("1.000"), "{}", out.output);
        assert!(!out.output.contains("timed out"), "{}", out.output);
        assert!(out.model.is_none());
    }

    #[test]
    fn evaluate_fit_timeout_marks_rows_without_sinking_the_task() {
        let engine = Engine::new();
        let out = run_task_in(
            &engine.ctx(),
            &Task::Evaluate {
                train: TRAIN.to_string(),
                test: TEST_DB.to_string(),
                methods: vec![FitMethod::Cqm(1), FitMethod::Ghw(1)],
                fit_timeout: Some(Duration::ZERO),
            },
        )
        .unwrap()
        .unwrap();
        // Every fit's child budget is already expired, but the task
        // itself succeeds with per-method timeout rows.
        assert_eq!(
            out.output.matches("fit timed out").count(),
            2,
            "{}",
            out.output
        );
    }

    #[test]
    fn evaluate_task_respects_the_outer_deadline() {
        let engine = Engine::new();
        let ctx = engine.ctx_with_deadline(Duration::ZERO);
        let outcome = execute_in(
            &ctx,
            &Task::Evaluate {
                train: TRAIN.to_string(),
                test: TEST_DB.to_string(),
                methods: vec![],
                fit_timeout: Some(Duration::from_secs(3600)),
            },
        );
        assert!(outcome.is_interrupted(), "{outcome:?}");
    }

    #[test]
    fn bad_database_text_is_a_domain_failure_not_a_panic() {
        let engine = Engine::new();
        let err = run_task_in(
            &engine.ctx(),
            &Task::Check {
                train: "this is not a database".to_string(),
                classes: vec![],
            },
        )
        .unwrap()
        .unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn expired_deadline_yields_interrupted_outcome() {
        let engine = Engine::new();
        let ctx = engine.ctx_with_deadline(Duration::ZERO);
        let outcome = execute_in(
            &ctx,
            &Task::Check {
                train: TRAIN.to_string(),
                classes: vec![],
            },
        );
        match outcome {
            Outcome::Interrupted(i) => assert!(i.deadline_exceeded()),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }
}
