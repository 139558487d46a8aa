//! The worker pool: N threads pulling jobs from a bounded priority
//! [`JobQueue`] and executing each under the [`Ctx`](engine::Ctx) of
//! *its tenant's* engine — jobs without a tenant share the registry's
//! default engine (one set of memo tables — later jobs reuse verdicts
//! proved by earlier ones), jobs with one run fully isolated.
//!
//! Every finished job's `EngineStats` delta is billed to its tenant in
//! the shared [`FairShare`] ledger, which the queue consults to break
//! priority ties toward the lightest tenant; the queue's priority aging
//! keeps low-priority jobs from starving under sustained load.
//!
//! Every in-flight job's [`Interrupt`] handle is registered in a shared
//! table while it runs; the cancelling shutdown path walks the table and
//! trips every handle, so running solvers unwind with
//! `Interrupted { reason: Cancelled, .. }` at their next check instead
//! of running to completion. Exactly one [`Response`] is delivered per
//! submitted job — completed, interrupted, failed, or (for jobs still
//! queued when a cancelling shutdown starts) cancelled-before-start.

use crate::queue::{Closed, FairShare, JobQueue};
use crate::task::{execute_res_in, Outcome, Task};
use crate::tenant::{TenantHandle, TenantRegistry};
use engine::Interrupted;
use interrupt::{Interrupt, Reason};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A submitted unit of work: the task plus its scheduling envelope.
#[derive(Clone, Debug)]
pub struct Job {
    /// Caller-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    pub task: Task,
    /// Per-task budget; `None` runs unbounded (still cancellable).
    pub timeout: Option<Duration>,
    /// Higher pops first; default 0 is FIFO (see the queue's aging).
    pub priority: i64,
    /// Tenant to run as; `None` is the shared default tenant.
    pub tenant: Option<String>,
}

/// The terminal report for one [`Job`].
#[derive(Clone, Debug)]
pub struct Response {
    pub id: u64,
    pub outcome: Outcome,
    /// Wall-clock execution time (zero for jobs cancelled while queued).
    pub elapsed: Duration,
}

type QueuedJob = (Job, Sender<Response>);

/// Executed-job counters, by terminal status (the `stats` op's source).
#[derive(Debug, Default)]
pub struct PoolCounters {
    pub executed: AtomicU64,
    pub ok: AtomicU64,
    pub interrupted: AtomicU64,
    pub failed: AtomicU64,
}

/// See the module docs.
pub struct Pool {
    tenants: Arc<TenantRegistry>,
    queue: Arc<JobQueue<QueuedJob>>,
    fair: Arc<FairShare>,
    counters: Arc<PoolCounters>,
    inflight: Arc<Mutex<HashMap<u64, Interrupt>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawn `workers ≥ 1` threads over a queue admitting `queue_cap`
    /// pending jobs, routing each job to its tenant's engine and
    /// residents in `tenants`.
    pub fn with_tenants(tenants: Arc<TenantRegistry>, workers: usize, queue_cap: usize) -> Pool {
        assert!(workers >= 1, "need at least one worker");
        let fair = Arc::new(FairShare::new());
        let queue = Arc::new(JobQueue::bounded(queue_cap).with_fair_share(Arc::clone(&fair)));
        let counters = Arc::new(PoolCounters::default());
        let inflight = Arc::new(Mutex::new(HashMap::new()));
        let handles = (0..workers)
            .map(|_| {
                let tenants = Arc::clone(&tenants);
                let queue = Arc::clone(&queue);
                let inflight = Arc::clone(&inflight);
                let fair = Arc::clone(&fair);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    worker_loop(&tenants, &queue, &inflight, &fair, &counters)
                })
            })
            .collect();
        Pool {
            tenants,
            queue,
            fair,
            counters,
            inflight,
            workers: Mutex::new(handles),
        }
    }

    /// The tenant registry jobs are routed through.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.tenants
    }

    /// The per-tenant cost ledger (for the `stats` op).
    pub fn fair_share(&self) -> &Arc<FairShare> {
        &self.fair
    }

    /// Executed-job counters (for the `stats` op).
    pub fn counters(&self) -> &Arc<PoolCounters> {
        &self.counters
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Submit a job; its [`Response`] will arrive on `reply`. Blocks
    /// while the queue is full; fails once the pool is shutting down.
    pub fn submit(&self, job: Job, reply: Sender<Response>) -> Result<(), Closed> {
        let priority = job.priority;
        let tenant = job.tenant.clone();
        self.queue
            .push_tagged((job, reply), priority, tenant.as_deref())
    }

    /// Trip the interrupt handle of one in-flight job. Returns whether
    /// the id was actually running (queued/finished jobs are not).
    pub fn cancel(&self, id: u64) -> bool {
        match self.inflight.lock().unwrap().get(&id) {
            Some(handle) => {
                handle.cancel();
                true
            }
            None => false,
        }
    }

    /// Stop admitting jobs; workers drain the backlog then exit. Does
    /// not wait — pair with [`Pool::join`].
    pub fn close(&self) {
        self.queue.close();
    }

    /// Cancelling close: stop admitting jobs, report every still-queued
    /// job as cancelled *without running it*, and trip every in-flight
    /// job's handle (the solvers unwind at their next check and report
    /// `Interrupted`). Does not wait — pair with [`Pool::join`]. Safe
    /// to call from a connection thread while other connections still
    /// hold the pool.
    pub fn cancel_all(&self) {
        self.queue.close();
        let engine = self.tenants.default_engine();
        let zero = engine.stats();
        for (job, reply) in self.queue.drain_now() {
            let _ = reply.send(Response {
                id: job.id,
                outcome: Outcome::Interrupted(Interrupted {
                    reason: Reason::Cancelled,
                    partial_stats: Box::new(engine.stats().since(&zero)),
                }),
                elapsed: Duration::ZERO,
            });
        }
        for handle in self.inflight.lock().unwrap().values() {
            handle.cancel();
        }
    }

    /// Join the worker threads (after [`Pool::close`] or
    /// [`Pool::cancel_all`]; blocks until the backlog resolves).
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in handles {
            let _ = w.join();
        }
    }

    /// Graceful drain: stop admitting jobs, let the workers finish
    /// everything already queued, then join them.
    pub fn shutdown_drain(self) {
        self.close();
        self.join();
    }

    /// Cancelling shutdown: [`Pool::cancel_all`] then join the workers.
    pub fn shutdown_cancel(self) {
        self.cancel_all();
        self.join();
    }
}

fn worker_loop(
    tenants: &TenantRegistry,
    queue: &JobQueue<QueuedJob>,
    inflight: &Mutex<HashMap<u64, Interrupt>>,
    fair: &FairShare,
    counters: &PoolCounters,
) {
    while let Some((job, reply)) = queue.pop() {
        let TenantHandle { engine, residents } = match tenants.checkout(job.tenant.as_deref()) {
            Ok(handle) => handle,
            Err(msg) => {
                counters.executed.fetch_add(1, Ordering::Relaxed);
                counters.failed.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(Response {
                    id: job.id,
                    outcome: Outcome::Failed(msg),
                    elapsed: Duration::ZERO,
                });
                continue;
            }
        };
        let handle = match job.timeout {
            Some(budget) => Interrupt::with_deadline(budget),
            None => Interrupt::none(),
        };
        inflight.lock().unwrap().insert(job.id, handle.clone());
        let started = Instant::now();
        let before = engine.stats();
        let ctx = engine.ctx_with_interrupt(handle);
        let outcome = execute_res_in(&ctx, &residents, &job.task);
        inflight.lock().unwrap().remove(&job.id);
        fair.charge(
            job.tenant.as_deref(),
            engine.stats().since(&before).cost().max(1),
        );
        counters.executed.fetch_add(1, Ordering::Relaxed);
        match &outcome {
            Outcome::Success(_) => counters.ok.fetch_add(1, Ordering::Relaxed),
            Outcome::Interrupted(_) => counters.interrupted.fetch_add(1, Ordering::Relaxed),
            Outcome::Failed(_) => counters.failed.fetch_add(1, Ordering::Relaxed),
        };
        // A receiver that hung up just discards the report.
        let _ = reply.send(Response {
            id: job.id,
            outcome,
            elapsed: started.elapsed(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ClassSpec;
    use crate::tenant::TenantConfig;
    use std::sync::mpsc::channel;

    fn new_pool(workers: usize, queue_cap: usize) -> Pool {
        let tenants = Arc::new(TenantRegistry::new(TenantConfig::default()));
        Pool::with_tenants(tenants, workers, queue_cap)
    }

    const TRAIN: &str = "\
rel E/2
fact E(a,b)
fact E(b,c)
entity a +
entity b +
entity c -
";

    fn check_job(id: u64) -> Job {
        Job {
            id,
            task: Task::Check {
                train: TRAIN.to_string(),
                classes: vec![ClassSpec::Cq],
            },
            timeout: None,
            priority: 0,
            tenant: None,
        }
    }

    #[test]
    fn jobs_complete_and_correlate_by_id() {
        let pool = new_pool(2, 8);
        let (tx, rx) = channel();
        for id in 0..4 {
            pool.submit(check_job(id), tx.clone()).unwrap();
        }
        drop(tx);
        let mut responses: Vec<Response> = rx.iter().collect();
        responses.sort_by_key(|r| r.id);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.outcome.is_success(), "{:?}", r.outcome);
        }
        assert_eq!(pool.counters().executed.load(Ordering::Relaxed), 4);
        assert_eq!(pool.counters().ok.load(Ordering::Relaxed), 4);
        assert!(
            pool.fair_share().cost(None) >= 4,
            "every job bills at least one cost unit to its tenant"
        );
        pool.shutdown_drain();
    }

    #[test]
    fn zero_timeout_reports_interrupted_not_success() {
        let pool = new_pool(1, 4);
        let (tx, rx) = channel();
        let mut job = check_job(9);
        job.timeout = Some(Duration::ZERO);
        pool.submit(job, tx).unwrap();
        let r = rx.recv().unwrap();
        assert_eq!(r.id, 9);
        match r.outcome {
            Outcome::Interrupted(i) => assert!(i.deadline_exceeded()),
            other => panic!("expected Interrupted, got {other:?}"),
        }
        pool.shutdown_drain();
    }

    #[test]
    fn graceful_drain_finishes_queued_jobs() {
        let pool = new_pool(1, 16);
        let (tx, rx) = channel();
        for id in 0..6 {
            pool.submit(check_job(id), tx.clone()).unwrap();
        }
        drop(tx);
        pool.shutdown_drain();
        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 6);
        assert!(responses.iter().all(|r| r.outcome.is_success()));
    }

    #[test]
    fn cancelling_shutdown_reports_queued_jobs_as_cancelled() {
        // One worker, several queued jobs: at least the backlog must be
        // reported as cancelled-before-start.
        let pool = new_pool(1, 16);
        let (tx, rx) = channel();
        for id in 0..8 {
            pool.submit(check_job(id), tx.clone()).unwrap();
        }
        drop(tx);
        pool.shutdown_cancel();
        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 8, "every job gets exactly one response");
        let cancelled = responses
            .iter()
            .filter(|r| {
                matches!(
                    &r.outcome,
                    Outcome::Interrupted(i) if i.reason == Reason::Cancelled
                )
            })
            .count();
        let completed = responses.iter().filter(|r| r.outcome.is_success()).count();
        assert_eq!(cancelled + completed, 8);
        assert!(cancelled >= 1, "the backlog cannot all have run already");
    }

    #[test]
    fn cancel_by_id_only_hits_running_jobs() {
        let pool = new_pool(1, 4);
        assert!(!pool.cancel(12345), "unknown id is not in flight");
        pool.shutdown_drain();
    }

    #[test]
    fn tenant_jobs_run_on_isolated_engines() {
        let pool = new_pool(1, 8);
        let (tx, rx) = channel();
        let mut job = check_job(1);
        job.tenant = Some("acme".to_string());
        pool.submit(job, tx.clone()).unwrap();
        drop(tx);
        let r = rx.recv().unwrap();
        assert!(r.outcome.is_success(), "{:?}", r.outcome);
        // The work was billed to the tenant, not the default engine.
        assert!(pool.fair_share().cost(Some("acme")) >= 1);
        assert_eq!(pool.fair_share().cost(None), 0);
        let default_stats = pool.tenants().default_engine().stats();
        assert_eq!(
            default_stats.hom.solves, 0,
            "tenant work must not touch the default engine"
        );
        pool.shutdown_drain();
    }

    #[test]
    fn bad_tenant_id_fails_the_job_not_the_pool() {
        let pool = new_pool(1, 8);
        let (tx, rx) = channel();
        let mut job = check_job(1);
        job.tenant = Some("../escape".to_string());
        pool.submit(job, tx.clone()).unwrap();
        let r = rx.recv().unwrap();
        match &r.outcome {
            Outcome::Failed(msg) => assert!(msg.contains("bad tenant id"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The pool still serves.
        pool.submit(check_job(2), tx.clone()).unwrap();
        drop(tx);
        let r2 = rx.recv().unwrap();
        assert!(r2.outcome.is_success());
        pool.shutdown_drain();
    }
}
