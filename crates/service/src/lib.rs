//! The task layer: every solver call packaged as an interruptible job
//! behind a long-lived, multi-tenant front-end.
//!
//! The stack, bottom to top:
//!
//! * [`task`] — the typed [`Task`] / [`Outcome`] vocabulary and the
//!   interruptible executor [`run_task_in`] (both the CLI subcommands
//!   and the server workers are thin clients of it);
//! * [`queue`] — a bounded, blocking priority queue with priority
//!   *aging* (waiting jobs gain a level every few pops, so low
//!   priorities cannot starve) and per-tenant *fair-share* tie-breaks
//!   fed by the [`FairShare`] cost ledger;
//! * [`tenant`] — one [`engine::Engine`] + [`Residents`] registry per
//!   tenant, held in a size-capped LRU that snapshots
//!   ([`engine::Engine::save`]) then evicts cold tenants and
//!   warm-restores them from `<cache-dir>/<tenant>/` on return;
//! * [`pool`] — worker threads routing each job to its tenant's
//!   engine, executed under its own [`Ctx`](engine::Ctx) built from
//!   the job's timeout, with every in-flight interrupt handle
//!   registered for shutdown cancellation;
//! * [`server`] — the `cqsep-serve` NDJSON protocol over stdin/stdout,
//!   a Unix domain socket, or TCP ([`serve_tcp`] — concurrent
//!   connections sharing one pool);
//! * [`router`] — the `cqsep-router` shard front-end: N supervised
//!   `cqsep-serve --tcp` worker processes, tenants rendezvous-hashed
//!   across them, NDJSON lines proxied to the owning shard and
//!   replayed on worker crash-restart;
//! * [`json`] — the minimal hand-written JSON the protocol rides on
//!   (the workspace `serde` is an offline marker-trait stand-in).
//!
//! Two shutdown disciplines, both leaving exactly one [`pool::Response`]
//! per submitted job: end-of-input *drains* (queued jobs still run);
//! an explicit `{"op":"shutdown"}` *cancels* — queued jobs are failed
//! without running and in-flight solvers are tripped through their
//! interrupt handles, unwinding with
//! [`Interrupted`](engine::Interrupted) at the next cancellation check.

pub mod json;
pub mod pool;
pub mod queue;
pub mod router;
pub mod server;
pub mod task;
pub mod tenant;

pub use pool::{Job, Pool, PoolCounters, Response};
pub use queue::{Closed, FairShare, JobQueue, TenantBill, DEFAULT_AGING_PERIOD};
pub use router::{run_router, shard_for, RouterOpts};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{serve, serve_tcp, ServeOpts, ServeSummary, TcpSummary, MAX_REQUEST_BYTES};
pub use task::{
    execute_in, execute_res_in, load_database, load_training, render_labels, run_task_in,
    run_task_res_in, ClassSpec, Outcome, Residents, Task, TaskOutput, DEFAULT_CHECK_CLASSES,
    DEFAULT_EVALUATE_METHODS,
};
pub use tenant::{validate_tenant_id, TenantConfig, TenantHandle, TenantRegistry};
