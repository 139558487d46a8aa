//! Interruption suite for the `Ctx` task layer (PR 5's tentpole).
//!
//! Four contracts are under test:
//!
//! 1. **Prompt cancellation** — tripping a handle mid-solve unwinds the
//!    two heaviest loops (the pairwise cover-game sweep behind
//!    `CoverPreorder` and the `sep_dim` subset search) within bounded
//!    wall-clock, returning `Interrupted` with the cancellation reason.
//! 2. **Cache consistency** — an interrupted solve may not poison the
//!    engine's memo tables: re-running on the same engine completes and
//!    agrees with a fresh engine.
//! 3. **Zero deadline** — a `Duration::ZERO` budget makes *every*
//!    `foo_in` entry point return `Interrupted` (deadline reason)
//!    without panicking. The sweep below enumerates all of them; adding
//!    a `foo_in` without extending it should feel like a missing arm.
//! 4. **Past deadline** — an already-expired `Interrupt::at` handle
//!    behaves like a zero budget.

use cq::EnumConfig;
use cqsep::sep_dim::{self, DimBudget, DimClass};
use cqsep::{apx, chain, cls_ghw, fo, gen_ghw, sep_cq, sep_cqm, sep_dim_naive, sep_ghw};
use engine::{Engine, Interrupt, Reason};
use relational::TrainingDb;
use std::time::{Duration, Instant};
use workloads::lowerbound;

/// Generous per-test bound on how long a cancelled solve may keep
/// running. Cancellation checks sit between parallel fan-out blocks, so
/// the real latency is a block's worth of work — seconds of slack keep
/// slow CI hosts from flaking.
const PROMPTNESS: Duration = Duration::from_secs(20);

/// Cancel `handle` from another thread after `delay`, run `f`, and
/// return its result plus the wall-clock the solve consumed.
fn cancel_after<T>(handle: &Interrupt, delay: Duration, f: impl FnOnce() -> T) -> (T, Duration) {
    let trigger = handle.clone();
    let cancel = std::thread::spawn(move || {
        std::thread::sleep(delay);
        trigger.cancel();
    });
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed();
    cancel.join().unwrap();
    (out, elapsed)
}

#[test]
fn cancel_lands_mid_preorder_sweep() {
    // Large enough that the pairwise cover-game sweep takes far longer
    // than the 50ms cancellation delay (alternating_paths(10) already
    // blows a 1-second budget in the serve acceptance test).
    let train = lowerbound::alternating_paths(12);
    let engine = Engine::new();
    let handle = Interrupt::none();
    let ctx = engine.ctx_with_interrupt(handle.clone());

    let (result, elapsed) = cancel_after(&handle, Duration::from_millis(50), || {
        sep_ghw::ghw_preorder_in(&ctx, &train, 1)
    });
    let interrupted = result.expect_err("cancellation must unwind the preorder sweep");
    assert_eq!(interrupted.reason, Reason::Cancelled);
    assert!(
        elapsed < PROMPTNESS,
        "cancelled preorder kept running for {elapsed:?}"
    );
}

/// The parity workload from the LP benchmarks, rebuilt inline (bench is
/// not a dependency of this suite): rows are the 2^nbits bit vectors,
/// column `m` is the parity of `row & m`, labels are the parity of the
/// full mask. No subset of the columns is linearly separable from the
/// target (thresholds cannot compute XOR), so the subset sweep runs to
/// exhaustion — unless cancelled.
fn parity_columns(nbits: u32) -> (Vec<Vec<i32>>, Vec<i32>) {
    let rows = 1usize << nbits;
    let full = rows - 1;
    let sign = |v: usize| if v.count_ones() % 2 == 1 { 1 } else { -1 };
    let columns = (1..full)
        .map(|m| (0..rows).map(|r| sign(r & m)).collect())
        .collect();
    let labels = (0..rows).map(|r| sign(r & full)).collect();
    (columns, labels)
}

#[test]
fn cancel_lands_mid_subset_sweep() {
    // 30 columns at ell = 10 is ~55M candidate subsets: hours of LPs,
    // not milliseconds.
    let (columns, labels) = parity_columns(5);
    let engine = Engine::new();
    let handle = Interrupt::none();
    let ctx = engine.ctx_with_interrupt(handle.clone());

    let (result, elapsed) = cancel_after(&handle, Duration::from_millis(50), || {
        sep_dim::search_columns_in(&ctx, &columns, &labels, 10)
    });
    let interrupted = result.expect_err("cancellation must unwind the subset sweep");
    assert_eq!(interrupted.reason, Reason::Cancelled);
    assert!(
        elapsed < PROMPTNESS,
        "cancelled subset sweep kept running for {elapsed:?}"
    );
}

#[test]
fn interrupted_engine_stays_consistent() {
    // A deliberately-starved first attempt leaves partial entries in the
    // shared hom/game/LP caches. The contract: a re-run on the *same*
    // engine completes and agrees with a fresh engine everywhere.
    let train = lowerbound::alternating_paths(7);
    let warm = Engine::new();
    let starved = warm.ctx_with_deadline(Duration::from_millis(30));
    // The outcome of the starved attempt is host-speed-dependent and
    // deliberately unasserted; only the aftermath matters.
    let _ = sep_ghw::ghw_preorder_in(&starved, &train, 1);
    let _ = apx::ghw_min_errors_in(&starved, &train, 1);

    let fresh = Engine::new();
    assert_eq!(
        sep_ghw::ghw_separable_in(&warm.ctx(), &train, 1).unwrap(),
        sep_ghw::ghw_separable_in(&fresh.ctx(), &train, 1).unwrap(),
        "GHW separability must agree after an interrupted warm-up"
    );
    assert_eq!(
        apx::ghw_min_errors_in(&warm.ctx(), &train, 1).unwrap(),
        apx::ghw_min_errors_in(&fresh.ctx(), &train, 1).unwrap(),
        "minimum error count must agree after an interrupted warm-up"
    );
    assert_eq!(
        sep_cq::cq_separable_in(&warm.ctx(), &train).unwrap(),
        sep_cq::cq_separable_in(&fresh.ctx(), &train).unwrap(),
        "CQ separability must agree after an interrupted warm-up"
    );
}

/// Assert that a `foo_in` call under an expired context returned
/// `Err(Interrupted)` with the deadline reason.
macro_rules! expect_interrupted {
    ($name:expr, $call:expr) => {
        match $call {
            Err(stop) => assert!(
                stop.deadline_exceeded(),
                "{}: interrupted with wrong reason {:?}",
                $name,
                stop.reason
            ),
            Ok(_) => panic!("{}: completed under an expired deadline", $name),
        }
    };
}

/// Every interruptible entry point, called under the given context.
/// Shared between the zero-deadline and past-deadline sweeps.
fn sweep_all_entry_points(ctx: &engine::Ctx, train: &TrainingDb) {
    let eval = train.db.clone();
    let entities = train.entities();
    let (a, b) = (entities[0], entities[1]);
    let cfg = EnumConfig::cqm(1);
    let budget = DimBudget::default();
    let columns = vec![vec![1, -1], vec![-1, 1]];
    let labels = vec![1, -1];
    // Identity preorder matrix for build_chain_in.
    let n = entities.len();
    let leq: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect();
    // A real preorder (computed unbounded) for chain_vector_for.
    let pre = ctx
        .engine()
        .ctx()
        .preorder(&train.db, &entities, 1)
        .unwrap();
    let stat = sep_cqm::full_statistic(&train.db, &cfg.clone().syntactic());

    // crates/core: sep_cq
    expect_interrupted!("cq_separable_in", sep_cq::cq_separable_in(ctx, train));
    expect_interrupted!("cq_chain_in", sep_cq::cq_chain_in(ctx, train));
    expect_interrupted!("cq_generate_in", sep_cq::cq_generate_in(ctx, train));
    expect_interrupted!("cq_classify_in", sep_cq::cq_classify_in(ctx, train, &eval));
    expect_interrupted!(
        "cq_inseparability_witness_in",
        sep_cq::cq_inseparability_witness_in(ctx, train)
    );
    expect_interrupted!("epfo_separable_in", sep_cq::epfo_separable_in(ctx, train));

    // crates/core: sep_ghw + gen_ghw + cls_ghw
    expect_interrupted!("ghw_separable_in", sep_ghw::ghw_separable_in(ctx, train, 1));
    expect_interrupted!(
        "ghw_inseparability_witness_in",
        sep_ghw::ghw_inseparability_witness_in(ctx, train, 1)
    );
    expect_interrupted!("ghw_preorder_in", sep_ghw::ghw_preorder_in(ctx, train, 1));
    expect_interrupted!("ghw_chain_in", sep_ghw::ghw_chain_in(ctx, train, 1));
    expect_interrupted!(
        "ghw_generate_in",
        gen_ghw::ghw_generate_in(ctx, train, 1, 1_000_000)
    );
    expect_interrupted!(
        "ghw_classify_in",
        cls_ghw::ghw_classify_in(ctx, train, &eval, 1)
    );

    // crates/core: sep_cqm
    expect_interrupted!(
        "cqm_separable_in",
        sep_cqm::cqm_separable_in(ctx, train, &cfg)
    );
    expect_interrupted!(
        "cqm_generate_in",
        sep_cqm::cqm_generate_in(ctx, train, &cfg)
    );
    expect_interrupted!(
        "cqm_classify_in",
        sep_cqm::cqm_classify_in(ctx, train, &eval, &cfg)
    );
    expect_interrupted!(
        "column_reduced_statistic_in",
        sep_cqm::column_reduced_statistic_in(ctx, train, &cfg)
    );

    // crates/core: apx
    expect_interrupted!(
        "ghw_optimal_relabeling_in",
        apx::ghw_optimal_relabeling_in(ctx, train, 1)
    );
    expect_interrupted!("ghw_min_errors_in", apx::ghw_min_errors_in(ctx, train, 1));
    expect_interrupted!(
        "ghw_apx_separable_in",
        apx::ghw_apx_separable_in(ctx, train, 1, 0.1)
    );
    expect_interrupted!(
        "ghw_apx_classify_in",
        apx::ghw_apx_classify_in(ctx, train, &eval, 1)
    );
    expect_interrupted!(
        "cqm_apx_generate_in",
        apx::cqm_apx_generate_in(ctx, train, &cfg)
    );
    expect_interrupted!(
        "cqm_apx_separable_in",
        apx::cqm_apx_separable_in(ctx, train, &cfg, 0.1)
    );

    // crates/core: sep_dim + sep_dim_naive
    expect_interrupted!(
        "sep_dim_in",
        sep_dim::sep_dim_in(ctx, train, &DimClass::Cq, 2, &budget)
    );
    expect_interrupted!(
        "sep_dim_witness_in",
        sep_dim::sep_dim_witness_in(ctx, train, &DimClass::Cq, 2, &budget)
    );
    expect_interrupted!(
        "cq_sep_dim_in",
        sep_dim::cq_sep_dim_in(ctx, train, 2, &budget)
    );
    expect_interrupted!(
        "ghw_sep_dim_in",
        sep_dim::ghw_sep_dim_in(ctx, train, 1, 2, &budget)
    );
    expect_interrupted!(
        "cqm_sep_dim_in",
        sep_dim::cqm_sep_dim_in(ctx, train, &cfg, 2)
    );
    expect_interrupted!(
        "sep_dim_generate_in",
        sep_dim::sep_dim_generate_in(ctx, train, &DimClass::Cq, 2, &budget, 10_000)
    );
    expect_interrupted!(
        "sep_dim_classify_in",
        sep_dim::sep_dim_classify_in(ctx, train, &eval, &DimClass::Cq, 2, &budget, 10_000)
    );
    expect_interrupted!(
        "search_columns_in",
        sep_dim::search_columns_in(ctx, &columns, &labels, 2)
    );
    expect_interrupted!(
        "search_columns_seq_in",
        sep_dim::search_columns_seq_in(ctx, &columns, &labels, 2)
    );
    expect_interrupted!(
        "sep_dim_naive_in",
        sep_dim_naive::sep_dim_naive_in(ctx, train, &DimClass::Cq, 2, &budget)
    );

    // crates/core: chain, fo, statistic
    expect_interrupted!(
        "build_chain_in",
        chain::build_chain_in(ctx, train, &entities, &leq)
    );
    expect_interrupted!(
        "min_dimension_of_in",
        fo::min_dimension_of_in(ctx, train, &[], 8)
    );
    expect_interrupted!(
        "Statistic::apply_in",
        stat.apply_in(ctx, &train.db, &entities)
    );

    // crates/engine: QBE oracles and LP free functions
    expect_interrupted!(
        "cq_qbe_decide_in",
        engine::cq_qbe_decide_in(ctx, &train.db, &[a], &[b], 10_000)
    );
    expect_interrupted!(
        "cq_qbe_explain_in",
        engine::cq_qbe_explain_in(ctx, &train.db, &[a], &[b], 10_000)
    );
    expect_interrupted!(
        "ghw_qbe_decide_in",
        engine::ghw_qbe_decide_in(ctx, &train.db, &[a], &[b], 1, 10_000)
    );
    expect_interrupted!(
        "ghw_qbe_explain_in",
        engine::ghw_qbe_explain_in(ctx, &train.db, &[a], &[b], 1, 10_000, 10_000)
    );
    expect_interrupted!(
        "cqm_qbe_in",
        engine::cqm_qbe_in(ctx, &train.db, &[a], &[b], &cfg)
    );

    // crates/engine: Ctx primitives
    expect_interrupted!(
        "Ctx::hom_exists",
        ctx.hom_exists(&train.db, &train.db, &[(a, b)])
    );
    expect_interrupted!(
        "Ctx::cover_implies",
        ctx.cover_implies(&train.db, &[a], &train.db, &[b], 1)
    );
    expect_interrupted!("Ctx::separate", ctx.separate(&columns, &labels));
    expect_interrupted!(
        "Ctx::separate_warm",
        ctx.separate_warm(&columns, &labels, None)
    );
    expect_interrupted!("Ctx::min_error", ctx.min_error(&columns, &labels));
    expect_interrupted!("Ctx::preorder", ctx.preorder(&train.db, &entities, 1));
    expect_interrupted!(
        "Ctx::chain_vector_for",
        ctx.chain_vector_for(&pre, &train.db, &train.db, a)
    );
}

#[test]
fn zero_deadline_interrupts_every_entry_point() {
    let train = lowerbound::example_6_2();
    let engine = Engine::new();
    let ctx = engine.ctx_with_deadline(Duration::ZERO);
    sweep_all_entry_points(&ctx, &train);
}

#[test]
fn past_deadline_interrupts_every_entry_point() {
    let train = lowerbound::example_6_2();
    let engine = Engine::new();
    // A deadline that expired before the context was even built.
    let ctx = engine.ctx_with_interrupt(Interrupt::at(Instant::now()));
    sweep_all_entry_points(&ctx, &train);
}
