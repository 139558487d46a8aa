//! Parallel drivers for fan-out over independent homomorphism queries.
//!
//! The separability algorithms are embarrassingly parallel at the pair
//! level: `cq_separable_in` asks Θ(|P|·|N|) independent hom questions,
//! chain construction fills an n×n preorder matrix, classification maps
//! each evaluation entity against each class representative. The drivers
//! here fan those out over workers pulling indices from a shared atomic
//! cursor — no work queue, no external runtime, and no allocation beyond
//! one result slot per item.
//!
//! The calling thread is always one of the workers. The others are
//! helpers from a process-wide pool of at most `cores − 1` threads,
//! spawned on first demand and then parked between batches, so a batch
//! pays a wake-up rather than a thread spawn. A helper joins a batch
//! only while the batch is still running, and the caller waits only for
//! helpers that joined: a helper that wakes late costs nothing, and the
//! batch's first items run in parallel as soon as a helper is free.
//!
//! All drivers degrade to the plain sequential loop when the host has a
//! single core (or the item count is 1), so single-threaded behavior and
//! determinism are preserved exactly where parallelism cannot help.
//!
//! The closures run concurrently and therefore must be `Sync`; they get
//! `&Database` freely since databases are immutable during search (the
//! lazily-computed fingerprint is behind a `OnceLock`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Below this many items per worker, a [`WorkHint::Trivial`] task is not
/// worth a helper: waking one plus cache traffic on the shared cursor
/// costs on the order of tens of microseconds, which dwarfs that many
/// trivial closure calls. Solver-sized items (an LP, a hom search)
/// amortize a helper individually and are exempt.
const TRIVIAL_SPAWN_FLOOR: usize = 512;

/// `std::thread::available_parallelism`, probed once per process. The
/// drivers consult this on every call, and the syscall behind it is not
/// free on all platforms.
pub fn hardware_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Caller's estimate of per-item cost, used to decide whether helpers
/// can pay for themselves (see [`TRIVIAL_SPAWN_FLOOR`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkHint {
    /// Sub-microsecond items (arithmetic, a hash probe): parallelize
    /// only with hundreds of items per worker.
    Trivial,
    /// Items that individually amortize a helper (an LP solve, a hom
    /// search, a subset block): parallelize whenever cores allow.
    Solver,
}

/// Worker count for `n_items` independent tasks under an optional thread
/// budget (an engine's configured cap) and a per-item cost hint: the
/// available parallelism, capped by the budget and the number of items,
/// then throttled so trivial items keep at least
/// [`TRIVIAL_SPAWN_FLOOR`] of them per worker. `Some(0)` is treated as
/// 1 — the drivers always make progress. Pure in `hw` for testability.
fn worker_count(hw: usize, n_items: usize, budget: Option<usize>, hint: WorkHint) -> usize {
    let cap = budget.unwrap_or(hw).max(1);
    let w = hw.min(cap).min(n_items).max(1);
    match hint {
        WorkHint::Solver => w,
        WorkHint::Trivial => w.min(n_items / TRIVIAL_SPAWN_FLOOR).max(1),
    }
}

/// A batch's work closure, borrowed from the caller's stack with its
/// lifetime erased so that pool helpers can call it.
#[derive(Clone, Copy)]
struct Work(*const (dyn Fn() + Sync));

// SAFETY: the closure is `Sync`, so calling it from another thread is
// sound; `run_with_helpers` keeps it alive while any helper holds it.
unsafe impl Send for Work {}

/// One running batch, as the pool's helpers see it.
struct Batch {
    id: u64,
    work: Work,
    /// Helpers that may still join.
    open: usize,
    /// Helpers inside `work` right now.
    running: usize,
    /// Did `work` panic on a helper?
    panicked: bool,
}

#[derive(Default)]
struct PoolState {
    batches: Vec<Batch>,
    next_id: u64,
    /// Helper threads spawned so far (they never exit).
    threads: usize,
    /// Helpers parked waiting for a batch.
    idle: usize,
}

/// The helper pool shared by every driver call in the process.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a batch is posted.
    posted: Condvar,
    /// Signalled when a helper leaves a batch.
    left: Condvar,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState::default()),
            posted: Condvar::new(),
            left: Condvar::new(),
        })
    }

    /// The pool lock. No closure runs under it, so it is never poisoned
    /// in a way that leaves the state inconsistent.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper thread's life: join any batch with an open slot, run its
    /// closure to exhaustion, report back, repeat; park while none is open.
    fn help(&'static self) {
        let mut st = self.lock();
        loop {
            let Some(batch) = st.batches.iter_mut().find(|b| b.open > 0) else {
                st.idle += 1;
                st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.idle -= 1;
                continue;
            };
            batch.open -= 1;
            batch.running += 1;
            let (id, work) = (batch.id, batch.work);
            drop(st);
            // SAFETY: `running` counts this helper, so the batch's caller
            // is still inside `run_with_helpers` and the closure is alive.
            let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*work.0)() })).is_ok();
            st = self.lock();
            let batch = st
                .batches
                .iter_mut()
                .find(|b| b.id == id)
                .expect("a batch outlives its helpers");
            batch.running -= 1;
            batch.panicked |= !ok;
            if batch.running == 0 {
                self.left.notify_all();
            }
        }
    }
}

/// Run `work` on the calling thread while up to `helpers` pool threads
/// run it too, and return once every copy has returned. `work` must
/// pull its items from shared state and return when none is left; a
/// helper that joins after that finds nothing and leaves at once.
/// A panic in any copy reaches the caller.
fn run_with_helpers(helpers: usize, work: &(dyn Fn() + Sync)) {
    /// Closes the batch and waits for the helpers inside it, also when
    /// the caller's own share unwinds.
    struct Leave(&'static Pool, u64);
    impl Leave {
        /// Close the batch to new helpers, wait for the ones inside and
        /// drop it. True iff one of them panicked. Idempotent.
        fn close(&self) -> bool {
            let Leave(pool, id) = *self;
            let at = |st: &PoolState| st.batches.iter().position(|b| b.id == id);
            let mut st = pool.lock();
            let Some(i) = at(&st) else {
                return false;
            };
            st.batches[i].open = 0;
            loop {
                let i = at(&st).expect("a batch stays posted until its caller closes it");
                if st.batches[i].running == 0 {
                    return st.batches.swap_remove(i).panicked;
                }
                st = pool.left.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
    impl Drop for Leave {
        fn drop(&mut self) {
            self.close();
        }
    }

    let pool = Pool::get();
    // SAFETY: only the lifetime changes. `leave` is created while the
    // batch is posted and, on return or unwind, waits until no helper
    // holds the pointer, so it never outlives this frame's borrow.
    let shared = Work(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync)>(work)
    });
    let (leave, spawn) = {
        let mut st = pool.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.batches.push(Batch {
            id,
            work: shared,
            open: helpers,
            running: 0,
            panicked: false,
        });
        let room = hardware_parallelism().saturating_sub(1 + st.threads);
        let spawn = helpers.saturating_sub(st.idle).min(room);
        st.threads += spawn;
        (Leave(pool, id), spawn)
    };
    for _ in 0..helpers {
        pool.posted.notify_one();
    }
    for _ in 0..spawn {
        // Helpers live for the process and are never joined: they park
        // between batches, and a panic inside a batch is caught and
        // handed to that batch's caller.
        let spawned = thread::Builder::new()
            .name("par-helper".into())
            .spawn(|| Pool::get().help());
        if spawned.is_err() {
            // The caller makes progress alone; fewer helpers join.
            pool.lock().threads -= 1;
        }
    }
    work();
    if leave.close() {
        panic!("parallel worker panicked");
    }
}

/// Does `pred` hold for **all** pairs? Early-exits on the first
/// counterexample: every worker checks a shared flag between items and
/// stops as soon as any worker refutes, so a cheap "no" is not delayed
/// by expensive unrelated searches.
pub fn par_all_pairs<A, B, F>(pairs: &[(A, B)], pred: F) -> bool
where
    A: Copy + Sync,
    B: Copy + Sync,
    F: Fn(A, B) -> bool + Sync,
{
    par_all_pairs_capped(pairs, None, pred)
}

/// [`par_all_pairs`] under an optional thread budget (`None` = all
/// available cores).
pub fn par_all_pairs_capped<A, B, F>(pairs: &[(A, B)], budget: Option<usize>, pred: F) -> bool
where
    A: Copy + Sync,
    B: Copy + Sync,
    F: Fn(A, B) -> bool + Sync,
{
    par_all_pairs_hinted(pairs, budget, WorkHint::Solver, pred)
}

/// [`par_all_pairs_capped`] with a per-item cost hint: trivial items run
/// sequentially unless there are enough of them per worker to amortize
/// the spawns.
pub fn par_all_pairs_hinted<A, B, F>(
    pairs: &[(A, B)],
    budget: Option<usize>,
    hint: WorkHint,
    pred: F,
) -> bool
where
    A: Copy + Sync,
    B: Copy + Sync,
    F: Fn(A, B) -> bool + Sync,
{
    let workers = worker_count(hardware_parallelism(), pairs.len(), budget, hint);
    if workers <= 1 {
        return pairs.iter().all(|&(a, b)| pred(a, b));
    }
    let cursor = AtomicUsize::new(0);
    let refuted = AtomicBool::new(false);
    run_with_helpers(workers - 1, &|| loop {
        if refuted.load(Ordering::Relaxed) {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= pairs.len() {
            break;
        }
        let (a, b) = pairs[i];
        if !pred(a, b) {
            refuted.store(true, Ordering::Relaxed);
            break;
        }
    });
    !refuted.load(Ordering::Relaxed)
}

/// Map `f` over `items` in parallel, preserving order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_capped(items, None, f)
}

/// [`par_map`] under an optional thread budget (`None` = all available
/// cores).
pub fn par_map_capped<T, U, F>(items: &[T], budget: Option<usize>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_hinted(items, budget, WorkHint::Solver, f)
}

/// [`par_map_capped`] with a per-item cost hint: trivial items run
/// sequentially unless there are enough of them per worker to amortize
/// the spawns.
pub fn par_map_hinted<T, U, F>(items: &[T], budget: Option<usize>, hint: WorkHint, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = worker_count(hardware_parallelism(), items.len(), budget, hint);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    run_with_helpers(workers - 1, &|| {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            out.push((i, f(&items[i])));
        }
        done.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(out);
    });
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, u) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index visited once"))
        .collect()
}

/// Index of the first item satisfying `pred` (the *lowest* matching
/// index, matching `Iterator::position`), or `None`. Workers past an
/// already-found match abandon their probes early.
pub fn par_find_first<T, F>(items: &[T], pred: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    par_find_first_capped(items, None, pred)
}

/// [`par_find_first`] under an optional thread budget (`None` = all
/// available cores). Still returns the *lowest* matching index.
pub fn par_find_first_capped<T, F>(items: &[T], budget: Option<usize>, pred: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    par_find_first_hinted(items, budget, WorkHint::Solver, pred)
}

/// [`par_find_first_capped`] with a per-item cost hint: trivial items run
/// sequentially unless there are enough of them per worker to amortize
/// the spawns. Still returns the *lowest* matching index.
pub fn par_find_first_hinted<T, F>(
    items: &[T],
    budget: Option<usize>,
    hint: WorkHint,
    pred: F,
) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    let workers = worker_count(hardware_parallelism(), items.len(), budget, hint);
    if workers <= 1 {
        return items.iter().position(pred);
    }
    let cursor = AtomicUsize::new(0);
    let best = AtomicUsize::new(usize::MAX);
    run_with_helpers(workers - 1, &|| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        // Indices are claimed in ascending order, so anything at or past
        // the current best cannot improve it.
        if i >= items.len() || i >= best.load(Ordering::Relaxed) {
            break;
        }
        if pred(&items[i]) {
            best.fetch_min(i, Ordering::Relaxed);
            break;
        }
    });
    let b = best.load(Ordering::Relaxed);
    (b != usize::MAX).then_some(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_pairs_empty_is_vacuously_true() {
        let pairs: Vec<(usize, usize)> = Vec::new();
        assert!(par_all_pairs(&pairs, |_, _| false));
    }

    #[test]
    fn all_pairs_finds_the_counterexample() {
        let pairs: Vec<(usize, usize)> = (0..100).map(|i| (i, i + 1)).collect();
        assert!(par_all_pairs(&pairs, |a, b| a < b));
        assert!(!par_all_pairs(&pairs, |a, _| a != 57));
    }

    #[test]
    fn all_pairs_early_exit_skips_work() {
        // With the counterexample first, most items should never be
        // visited (exact count depends on scheduling; bound it loosely).
        let pairs: Vec<(usize, usize)> = (0..10_000).map(|i| (i, i)).collect();
        let visited = AtomicUsize::new(0);
        assert!(!par_all_pairs(&pairs, |a, _| {
            visited.fetch_add(1, Ordering::Relaxed);
            a != 0
        }));
        assert!(
            visited.load(Ordering::Relaxed) < pairs.len(),
            "early exit should not visit every pair"
        );
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert!(par_map(&Vec::<usize>::new(), |&x: &usize| x).is_empty());
    }

    #[test]
    fn find_first_returns_lowest_index() {
        let items: Vec<usize> = (0..500).collect();
        assert_eq!(par_find_first(&items, |&x| x >= 123), Some(123));
        assert_eq!(par_find_first(&items, |&x| x > 10_000), None);
        assert_eq!(par_find_first(&Vec::<usize>::new(), |_| true), None);
    }

    #[test]
    fn worker_count_respects_budget_items_and_hint() {
        // Budget and item count cap the hardware figure.
        assert_eq!(worker_count(8, 100, None, WorkHint::Solver), 8);
        assert_eq!(worker_count(8, 100, Some(3), WorkHint::Solver), 3);
        assert_eq!(worker_count(8, 2, None, WorkHint::Solver), 2);
        assert_eq!(worker_count(8, 0, None, WorkHint::Solver), 1);
        // Budget 0 and 1 both mean "sequential, but make progress".
        assert_eq!(worker_count(8, 100, Some(0), WorkHint::Solver), 1);
        assert_eq!(worker_count(8, 100, Some(1), WorkHint::Solver), 1);
        assert_eq!(worker_count(1, 100, None, WorkHint::Solver), 1);
        // Trivial items need TRIVIAL_SPAWN_FLOOR of themselves per
        // worker before a spawn pays; solver items do not.
        assert_eq!(worker_count(8, 100, None, WorkHint::Trivial), 1);
        assert_eq!(
            worker_count(8, TRIVIAL_SPAWN_FLOOR * 2, None, WorkHint::Trivial),
            2
        );
        assert_eq!(
            worker_count(8, TRIVIAL_SPAWN_FLOOR * 100, None, WorkHint::Trivial),
            8
        );
    }

    #[test]
    fn budget_one_never_spawns_a_thread() {
        // The bug this pins: the drivers used to enter `thread::scope`
        // even when the effective budget was 1, paying spawn overhead to
        // do strictly sequential work. At budget 1 every closure must run
        // on the calling thread itself.
        let caller = thread::current().id();
        let items: Vec<usize> = (0..256).collect();

        let seen = par_map_capped(&items, Some(1), |_| thread::current().id());
        assert!(seen.iter().all(|&id| id == caller), "par_map spawned");

        let on_caller = AtomicUsize::new(0);
        let found = par_find_first_capped(&items, Some(1), |&x| {
            if thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
            x == 200
        });
        assert_eq!(found, Some(200));
        assert_eq!(
            on_caller.load(Ordering::Relaxed),
            201,
            "par_find_first spawned"
        );

        let pairs: Vec<(usize, usize)> = items.iter().map(|&i| (i, i)).collect();
        let on_caller = AtomicUsize::new(0);
        assert!(par_all_pairs_capped(&pairs, Some(1), |_, _| {
            if thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
            true
        }));
        assert_eq!(
            on_caller.load(Ordering::Relaxed),
            pairs.len(),
            "par_all_pairs spawned"
        );
    }

    #[test]
    fn helpers_join_while_the_first_item_runs() {
        // Two items that each wait for the other to start: they finish
        // only if a helper takes item 1 while the caller is still inside
        // item 0, i.e. the batch fans out from its first item.
        if hardware_parallelism() < 2 {
            return;
        }
        let started = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let met = par_map(&[0, 1], |_| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 {
                if std::time::Instant::now() > deadline {
                    return false;
                }
                thread::yield_now();
            }
            true
        });
        assert_eq!(met, vec![true, true], "the two items never overlapped");
    }

    #[test]
    fn helper_threads_are_reused_across_batches() {
        let items: Vec<usize> = (0..64).collect();
        let mut ids = std::collections::HashSet::new();
        for _ in 0..50 {
            ids.extend(par_map(&items, |_| thread::current().id()));
        }
        // The caller plus at most `cores − 1` pool helpers, however many
        // batches ran.
        assert!(ids.len() <= hardware_parallelism(), "{} threads", ids.len());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_survives() {
        let items: Vec<usize> = (0..200).collect();
        for bad in [0, 199] {
            let outcome = std::panic::catch_unwind(|| {
                par_map(&items, |&x| {
                    assert_ne!(x, bad, "item {bad} fails");
                    x
                })
            });
            assert!(outcome.is_err(), "the panic of item {bad} was lost");
        }
        assert_eq!(par_map(&items, |&x| x + 1)[199], 200);
    }

    #[test]
    fn nested_batches_finish() {
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..100).collect();
        let sums = par_map(&outer, |&o| {
            par_map(&inner, |&i| i * o).iter().sum::<usize>()
        });
        assert_eq!(sums, outer.iter().map(|&o| 4950 * o).collect::<Vec<_>>());
        assert!(par_all_pairs(&[(1, 2), (3, 4)], |a, b| {
            par_find_first(&inner, |&i| i == a + b).is_some()
        }));
    }

    #[test]
    fn trivial_hint_stays_sequential_on_small_batches() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..TRIVIAL_SPAWN_FLOOR - 1).collect();
        // Regardless of core count, fewer than a floor's worth of
        // trivial items must not spawn.
        let seen = par_map_hinted(&items, None, WorkHint::Trivial, |_| thread::current().id());
        assert!(seen.iter().all(|&id| id == caller));
        assert_eq!(
            par_find_first_hinted(&items, None, WorkHint::Trivial, |&x| x == 17),
            Some(17)
        );
    }
}
