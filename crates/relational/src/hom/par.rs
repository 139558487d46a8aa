//! Parallel drivers for fan-out over independent homomorphism queries.
//!
//! The separability algorithms are embarrassingly parallel at the pair
//! level: `cq_separable_in` asks Θ(|P|·|N|) independent hom questions,
//! chain construction fills an n×n preorder matrix, classification maps
//! each evaluation entity against each class representative. The drivers
//! here fan those out over `std::thread::scope` workers pulling indices
//! from a shared atomic cursor — no work queue, no external runtime, and
//! no allocation beyond one result slot per item.
//!
//! All drivers degrade to the plain sequential loop when the host has a
//! single core (or the item count is 1), so single-threaded behavior and
//! determinism are preserved exactly where parallelism cannot help.
//!
//! The closures run concurrently and therefore must be `Sync`; they get
//! `&Database` freely since databases are immutable during search (the
//! lazily-computed fingerprint is behind a `OnceLock`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Below this many items per worker, a [`WorkHint::Trivial`] task is not
/// worth a thread spawn: `std::thread::scope` setup plus cache traffic on
/// the shared cursor costs on the order of hundreds of microseconds,
/// which dwarfs that many trivial closure calls. Solver-sized items
/// (an LP, a hom search) amortize a spawn individually and are exempt.
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

/// Caller's estimate of per-item cost, used to decide whether spawning
/// workers can pay for itself (see [`TRIVIAL_SPAWN_FLOOR`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkHint {
    /// Sub-microsecond items (arithmetic, a hash probe): parallelize
    /// only with hundreds of items per worker.
    Trivial,
    /// Items that individually amortize a spawn (an LP solve, a hom
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
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
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
    let per_worker: Vec<Vec<(usize, U)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, u) in per_worker.into_iter().flatten() {
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
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                // Indices are claimed in ascending order, so anything at
                // or past the current best cannot improve it.
                if i >= items.len() || i >= best.load(Ordering::Relaxed) {
                    break;
                }
                if pred(&items[i]) {
                    best.fetch_min(i, Ordering::Relaxed);
                    break;
                }
            });
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
