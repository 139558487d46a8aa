//! Regression tests for LP-engine edge cases: degenerate shapes that the
//! enumeration algorithms actually generate (empty instances, single
//! rows, duplicate conflicts) and that historically would each have
//! tripped a different bug class (empty tableaus, zero-arity vectors,
//! pointless LP work on refutable instances).

use interrupt::Interrupt;
use linsep::{
    has_label_conflict, solve_lp_sparse, LinearClassifier, LpCounters, SparseOutcome, SparseReport,
};
use numeric::Rat;

fn separate_on(
    counters: &LpCounters,
    vectors: &[Vec<i32>],
    labels: &[i32],
) -> Option<LinearClassifier> {
    linsep::separate(counters, vectors, labels, None, &Interrupt::none())
        .unwrap()
        .result
        .map(|(c, _)| c)
}

fn separate(vectors: &[Vec<i32>], labels: &[i32]) -> Option<LinearClassifier> {
    separate_on(&LpCounters::new(), vectors, labels)
}

fn separate_margin(vectors: &[Vec<i32>], labels: &[i32]) -> Option<(LinearClassifier, Rat)> {
    linsep::separate(
        &LpCounters::new(),
        vectors,
        labels,
        None,
        &Interrupt::none(),
    )
    .unwrap()
    .result
}

/// The production LP solver, cold and uninterrupted, with its report.
fn solve_cold(a: &[Vec<Rat>], b: &[Rat], c: &[Rat]) -> (SparseOutcome, SparseReport) {
    let (out, report) = solve_lp_sparse(a, b, c, None, &Interrupt::none());
    (out.unwrap(), report)
}
use numeric::qint;

#[test]
fn empty_vector_set_is_trivially_separable() {
    let (c, margin) = separate_margin(&[], &[]).expect("empty set separates");
    assert_eq!(c.arity(), 0);
    assert!(margin.is_positive());
    assert_eq!(c.classify(&[]), 1, "empty score 0 ≥ threshold 0");
}

#[test]
fn single_row_is_separable_either_way() {
    for label in [1, -1] {
        let c = separate(&[vec![1, -1, 1]], &[label]).expect("one example always separates");
        assert_eq!(c.classify(&[1, -1, 1]), label);
    }
}

#[test]
fn duplicate_rows_with_opposite_labels_refute_without_pivoting() {
    // The conflict scan must catch this before the perceptron or the LP.
    // An isolated counter set (nothing else in the process writes to it)
    // makes the accounting exact: one prune, and no perceptron round,
    // LP, or pivot attributable to the call at all.
    let vectors = vec![vec![1, 1, -1], vec![-1, 1, 1], vec![1, 1, -1]];
    let labels = vec![1, 1, -1];
    assert!(has_label_conflict(&vectors, &labels));
    let counters = LpCounters::new();
    assert!(separate_on(&counters, &vectors, &labels).is_none());
    let delta = counters.snapshot();
    assert_eq!(delta.conflict_prunes, 1, "delta={delta:?}");
    assert_eq!(delta.perceptron_hits, 0, "delta={delta:?}");
    assert_eq!(delta.lps_solved, 0, "delta={delta:?}");
    assert_eq!(delta.simplex_pivots, 0, "delta={delta:?}");
}

#[test]
fn feasibility_lp_with_trivial_optimum_pivots_zero_times() {
    // In-band pivot accounting: an LP whose all-slack basis is already
    // optimal must report zero pivots.
    let a = vec![vec![qint(1)]];
    let b = vec![qint(5)];
    let c = vec![qint(-1)];
    let (out, report) = solve_cold(&a, &b, &c);
    assert!(matches!(out, SparseOutcome::Optimal { .. }));
    assert_eq!(report.pivots, 0);
}

#[test]
fn zero_arity_vectors_and_uniform_labels() {
    // Zero-dimensional feature space: separable iff the labels agree.
    assert!(separate(&[vec![], vec![], vec![]], &[1, 1, 1]).is_some());
    assert!(separate(&[vec![], vec![], vec![]], &[-1, -1, -1]).is_some());
    assert!(separate(&[vec![], vec![]], &[1, -1]).is_none());
}

#[test]
fn margin_is_exact_on_a_tight_instance() {
    // Two antipodal points: under the |w| ≤ 1 box the best margin for
    // ±(1,1) is 2 (w = (1,1), w0 = 0). The perceptron path normalizes
    // before reporting, the LP path optimizes directly; either way the
    // margin must be a positive exact rational, and the classifier tight.
    let (c, margin) = separate_margin(&[vec![1, 1], vec![-1, -1]], &[1, -1]).unwrap();
    assert!(margin.is_positive());
    assert!(margin <= qint(2), "box-normalized margin is at most 2");
    assert_eq!(c.classify(&[1, 1]), 1);
    assert_eq!(c.classify(&[-1, -1]), -1);
}

#[test]
fn promoted_solution_demotes_when_it_fits() {
    // Canonical-form invariant at the API boundary: values that fit i64
    // come back in the small representation even if intermediates
    // promoted.
    let k = qint(1 << 62);
    let (out, _) = solve_cold(&[vec![k.clone()]], &[&k * &qint(2)], &[qint(1)]);
    match out {
        SparseOutcome::Optimal { x, value, .. } => {
            assert_eq!(x[0], qint(2));
            assert!(x[0].is_small());
            assert_eq!(value, qint(2));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn lp_decided_separation_reads_back_a_separating_classifier() {
    // The LP tier alone decides a warm-offered solve (the perceptron is
    // skipped), so the classifier must be read back from the LP's
    // shifted variables consistently with how the LP was built: AND on
    // two ±1 features is separable with positive weights and threshold.
    let xor = vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]];
    let counters = LpCounters::new();
    let parent =
        linsep::separate(&counters, &xor, &[-1, 1, 1, -1], None, &Interrupt::none()).unwrap();
    assert!(parent.result.is_none(), "XOR is inseparable");
    let basis = parent.basis.expect("the LP ran and left a basis");
    let and = [1, -1, -1, -1];
    let out = linsep::separate(&counters, &xor, &and, Some(&basis), &Interrupt::none()).unwrap();
    let (c, margin) = out.result.expect("AND is separable");
    assert!(margin.is_positive());
    assert!(
        c.separates(xor.iter().map(|v| v.as_slice()).zip(and)),
        "{c} does not separate AND"
    );
    assert_eq!(counters.snapshot().perceptron_hits, 0, "the LP decided");
}
