//! Regression tests for LP-engine edge cases: degenerate shapes that the
//! enumeration algorithms actually generate (empty instances, single
//! rows, duplicate conflicts) and that historically would each have
//! tripped a different bug class (empty tableaus, zero-arity vectors,
//! pointless LP work on refutable instances).

use linsep::{
    has_label_conflict, separate_counted, separate_with_margin_counted, solve_lp_counted,
    LinearClassifier, LpCounters, LpOutcome,
};
use numeric::Rat;

fn separate(vectors: &[Vec<i32>], labels: &[i32]) -> Option<LinearClassifier> {
    separate_counted(&LpCounters::new(), vectors, labels)
}

fn separate_with_margin(vectors: &[Vec<i32>], labels: &[i32]) -> Option<(LinearClassifier, Rat)> {
    separate_with_margin_counted(&LpCounters::new(), vectors, labels)
}
use numeric::qint;

#[test]
fn empty_vector_set_is_trivially_separable() {
    let (c, margin) = separate_with_margin(&[], &[]).expect("empty set separates");
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
    assert!(separate_counted(&counters, &vectors, &labels).is_none());
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
    let (out, pivots) = solve_lp_counted(&a, &b, &c);
    assert!(matches!(out, LpOutcome::Optimal { .. }));
    assert_eq!(pivots, 0);
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
    let (c, margin) = separate_with_margin(&[vec![1, 1], vec![-1, -1]], &[1, -1]).unwrap();
    assert!(margin.is_positive());
    assert!(margin <= qint(2), "box-normalized margin is at most 2");
    assert_eq!(c.classify(&[1, 1]), 1);
    assert_eq!(c.classify(&[-1, -1]), -1);
}

#[test]
fn lp_handles_all_negative_rhs() {
    // Every constraint needs an artificial: x ≥ 3, y ≥ 2, max -(x+y).
    let a = vec![vec![qint(-1), qint(0)], vec![qint(0), qint(-1)]];
    let b = vec![qint(-3), qint(-2)];
    let c = vec![qint(-1), qint(-1)];
    let (out, pivots) = solve_lp_counted(&a, &b, &c);
    match out {
        LpOutcome::Optimal { x, value } => {
            assert_eq!(x, vec![qint(3), qint(2)]);
            assert_eq!(value, qint(-5));
        }
        other => panic!("{other:?}"),
    }
    assert!(pivots >= 2, "phase 1 must drive out both artificials");
}

#[test]
fn promoted_solution_demotes_when_it_fits() {
    // Canonical-form invariant at the API boundary: values that fit i64
    // come back in the small representation even if intermediates
    // promoted.
    let k = qint(1 << 62);
    let (out, _) = solve_lp_counted(&[vec![k.clone()]], &[&k * &qint(2)], &[qint(1)]);
    match out {
        LpOutcome::Optimal { x, value } => {
            assert_eq!(x[0], qint(2));
            assert!(x[0].is_small());
            assert_eq!(value, qint(2));
        }
        other => panic!("{other:?}"),
    }
}
