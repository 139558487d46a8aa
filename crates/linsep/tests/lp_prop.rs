//! Agreement property tests: the sparse revised simplex
//! (`solve_lp_sparse_with_pricing`) must produce *identical* outcomes to
//! the seed all-`BigRational` dense solver (`solve_lp_big`) on randomized
//! LPs with `b ≥ 0`, and the warm-started separation path must reach the
//! same verdicts as cold solves and the oracle.
//!
//! This is stronger than "both are optimal": under Bland pricing both
//! engines start from the all-slack basis and use the same entering rule
//! and ratio tie-break, so the pivot sequences — and hence the pivot
//! count and the exact optimal vertex, not just the value — must
//! coincide.

use interrupt::Interrupt;
use linsep::{
    margin_lp, separate, solve_lp_big, solve_lp_big_counted, solve_lp_sparse_with_pricing,
    LpCounters, LpOutcomeBig, Pricing, SepBasis, SparseOutcome,
};
use numeric::Rat;
use proptest::prelude::*;

/// Strategy: one small-rational coefficient, biased toward integers and
/// including negatives.
fn coeff() -> impl Strategy<Value = (i64, i64)> {
    (
        prop_oneof![-6i64..7, -6i64..7, -6i64..7, -60i64..61],
        1i64..5,
    )
}

/// Strategy: a random LP `max cᵀx s.t. Ax ≤ b, x ≥ 0` with up to 3
/// variables and 5 rows, mixing bounded and unbounded shapes. `b` is
/// kept ≥ 0 (the sparse solver's precondition; the origin is feasible).
#[allow(clippy::type_complexity)]
fn lp_instance() -> impl Strategy<Value = (Vec<Vec<(i64, i64)>>, Vec<(i64, i64)>, Vec<(i64, i64)>)>
{
    (1usize..=3, 0usize..=5).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(proptest::collection::vec(coeff(), n), m),
            proptest::collection::vec(coeff().prop_map(|(p, q)| (p.abs(), q)), m),
            proptest::collection::vec(coeff(), n),
        )
    })
}

fn rat(p: (i64, i64)) -> Rat {
    Rat::new(p.0, p.1)
}

fn to_big(v: &[Rat]) -> Vec<numeric::BigRational> {
    v.iter().map(Rat::to_big).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hybrid_and_big_simplex_agree((a, b, c) in lp_instance()) {
        let a_rat: Vec<Vec<Rat>> = a
            .iter()
            .map(|row| row.iter().map(|&p| rat(p)).collect())
            .collect();
        let b_rat: Vec<Rat> = b.iter().map(|&p| rat(p)).collect();
        let c_rat: Vec<Rat> = c.iter().map(|&p| rat(p)).collect();
        let a_big: Vec<Vec<_>> = a_rat.iter().map(|row| to_big(row)).collect();

        let (fast, report) = solve_lp_sparse_with_pricing(
            &a_rat,
            &b_rat,
            &c_rat,
            None,
            Pricing::Bland,
            &Interrupt::none(),
        );
        let (slow, slow_pivots) = solve_lp_big_counted(&a_big, &to_big(&b_rat), &to_big(&c_rat));
        match (fast.expect("no interrupt handle was installed"), slow) {
            (SparseOutcome::Unbounded, LpOutcomeBig::Unbounded) => {}
            (
                SparseOutcome::Optimal { x, value, .. },
                LpOutcomeBig::Optimal { x: xb, value: vb },
            ) => {
                prop_assert_eq!(value.to_big(), vb);
                prop_assert_eq!(x.len(), xb.len());
                for (xi, xbi) in x.iter().zip(xb.iter()) {
                    // Same pivot sequence ⇒ same vertex, coordinatewise.
                    prop_assert_eq!(xi.to_big(), xbi.clone());
                }
            }
            (fast, slow) => {
                prop_assert!(false, "verdicts diverge: sparse={fast:?} big={slow:?}");
            }
        }
        prop_assert_eq!(report.pivots, slow_pivots, "identical pivot sequence");
    }
}

/// Strategy: a random ±1 training matrix with ±1 labels — the separation
/// instance family. Small dimensions make degenerate shapes (duplicate
/// rows, ties in the ratio test) and inseparable instances (label
/// conflicts, XOR-like patterns) common rather than rare.
fn sep_instance() -> impl Strategy<Value = (Vec<Vec<i32>>, Vec<i32>)> {
    (1usize..=6, 1usize..=4).prop_flat_map(|(rows, n)| {
        (
            proptest::collection::vec(
                proptest::collection::vec(prop_oneof![Just(1i32), Just(-1i32)], n),
                rows,
            ),
            proptest::collection::vec(prop_oneof![Just(1i32), Just(-1i32)], rows),
        )
    })
}

/// The dense oracle's verdict on the margin LP: the optimum exceeds
/// `n + 2` iff the rows separate.
fn oracle_separates(vectors: &[Vec<i32>], labels: &[i32]) -> bool {
    let (a, b, c) = margin_lp(vectors, labels);
    let a: Vec<Vec<_>> = a.iter().map(|row| to_big(row)).collect();
    match solve_lp_big(&a, &to_big(&b), &to_big(&c)) {
        LpOutcomeBig::Optimal { value, .. } => value > numeric::int(vectors[0].len() as i64 + 2),
        other => panic!("margin LP must be optimal, oracle says {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sparse revised simplex agrees with the all-`BigRational`
    /// oracle on every margin LP: same verdict (always Optimal — the LP
    /// is box-bounded and feasible) and the same optimal value under
    /// partial pricing; under Bland pricing the pivot sequence matches
    /// the dense tableau's, so the exact optimal vertex must coincide
    /// coordinatewise too.
    #[test]
    fn sparse_and_big_simplex_agree_on_margin_lps((vectors, labels) in sep_instance()) {
        let (a, b, c) = margin_lp(&vectors, &labels);
        let a_big: Vec<Vec<_>> = a.iter().map(|row| to_big(row)).collect();
        let oracle = match solve_lp_big(&a_big, &to_big(&b), &to_big(&c)) {
            LpOutcomeBig::Optimal { x, value } => (x, value),
            other => {
                prop_assert!(false, "oracle says {:?}", other);
                unreachable!()
            }
        };

        for pricing in [Pricing::Partial, Pricing::Bland] {
            let (res, report) =
                solve_lp_sparse_with_pricing(&a, &b, &c, None, pricing, &Interrupt::none());
            prop_assert!(!report.warm_used, "no warm offer was made");
            match res.expect("no interrupt handle was installed") {
                SparseOutcome::Optimal { x, value, .. } => {
                    prop_assert_eq!(value.to_big(), oracle.1.clone());
                    if pricing == Pricing::Bland {
                        // Bland mode replays the dense oracle's pivot
                        // sequence, so the vertex itself must match.
                        prop_assert_eq!(x.len(), oracle.0.len());
                        for (xi, xbi) in x.iter().zip(oracle.0.iter()) {
                            prop_assert_eq!(xi.to_big(), xbi.clone());
                        }
                    }
                }
                SparseOutcome::Unbounded => {
                    prop_assert!(false, "margin LP cannot be unbounded");
                }
            }
        }
    }

    /// `S → S ∪ {j}` basis reuse never changes a feasibility verdict:
    /// growing a column subset one column at a time, each step solved
    /// warm from the previous step's basis, must classify exactly like
    /// independent cold solves — and like the sibling-warmed variant that
    /// reuses a same-size neighbor's basis. Every verdict the LP tier
    /// reached (warm or cold) must match the dense oracle's verdict on
    /// the same margin LP.
    #[test]
    fn warm_chains_preserve_separability_verdicts((vectors, labels) in sep_instance()) {
        let intr = Interrupt::none();
        let ncols = vectors[0].len();
        let project = |upto: usize| -> Vec<Vec<i32>> {
            vectors.iter().map(|v| v[..upto].to_vec()).collect()
        };

        // Parent chain: basis of columns 0..k warms columns 0..k+1.
        let warm_counters = LpCounters::new();
        let mut parent: Option<SepBasis> = None;
        let mut warm_verdicts = Vec::with_capacity(ncols);
        for k in 1..=ncols {
            let out = separate(
                &warm_counters,
                &project(k),
                &labels,
                parent.as_ref(),
                &intr,
            )
            .expect("no deadline");
            if out.basis.is_some() {
                prop_assert_eq!(
                    out.result.is_some(),
                    oracle_separates(&project(k), &labels),
                    "prefix of {} columns: warm LP and dense oracle disagree",
                    k
                );
            }
            warm_verdicts.push(out.result.is_some());
            parent = out.basis;
        }

        // Cold reference, one independent solve per prefix.
        let cold_counters = LpCounters::new();
        for (k, &warm_verdict) in (1..=ncols).zip(warm_verdicts.iter()) {
            let cold = separate(&cold_counters, &project(k), &labels, None, &intr)
                .expect("no deadline");
            prop_assert_eq!(
                warm_verdict,
                cold.result.is_some(),
                "prefix of {} columns: warm chain and cold solve disagree",
                k
            );
            if cold.basis.is_some() {
                prop_assert_eq!(
                    cold.result.is_some(),
                    oracle_separates(&project(k), &labels),
                    "prefix of {} columns: cold LP and dense oracle disagree",
                    k
                );
            }
        }

        // Sibling chain at full arity: the basis of (prefix + [last])
        // offered to itself re-solved — a same-shape reuse — and the
        // verdict must be stable under it.
        if let Some(basis) = parent {
            let sibling = separate(
                &LpCounters::new(),
                &project(ncols),
                &labels,
                Some(&basis),
                &intr,
            )
            .expect("no deadline");
            prop_assert_eq!(sibling.result.is_some(), *warm_verdicts.last().unwrap());
        }

        // The warm chain skips the perceptron tier whenever a basis is
        // on offer, so it can only decide *more* prefixes by LP than the
        // cold reference — never fewer.
        prop_assert!(
            warm_counters.snapshot().lps_solved >= cold_counters.snapshot().lps_solved
        );
    }
}
