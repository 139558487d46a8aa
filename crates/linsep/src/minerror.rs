//! Exact minimum-error linear classification (approximate separability).
//!
//! §7 of the paper allows an ε fraction of misclassified examples;
//! deciding whether a linear classifier with at most `ε·n` errors exists
//! is NP-complete (\[17\]). The FPT algorithms of Propositions 7.2/7.3 work
//! because the feature dimension is bounded by a function of the schema:
//! with `d` features there are at most `2^d` distinct vectors ("types"),
//! every classifier acts on types, and one can search the type-label
//! assignments.
//!
//! This module implements that search exactly: group examples by vector,
//! branch-and-bound over `{±1}` assignments to types (cost of assigning a
//! type to a side = examples of the other side in it), pruning with (a)
//! the sum of per-type minimum costs and (b) LP separability of the
//! partial assignment. The greedy majority assignment provides the
//! initial upper bound — when it happens to be separable it is optimal.

use crate::classifier::LinearClassifier;
use crate::separate::separate;
use crate::stats::LpCounters;
use interrupt::{Interrupt, Stop};
use std::collections::HashMap;

/// Result of [`min_error_classifier`].
#[derive(Clone, Debug)]
pub struct MinErrorResult {
    /// A classifier achieving the minimum number of errors.
    pub classifier: LinearClassifier,
    /// The minimum number of misclassified examples.
    pub errors: usize,
    /// The relabeling realized by the classifier, aligned with the input
    /// examples.
    pub labels: Vec<i32>,
}

/// Compute an error-minimizing linear classifier for labeled ±1 vectors.
///
/// Exact; worst-case exponential in the number of *distinct* vectors
/// (inherently so — the problem is NP-complete), which is what makes the
/// paper's FPT claims work when the dimension is schema-bounded.
/// Every internal LP decision is recorded into `counters`. The
/// branch-and-bound observes `intr` at every search node and inside
/// every pruning LP; the partial incumbent is discarded on [`Stop`] (a
/// truncated search cannot certify minimality).
pub fn min_error_classifier(
    counters: &LpCounters,
    vectors: &[Vec<i32>],
    labels: &[i32],
    intr: &Interrupt,
) -> Result<MinErrorResult, Stop> {
    assert_eq!(vectors.len(), labels.len());
    intr.check()?;
    if vectors.is_empty() {
        return Ok(MinErrorResult {
            classifier: LinearClassifier::new(numeric::qint(0), Vec::new()),
            errors: 0,
            labels: Vec::new(),
        });
    }

    // Group into types.
    let mut type_of: HashMap<&[i32], usize> = HashMap::new();
    let mut types: Vec<&[i32]> = Vec::new();
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for (v, &y) in vectors.iter().zip(labels.iter()) {
        let t = *type_of.entry(v.as_slice()).or_insert_with(|| {
            types.push(v.as_slice());
            pos.push(0usize);
            neg.push(0usize);
            types.len() - 1
        });
        if y == 1 {
            pos[t] += 1;
        } else {
            neg[t] += 1;
        }
    }
    let ntypes = types.len();

    // Cost of assigning type t to +1 is neg[t]; to -1 is pos[t].
    // Branch on types in descending |pos - neg| so strong majorities are
    // fixed early and the bound tightens fast.
    let mut order: Vec<usize> = (0..ntypes).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(pos[t].abs_diff(neg[t])));

    // Initial upper bound: the greedy majority assignment if separable,
    // else the trivial all-(majority-class) classifier.
    let total_pos: usize = pos.iter().sum();
    let total_neg: usize = neg.iter().sum();
    let mut best_cost = total_pos.min(total_neg);
    let mut best_assign: Vec<i32> = if total_pos >= total_neg {
        vec![1; ntypes]
    } else {
        vec![-1; ntypes]
    };
    {
        let majority: Vec<i32> = (0..ntypes)
            .map(|t| if pos[t] >= neg[t] { 1 } else { -1 })
            .collect();
        let cost: usize = (0..ntypes)
            .map(|t| if majority[t] == 1 { neg[t] } else { pos[t] })
            .sum();
        if cost < best_cost && assignment_separable(counters, &types, &majority, intr)? {
            best_cost = cost;
            best_assign = majority;
        }
    }

    // Remaining-cost lower bounds per suffix of `order`.
    let mut suffix_min = vec![0usize; ntypes + 1];
    for i in (0..ntypes).rev() {
        let t = order[i];
        suffix_min[i] = suffix_min[i + 1] + pos[t].min(neg[t]);
    }

    let mut assign = vec![0i32; ntypes];
    branch(
        counters,
        &types,
        &pos,
        &neg,
        &order,
        &suffix_min,
        0,
        0,
        &mut assign,
        &mut best_cost,
        &mut best_assign,
        intr,
    )?;

    // Realize the best assignment with an actual classifier.
    let type_vectors: Vec<Vec<i32>> = types.iter().map(|t| t.to_vec()).collect();
    let (classifier, _) = separate(counters, &type_vectors, &best_assign, None, intr)?
        .result
        .expect("best assignment was verified separable");
    let labels_out: Vec<i32> = vectors
        .iter()
        .map(|v| best_assign[type_of[v.as_slice()]])
        .collect();
    let errors = labels_out
        .iter()
        .zip(labels.iter())
        .filter(|(a, b)| a != b)
        .count();
    debug_assert_eq!(errors, best_cost);
    Ok(MinErrorResult {
        classifier,
        errors,
        labels: labels_out,
    })
}

#[allow(clippy::too_many_arguments)]
fn branch(
    counters: &LpCounters,
    types: &[&[i32]],
    pos: &[usize],
    neg: &[usize],
    order: &[usize],
    suffix_min: &[usize],
    i: usize,
    cost: usize,
    assign: &mut Vec<i32>,
    best_cost: &mut usize,
    best_assign: &mut Vec<i32>,
    intr: &Interrupt,
) -> Result<(), Stop> {
    intr.check()?;
    if cost + suffix_min[i] >= *best_cost {
        return Ok(());
    }
    if i == order.len() {
        // cost < best, and the prefix checks kept us separable.
        *best_cost = cost;
        *best_assign = assign.clone();
        return Ok(());
    }
    let t = order[i];
    // Try the cheaper side first.
    let sides: [i32; 2] = if neg[t] <= pos[t] { [1, -1] } else { [-1, 1] };
    for side in sides {
        let step = if side == 1 { neg[t] } else { pos[t] };
        assign[t] = side;
        if cost + step + suffix_min[i + 1] < *best_cost
            && prefix_separable(counters, types, order, i, assign, intr)?
        {
            branch(
                counters,
                types,
                pos,
                neg,
                order,
                suffix_min,
                i + 1,
                cost + step,
                assign,
                best_cost,
                best_assign,
                intr,
            )?;
        }
    }
    assign[t] = 0;
    Ok(())
}

fn prefix_separable(
    counters: &LpCounters,
    types: &[&[i32]],
    order: &[usize],
    upto: usize,
    assign: &[i32],
    intr: &Interrupt,
) -> Result<bool, Stop> {
    let mut vs = Vec::with_capacity(upto + 1);
    let mut ys = Vec::with_capacity(upto + 1);
    for &t in &order[..=upto] {
        vs.push(types[t].to_vec());
        ys.push(assign[t]);
    }
    Ok(separate(counters, &vs, &ys, None, intr)?.result.is_some())
}

fn assignment_separable(
    counters: &LpCounters,
    types: &[&[i32]],
    assign: &[i32],
    intr: &Interrupt,
) -> Result<bool, Stop> {
    let vs: Vec<Vec<i32>> = types.iter().map(|t| t.to_vec()).collect();
    Ok(separate(counters, &vs, assign, None, intr)?
        .result
        .is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min_error_classifier(vectors: &[Vec<i32>], labels: &[i32]) -> MinErrorResult {
        super::min_error_classifier(&LpCounters::new(), vectors, labels, &Interrupt::none())
            .unwrap()
    }

    fn separate(vectors: &[Vec<i32>], labels: &[i32]) -> Option<LinearClassifier> {
        super::separate(
            &LpCounters::new(),
            vectors,
            labels,
            None,
            &Interrupt::none(),
        )
        .unwrap()
        .result
        .map(|(c, _)| c)
    }

    #[test]
    fn separable_input_has_zero_errors() {
        let vectors = vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]];
        let labels = vec![1, -1, -1, -1];
        let r = min_error_classifier(&vectors, &labels);
        assert_eq!(r.errors, 0);
        assert_eq!(r.labels, labels);
    }

    #[test]
    fn xor_needs_one_error() {
        let vectors = vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]];
        let labels = vec![-1, 1, 1, -1];
        let r = min_error_classifier(&vectors, &labels);
        assert_eq!(r.errors, 1);
        // The realized labeling must itself be separable and differ in
        // exactly one place.
        assert!(r.classifier.separates(
            vectors
                .iter()
                .map(|v| v.as_slice())
                .zip(r.labels.iter().copied())
        ));
    }

    #[test]
    fn contradictory_type_pays_its_minority() {
        // Same vector seen 5 times positive, 2 times negative: any
        // classifier errs on at least 2.
        let mut vectors = vec![vec![1]; 7];
        let mut labels = vec![1, 1, 1, 1, 1, -1, -1];
        vectors.push(vec![-1]);
        labels.push(-1);
        let r = min_error_classifier(&vectors, &labels);
        assert_eq!(r.errors, 2);
    }

    #[test]
    fn weighted_xor_chooses_cheap_corner() {
        // XOR with multiplicities: corner (1,1) negative x1, (1,-1)
        // positive x5, (-1,1) positive x5, (-1,-1) negative x1.
        // Flipping both negative corners (cost 2) beats flipping a
        // positive one (cost 5)... flipping one negative corner (cost 1)
        // already yields a separable labeling (OR-like), so optimum is 1.
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        vectors.push(vec![1, 1]);
        labels.push(-1);
        for _ in 0..5 {
            vectors.push(vec![1, -1]);
            labels.push(1);
            vectors.push(vec![-1, 1]);
            labels.push(1);
        }
        vectors.push(vec![-1, -1]);
        labels.push(-1);
        let r = min_error_classifier(&vectors, &labels);
        assert_eq!(r.errors, 1);
    }

    #[test]
    fn empty_input() {
        let r = min_error_classifier(&[], &[]);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn brute_force_agreement_small_random() {
        // Compare against brute force over all type assignments.
        let mut x = 7u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for trial in 0..10 {
            let dims = 2 + trial % 2;
            let n = 8;
            let mut vectors = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..n {
                let v: Vec<i32> = (0..dims)
                    .map(|_| if rnd() % 2 == 0 { 1 } else { -1 })
                    .collect();
                vectors.push(v);
                labels.push(if rnd() % 2 == 0 { 1 } else { -1 });
            }
            let r = min_error_classifier(&vectors, &labels);
            let brute = brute_min_errors(&vectors, &labels);
            assert_eq!(r.errors, brute, "trial {trial}: {vectors:?} {labels:?}");
        }
    }

    fn brute_min_errors(vectors: &[Vec<i32>], labels: &[i32]) -> usize {
        let mut types: Vec<Vec<i32>> = Vec::new();
        for v in vectors {
            if !types.contains(v) {
                types.push(v.clone());
            }
        }
        let k = types.len();
        let mut best = usize::MAX;
        for mask in 0u32..(1 << k) {
            let assign: Vec<i32> = (0..k)
                .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
                .collect();
            if separate(&types, &assign).is_none() {
                continue;
            }
            let cost = vectors
                .iter()
                .zip(labels.iter())
                .filter(|(v, &y)| {
                    let t = types.iter().position(|u| u == *v).unwrap();
                    assign[t] != y
                })
                .count();
            best = best.min(cost);
        }
        best
    }
}
