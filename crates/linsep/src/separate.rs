//! Strict linear separation of labeled ±1 vectors.
//!
//! A training collection `(b̄_i, y_i)` is linearly separable iff there are
//! weights with `y_i (w·b̄_i − w_0) > 0` for all `i`; by scaling this is
//! equivalent to `y_i (w·b̄_i − w_0) ≥ 1` with `|w_j|, |w_0| ≤ M` for a
//! suitable `M`, which is a bounded LP feasibility problem — polynomial
//! time in principle ([19, 21] in the paper), solved here exactly by the
//! rational simplex.
//!
//! A margin subtlety: the classifier convention is `Λ(b̄) = 1 ⇔ score ≥
//! w_0`, so positives need `w·b̄ ≥ w_0` and negatives need `w·b̄ < w_0`;
//! maximizing a symmetric margin `t` and checking `t > 0` handles both
//! strictness and the boundary convention.
//!
//! Decisions cascade through three tiers, cheapest first, each reported
//! to [`crate::stats`]:
//!
//! 1. **Conflict scan** — identical vectors with opposite labels make
//!    separation impossible; one `O(rows·n)` hash pass refutes such
//!    instances before any arithmetic.
//! 2. **Integer perceptron** — converges immediately on the easy
//!    instances the enumeration algorithms mostly generate.
//! 3. **Exact LP** — the maximum-margin LP ([`margin_lp`]), solved by the
//!    sparse revised simplex over hybrid [`Rat`] arithmetic, optionally
//!    warm-started from a related instance's basis.

use crate::classifier::LinearClassifier;
use crate::revised::{solve_lp_sparse, SparseBasis, SparseOutcome, Warm};
use crate::stats::LpCounters;
use interrupt::{Interrupt, Stop};
use numeric::{qint, Rat};
use std::collections::HashMap;

/// Instance-independent identity of one margin-LP variable, so a basis
/// can be carried from subset `S` to `S ∪ {j}` (or to a same-arity
/// sibling) by *meaning* rather than by raw column index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarTag {
    /// `u_{p+1} = w_{p+1} + 1` — the weight of projected column `p`.
    Weight(usize),
    /// `u_0 = w_0 + 1` — the threshold.
    Threshold,
    /// `t' = t + (n + 2)` — the margin.
    Margin,
    /// Slack of example row `i`.
    ExampleSlack(usize),
    /// Slack of the `u_{p+1} ≤ 2` box row.
    WeightBox(usize),
    /// Slack of the `u_0 ≤ 2` box row.
    ThresholdBox,
    /// Slack of the `t' ≤ n + 3` box row.
    MarginBox,
}

/// A margin-LP basis annotated with enough structure to warm-start a
/// related instance: variable tags, the arity/row shape it came from,
/// and how long its reuse chain already is.
#[derive(Clone, Debug)]
pub struct SepBasis {
    tags: Vec<VarTag>,
    arity: usize,
    nrows: usize,
    depth: u64,
    sparse: SparseBasis,
}

impl SepBasis {
    fn tag_of(arity: usize, nrows: usize, var: usize) -> VarTag {
        let nvars = arity + 2;
        if var < nvars {
            match var {
                p if p < arity => VarTag::Weight(p),
                p if p == arity => VarTag::Threshold,
                _ => VarTag::Margin,
            }
        } else {
            let s = var - nvars;
            match s {
                i if i < nrows => VarTag::ExampleSlack(i),
                i if i - nrows < arity => VarTag::WeightBox(i - nrows),
                i if i - nrows == arity => VarTag::ThresholdBox,
                _ => VarTag::MarginBox,
            }
        }
    }

    fn index_of(arity: usize, nrows: usize, tag: VarTag) -> Option<usize> {
        let nvars = arity + 2;
        Some(match tag {
            VarTag::Weight(p) => (p < arity).then_some(p)?,
            VarTag::Threshold => arity,
            VarTag::Margin => arity + 1,
            VarTag::ExampleSlack(i) => (i < nrows).then_some(nvars + i)?,
            VarTag::WeightBox(p) => (p < arity).then_some(nvars + nrows + p)?,
            VarTag::ThresholdBox => nvars + nrows + arity,
            VarTag::MarginBox => nvars + nrows + arity + 1,
        })
    }

    fn from_sparse(arity: usize, nrows: usize, depth: u64, sparse: SparseBasis) -> SepBasis {
        let tags = sparse
            .vars()
            .iter()
            .map(|&v| SepBasis::tag_of(arity, nrows, v))
            .collect();
        SepBasis {
            tags,
            arity,
            nrows,
            depth,
            sparse,
        }
    }

    /// How many consecutive warm reuses this basis sits on top of.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Would `SepBasis::offer` to a same-shape instance clone the whole
    /// factorization (the near-free [`Warm::Reuse`] path)? True iff the
    /// shapes match and the basis excludes the dirty variable
    /// `Weight(arity − 1)`, the only column whose data differs between
    /// lexicographic siblings `prefix + [j]`. Callers holding several
    /// candidate bases use this to prefer the cheap one.
    pub fn reuses_cleanly(&self, arity: usize, nrows: usize) -> bool {
        self.arity == arity
            && self.nrows == nrows
            && arity > 0
            && !self.tags.contains(&VarTag::Weight(arity - 1))
    }

    /// Translate this basis into a [`Warm`] offer for an instance of
    /// shape `(arity, nrows)`, or `None` when the shapes are unrelated.
    ///
    /// * Same shape, basis free of the *dirty* variable `Weight(arity-1)`
    ///   (whose projected column is the only data differing between
    ///   lexicographic siblings `prefix + [j]`): the whole factorization
    ///   is cloned — [`Warm::Reuse`], near-zero restart cost.
    /// * Same shape but dirty, or a parent one arity smaller: remap the
    ///   tags to the target's indices (appending the new box row's slack
    ///   for a parent) and refactorize — [`Warm::Basis`].
    fn offer(&self, arity: usize, nrows: usize) -> Option<Warm<'_>> {
        if self.nrows != nrows {
            return None;
        }
        if self.arity == arity {
            let dirty = VarTag::Weight(arity.checked_sub(1)?);
            if !self.tags.contains(&dirty) {
                return Some(Warm::Reuse(&self.sparse));
            }
        } else if self.arity + 1 != arity {
            return None;
        }
        let mut vars: Vec<usize> = self
            .tags
            .iter()
            .map(|&t| SepBasis::index_of(arity, nrows, t))
            .collect::<Option<_>>()?;
        if self.arity + 1 == arity {
            // The child has one extra constraint row (the new weight's
            // box); its slack completes the basis and is trivially
            // feasible at value 2.
            vars.push(SepBasis::index_of(
                arity,
                nrows,
                VarTag::WeightBox(arity - 1),
            )?);
        }
        Some(Warm::Basis(vars))
    }
}

/// Outcome of a warm-capable separation: the verdict (as elsewhere:
/// `Some` with the classifier and its positive margin iff separable) plus
/// the final LP basis when an LP actually ran — reusable to warm-start a
/// related instance. Conflict prunes and perceptron hits carry no basis.
#[derive(Clone, Debug)]
pub struct SepOutcome {
    pub result: Option<(LinearClassifier, Rat)>,
    pub basis: Option<SepBasis>,
}

/// Do identical vectors appear with opposite labels? If so no classifier
/// (linear or otherwise) can separate, and the LP is pointless. Shared
/// with the subset search in `cqsep`, which runs the same scan on
/// projected rows before assembling an LP per candidate feature set.
pub fn has_label_conflict(vectors: &[Vec<i32>], labels: &[i32]) -> bool {
    let mut seen: HashMap<&[i32], i32> = HashMap::with_capacity(vectors.len());
    for (v, &y) in vectors.iter().zip(labels.iter()) {
        match seen.insert(v.as_slice(), y) {
            Some(prev) if prev != y => return true,
            _ => {}
        }
    }
    false
}

/// Find a linear classifier separating the examples.
///
/// The verdict is `Some` with the classifier and a positive margin
/// (normalized to the perceptron's `max(|w_j|, |w_0|) = 1` or to the
/// LP's box), `None` if no separator was found: exact when the conflict
/// scan decides, subject to the LP's positive-weight gap (see
/// [`margin_lp`]) when the LP does.
///
/// `warm` may carry the final basis of a related instance (see
/// `SepBasis::offer` for which shapes qualify). The LP's verdict never
/// depends on it — a rejected or absent offer only costs pivots — but
/// an offer skips the perceptron, so the LP decides. The final LP basis
/// comes back whenever an LP ran.
///
/// Every decision (conflict prune, perceptron hit, or LP solve and its
/// pivots) is recorded into `counters`, effort spent before a stop
/// included. The conflict scan runs to completion (one cheap pass), the
/// perceptron observes `intr` per epoch, and the LP per pivot.
pub fn separate(
    counters: &LpCounters,
    vectors: &[Vec<i32>],
    labels: &[i32],
    warm: Option<&SepBasis>,
    intr: &Interrupt,
) -> Result<SepOutcome, Stop> {
    assert_eq!(vectors.len(), labels.len(), "one label per vector");
    intr.check()?;
    if vectors.is_empty() {
        return Ok(SepOutcome {
            result: Some((LinearClassifier::new(qint(0), Vec::new()), qint(1))),
            basis: None,
        });
    }
    let n = vectors[0].len();
    for v in vectors {
        assert_eq!(v.len(), n, "uniform vector arity required");
        assert!(v.iter().all(|&x| x == 1 || x == -1), "features must be ±1");
    }
    assert!(
        labels.iter().all(|&y| y == 1 || y == -1),
        "labels must be ±1"
    );

    // Tier 1: refute duplicate-vector conflicts without any arithmetic.
    if has_label_conflict(vectors, labels) {
        counters.record_conflict_prune();
        return Ok(SepOutcome {
            result: None,
            basis: None,
        });
    }

    // Tier 2: the integer perceptron usually converges immediately on
    // the easy instances the enumeration algorithms generate. It exists
    // to dodge *cold* LP solves, and its value is asymmetric: a hit
    // costs a few integer epochs, but a miss burns the whole update
    // budget before the LP runs anyway. With a warm basis on offer the
    // LP is expected to be nearly pivot-free — cheaper than even a
    // perceptron hit — so the heuristic tier is skipped entirely. (This
    // means which tier decides a subset, and hence `lps_solved`, can
    // depend on the warm offer; verdicts never do.)
    let heuristic = if warm.is_some() {
        None
    } else {
        perceptron(vectors, labels, 200 * (n + 1) * (vectors.len() + 1), intr)?
    };
    if let Some(c) = heuristic {
        debug_assert!(c.separates(
            vectors
                .iter()
                .map(|v| v.as_slice())
                .zip(labels.iter().copied())
        ));
        counters.record_perceptron_hit();
        let margin = margin_of(&c_normalized(&c), vectors, labels);
        return Ok(SepOutcome {
            result: Some((c, margin)),
            basis: None,
        });
    }

    // Tier 3: the exact margin LP. Its right-hand side is always ≥ 1,
    // so the single-phase sparse solver applies unconditionally; a warm
    // offer comes from a related subset's final basis and can only save
    // pivots, never change the LP's verdict (rejected offers cold-start).
    let (a, b, c) = margin_lp(vectors, labels);
    let offer = warm.and_then(|sb| sb.offer(n, vectors.len()));
    let depth = warm.map_or(0, |sb| sb.depth + 1);
    let (res, report) = solve_lp_sparse(&a, &b, &c, offer, intr);
    // Record effort whether or not the solve completed: partial effort
    // is still attributable effort.
    counters.record_sparse_lp(report.pivots, report.warm_used.then_some(depth));
    match res? {
        SparseOutcome::Optimal { x, value, basis } => {
            let chain = if report.warm_used { depth } else { 0 };
            let sep = SepBasis::from_sparse(n, vectors.len(), chain, basis);
            Ok(margin_outcome(n, vectors, labels, &x, value, sep))
        }
        SparseOutcome::Unbounded => unreachable!("margin LP is box-bounded"),
    }
}

/// The maximum-margin LP `max cᵀx s.t. Ax ≤ b, x ≥ 0` that decides
/// whether `vectors` (uniform arity `n`) separate by `labels`, as
/// `(A, b, c)`.
///
/// Variables `u_j ∈ [0, 2]` (`j = 1..n`), the threshold `u_0 ∈ [0, 2]`
/// and the margin `t' = t + (n + 2) ∈ [0, n + 3]`; the objective
/// maximizes `t'`. With `s_i = y_i` each example contributes
///
/// ```text
///   −s_i Σ b_ij u_j + s_i u_0 + t' ≤ (n + 2) − s_i (1 − Σ b_ij)
/// ```
///
/// followed by the boxes `u_j ≤ 2`, `u_0 ≤ 2` and `t' ≤ n + 3`.
/// Substituting `w_j = u_j + 1` and `w_0 = u_0 + 1` turns each example
/// row into exactly `s_i (w·b_i − w_0) ≥ t`, so the LP maximizes the
/// margin over weights and threshold in `[1, 3]`. Every right-hand side
/// is ≥ 1, so the all-slack basis is feasible, and the box keeps the LP
/// bounded.
///
/// **Known gap.** Positive weights and threshold make the LP sound but
/// incomplete: `t > 0` proves separability, but an instance whose every
/// separator needs a negative weight or threshold (`[[1], [-1]]`
/// labelled `[-1, 1]`, say) gets `t ≤ 0`. The complete box `w ∈ [−1, 1]`
/// (`w = u − 1`, right-hand side `(n + 2) + s_i (1 − Σ b_ij)`) costs the
/// warm parity sweep about five times the pivots. Cold separations
/// rarely meet the gap, since the perceptron decides separable data
/// first; warm-offered solves skip the perceptron and do.
pub fn margin_lp(vectors: &[Vec<i32>], labels: &[i32]) -> (Vec<Vec<Rat>>, Vec<Rat>, Vec<Rat>) {
    let n = vectors.first().map_or(0, Vec::len);
    let nvars = n + 2; // u_1..u_n, u_0, t'
    let mut a: Vec<Vec<Rat>> = Vec::with_capacity(vectors.len() + n + 2);
    let mut b: Vec<Rat> = Vec::with_capacity(vectors.len() + n + 2);
    for (v, &y) in vectors.iter().zip(labels.iter()) {
        let s = y as i64;
        let mut row = vec![Rat::zero(); nvars];
        let mut sum_b = 0i64;
        for (j, &bij) in v.iter().enumerate() {
            row[j] = qint(-s * bij as i64);
            sum_b += bij as i64;
        }
        row[n] = qint(s);
        row[n + 1] = qint(1);
        a.push(row);
        b.push(qint(n as i64 + 2 - s * (1 - sum_b)));
    }
    for j in 0..=n {
        let mut row = vec![Rat::zero(); nvars];
        row[j] = qint(1);
        a.push(row);
        b.push(qint(2));
    }
    let mut row = vec![Rat::zero(); nvars];
    row[n + 1] = qint(1);
    a.push(row);
    b.push(qint(n as i64 + 3));
    let mut c = vec![Rat::zero(); nvars];
    c[n + 1] = qint(1);
    (a, b, c)
}

/// Turn the margin LP's optimal point into the separation verdict:
/// `t = value − (n+2) > 0` means separable, with the classifier read off
/// the shifted variables (`w = u + 1`, see [`margin_lp`]). The final
/// basis rides along regardless of the verdict — an inseparable
/// subset's basis still warm-starts its successors.
fn margin_outcome(
    n: usize,
    vectors: &[Vec<i32>],
    labels: &[i32],
    x: &[Rat],
    value: Rat,
    basis: SepBasis,
) -> SepOutcome {
    let t = value - qint(n as i64 + 2);
    if !t.is_positive() {
        return SepOutcome {
            result: None,
            basis: Some(basis),
        };
    }
    let weights: Vec<Rat> = (0..n).map(|j| &x[j] + &qint(1)).collect();
    let threshold = &x[n] + &qint(1);
    let c = LinearClassifier::new(threshold, weights);
    debug_assert!(c.separates(
        vectors
            .iter()
            .map(|v| v.as_slice())
            .zip(labels.iter().copied())
    ));
    SepOutcome {
        result: Some((c, t)),
        basis: Some(basis),
    }
}

/// Integer perceptron with an iteration cap; `Ok(None)` means "gave up",
/// not "inseparable". The boundary convention (`≥` ⇒ positive) is
/// enforced by training with a strict margin of 1 on both sides.
/// Observes `intr` once per epoch (a full pass over the examples).
fn perceptron(
    vectors: &[Vec<i32>],
    labels: &[i32],
    max_updates: usize,
    intr: &Interrupt,
) -> Result<Option<LinearClassifier>, Stop> {
    let n = vectors[0].len();
    let mut w = vec![0i64; n];
    let mut w0 = 0i64;
    let mut updates = 0usize;
    loop {
        intr.check()?;
        let mut clean = true;
        for (v, &y) in vectors.iter().zip(labels.iter()) {
            let score: i64 = w
                .iter()
                .zip(v.iter())
                .map(|(&wj, &bj)| wj * bj as i64)
                .sum();
            // Demand a margin of 1 so the ≥-boundary is classified right.
            let ok = if y == 1 {
                score - w0 >= 1
            } else {
                score - w0 <= -1
            };
            if !ok {
                clean = false;
                for (wj, &bj) in w.iter_mut().zip(v.iter()) {
                    *wj += y as i64 * bj as i64;
                }
                w0 -= y as i64;
                updates += 1;
                if updates >= max_updates {
                    return Ok(None);
                }
                // Overflow guard: bail to the LP long before i64 limits.
                if w.iter().any(|&x| x.abs() > (1 << 40)) || w0.abs() > (1 << 40) {
                    return Ok(None);
                }
            }
        }
        if clean {
            return Ok(Some(LinearClassifier::new(
                qint(w0),
                w.iter().map(|&x| qint(x)).collect(),
            )));
        }
    }
}

/// Normalize a classifier to the `max(|w|, |w_0|) ≤ 1` box for a
/// comparable margin report.
fn c_normalized(c: &LinearClassifier) -> LinearClassifier {
    let mut m = c.threshold.abs();
    for w in &c.weights {
        let a = w.abs();
        if a > m {
            m = a;
        }
    }
    if m.is_zero() {
        return c.clone();
    }
    LinearClassifier::new(
        &c.threshold / &m,
        c.weights.iter().map(|w| w / &m).collect(),
    )
}

fn margin_of(c: &LinearClassifier, vectors: &[Vec<i32>], labels: &[i32]) -> Rat {
    let mut best: Option<Rat> = None;
    for (v, &y) in vectors.iter().zip(labels.iter()) {
        let m = &(&c.score(v) - &c.threshold) * &qint(y as i64);
        if best.as_ref().is_none_or(|b| m < *b) {
            best = Some(m);
        }
    }
    best.unwrap_or_else(|| qint(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separate_margin(vectors: &[Vec<i32>], labels: &[i32]) -> Option<(LinearClassifier, Rat)> {
        super::separate(
            &LpCounters::new(),
            vectors,
            labels,
            None,
            &Interrupt::none(),
        )
        .unwrap()
        .result
    }

    fn separate(vectors: &[Vec<i32>], labels: &[i32]) -> Option<LinearClassifier> {
        separate_margin(vectors, labels).map(|(c, _)| c)
    }

    fn check(vectors: &[Vec<i32>], labels: &[i32], expect: bool) {
        match separate(vectors, labels) {
            Some(c) => {
                assert!(expect, "unexpected separation by {c}");
                assert!(c.separates(
                    vectors
                        .iter()
                        .map(|v| v.as_slice())
                        .zip(labels.iter().copied())
                ));
            }
            None => assert!(!expect, "expected separable"),
        }
    }

    #[test]
    fn and_function_is_separable() {
        let vectors = vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]];
        check(&vectors, &[1, -1, -1, -1], true);
        check(&vectors, &[1, 1, 1, -1], true); // OR
        check(&vectors, &[-1, 1, 1, -1], false); // XOR
        check(&vectors, &[1, -1, -1, 1], false); // XNOR
    }

    #[test]
    fn contradictory_duplicate_is_inseparable() {
        let vectors = vec![vec![1, -1], vec![1, -1]];
        check(&vectors, &[1, -1], false);
        check(&vectors, &[1, 1], true);
    }

    #[test]
    fn conflict_scan_matches_separability_on_duplicates() {
        assert!(has_label_conflict(
            &[vec![1, -1], vec![1, 1], vec![1, -1]],
            &[1, 1, -1]
        ));
        assert!(!has_label_conflict(
            &[vec![1, -1], vec![1, 1], vec![1, -1]],
            &[1, 1, 1]
        ));
        // Zero-arity rows are all identical: conflict iff labels differ.
        assert!(has_label_conflict(&[vec![], vec![]], &[1, -1]));
        assert!(!has_label_conflict(&[vec![], vec![]], &[-1, -1]));
    }

    #[test]
    fn single_class_always_separable() {
        let vectors = vec![vec![1, 1], vec![-1, -1], vec![1, -1]];
        check(&vectors, &[1, 1, 1], true);
        check(&vectors, &[-1, -1, -1], true);
    }

    #[test]
    fn empty_and_zero_arity() {
        assert!(separate(&[], &[]).is_some());
        // Zero-dimensional vectors: separable iff labels are uniform.
        check(&[vec![], vec![]], &[1, 1], true);
        check(&[vec![], vec![]], &[1, -1], false);
    }

    #[test]
    fn boundary_convention_respected() {
        // A classifier must put score == threshold on the positive side;
        // construct a case where the only separator is tight-ish and
        // verify via classify().
        let vectors = vec![vec![1], vec![-1]];
        let c = separate(&vectors, &[1, -1]).unwrap();
        assert_eq!(c.classify(&[1]), 1);
        assert_eq!(c.classify(&[-1]), -1);
    }

    #[test]
    fn forces_lp_path_on_hard_margin() {
        // Random-ish hard instance in 6 dims, labels from a sparse true
        // separator with tiny margin; perceptron may or may not converge
        // within its cap — the answer must be "separable" either way.
        let dims = 6;
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        let mut x = 1u64;
        for _ in 0..40 {
            let mut v = Vec::with_capacity(dims);
            for _ in 0..dims {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push(if (x >> 33) & 1 == 1 { 1 } else { -1 });
            }
            // True separator: w = (3, -1, 1, 1, -1, 1), w0 = 0 tie -> +.
            let score: i32 = 3 * v[0] - v[1] + v[2] + v[3] - v[4] + v[5];
            labels.push(if score >= 0 { 1 } else { -1 });
            vectors.push(v);
        }
        check(&vectors, &labels, true);
    }

    #[test]
    fn margin_positive_iff_separable() {
        let vectors = vec![vec![1, 1], vec![-1, -1]];
        let (_, m) = separate_margin(&vectors, &[1, -1]).unwrap();
        assert!(m.is_positive());
        assert!(separate_margin(&[vec![1, -1], vec![1, -1]], &[1, -1]).is_none());
    }
}
