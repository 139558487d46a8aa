//! A two-phase primal simplex solver over exact hybrid rationals.
//!
//! Solves `max cᵀx subject to Ax ≤ b, x ≥ 0` exactly. Bland's rule makes
//! termination unconditional (no cycling); exact [`Rat`] arithmetic makes
//! the Optimal/Infeasible/Unbounded verdict trustworthy — which matters
//! because the callers turn these verdicts directly into separability
//! answers.
//!
//! The implementation is a dense tableau: rows are the constraints (with
//! slack variables completing an identity), the last row is the objective.
//! Phase 1 drives artificial variables out of the basis when some
//! `b_i < 0`; phase 2 optimizes the real objective.
//!
//! # Performance shape
//!
//! Three things distinguish this engine from a textbook rational simplex
//! (and from the all-[`BigRational`] reference kept in
//! [`crate::simplex_big`]):
//!
//! * **Hybrid arithmetic.** Every tableau cell is a [`numeric::Rat`]: an
//!   inline `i64` fraction with `i128` intermediates that promotes to
//!   [`BigRational`] only on overflow. On the ±1 separation LPs the
//!   entries essentially never leave the small representation, so the
//!   inner loop is branch-plus-integer-ops with no heap traffic.
//! * **In-place, unnormalized pivoting.** The pivot row is *not* divided
//!   through by the pivot element (that division is what manufactures
//!   fractions). Instead each eliminated row subtracts
//!   `(t[r][col]/piv) ·` pivot-row via the fused [`Rat::sub_mul`] kernel,
//!   reusing the row buffers — the pivot row is moved out with
//!   `mem::take` and moved back, never cloned. The invariant becomes
//!   "each basic column is zero off its row and *positive* (not 1) on
//!   it", so ratio tests, the phase-2 objective rewrite, and solution
//!   extraction all divide by `t[r][basis[r]]` where the textbook reads
//!   off the cell directly.
//! * **Per-row integer rescaling.** After elimination each constraint row
//!   is rescaled by the positive factor `lcm(denominators)/gcd(numerators)`
//!   back to primitive integers (when that fits in `i64`), bounding entry
//!   growth the way fraction-free Gaussian elimination does. The
//!   objective row is never rescaled: its RHS cell is the exact running
//!   objective value (negated) and the phase-1 feasibility residual.
//!
//! Because positive row scalings change neither reduced costs nor ratios
//! nor Bland tie-breaking, this engine performs *exactly* the same pivot
//! sequence as the reference solver and returns identical outcomes (see
//! `tests/lp_prop.rs`). Every solve reports its pivot count to the
//! caller, which records it into an [`crate::stats::LpCounters`].

use interrupt::{Interrupt, Stop};
use numeric::Rat;

/// Result of [`solve_lp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcome {
    /// No feasible point.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// Optimal solution: values of the structural variables and the
    /// optimal objective value.
    Optimal { x: Vec<Rat>, value: Rat },
}

struct Tableau {
    /// `rows × cols` coefficient matrix; the last column is the RHS.
    /// Row invariant: `t[r][basis[r]]` is positive and the basic column
    /// is zero in every other row (rows are *not* normalized to 1).
    t: Vec<Vec<Rat>>,
    /// Objective row (same width as `t` rows), kept as true reduced
    /// costs — never rescaled.
    obj: Vec<Rat>,
    /// Basis: for each row, the variable index currently basic in it.
    basis: Vec<usize>,
    ncols: usize,
    /// Pivots performed so far (phase 1 + phase 2), reported to the
    /// caller once per solve.
    pivots: u64,
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Rescale a constraint row in place to primitive integers via the
/// positive factor `lcm(dens)/gcd(nums)`. A no-op whenever any entry has
/// already promoted to the big representation or the scaled values would
/// not fit `i64` — correctness never depends on rescaling, it only keeps
/// entries in the small representation longer.
fn rescale_row(row: &mut [Rat]) {
    let mut num_gcd: u128 = 0;
    let mut den_lcm: u128 = 1;
    for v in row.iter() {
        let Some((n, d)) = v.as_small() else { return };
        if n != 0 {
            num_gcd = gcd_u128(num_gcd, n.unsigned_abs() as u128);
            let g = gcd_u128(den_lcm, d as u128);
            match (den_lcm / g).checked_mul(d as u128) {
                Some(l) if l <= i64::MAX as u128 => den_lcm = l,
                _ => return,
            }
        }
    }
    if num_gcd <= 1 && den_lcm == 1 {
        return; // all-zero or already primitive
    }
    // n/d · den_lcm/num_gcd = n · (den_lcm/d) / num_gcd, exactly (d
    // divides den_lcm, num_gcd divides n). Verify the fit, then write.
    let scaled = |n: i64, d: i64| n as i128 * (den_lcm / d as u128) as i128 / num_gcd as i128;
    for v in row.iter() {
        let (n, d) = v.as_small().expect("checked small above");
        if n != 0 && i64::try_from(scaled(n, d)).is_err() {
            return;
        }
    }
    for v in row.iter_mut() {
        let (n, d) = v.as_small().expect("checked small above");
        if n != 0 {
            *v = Rat::from(scaled(n, d) as i64);
        }
    }
}

impl Tableau {
    fn rhs_col(&self) -> usize {
        self.ncols - 1
    }

    /// One simplex pivot round with Bland's rule. Returns:
    /// `None` if optimal, `Some(Ok(()))` after a pivot,
    /// `Some(Err(col))` if unbounded in column `col`.
    fn step(&mut self) -> Option<Result<(), usize>> {
        let rhs = self.rhs_col();
        // Entering variable: smallest index with positive reduced cost.
        let enter = (0..rhs).find(|&j| self.obj[j].is_positive())?;
        // Ratio test; ties broken by smallest basis variable (Bland).
        // Ratios are invariant under the positive row scalings of
        // `rescale_row`, so this picks the same row as a normalized
        // tableau would.
        let mut best: Option<(usize, Rat)> = None;
        for r in 0..self.t.len() {
            if !self.t[r][enter].is_positive() {
                continue;
            }
            let ratio = &self.t[r][rhs] / &self.t[r][enter];
            let better = match &best {
                None => true,
                Some((br, bratio)) => {
                    ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                }
            };
            if better {
                best = Some((r, ratio));
            }
        }
        let (row, _) = match best {
            None => return Some(Err(enter)),
            Some(x) => x,
        };
        self.pivot(row, enter);
        Some(Ok(()))
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        // Orient the pivot row so the incoming basic coefficient is
        // positive (can be negative when driving artificials out on an
        // arbitrary nonzero entry); the row is an equation, so negating
        // it is a legal scaling, and the positive-basic invariant is what
        // the ratio test and the rhs ≥ 0 feasibility reading rely on.
        if self.t[row][col].is_negative() {
            for v in self.t[row].iter_mut() {
                *v = -&*v;
            }
        }
        // Move the pivot row out to borrow it against the others; the
        // buffer is moved back untouched below (never cloned).
        let prow = std::mem::take(&mut self.t[row]);
        let piv = prow[col].clone();
        for (r, trow) in self.t.iter_mut().enumerate() {
            if r == row || trow[col].is_zero() {
                continue;
            }
            let f = &trow[col] / &piv;
            for (cell, p) in trow.iter_mut().zip(prow.iter()) {
                cell.sub_mul(&f, p);
            }
            debug_assert!(trow[col].is_zero(), "exact elimination");
            rescale_row(trow);
        }
        if !self.obj[col].is_zero() {
            let f = &self.obj[col] / &piv;
            for (cell, p) in self.obj.iter_mut().zip(prow.iter()) {
                cell.sub_mul(&f, p);
            }
            debug_assert!(self.obj[col].is_zero(), "exact elimination");
        }
        self.t[row] = prow;
        self.basis[row] = col;
    }

    /// Run pivots to optimality. Returns `false` on unboundedness.
    /// Observes `intr` once per pivot round — the bounded-interval check
    /// of the simplex layer (a single pivot touches `rows × cols` cells,
    /// so the check cost is negligible against it).
    fn optimize(&mut self, intr: Option<&Interrupt>) -> Result<bool, Stop> {
        loop {
            if let Some(h) = intr {
                h.check()?;
            }
            match self.step() {
                None => return Ok(true),
                Some(Ok(())) => {}
                Some(Err(_)) => return Ok(false),
            }
        }
    }
}

/// Solve `max cᵀx s.t. Ax ≤ b, x ≥ 0` exactly.
///
/// `a` is row-major with `a.len() == b.len()` and each row of length
/// `c.len()`. Callers that account for pivots use [`solve_lp_counted`].
pub fn solve_lp(a: &[Vec<Rat>], b: &[Rat], c: &[Rat]) -> LpOutcome {
    solve_lp_counted(a, b, c).0
}

/// As [`solve_lp`], also returning the number of tableau pivots the solve
/// took; the caller owns the accounting. Having the count in-band lets
/// tests and benches assert on a single solve, and lets per-engine
/// counter sets attribute pivots to the engine that ran them (see
/// `LpCounters`).
pub fn solve_lp_counted(a: &[Vec<Rat>], b: &[Rat], c: &[Rat]) -> (LpOutcome, u64) {
    let (out, pivots) = solve_lp_inner(a, b, c, None);
    (out.expect("uninterruptible solve cannot stop"), pivots)
}

/// Interruptible [`solve_lp_counted`]: the pivot loop observes `intr`
/// once per round. On [`Stop`] the pivots performed so far are still
/// reported, so the caller's accounting sees the truncated solve's
/// effort; the half-pivoted tableau is discarded.
pub fn solve_lp_counted_int(
    a: &[Vec<Rat>],
    b: &[Rat],
    c: &[Rat],
    intr: &Interrupt,
) -> (Result<LpOutcome, Stop>, u64) {
    solve_lp_inner(a, b, c, Some(intr))
}

fn solve_lp_inner(
    a: &[Vec<Rat>],
    b: &[Rat],
    c: &[Rat],
    intr: Option<&Interrupt>,
) -> (Result<LpOutcome, Stop>, u64) {
    let m = a.len();
    let n = c.len();
    assert_eq!(b.len(), m, "b must match the number of constraint rows");
    for row in a {
        assert_eq!(row.len(), n, "every row of A must match c's length");
    }
    if let Some(h) = intr {
        if let Err(stop) = h.check() {
            return (Err(stop), 0);
        }
    }

    // Columns: n structural + m slack + (phase-1 artificials) + rhs.
    let negatives: Vec<usize> = (0..m).filter(|&i| b[i].is_negative()).collect();
    let nart = negatives.len();
    let ncols = n + m + nart + 1;

    let mut t: Vec<Vec<Rat>> = Vec::with_capacity(m);
    let mut basis = vec![0usize; m];
    let mut art_of_row = vec![usize::MAX; m];
    for (ai, &i) in negatives.iter().enumerate() {
        art_of_row[i] = n + m + ai;
    }
    for i in 0..m {
        let mut row = vec![Rat::zero(); ncols];
        let flip = b[i].is_negative();
        for j in 0..n {
            row[j] = if flip { -&a[i][j] } else { a[i][j].clone() };
        }
        // Slack: +1 normally; -1 after flipping the row.
        row[n + i] = if flip { -Rat::one() } else { Rat::one() };
        row[ncols - 1] = if flip { -&b[i] } else { b[i].clone() };
        if flip {
            row[art_of_row[i]] = Rat::one();
            basis[i] = art_of_row[i];
        } else {
            basis[i] = n + i;
        }
        // Clear denominators up front so fractional inputs start primitive.
        rescale_row(&mut row);
        t.push(row);
    }

    let mut tab = Tableau {
        t,
        obj: vec![Rat::zero(); ncols],
        basis,
        ncols,
        pivots: 0,
    };

    if nart > 0 {
        // Phase 1: maximize -(sum of artificials). The objective row must
        // be expressed in terms of the nonbasic variables: start from
        // -Σ artificials and add each artificial row *divided by its
        // basic coefficient* (1 before rescaling, the row scale after).
        for &i in &negatives {
            let scale = tab.t[i][art_of_row[i]].clone();
            debug_assert!(scale.is_positive());
            for j in 0..ncols {
                let add = &tab.t[i][j] / &scale;
                tab.obj[j] = &tab.obj[j] + &add;
            }
        }
        for &i in &negatives {
            tab.obj[art_of_row[i]] = Rat::zero();
        }
        let bounded = match tab.optimize(intr) {
            Ok(b) => b,
            Err(stop) => return (Err(stop), tab.pivots),
        };
        debug_assert!(bounded, "phase-1 objective is bounded by 0");
        // Feasible iff all artificials are zero: the phase-1 optimum
        // (stored as obj[rhs], negated running value) must be 0.
        if !tab.obj[ncols - 1].is_zero() {
            return (Ok(LpOutcome::Infeasible), tab.pivots);
        }
        // Drive any artificial still basic (at value 0) out of the basis.
        for r in 0..m {
            if tab.basis[r] >= n + m {
                if let Some(j) = (0..n + m).find(|&j| !tab.t[r][j].is_zero()) {
                    tab.pivot(r, j);
                }
                // If the whole row is zero the constraint was redundant;
                // leaving the zero artificial basic is harmless as long
                // as it can never re-enter (we zero its columns below).
            }
        }
        // Erase artificial columns so they never re-enter.
        for row in tab.t.iter_mut() {
            for cell in &mut row[n + m..ncols - 1] {
                *cell = Rat::zero();
            }
        }
        // Phase 2 objective: c over the structural variables, rewritten
        // through the current basis. A basic variable's row carries it
        // with coefficient t[r][bv] (not 1), hence the division.
        let mut obj = vec![Rat::zero(); ncols];
        for (j, item) in c.iter().enumerate() {
            obj[j] = item.clone();
        }
        for r in 0..m {
            let bv = tab.basis[r];
            if bv < ncols - 1 && !obj[bv].is_zero() {
                let factor = &obj[bv] / &tab.t[r][bv];
                for (o, cell) in obj.iter_mut().zip(&tab.t[r]) {
                    o.sub_mul(&factor, cell);
                }
            }
        }
        tab.obj = obj;
    } else {
        // All-slack basis is feasible; single phase.
        for (j, item) in c.iter().enumerate() {
            tab.obj[j] = item.clone();
        }
    }
    finish(tab, n, intr)
}

fn finish(mut tab: Tableau, n: usize, intr: Option<&Interrupt>) -> (Result<LpOutcome, Stop>, u64) {
    match tab.optimize(intr) {
        Ok(true) => {}
        Ok(false) => return (Ok(LpOutcome::Unbounded), tab.pivots),
        Err(stop) => return (Err(stop), tab.pivots),
    }
    let rhs = tab.ncols - 1;
    let mut x = vec![Rat::zero(); n];
    for (r, &bv) in tab.basis.iter().enumerate() {
        if bv < n {
            // Unnormalized rows carry the basic variable with a positive
            // coefficient, so its value is the ratio.
            x[bv] = &tab.t[r][rhs] / &tab.t[r][bv];
        }
    }
    // The objective row's RHS holds -(current value) relative to 0 start.
    let value = -&tab.obj[rhs];
    (Ok(LpOutcome::Optimal { x, value }), tab.pivots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::{qint, qrat};

    fn lp(a: &[&[i64]], b: &[i64], c: &[i64]) -> LpOutcome {
        let a: Vec<Vec<Rat>> = a
            .iter()
            .map(|r| r.iter().map(|&v| qint(v)).collect())
            .collect();
        let b: Vec<Rat> = b.iter().map(|&v| qint(v)).collect();
        let c: Vec<Rat> = c.iter().map(|&v| qint(v)).collect();
        solve_lp(&a, &b, &c)
    }

    #[test]
    fn textbook_optimum() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2,6).
        let out = lp(&[&[1, 0], &[0, 2], &[3, 2]], &[4, 12, 18], &[3, 5]);
        match out {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, qint(36));
                assert_eq!(x, vec![qint(2), qint(6)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbounded_detected() {
        // max x with only y constrained.
        let out = lp(&[&[0, 1]], &[5], &[1, 0]);
        assert_eq!(out, LpOutcome::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        // x <= -1 with x >= 0.
        let out = lp(&[&[1]], &[-1], &[1]);
        assert_eq!(out, LpOutcome::Infeasible);
        // x + y <= 2, -x - y <= -5.
        let out = lp(&[&[1, 1], &[-1, -1]], &[2, -5], &[1, 1]);
        assert_eq!(out, LpOutcome::Infeasible);
    }

    #[test]
    fn phase_one_needed_but_feasible() {
        // x >= 1 (as -x <= -1), x <= 3, max -x  -> optimum -1 at x = 1.
        let out = lp(&[&[-1], &[1]], &[-1, 3], &[-1]);
        match out {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(x, vec![qint(1)]);
                assert_eq!(value, qint(-1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // max x + y s.t. 2x + y <= 3, x + 2y <= 3 -> (1,1) value 2;
        // max 2x + y with same constraints -> x=3/2, y=0? value 3.
        let out = lp(&[&[2, 1], &[1, 2]], &[3, 3], &[2, 1]);
        match out {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, qint(3)),
            other => panic!("{other:?}"),
        }
        // A genuinely fractional one: max y s.t. 3y <= 2.
        let out = lp(&[&[3]], &[2], &[1]);
        match out {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(x[0], qrat(2, 3));
                assert_eq!(value, qrat(2, 3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degenerate instance (Beale-like); Bland must terminate.
        let a: Vec<Vec<Rat>> = vec![
            vec![qrat(1, 4), qint(-8), qint(-1), qint(9)],
            vec![qrat(1, 2), qint(-12), qrat(-1, 2), qint(3)],
            vec![qint(0), qint(0), qint(1), qint(0)],
        ];
        let b = vec![qint(0), qint(0), qint(1)];
        let c = vec![qrat(3, 4), qint(-20), qrat(1, 2), qint(-6)];
        match solve_lp(&a, &b, &c) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, qrat(5, 4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_dimensional_inputs() {
        // No constraints: max of the zero objective over nothing.
        let out = lp(&[], &[], &[]);
        assert_eq!(
            out,
            LpOutcome::Optimal {
                x: vec![],
                value: qint(0)
            }
        );
        // No constraints but a positive objective: unbounded.
        let out = lp(&[], &[], &[1]);
        assert_eq!(out, LpOutcome::Unbounded);
        // Constraints but empty objective over zero variables.
        let out = lp(&[&[]], &[1], &[]);
        assert_eq!(
            out,
            LpOutcome::Optimal {
                x: vec![],
                value: qint(0)
            }
        );
    }

    #[test]
    fn redundant_constraints_survive_phase_one() {
        // x >= 2 twice, x <= 5, max x -> 5.
        let out = lp(&[&[-1], &[-1], &[1]], &[-2, -2, 5], &[1]);
        match out {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(x, vec![qint(5)]);
                assert_eq!(value, qint(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pivot_counts_are_reported_in_band() {
        // The textbook instance pivots at least twice; a tableau that is
        // optimal at the start pivots zero times.
        let a: Vec<Vec<Rat>> = vec![vec![qint(1), qint(0)], vec![qint(3), qint(2)]];
        let b = vec![qint(4), qint(18)];
        let c = vec![qint(3), qint(5)];
        let (_, pivots) = solve_lp_counted(&a, &b, &c);
        assert!(pivots >= 2, "expected real pivoting, got {pivots}");
        let (out, pivots) = solve_lp_counted(&a, &b, &[qint(-1), qint(-1)]);
        assert_eq!(pivots, 0, "all-slack basis is already optimal");
        assert!(matches!(out, LpOutcome::Optimal { .. }));
    }

    #[test]
    fn rescale_row_produces_primitive_integers() {
        let mut row = vec![qrat(1, 2), qrat(3, 4), qint(0), qrat(-5, 2)];
        rescale_row(&mut row);
        assert_eq!(row, vec![qint(2), qint(3), qint(0), qint(-10)]);
        // Common numerator factor is divided out too.
        let mut row = vec![qint(6), qint(-9), qint(12)];
        rescale_row(&mut row);
        assert_eq!(row, vec![qint(2), qint(-3), qint(4)]);
        // All-zero rows and big entries are left alone.
        let mut row = vec![qint(0), qint(0)];
        rescale_row(&mut row);
        assert_eq!(row, vec![qint(0), qint(0)]);
        let big = &qint(i64::MAX) * &qint(3); // promoted
        let mut row = vec![big.clone(), qrat(1, 2)];
        rescale_row(&mut row);
        assert_eq!(row, vec![big, qrat(1, 2)]);
    }

    #[test]
    fn huge_coefficients_promote_and_stay_exact() {
        // max x s.t. K·x <= K² with K near the i64 boundary: the tableau
        // must promote internally yet produce the exact x = K.
        let k = qint(3_000_000_000);
        let ksq = &k * &k; // overflows i64 -> Big
        let out = solve_lp(&[vec![k.clone()]], &[ksq], &[qint(1)]);
        match out {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(x[0], k);
                assert_eq!(value, k);
            }
            other => panic!("{other:?}"),
        }
    }
}
