//! The original all-[`BigRational`] dense simplex, kept as a reference
//! oracle.
//!
//! This is the seed implementation: a two-phase tableau with Bland's
//! rule, normalized pivot rows (divide through by the pivot element), a
//! fresh allocation per eliminated cell, every entry a heap-backed
//! [`BigRational`]. It is deliberately free of the instrumentation
//! counters and of any fast-path machinery so that property tests
//! (`tests/lp_prop.rs`, `crate::revised`'s unit tests) and the release
//! speedup test can pin the production solver, [`crate::revised`],
//! against it: on `b ≥ 0` inputs, Bland pricing there and here gives the
//! same pivot sequence, hence the same pivot count, optimal vertex and
//! value.

use numeric::BigRational;

/// Result of [`solve_lp_big`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcomeBig {
    /// No feasible point.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// Optimal solution: values of the structural variables and the
    /// optimal objective value.
    Optimal {
        x: Vec<BigRational>,
        value: BigRational,
    },
}

struct Tableau {
    /// `rows × cols` coefficient matrix; the last column is the RHS.
    t: Vec<Vec<BigRational>>,
    /// Objective row (same width as `t` rows).
    obj: Vec<BigRational>,
    /// Basis: for each row, the variable index currently basic in it.
    basis: Vec<usize>,
    ncols: usize,
    /// Pivots performed so far (both phases).
    pivots: u64,
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
        let mut best: Option<(usize, BigRational)> = None;
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
        let inv = self.t[row][col].recip();
        for v in self.t[row].iter_mut() {
            *v = &*v * &inv;
        }
        for r in 0..self.t.len() {
            if r == row || self.t[r][col].is_zero() {
                continue;
            }
            let factor = self.t[r][col].clone();
            for j in 0..self.ncols {
                let delta = &factor * &self.t[row][j];
                self.t[r][j] = &self.t[r][j] - &delta;
            }
        }
        if !self.obj[col].is_zero() {
            let factor = self.obj[col].clone();
            for j in 0..self.ncols {
                let delta = &factor * &self.t[row][j];
                self.obj[j] = &self.obj[j] - &delta;
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Run pivots to optimality. Returns `false` on unboundedness.
    fn optimize(&mut self) -> bool {
        loop {
            match self.step() {
                None => return true,
                Some(Ok(())) => {}
                Some(Err(_)) => return false,
            }
        }
    }
}

/// Solve `max cᵀx s.t. Ax ≤ b, x ≥ 0` exactly with the all-big reference
/// engine. Any sign of `b` is accepted: negative rows get a phase 1.
pub fn solve_lp_big(a: &[Vec<BigRational>], b: &[BigRational], c: &[BigRational]) -> LpOutcomeBig {
    solve_lp_big_counted(a, b, c).0
}

/// [`solve_lp_big`] also returning the number of tableau pivots it took
/// (phase 1, artificial drive-out and phase 2 together).
pub fn solve_lp_big_counted(
    a: &[Vec<BigRational>],
    b: &[BigRational],
    c: &[BigRational],
) -> (LpOutcomeBig, u64) {
    let m = a.len();
    let n = c.len();
    assert_eq!(b.len(), m, "b must match the number of constraint rows");
    for row in a {
        assert_eq!(row.len(), n, "every row of A must match c's length");
    }

    // Columns: n structural + m slack + (phase-1 artificials) + rhs.
    let negatives: Vec<usize> = (0..m).filter(|&i| b[i].is_negative()).collect();
    let nart = negatives.len();
    let ncols = n + m + nart + 1;
    let zero = BigRational::zero;
    let one = BigRational::one;

    let mut t: Vec<Vec<BigRational>> = Vec::with_capacity(m);
    let mut basis = vec![0usize; m];
    let mut art_of_row = vec![usize::MAX; m];
    for (ai, &i) in negatives.iter().enumerate() {
        art_of_row[i] = n + m + ai;
    }
    for i in 0..m {
        let mut row = vec![zero(); ncols];
        let flip = b[i].is_negative();
        for j in 0..n {
            row[j] = if flip { -&a[i][j] } else { a[i][j].clone() };
        }
        // Slack: +1 normally; -1 after flipping the row.
        row[n + i] = if flip { -one() } else { one() };
        row[ncols - 1] = if flip { -&b[i] } else { b[i].clone() };
        if flip {
            row[art_of_row[i]] = one();
            basis[i] = art_of_row[i];
        } else {
            basis[i] = n + i;
        }
        t.push(row);
    }

    if nart > 0 {
        // Phase 1: maximize -(sum of artificials). The objective row must
        // be expressed in terms of the nonbasic variables: start from
        // -Σ artificials and add each artificial row (which has the
        // artificial basic with coefficient 1).
        let mut obj = vec![zero(); ncols];
        for &i in &negatives {
            for j in 0..ncols {
                let add = t[i][j].clone();
                obj[j] = &obj[j] + &add;
            }
        }
        for &i in &negatives {
            obj[art_of_row[i]] = zero();
        }
        let mut tab = Tableau {
            t,
            obj,
            basis,
            ncols,
            pivots: 0,
        };
        let bounded = tab.optimize();
        debug_assert!(bounded, "phase-1 objective is bounded by 0");
        // Feasible iff all artificials are zero: the phase-1 optimum
        // (stored as obj[rhs], negated running value) must be 0.
        let resid = tab.obj[ncols - 1].clone();
        if !resid.is_zero() {
            return (LpOutcomeBig::Infeasible, tab.pivots);
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
                *cell = zero();
            }
        }
        // Phase 2 objective: c over the structural variables, rewritten
        // through the current basis.
        let mut obj = vec![zero(); ncols];
        for (j, item) in c.iter().enumerate() {
            obj[j] = item.clone();
        }
        for r in 0..m {
            let bv = tab.basis[r];
            if bv < ncols - 1 && !obj[bv].is_zero() {
                let factor = obj[bv].clone();
                for (o, cell) in obj.iter_mut().zip(&tab.t[r]) {
                    let delta = &factor * cell;
                    *o = &*o - &delta;
                }
            }
        }
        tab.obj = obj;
        finish(tab, n)
    } else {
        // All-slack basis is feasible; single phase.
        let mut obj = vec![zero(); ncols];
        for (j, item) in c.iter().enumerate() {
            obj[j] = item.clone();
        }
        let tab = Tableau {
            t,
            obj,
            basis,
            ncols,
            pivots: 0,
        };
        finish(tab, n)
    }
}

fn finish(mut tab: Tableau, n: usize) -> (LpOutcomeBig, u64) {
    if !tab.optimize() {
        return (LpOutcomeBig::Unbounded, tab.pivots);
    }
    let rhs = tab.ncols - 1;
    let mut x = vec![BigRational::zero(); n];
    for (r, &bv) in tab.basis.iter().enumerate() {
        if bv < n {
            x[bv] = tab.t[r][rhs].clone();
        }
    }
    // The objective row's RHS holds -(current value) relative to 0 start.
    let value = -&tab.obj[rhs];
    (LpOutcomeBig::Optimal { x, value }, tab.pivots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::{int, ratio};

    // Smoke coverage only: the exhaustive suite lives with the production
    // solver in `revised.rs`, and `tests/lp_prop.rs` pins the two
    // implementations to each other on random instances.

    #[test]
    fn textbook_optimum() {
        let a: Vec<Vec<BigRational>> = vec![
            vec![int(1), int(0)],
            vec![int(0), int(2)],
            vec![int(3), int(2)],
        ];
        match solve_lp_big(&a, &[int(4), int(12), int(18)], &[int(3), int(5)]) {
            LpOutcomeBig::Optimal { x, value } => {
                assert_eq!(value, int(36));
                assert_eq!(x, vec![int(2), int(6)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let out = solve_lp_big(&[vec![int(1)]], &[int(-1)], &[int(1)]);
        assert_eq!(out, LpOutcomeBig::Infeasible);
        let out = solve_lp_big(&[vec![int(0), int(1)]], &[int(5)], &[int(1), int(0)]);
        assert_eq!(out, LpOutcomeBig::Unbounded);
    }

    #[test]
    fn fractional_optimum_is_exact() {
        match solve_lp_big(&[vec![int(3)]], &[int(2)], &[int(1)]) {
            LpOutcomeBig::Optimal { x, value } => {
                assert_eq!(x[0], ratio(2, 3));
                assert_eq!(value, ratio(2, 3));
            }
            other => panic!("{other:?}"),
        }
    }
}
