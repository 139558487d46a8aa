//! Sparse revised simplex over exact rationals, with warm-started bases:
//! the one LP solver behind [`crate::separate`](fn@crate::separate).
//!
//! The separation LPs the subset sweep generates are mostly ±1 and highly
//! structured (example rows + unit box rows), so a revised simplex that
//! keeps only the original columns (column-major nonzero lists, slacks
//! implicit) plus a factorization of the current basis does `O(m²)` work
//! per pivot instead of a dense tableau's `O(m·(n+m))` — and, more
//! importantly, can **warm-start**: a caller holding the final basis of a
//! structurally similar LP (subset `S` vs `S ∪ {j}` in the ≤ℓ sweep) can
//! hand it back and skip most pivots.
//!
//! Representation (see DESIGN.md):
//!
//! * **Basis factorization**: a packed exact LU of the row-permuted basis
//!   matrix (`PB = LU`; multipliers of `L` strictly below the unit
//!   diagonal, `U` on and above; `perm[i]` = original constraint row at
//!   pivot position `i`), plus an **eta file**: after `k` pivots the
//!   basis is `B_k = B₀·E₁···E_k`, each `E_t` an identity with one column
//!   replaced by the FTRAN-ed entering column. FTRAN/BTRAN apply the LU
//!   triangles and then the eta columns (oldest-first forward,
//!   newest-first transposed). The file is collapsed back into a fresh LU
//!   every `REFACTOR_LIMIT` pivots.
//! * **Pricing**: partial — a rotating cursor takes the first nonbasic
//!   column with positive reduced cost, so one BTRAN prices the whole
//!   round and easy entering columns are found without scanning all
//!   `n+m`. A run of [`degen ≥ 2m+16`](Pricing) consecutive degenerate
//!   pivots permanently switches to Bland's smallest-index rule, which
//!   cannot cycle (a cycle is all-degenerate); [`Pricing::Bland`] forces
//!   that rule from the start, in which case this solver performs
//!   *exactly* the pivot sequence of the dense [`crate::simplex_big`]
//!   oracle (same entering rule, same ratio tie-break) — the agreement
//!   tests pin this.
//! * **Warm starts**: [`Warm::Reuse`] clones a sibling instance's entire
//!   factorization (valid when every basis column's data is unchanged —
//!   the caller's contract) and recomputes `x_B = B⁻¹b` for the new RHS;
//!   [`Warm::Basis`] takes just a variable list (e.g. a parent basis
//!   remapped to the child's indices) and refactorizes from the current
//!   columns. Both verify `B·x_B = b` against the *actual* columns and
//!   `x_B ≥ 0` before accepting, falling back to the all-slack cold
//!   start otherwise — a rejected warm start can cost one factorization
//!   but can never change a verdict.
//!
//! Scope: this solver requires `b ≥ 0` (the all-slack basis feasible, so
//! a single phase suffices) and asserts it. The margin LPs of
//! [`crate::separate`](fn@crate::separate) always have `b ≥ 1`.

use interrupt::{Interrupt, Stop};
use numeric::Rat;

/// Collapse the eta file into a fresh LU once it reaches this many
/// columns: FTRAN/BTRAN cost grows linearly with the file, refactoring
/// costs one `O(m³)` elimination.
const REFACTOR_LIMIT: usize = 24;

/// One product-form update: the basis column at position `r` was replaced
/// by the FTRAN-ed entering column `w` (`diag = w_r`, always nonzero;
/// `col` holds the remaining nonzeros of `w`).
#[derive(Clone, Debug)]
struct Eta {
    r: usize,
    diag: Rat,
    col: Vec<(usize, Rat)>,
}

/// A factorized simplex basis, detachable from the solve that produced it
/// and reusable to warm-start a later one (see [`Warm`]).
#[derive(Clone, Debug)]
pub struct SparseBasis {
    /// Basic variable at each basis position (structural `j < n`, slack
    /// `n + row` otherwise).
    vars: Vec<usize>,
    /// Packed LU of the row-permuted basis matrix at the last refactor.
    lu: Vec<Vec<Rat>>,
    /// `perm[i]` = original constraint row at pivot position `i`.
    perm: Vec<usize>,
    /// Product-form updates since the last refactor.
    etas: Vec<Eta>,
}

impl SparseBasis {
    /// The basic variable indices, one per constraint row (structural
    /// variables are `0..n`, the slack of row `i` is `n + i`).
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    fn cold(n: usize, m: usize) -> SparseBasis {
        let mut lu = vec![vec![Rat::zero(); m]; m];
        for (i, row) in lu.iter_mut().enumerate() {
            row[i] = Rat::one();
        }
        SparseBasis {
            vars: (n..n + m).collect(),
            lu,
            perm: (0..m).collect(),
            etas: Vec::new(),
        }
    }
}

/// How to seed the starting basis of a sparse solve.
pub enum Warm<'a> {
    /// Clone a finished basis (factorization included) from a *sibling*
    /// instance whose basis columns are all byte-identical to this one's
    /// — only the RHS (and non-basic column data) may differ. `x_B` is
    /// recomputed for the new `b` and the clone is verified against the
    /// actual columns; any mismatch or infeasibility falls back to cold.
    Reuse(&'a SparseBasis),
    /// Start from this variable list, refactorizing against the current
    /// instance's columns (use when indices had to be remapped, e.g. a
    /// parent subset's basis extended to `S ∪ {j}`). Singular or
    /// infeasible lists fall back to cold.
    Basis(Vec<usize>),
}

/// Entering-variable rule. `Partial` is the performance default; `Bland`
/// reproduces the [`crate::simplex_big`] oracle's pivot sequence exactly
/// (used by the agreement tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pricing {
    /// Rotating-cursor first-improving, with an automatic permanent
    /// switch to Bland after a long degenerate run.
    Partial,
    /// Smallest-index rule from the first pivot.
    Bland,
}

/// Per-solve accounting returned alongside the outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseReport {
    /// Simplex pivots performed.
    pub pivots: u64,
    /// Whether an offered warm basis was actually accepted (an offered
    /// basis that failed verification cold-starts and reports `false`).
    pub warm_used: bool,
}

/// Result of [`solve_lp_sparse`]. Infeasibility cannot occur: the solver
/// requires `b ≥ 0`, where the all-slack basis is feasible.
#[derive(Clone, Debug)]
pub enum SparseOutcome {
    /// Optimal structural solution, objective value, and the final basis
    /// (hand it back via [`Warm`] to warm-start a related solve).
    Optimal {
        x: Vec<Rat>,
        value: Rat,
        basis: SparseBasis,
    },
    /// The objective is unbounded above.
    Unbounded,
}

/// Solve `max cᵀx s.t. Ax ≤ b, x ≥ 0` exactly by the sparse revised
/// simplex with partial pricing, optionally warm-started. Observes `intr`
/// once per pivot.
///
/// # Panics
///
/// If some `b_i < 0` (the all-slack start would be infeasible and this
/// solver has no phase 1), or if the shapes of `A`, `b` and `c` disagree.
/// The caller owns all counter accounting via the returned
/// [`SparseReport`], which is filled in even when the solve stops.
pub fn solve_lp_sparse(
    a: &[Vec<Rat>],
    b: &[Rat],
    c: &[Rat],
    warm: Option<Warm>,
    intr: &Interrupt,
) -> (Result<SparseOutcome, Stop>, SparseReport) {
    solve_lp_sparse_with_pricing(a, b, c, warm, Pricing::Partial, intr)
}

/// [`solve_lp_sparse`] with an explicit entering rule.
pub fn solve_lp_sparse_with_pricing(
    a: &[Vec<Rat>],
    b: &[Rat],
    c: &[Rat],
    warm: Option<Warm>,
    pricing: Pricing,
    intr: &Interrupt,
) -> (Result<SparseOutcome, Stop>, SparseReport) {
    let m = a.len();
    let n = c.len();
    assert_eq!(b.len(), m, "b must match the number of constraint rows");
    for row in a {
        assert_eq!(row.len(), n, "every row of A must match c's length");
    }
    assert!(
        b.iter().all(|v| !v.is_negative()),
        "solve_lp_sparse requires b >= 0 (the all-slack basis must be feasible)"
    );
    // Column-major nonzero lists of the structural columns; slack columns
    // stay implicit unit vectors.
    let mut cols: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); n];
    for (i, row) in a.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            if !v.is_zero() {
                cols[j].push((i, v.clone()));
            }
        }
    }
    let mut rev = Rev {
        cols,
        b,
        c,
        n,
        m,
        basis: SparseBasis::cold(n, m),
        x_b: b.to_vec(),
        in_basis: {
            let mut ib = vec![false; n + m];
            for s in ib.iter_mut().skip(n) {
                *s = true;
            }
            ib
        },
        pivots: 0,
        cursor: 0,
    };
    let warm_used = warm.is_some_and(|w| rev.try_warm(w));
    let result = rev.run(pricing, intr);
    let report = SparseReport {
        pivots: rev.pivots,
        warm_used,
    };
    (result, report)
}

struct Rev<'a> {
    cols: Vec<Vec<(usize, Rat)>>,
    b: &'a [Rat],
    c: &'a [Rat],
    n: usize,
    m: usize,
    basis: SparseBasis,
    /// Values of the basic variables, aligned with `basis.vars`.
    x_b: Vec<Rat>,
    in_basis: Vec<bool>,
    pivots: u64,
    /// Partial-pricing rotating cursor.
    cursor: usize,
}

/// Exact LU with row permutation by first-nonzero pivoting (exact
/// arithmetic needs no magnitude pivoting; first-nonzero keeps the
/// elimination deterministic). `None` iff the matrix is singular.
fn factorize(mut mtx: Vec<Vec<Rat>>) -> Option<(Vec<Vec<Rat>>, Vec<usize>)> {
    let m = mtx.len();
    let mut perm: Vec<usize> = (0..m).collect();
    for k in 0..m {
        let p = (k..m).find(|&p| !mtx[p][k].is_zero())?;
        mtx.swap(k, p);
        perm.swap(k, p);
        for i in k + 1..m {
            let (upper, lower) = mtx.split_at_mut(i);
            let rk = &upper[k];
            let ri = &mut lower[0];
            if ri[k].is_zero() {
                continue;
            }
            let f = &ri[k] / &rk[k];
            for j in k + 1..m {
                if !rk[j].is_zero() {
                    ri[j].sub_mul(&f, &rk[j]);
                }
            }
            ri[k] = f;
        }
    }
    Some((mtx, perm))
}

impl Rev<'_> {
    /// The basis matrix for `vars` as dense rows (columns of `A`, slacks
    /// as unit vectors).
    fn dense_basis_matrix(&self, vars: &[usize]) -> Vec<Vec<Rat>> {
        let mut mtx = vec![vec![Rat::zero(); self.m]; self.m];
        for (k, &v) in vars.iter().enumerate() {
            if v < self.n {
                for (i, coef) in &self.cols[v] {
                    mtx[*i][k] = coef.clone();
                }
            } else {
                mtx[v - self.n][k] = Rat::one();
            }
        }
        mtx
    }

    /// Attempt to install a warm basis; `true` iff it was accepted.
    /// Runs before any pivot, so on rejection the cold state (`x_b = b`,
    /// all-slack `in_basis`) is still intact.
    fn try_warm(&mut self, warm: Warm) -> bool {
        let candidate = match warm {
            Warm::Reuse(sb) => {
                if sb.vars.len() != self.m
                    || sb.lu.len() != self.m
                    || sb.vars.iter().any(|&v| v >= self.n + self.m)
                {
                    return false;
                }
                sb.clone()
            }
            Warm::Basis(vars) => {
                if vars.len() != self.m || vars.iter().any(|&v| v >= self.n + self.m) {
                    return false;
                }
                let mut seen = vec![false; self.n + self.m];
                for &v in &vars {
                    if seen[v] {
                        return false;
                    }
                    seen[v] = true;
                }
                match factorize(self.dense_basis_matrix(&vars)) {
                    Some((lu, perm)) => SparseBasis {
                        vars,
                        lu,
                        perm,
                        etas: Vec::new(),
                    },
                    None => return false,
                }
            }
        };
        let saved = std::mem::replace(&mut self.basis, candidate);
        let xb = self.ftran(self.b);
        // Accept only a verified feasible basic solution: `x_B ≥ 0` and
        // `B·x_B = b` against the *current* columns (so a stale or
        // mismatched factorization can never corrupt the verdict).
        if xb.iter().all(|v| !v.is_negative()) && self.residual_is_zero(&xb) {
            self.x_b = xb;
            self.in_basis = vec![false; self.n + self.m];
            for &v in &self.basis.vars {
                self.in_basis[v] = true;
            }
            true
        } else {
            self.basis = saved;
            false
        }
    }

    /// Does `B·x_B = b` hold against the instance's actual columns?
    fn residual_is_zero(&self, xb: &[Rat]) -> bool {
        let mut acc = vec![Rat::zero(); self.m];
        for (k, &v) in self.basis.vars.iter().enumerate() {
            if xb[k].is_zero() {
                continue;
            }
            if v < self.n {
                for (i, coef) in &self.cols[v] {
                    acc[*i].add_mul(coef, &xb[k]);
                }
            } else {
                let i = v - self.n;
                acc[i] = &acc[i] + &xb[k];
            }
        }
        acc.iter().zip(self.b.iter()).all(|(l, r)| l == r)
    }

    /// FTRAN: solve `B z = v` (`v` indexed by original constraint row,
    /// `z` by basis position): LU triangles, then etas oldest-first.
    fn ftran(&self, v: &[Rat]) -> Vec<Rat> {
        let m = self.m;
        let lu = &self.basis.lu;
        // Forward `L y = P v`.
        let mut y: Vec<Rat> = Vec::with_capacity(m);
        for i in 0..m {
            let mut acc = v[self.basis.perm[i]].clone();
            for (j, yj) in y.iter().enumerate() {
                if !lu[i][j].is_zero() && !yj.is_zero() {
                    acc.sub_mul(&lu[i][j], yj);
                }
            }
            y.push(acc);
        }
        // Backward `U z = y`.
        let mut z = vec![Rat::zero(); m];
        for i in (0..m).rev() {
            let mut acc = std::mem::take(&mut y[i]);
            for j in i + 1..m {
                if !lu[i][j].is_zero() && !z[j].is_zero() {
                    acc.sub_mul(&lu[i][j], &z[j]);
                }
            }
            z[i] = &acc / &lu[i][i];
        }
        // Product form, oldest first: z ← E_t⁻¹ z.
        for eta in &self.basis.etas {
            let zr = &z[eta.r] / &eta.diag;
            if !zr.is_zero() {
                for (i, wi) in &eta.col {
                    z[*i].sub_mul(wi, &zr);
                }
            }
            z[eta.r] = zr;
        }
        z
    }

    /// BTRAN: solve `Bᵀ y = c_B` (`c_B` indexed by basis position, `y` by
    /// original constraint row): etas newest-first transposed, then the
    /// transposed LU triangles.
    fn btran(&self, cb: &[Rat]) -> Vec<Rat> {
        let m = self.m;
        let lu = &self.basis.lu;
        let mut d = cb.to_vec();
        for eta in self.basis.etas.iter().rev() {
            let mut acc = std::mem::take(&mut d[eta.r]);
            for (i, wi) in &eta.col {
                if !d[*i].is_zero() {
                    acc.sub_mul(wi, &d[*i]);
                }
            }
            d[eta.r] = &acc / &eta.diag;
        }
        // Forward `Uᵀ z = d` (lower triangular with diag `lu[i][i]`).
        let mut z: Vec<Rat> = Vec::with_capacity(m);
        for i in 0..m {
            let mut acc = std::mem::take(&mut d[i]);
            for (j, zj) in z.iter().enumerate() {
                if !lu[j][i].is_zero() && !zj.is_zero() {
                    acc.sub_mul(&lu[j][i], zj);
                }
            }
            z.push(&acc / &lu[i][i]);
        }
        // Backward `Lᵀ w = z` (unit upper triangular).
        let mut w = vec![Rat::zero(); m];
        for i in (0..m).rev() {
            let mut acc = std::mem::take(&mut z[i]);
            for j in i + 1..m {
                if !lu[j][i].is_zero() && !w[j].is_zero() {
                    acc.sub_mul(&lu[j][i], &w[j]);
                }
            }
            w[i] = acc;
        }
        // Undo the row permutation: y[perm[i]] = w[i].
        let mut y = vec![Rat::zero(); m];
        for (i, wi) in w.into_iter().enumerate() {
            y[self.basis.perm[i]] = wi;
        }
        y
    }

    /// Reduced cost of nonbasic `j` under duals `y`.
    fn reduced_cost(&self, j: usize, y: &[Rat]) -> Rat {
        if j < self.n {
            let mut d = self.c[j].clone();
            for (i, coef) in &self.cols[j] {
                if !y[*i].is_zero() {
                    d.sub_mul(&y[*i], coef);
                }
            }
            d
        } else {
            -&y[j - self.n]
        }
    }

    /// Entering variable, or `None` if optimal.
    fn price(&mut self, y: &[Rat], bland: bool) -> Option<usize> {
        let total = self.n + self.m;
        if bland {
            return (0..total)
                .find(|&j| !self.in_basis[j] && self.reduced_cost(j, y).is_positive());
        }
        for off in 0..total {
            let j = (self.cursor + off) % total;
            if !self.in_basis[j] && self.reduced_cost(j, y).is_positive() {
                self.cursor = (j + 1) % total;
                return Some(j);
            }
        }
        None
    }

    fn column_dense(&self, j: usize) -> Vec<Rat> {
        let mut v = vec![Rat::zero(); self.m];
        if j < self.n {
            for (i, coef) in &self.cols[j] {
                v[*i] = coef.clone();
            }
        } else {
            v[j - self.n] = Rat::one();
        }
        v
    }

    /// Collapse the eta file into a fresh LU of the current basis. A true
    /// basis is nonsingular, so this cannot fail.
    fn refactor(&mut self) {
        let (lu, perm) = factorize(self.dense_basis_matrix(&self.basis.vars))
            .expect("current basis matrix is nonsingular");
        self.basis.lu = lu;
        self.basis.perm = perm;
        self.basis.etas.clear();
    }

    fn run(&mut self, pricing: Pricing, intr: &Interrupt) -> Result<SparseOutcome, Stop> {
        let mut bland = pricing == Pricing::Bland;
        let mut degen_run = 0usize;
        // A cycle consists solely of degenerate pivots, so a long
        // degenerate run is the signal to fall back to Bland's rule
        // (which terminates unconditionally).
        let degen_limit = 2 * self.m + 16;
        loop {
            intr.check()?;
            let cb: Vec<Rat> = self
                .basis
                .vars
                .iter()
                .map(|&v| {
                    if v < self.n {
                        self.c[v].clone()
                    } else {
                        Rat::zero()
                    }
                })
                .collect();
            let y = self.btran(&cb);
            let Some(enter) = self.price(&y, bland) else {
                return Ok(self.extract());
            };
            let w = self.ftran(&self.column_dense(enter));
            // Ratio test; ties broken by smallest basic variable (Bland),
            // matching the dense oracle exactly.
            let mut best: Option<(usize, Rat)> = None;
            for (i, wi) in w.iter().enumerate() {
                if !wi.is_positive() {
                    continue;
                }
                let ratio = &self.x_b[i] / wi;
                let better = match &best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < *br || (ratio == *br && self.basis.vars[i] < self.basis.vars[*bi])
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
            let Some((r, theta)) = best else {
                return Ok(SparseOutcome::Unbounded);
            };
            if theta.is_zero() {
                degen_run += 1;
                if degen_run >= degen_limit {
                    bland = true;
                }
            } else {
                degen_run = 0;
            }
            self.pivots += 1;
            for (i, wi) in w.iter().enumerate() {
                if i != r && !wi.is_zero() && !theta.is_zero() {
                    self.x_b[i].sub_mul(wi, &theta);
                }
            }
            self.x_b[r] = theta;
            let leave = self.basis.vars[r];
            self.in_basis[leave] = false;
            self.in_basis[enter] = true;
            self.basis.vars[r] = enter;
            let diag = w[r].clone();
            let col: Vec<(usize, Rat)> = w
                .into_iter()
                .enumerate()
                .filter(|(i, wi)| *i != r && !wi.is_zero())
                .collect();
            self.basis.etas.push(Eta { r, diag, col });
            if self.basis.etas.len() >= REFACTOR_LIMIT {
                self.refactor();
            }
        }
    }

    fn extract(&self) -> SparseOutcome {
        let mut x = vec![Rat::zero(); self.n];
        let mut value = Rat::zero();
        for (k, &v) in self.basis.vars.iter().enumerate() {
            if v < self.n {
                if !self.c[v].is_zero() {
                    value.add_mul(&self.c[v], &self.x_b[k]);
                }
                x[v] = self.x_b[k].clone();
            }
        }
        SparseOutcome::Optimal {
            x,
            value,
            basis: self.basis.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex_big::{solve_lp_big_counted, LpOutcomeBig};
    use numeric::{qint, qrat};

    fn rats(rows: &[&[i64]]) -> Vec<Vec<Rat>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| qint(v)).collect())
            .collect()
    }

    fn sparse(
        a: &[Vec<Rat>],
        b: &[Rat],
        c: &[Rat],
        warm: Option<Warm>,
        pricing: Pricing,
    ) -> (SparseOutcome, SparseReport) {
        let (res, report) =
            solve_lp_sparse_with_pricing(a, b, c, warm, pricing, &Interrupt::none());
        (res.expect("uninterruptible"), report)
    }

    /// The dense all-`BigRational` oracle on the same instance, with its
    /// pivot count.
    fn oracle(a: &[Vec<Rat>], b: &[Rat], c: &[Rat]) -> (LpOutcomeBig, u64) {
        let big = |v: &[Rat]| v.iter().map(Rat::to_big).collect::<Vec<_>>();
        let a: Vec<Vec<_>> = a.iter().map(|row| big(row)).collect();
        solve_lp_big_counted(&a, &big(b), &big(c))
    }

    #[test]
    fn textbook_optimum_matches_dense() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2,6).
        let a = rats(&[&[1, 0], &[0, 2], &[3, 2]]);
        let b = vec![qint(4), qint(12), qint(18)];
        let c = vec![qint(3), qint(5)];
        let LpOutcomeBig::Optimal {
            x: dense_x,
            value: dense_value,
        } = oracle(&a, &b, &c).0
        else {
            panic!("the oracle must find the optimum");
        };
        for pricing in [Pricing::Partial, Pricing::Bland] {
            let (out, report) = sparse(&a, &b, &c, None, pricing);
            match out {
                SparseOutcome::Optimal { x, value, .. } => {
                    assert_eq!(value, qint(36));
                    assert_eq!(x, vec![qint(2), qint(6)]);
                    assert_eq!(value.to_big(), dense_value);
                    assert!(x.iter().map(Rat::to_big).eq(dense_x.iter().cloned()));
                }
                other => panic!("{other:?}"),
            }
            assert!(!report.warm_used);
            assert!(report.pivots >= 2);
        }
    }

    #[test]
    fn bland_mode_matches_dense_pivot_for_pivot() {
        // With b >= 0 the dense oracle runs a single Bland phase from the
        // same all-slack basis, so outcomes AND pivot counts must agree.
        type Case = (Vec<Vec<Rat>>, Vec<Rat>, Vec<Rat>);
        let cases: Vec<Case> = vec![
            (
                rats(&[&[1, 0], &[0, 2], &[3, 2]]),
                vec![qint(4), qint(12), qint(18)],
                vec![qint(3), qint(5)],
            ),
            (
                rats(&[&[2, 1], &[1, 2]]),
                vec![qint(3), qint(3)],
                vec![qint(2), qint(1)],
            ),
            (rats(&[&[3]]), vec![qint(2)], vec![qint(1)]),
            (
                // Degenerate Beale-like instance (b = 0 rows).
                vec![
                    vec![qrat(1, 4), qint(-8), qint(-1), qint(9)],
                    vec![qrat(1, 2), qint(-12), qrat(-1, 2), qint(3)],
                    vec![qint(0), qint(0), qint(1), qint(0)],
                ],
                vec![qint(0), qint(0), qint(1)],
                vec![qrat(3, 4), qint(-20), qrat(1, 2), qint(-6)],
            ),
        ];
        for (a, b, c) in &cases {
            let (dense_out, dense_pivots) = oracle(a, b, c);
            let (out, report) = sparse(a, b, c, None, Pricing::Bland);
            match (out, dense_out) {
                (
                    SparseOutcome::Optimal { x, value, .. },
                    LpOutcomeBig::Optimal {
                        x: dx,
                        value: dvalue,
                    },
                ) => {
                    assert_eq!(value.to_big(), dvalue);
                    assert!(
                        x.iter().map(Rat::to_big).eq(dx.iter().cloned()),
                        "exact vertex agreement"
                    );
                }
                (l, r) => panic!("outcome mismatch: {l:?} vs {r:?}"),
            }
            assert_eq!(report.pivots, dense_pivots, "identical pivot sequence");
        }
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // max 2x + y s.t. 2x + y <= 3, x + 2y <= 3 -> value 3.
        let (out, _) = sparse(
            &rats(&[&[2, 1], &[1, 2]]),
            &[qint(3), qint(3)],
            &[qint(2), qint(1)],
            None,
            Pricing::Partial,
        );
        let SparseOutcome::Optimal { value, .. } = out else {
            panic!("optimal expected");
        };
        assert_eq!(value, qint(3));
        // A genuinely fractional one: max y s.t. 3y <= 2.
        let (out, _) = sparse(
            &rats(&[&[3]]),
            &[qint(2)],
            &[qint(1)],
            None,
            Pricing::Partial,
        );
        let SparseOutcome::Optimal { x, value, .. } = out else {
            panic!("optimal expected");
        };
        assert_eq!(x[0], qrat(2, 3));
        assert_eq!(value, qrat(2, 3));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degenerate instance (Beale-like): partial pricing must
        // fall back to Bland before it can cycle, and both rules finish.
        let a: Vec<Vec<Rat>> = vec![
            vec![qrat(1, 4), qint(-8), qint(-1), qint(9)],
            vec![qrat(1, 2), qint(-12), qrat(-1, 2), qint(3)],
            vec![qint(0), qint(0), qint(1), qint(0)],
        ];
        let b = vec![qint(0), qint(0), qint(1)];
        let c = vec![qrat(3, 4), qint(-20), qrat(1, 2), qint(-6)];
        for pricing in [Pricing::Partial, Pricing::Bland] {
            let (out, _) = sparse(&a, &b, &c, None, pricing);
            let SparseOutcome::Optimal { value, .. } = out else {
                panic!("optimal expected");
            };
            assert_eq!(value, qrat(5, 4));
        }
    }

    #[test]
    fn pivot_counts_are_reported_in_band() {
        // The textbook instance pivots at least twice; a basis that is
        // optimal at the start pivots zero times.
        let a = rats(&[&[1, 0], &[3, 2]]);
        let b = vec![qint(4), qint(18)];
        let (_, report) = sparse(&a, &b, &[qint(3), qint(5)], None, Pricing::Partial);
        assert!(report.pivots >= 2, "expected real pivoting, got {report:?}");
        let (out, report) = sparse(&a, &b, &[qint(-1), qint(-1)], None, Pricing::Partial);
        assert_eq!(report.pivots, 0, "all-slack basis is already optimal");
        assert!(matches!(out, SparseOutcome::Optimal { .. }));
    }

    #[test]
    fn huge_coefficients_promote_and_stay_exact() {
        // max x s.t. K·x <= K² with K near the i64 boundary: the solver
        // must promote internally yet produce the exact x = K.
        let k = qint(3_000_000_000);
        let ksq = &k * &k; // overflows i64 -> Big
        let (out, _) = sparse(
            &[vec![k.clone()]],
            &[ksq],
            &[qint(1)],
            None,
            Pricing::Partial,
        );
        let SparseOutcome::Optimal { x, value, .. } = out else {
            panic!("optimal expected");
        };
        assert_eq!(x[0], k);
        assert_eq!(value, k);
    }

    #[test]
    fn unbounded_detected() {
        let a = rats(&[&[0, 1]]);
        let b = vec![qint(5)];
        let c = vec![qint(1), qint(0)];
        let (out, _) = sparse(&a, &b, &c, None, Pricing::Partial);
        assert!(matches!(out, SparseOutcome::Unbounded));
    }

    #[test]
    fn declines_negative_rhs() {
        // No phase 1: a negative right-hand side violates the
        // precondition, and the solver refuses it loudly.
        let a = rats(&[&[1]]);
        let b = vec![qint(-1)];
        let c = vec![qint(1)];
        let err =
            std::panic::catch_unwind(|| solve_lp_sparse(&a, &b, &c, None, &Interrupt::none()))
                .expect_err("b < 0 must be rejected");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("requires b >= 0"), "unexpected panic: {msg:?}");
    }

    #[test]
    fn warm_basis_restart_is_pivot_free() {
        let a = rats(&[&[1, 0], &[0, 2], &[3, 2]]);
        let b = vec![qint(4), qint(12), qint(18)];
        let c = vec![qint(3), qint(5)];
        let (out, _) = sparse(&a, &b, &c, None, Pricing::Partial);
        let SparseOutcome::Optimal { basis, value, .. } = out else {
            panic!("optimal expected");
        };
        let warm = Warm::Basis(basis.vars().to_vec());
        let (out2, report2) = sparse(&a, &b, &c, Some(warm), Pricing::Partial);
        let SparseOutcome::Optimal { value: v2, .. } = out2 else {
            panic!("optimal expected");
        };
        assert_eq!(v2, value);
        assert!(report2.warm_used);
        assert_eq!(report2.pivots, 0, "optimal basis needs no pivots");
    }

    #[test]
    fn warm_reuse_adapts_to_a_new_rhs() {
        // Same columns, different b: the cloned factorization stays
        // valid and only x_B = B⁻¹b changes.
        let a = rats(&[&[1, 0], &[0, 1]]);
        let c = vec![qint(1), qint(1)];
        let b1 = vec![qint(4), qint(6)];
        let (out, _) = sparse(&a, &b1, &c, None, Pricing::Partial);
        let SparseOutcome::Optimal { basis, .. } = out else {
            panic!("optimal expected");
        };
        let b2 = vec![qint(3), qint(5)];
        let (out2, report2) = sparse(&a, &b2, &c, Some(Warm::Reuse(&basis)), Pricing::Partial);
        let SparseOutcome::Optimal { x, value, .. } = out2 else {
            panic!("optimal expected");
        };
        assert!(report2.warm_used);
        assert_eq!(report2.pivots, 0);
        assert_eq!(value, qint(8));
        assert_eq!(x, vec![qint(3), qint(5)]);
    }

    #[test]
    fn infeasible_warm_basis_falls_back_to_cold() {
        // max x s.t. x <= 1, x <= 2: the basis {x (from row 1), slack 0}
        // would put x = 2 > 1 — infeasible, so the warm offer must be
        // rejected and the cold start still reach the right answer.
        let a = rats(&[&[1], &[1]]);
        let b = vec![qint(1), qint(2)];
        let c = vec![qint(1)];
        let (out, report) = sparse(&a, &b, &c, Some(Warm::Basis(vec![0, 1])), Pricing::Partial);
        // vars [0, 1]: x basic in position 0, slack of row 0 in position
        // 1 — B⁻¹b = [2, -1]: infeasible, rejected.
        let SparseOutcome::Optimal { value, .. } = out else {
            panic!("optimal expected");
        };
        assert!(!report.warm_used);
        assert_eq!(value, qint(1));
    }

    #[test]
    fn garbage_warm_offers_are_rejected_not_fatal() {
        let a = rats(&[&[1]]);
        let b = vec![qint(3)];
        let c = vec![qint(1)];
        for warm in [
            Warm::Basis(vec![7]),    // out of range
            Warm::Basis(vec![0, 0]), // wrong length
            Warm::Basis(Vec::new()), // wrong length
        ] {
            let (out, report) = sparse(&a, &b, &c, Some(warm), Pricing::Partial);
            let SparseOutcome::Optimal { value, .. } = out else {
                panic!("optimal expected");
            };
            assert!(!report.warm_used);
            assert_eq!(value, qint(3));
        }
    }

    #[test]
    fn long_solves_cross_the_refactor_boundary() {
        // n independent x_i <= 1 constraints force one pivot per
        // variable; n > REFACTOR_LIMIT exercises the eta-file collapse.
        let n = REFACTOR_LIMIT + 6;
        let a: Vec<Vec<Rat>> = (0..n)
            .map(|i| {
                let mut row = vec![Rat::zero(); n];
                row[i] = Rat::one();
                row
            })
            .collect();
        let b = vec![qint(1); n];
        let c = vec![qint(1); n];
        let (out, report) = sparse(&a, &b, &c, None, Pricing::Partial);
        let SparseOutcome::Optimal { x, value, .. } = out else {
            panic!("optimal expected");
        };
        assert_eq!(value, qint(n as i64));
        assert!(x.iter().all(|v| *v == qint(1)));
        assert_eq!(report.pivots, n as u64);
    }

    #[test]
    fn zero_dimensional_inputs() {
        let (out, _) = sparse(&[], &[], &[], None, Pricing::Partial);
        let SparseOutcome::Optimal { x, value, .. } = out else {
            panic!("optimal expected");
        };
        assert!(x.is_empty());
        assert_eq!(value, qint(0));
        let (out, _) = sparse(&[], &[], &[qint(1)], None, Pricing::Partial);
        assert!(matches!(out, SparseOutcome::Unbounded));
        // Constraints but an empty objective over zero variables.
        let (out, _) = sparse(&[vec![]], &[qint(1)], &[], None, Pricing::Partial);
        let SparseOutcome::Optimal { x, value, .. } = out else {
            panic!("optimal expected");
        };
        assert!(x.is_empty());
        assert_eq!(value, qint(0));
    }
}
