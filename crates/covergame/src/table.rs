//! One union's Duplicator responses against a fixed target, enumerated
//! by an indexed join over the union's facts.
//!
//! A response at a union `U` of `D` is a map `h : U → dom(D')` sending
//! every fact of `D` inside `U ∪ ā` to a fact of `D'`. Only two parts of
//! that condition depend on the game's `(ā, b̄)`: the elements of `U`
//! that `ā` pins, and the boundary facts `ā` closes. The rest — the
//! facts with every argument in `U` — is shared by every game against
//! `D'`, so [`PositionTable::build`] enumerates the maps satisfying just
//! those once per `(skeleton, target)`; a game keeps the rows that also
//! meet its own constraints (see [`crate::game`]).

use crate::skeleton::SkeletonUnion;
use interrupt::{Interrupt, Stop};
use relational::{Database, RelId, Val};
use std::cmp::Reverse;

/// The maps `h : elems → dom(D')` that send every inner fact of one
/// union to a fact of `D'`, as rows of `width` values parallel to the
/// union's sorted `elems`, in lexicographic order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PositionTable {
    width: usize,
    rows: Vec<Val>,
}

impl PositionTable {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Row `i`: the images of the union's elements.
    pub(crate) fn row(&self, i: usize) -> &[Val] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// Join the union's inner facts against `d2`. Observes `intr` once
    /// per join-node expansion.
    pub(crate) fn build(
        d: &Database,
        d2: &Database,
        u: &SkeletonUnion,
        intr: &Interrupt,
    ) -> Result<PositionTable, Stop> {
        let width = u.elems.len();
        debug_assert!(width > 0, "every union holds a fact's elements");
        let mut join = Join {
            d2,
            cur: vec![Val(0); width],
            args: Vec::new(),
            rows: Vec::new(),
            intr,
        };
        join.extend(&plan(d, d2, u))?;
        let rows = join.rows;
        let mut order: Vec<usize> = (0..rows.len() / width).collect();
        order.sort_unstable_by(|&x, &y| {
            rows[x * width..(x + 1) * width].cmp(&rows[y * width..(y + 1) * width])
        });
        let rows = order
            .iter()
            .flat_map(|&i| rows[i * width..(i + 1) * width].iter().copied())
            .collect();
        Ok(PositionTable { width, rows })
    }
}

/// One step of a union's join plan. `args` holds the union slot of each
/// argument position of a fact of `D`.
enum Step {
    /// Every argument is bound: a membership test.
    Check { rel: RelId, args: Vec<u32> },
    /// Bind the fact's unbound slots from each candidate fact of `D'`:
    /// with `probe = Some((p, s))`, the facts of `rel` holding `cur[s]`
    /// at position `p`; without a bound argument, every fact of `rel`.
    /// `binds[p]` is true where position `p` is the first occurrence of
    /// a slot unbound before this step; every other position must match
    /// `cur`.
    Extend {
        rel: RelId,
        args: Vec<u32>,
        binds: Vec<bool>,
        probe: Option<(u32, u32)>,
    },
}

/// Fix the join order of `u`'s inner facts. After each extension every
/// fact that became fully bound is checked at once; the next extension
/// prefers the fact with the most bound arguments, and without one the
/// relation with the fewest facts in `d2`. Ties keep fact order.
fn plan(d: &Database, d2: &Database, u: &SkeletonUnion) -> Vec<Step> {
    let slot = |v: Val| {
        u.elems
            .binary_search(&v)
            .expect("inner fact inside the union") as u32
    };
    let mut todo: Vec<(RelId, Vec<u32>)> = u
        .inner_facts
        .iter()
        .map(|&fi| {
            let f = d.fact(fi);
            (f.rel, f.args.iter().map(|&v| slot(v)).collect())
        })
        .collect();
    let mut bound = vec![false; u.elems.len()];
    let mut steps = Vec::with_capacity(todo.len());
    while !todo.is_empty() {
        let bound_args = |args: &[u32]| args.iter().filter(|&&s| bound[s as usize]).count();
        if let Some(i) = todo.iter().position(|(_, a)| bound_args(a) == a.len()) {
            let (rel, args) = todo.remove(i);
            steps.push(Step::Check { rel, args });
            continue;
        }
        let best = (0..todo.len())
            .min_by_key(|&i| {
                let (rel, args) = &todo[i];
                (Reverse(bound_args(args)), d2.facts_of_rel(*rel).len())
            })
            .expect("todo is non-empty");
        let (rel, args) = todo.remove(best);
        let probe = args
            .iter()
            .position(|&s| bound[s as usize])
            .map(|p| (p as u32, args[p]));
        let mut binds = Vec::with_capacity(args.len());
        for &s in &args {
            binds.push(!bound[s as usize]);
            bound[s as usize] = true;
        }
        steps.push(Step::Extend {
            rel,
            args,
            binds,
            probe,
        });
    }
    steps
}

/// The join's depth-first state: `cur` holds the slot values bound so
/// far, `args` is a reusable buffer for membership tests.
struct Join<'a> {
    d2: &'a Database,
    cur: Vec<Val>,
    args: Vec<Val>,
    rows: Vec<Val>,
    intr: &'a Interrupt,
}

impl Join<'_> {
    /// Run `steps` from the current bindings, appending every complete
    /// row to `rows`.
    fn extend(&mut self, steps: &[Step]) -> Result<(), Stop> {
        let Some((step, rest)) = steps.split_first() else {
            self.rows.extend_from_slice(&self.cur);
            return Ok(());
        };
        match step {
            Step::Check { rel, args } => {
                self.args.clear();
                self.args.extend(args.iter().map(|&s| self.cur[s as usize]));
                if self.d2.has_fact(*rel, &self.args) {
                    self.extend(rest)?;
                }
            }
            Step::Extend {
                rel,
                args,
                binds,
                probe,
            } => {
                self.intr.check()?;
                let d2 = self.d2;
                let candidates = match *probe {
                    Some((pos, s)) => d2.facts_with(*rel, pos, self.cur[s as usize]),
                    None => d2.facts_of_rel(*rel),
                };
                'candidates: for &fi in candidates {
                    let f2 = &d2.fact(fi).args;
                    for (p, &s) in args.iter().enumerate() {
                        if binds[p] {
                            self.cur[s as usize] = f2[p];
                        } else if self.cur[s as usize] != f2[p] {
                            continue 'candidates;
                        }
                    }
                    self.extend(rest)?;
                }
            }
        }
        Ok(())
    }
}
