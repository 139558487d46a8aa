//! The `→_k` preorder over the entities of a training database — the spine
//! of Lemma 5.4, Algorithm 1 (classification) and Algorithm 2 (optimal
//! approximate relabeling).
//!
//! For entities `e, e'` define `e ⪯ e'` iff `(D, e) →_k (D, e')`, i.e.
//! `e' ∈ q_e(D)` for the (possibly astronomically large) canonical feature
//! query `q_e` of Lemma 5.4. The preorder's equivalence classes are the
//! `GHW(k)`-indistinguishability classes; its topological sort yields the
//! implicit chain statistic `Π = (q_{e_1}, …, q_{e_m})` that the paper's
//! algorithms use *without materializing it*.

use crate::cache::GameCache;
use interrupt::{Interrupt, Stop};
use relational::{Database, Val};

/// The computed preorder `⪯` over a list of elements of one database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverPreorder {
    pub k: usize,
    /// The elements, in the order the matrix is indexed by.
    pub elems: Vec<Val>,
    /// `leq[i][j] = (D, elems[i]) →_k (D, elems[j])`.
    pub leq: Vec<Vec<bool>>,
    /// Equivalence class id of each element (classes are `⪯`-mutual sets).
    pub class_of: Vec<usize>,
    /// Classes in topological order: `class i ⪯ class j` implies `i ≤ j`
    /// in this ordering. Each class lists element indices.
    pub classes: Vec<Vec<usize>>,
}

impl CoverPreorder {
    /// Compute the preorder over `elems` (typically `η(D)`), memoizing
    /// through `cache`.
    ///
    /// Cost: one cover-game analysis per ordered pair — `O(|elems|²)`
    /// polynomial-time game solves, exactly as in Theorem 5.3's test.
    /// The solves fan out over all cores and share one [`UnionSkeleton`]
    /// (so one position table per union), and re-sweeping an unchanged
    /// database is nearly free.
    ///
    /// [`UnionSkeleton`]: crate::skeleton::UnionSkeleton
    pub fn compute_with(d: &Database, elems: &[Val], k: usize, cache: &GameCache) -> CoverPreorder {
        Self::compute_int(d, elems, k, cache, &Interrupt::none())
            .expect("an unshared handle cannot trip")
    }

    /// Interruptible [`CoverPreorder::compute_with`]: every pairwise game
    /// observes `intr`. Workers that trip mid-batch report a filler
    /// verdict; stickiness means the post-fan-in re-check below sees the
    /// trip, discards the whole (possibly bogus) matrix, and propagates
    /// [`Stop`]. Completed games keep their cache entries, so a re-run on
    /// the same cache resumes where the sweep left off.
    pub fn compute_int(
        d: &Database,
        elems: &[Val],
        k: usize,
        cache: &GameCache,
        intr: &Interrupt,
    ) -> Result<CoverPreorder, Stop> {
        intr.check()?;
        let n = elems.len();
        // One skeleton for all n² games (the unions and their position
        // tables depend only on D).
        let skeleton = crate::skeleton::UnionSkeleton::build(d, d, k);
        let cells: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .collect();
        let verdicts = relational::hom::par::par_map(&cells, |&(i, j)| {
            cache
                .implies_with_skeleton_int(&[elems[i]], &[elems[j]], &skeleton, intr)
                .unwrap_or(false)
        });
        // The sticky re-check that makes the filler verdicts safe.
        intr.check()?;
        let mut leq = vec![vec![false; n]; n];
        for (i, row) in leq.iter_mut().enumerate() {
            row[i] = true;
        }
        for (&(i, j), v) in cells.iter().zip(verdicts) {
            leq[i][j] = v;
        }
        Ok(Self::from_matrix(elems.to_vec(), leq, k))
    }

    /// The original sequential, uncached sweep. Kept as the reference
    /// implementation for the agreement property tests and the engine
    /// benchmarks.
    pub fn compute_seq(d: &Database, elems: &[Val], k: usize) -> CoverPreorder {
        let n = elems.len();
        let skeleton = crate::skeleton::UnionSkeleton::build(d, d, k);
        let mut leq = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                leq[i][j] = i == j
                    || crate::game::CoverGame::analyze(
                        &[elems[i]],
                        &[elems[j]],
                        &skeleton,
                        &Interrupt::none(),
                    )
                    .expect("an unshared handle cannot trip")
                    .duplicator_wins();
            }
        }
        Self::from_matrix(elems.to_vec(), leq, k)
    }

    /// Build the class structure from a precomputed matrix (exposed for
    /// tests and for reuse by callers that batch the game solves).
    pub fn from_matrix(elems: Vec<Val>, leq: Vec<Vec<bool>>, k: usize) -> CoverPreorder {
        let n = elems.len();
        // Equivalence classes: mutual ⪯.
        let mut class_of = vec![usize::MAX; n];
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..n {
            let found = reps.iter().position(|&r| leq[i][r] && leq[r][i]);
            match found {
                Some(c) => class_of[i] = c,
                None => {
                    class_of[i] = reps.len();
                    reps.push(i);
                }
            }
        }
        // Topological sort of classes by ⪯ (Kahn on the strict order).
        let m = reps.len();
        let mut edges = vec![vec![false; m]; m]; // edges[c][d]: c ⪯ d, c != d
        for (c, &rc) in reps.iter().enumerate() {
            for (e, &re) in reps.iter().enumerate() {
                if c != e && leq[rc][re] {
                    edges[c][e] = true;
                }
            }
        }
        let mut indeg: Vec<usize> = (0..m)
            .map(|e| (0..m).filter(|&c| edges[c][e]).count())
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(m);
        let mut ready: Vec<usize> = (0..m).filter(|&e| indeg[e] == 0).collect();
        while let Some(c) = ready.pop() {
            order.push(c);
            for e in 0..m {
                if edges[c][e] {
                    indeg[e] -= 1;
                    if indeg[e] == 0 {
                        ready.push(e);
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), m, "preorder classes must be acyclic");

        // Renumber classes by topological position.
        let mut topo_pos = vec![0usize; m];
        for (pos, &c) in order.iter().enumerate() {
            topo_pos[c] = pos;
        }
        let mut classes: Vec<Vec<usize>> = vec![Vec::new(); m];
        for i in 0..n {
            class_of[i] = topo_pos[class_of[i]];
            classes[class_of[i]].push(i);
        }
        CoverPreorder {
            k,
            elems,
            leq,
            class_of,
            classes,
        }
    }

    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// A representative element index of class `c` (the first member).
    pub fn representative(&self, c: usize) -> usize {
        self.classes[c][0]
    }

    /// Is class `c` ⪯ class `d`? (Well-defined on classes.)
    pub fn class_leq(&self, c: usize, d: usize) -> bool {
        self.leq[self.representative(c)][self.representative(d)]
    }

    /// The ±1 feature vector of class `c` under the implicit chain
    /// statistic `Π = (q_{e_1}, …, q_{e_m})` of Lemma 5.4: component `j`
    /// is `+1` iff `e_j ⪯ e_c`, i.e. `e_c ∈ q_{e_j}(D)`.
    pub fn chain_vector(&self, c: usize) -> Vec<i32> {
        (0..self.class_count())
            .map(|j| if self.class_leq(j, c) { 1 } else { -1 })
            .collect()
    }

    /// Evaluate the implicit statistic on a *new* element of an evaluation
    /// database: component `j` is `+1` iff `(D, e_j) →_k (D', f)` (the key
    /// step of Algorithm 1, lines 3–9), memoizing through `cache`.
    pub fn chain_vector_for_with(
        &self,
        d: &Database,
        d2: &Database,
        f: Val,
        cache: &GameCache,
    ) -> Vec<i32> {
        self.chain_vector_for_int(d, d2, f, cache, &Interrupt::none())
            .expect("an unshared handle cannot trip")
    }

    /// Interruptible [`CoverPreorder::chain_vector_for_with`]: each of
    /// the `class_count` games observes `intr`; the partial vector is
    /// discarded on [`Stop`].
    pub fn chain_vector_for_int(
        &self,
        d: &Database,
        d2: &Database,
        f: Val,
        cache: &GameCache,
        intr: &Interrupt,
    ) -> Result<Vec<i32>, Stop> {
        (0..self.class_count())
            .map(|j| {
                let rep = self.elems[self.representative(j)];
                Ok(if cache.implies_int(d, &[rep], d2, &[f], self.k, intr)? {
                    1
                } else {
                    -1
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{DbBuilder, Schema};

    fn graph(edges: &[(&str, &str)], entities: &[&str]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        for &e in entities {
            b = b.entity(e);
        }
        b.build()
    }

    #[test]
    fn path_gives_distinct_singleton_classes() {
        let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
        let pre = CoverPreorder::compute_with(&d, &d.entities(), 1, &GameCache::new());
        assert_eq!(pre.class_count(), 3);
        assert!(pre.classes.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn cycle_elements_collapse_to_one_class() {
        let d = graph(&[("a", "b"), ("b", "c"), ("c", "a")], &["a", "b", "c"]);
        for k in 1..=2 {
            let pre = CoverPreorder::compute_with(&d, &d.entities(), k, &GameCache::new());
            assert_eq!(pre.class_count(), 1, "k={k}");
            assert_eq!(pre.classes[0].len(), 3);
        }
    }

    #[test]
    fn topological_order_respects_preorder() {
        // Two disjoint out-stars of different sizes plus an isolated
        // entity: star-2 center ⪯ ... relationships vary; just check the
        // topological invariant on whatever structure comes out.
        let d = graph(
            &[
                ("a", "a1"),
                ("a", "a2"),
                ("b", "b1"),
                ("c", "c1"),
                ("c", "c2"),
            ],
            &["a", "b", "c", "z"],
        );
        let pre = CoverPreorder::compute_with(&d, &d.entities(), 1, &GameCache::new());
        for c in 0..pre.class_count() {
            for e in 0..pre.class_count() {
                if pre.class_leq(c, e) && c != e {
                    assert!(c < e, "topological violation: {c} ⪯ {e}");
                }
            }
        }
    }

    #[test]
    fn chain_vectors_are_monotone() {
        // e ⪯ e' implies chain_vector(e) ≤ chain_vector(e') pointwise.
        let d = graph(&[("1", "2"), ("2", "3"), ("3", "4")], &["1", "2", "3", "4"]);
        let pre = CoverPreorder::compute_with(&d, &d.entities(), 1, &GameCache::new());
        for c in 0..pre.class_count() {
            let vc = pre.chain_vector(c);
            assert_eq!(vc[c], 1, "class selects its own feature");
            for e in 0..pre.class_count() {
                if pre.class_leq(c, e) {
                    let ve = pre.chain_vector(e);
                    for j in 0..vc.len() {
                        assert!(vc[j] <= ve[j]);
                    }
                }
            }
        }
    }

    #[test]
    fn chain_vector_for_matches_training_side() {
        // Evaluating the implicit statistic on the training database
        // itself must reproduce chain_vector.
        let d = graph(&[("1", "2"), ("2", "3")], &["1", "2", "3"]);
        let pre = CoverPreorder::compute_with(&d, &d.entities(), 1, &GameCache::new());
        for (i, &e) in pre.elems.iter().enumerate() {
            let via_eval = pre.chain_vector_for_with(&d, &d, e, &GameCache::new());
            let via_class = pre.chain_vector(pre.class_of[i]);
            assert_eq!(via_eval, via_class);
        }
    }

    #[test]
    fn isolated_entities_share_a_class() {
        let d = graph(&[("a", "b")], &["x", "y", "a"]);
        let pre = CoverPreorder::compute_with(&d, &d.entities(), 1, &GameCache::new());
        let xi = pre
            .elems
            .iter()
            .position(|&v| d.val_name(v) == "x")
            .unwrap();
        let yi = pre
            .elems
            .iter()
            .position(|&v| d.val_name(v) == "y")
            .unwrap();
        let ai = pre
            .elems
            .iter()
            .position(|&v| d.val_name(v) == "a")
            .unwrap();
        assert_eq!(pre.class_of[xi], pre.class_of[yi]);
        assert_ne!(pre.class_of[xi], pre.class_of[ai]);
    }
}
