//! The chain-statistic construction shared by the CQ and GHW(k)
//! algorithms (proof of Lemma 5.4, after Kimelfeld–Ré).
//!
//! Both the unrestricted-CQ case (preorder: `e ⪯ e'` iff
//! `(D,e) → (D,e')`) and the `GHW(k)` case (preorder `→_k`) separate via
//! the same recipe: take the indistinguishability classes `E_1 ⋯ E_m` in
//! topological order, use the canonical features `q_{e_i}` whose value at
//! an entity `e` is `+1` iff `e_i ⪯ e`, and linearly separate the
//! resulting *down-set indicator* vectors. This module implements the
//! label-purity check, the class vectors, and the exact-LP classifier —
//! everything except the preorder itself, which the callers supply.

use engine::{Ctx, Interrupted};
use linsep::LinearClassifier;
use relational::{Label, TrainingDb, Val};

/// The chain structure of a training database under some
/// indistinguishability preorder `⪯` over its entities.
#[derive(Clone, Debug)]
pub struct ChainModel {
    /// Entities, aligned with the rows/columns of the preorder matrix.
    pub elems: Vec<Val>,
    /// Class id per entity; classes are numbered in topological order.
    pub class_of: Vec<usize>,
    /// Members (indices into `elems`) of each class.
    pub classes: Vec<Vec<usize>>,
    /// `class_leq[i][j]`: class `i ⪯` class `j`.
    pub class_leq: Vec<Vec<bool>>,
    /// The label of each class, when classes are label-pure.
    pub class_label: Vec<Label>,
    /// A linear classifier over the `m`-dimensional implicit chain
    /// statistic that reproduces the class labels.
    pub classifier: LinearClassifier,
}

/// Why a chain model could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// Two entities with different labels are mutually `⪯` — the
    /// inseparability criterion of Lemma 5.4 (2).
    MixedClass { pos: Val, neg: Val },
}

/// Build the chain model from a full preorder matrix
/// (`leq[i][j] = elems[i] ⪯ elems[j]`).
///
/// Interruptible: interruptible, with the LP counted against the context's
/// engine. Inseparability ([`ChainError`]) stays in the inner `Result`;
/// interruption is the outer one.
pub fn build_chain_in(
    ctx: &Ctx,
    train: &TrainingDb,
    elems: &[Val],
    leq: &[Vec<bool>],
) -> Result<Result<ChainModel, ChainError>, Interrupted> {
    ctx.check()?;
    let n = elems.len();

    // Group into equivalence classes (mutual ⪯), failing on mixed labels.
    let mut class_of = vec![usize::MAX; n];
    let mut reps: Vec<usize> = Vec::new();
    for i in 0..n {
        match reps.iter().position(|&r| leq[i][r] && leq[r][i]) {
            Some(c) => {
                class_of[i] = c;
                if train.labeling.get(elems[i]) != train.labeling.get(elems[reps[c]]) {
                    let (pos, neg) = if train.labeling.get(elems[i]) == Label::Positive {
                        (elems[i], elems[reps[c]])
                    } else {
                        (elems[reps[c]], elems[i])
                    };
                    return Ok(Err(ChainError::MixedClass { pos, neg }));
                }
            }
            None => {
                class_of[i] = reps.len();
                reps.push(i);
            }
        }
    }

    // Topological sort of classes.
    let m = reps.len();
    let mut indeg = vec![0usize; m];
    for c in 0..m {
        for e in 0..m {
            if c != e && leq[reps[c]][reps[e]] {
                indeg[e] += 1;
            }
        }
    }
    let mut order = Vec::with_capacity(m);
    let mut ready: Vec<usize> = (0..m).filter(|&e| indeg[e] == 0).collect();
    while let Some(c) = ready.pop() {
        order.push(c);
        for e in 0..m {
            if c != e && leq[reps[c]][reps[e]] {
                indeg[e] -= 1;
                if indeg[e] == 0 {
                    ready.push(e);
                }
            }
        }
    }
    assert_eq!(order.len(), m, "preorder classes must form a DAG");
    let mut topo_pos = vec![0usize; m];
    for (pos, &c) in order.iter().enumerate() {
        topo_pos[c] = pos;
    }
    let reps_sorted: Vec<usize> = {
        let mut v = vec![0usize; m];
        for (old, &r) in reps.iter().enumerate() {
            v[topo_pos[old]] = r;
        }
        v
    };
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); m];
    for i in 0..n {
        class_of[i] = topo_pos[class_of[i]];
        classes[class_of[i]].push(i);
    }

    let class_leq: Vec<Vec<bool>> = (0..m)
        .map(|c| {
            (0..m)
                .map(|e| c == e || leq[reps_sorted[c]][reps_sorted[e]])
                .collect()
        })
        .collect();
    let class_label: Vec<Label> = (0..m)
        .map(|c| train.labeling.get(elems[reps_sorted[c]]))
        .collect();

    // Class vectors under the implicit chain statistic: component j of
    // class c is +1 iff class j ⪯ class c.
    let vectors: Vec<Vec<i32>> = (0..m)
        .map(|c| {
            (0..m)
                .map(|j| if class_leq[j][c] { 1 } else { -1 })
                .collect()
        })
        .collect();
    let labels: Vec<i32> = class_label.iter().map(|l| l.to_i32()).collect();
    let classifier = ctx
        .separate(&vectors, &labels)?
        .expect("chain vectors with label-pure classes are always linearly separable (Lemma 5.4)");

    Ok(Ok(ChainModel {
        elems: elems.to_vec(),
        class_of,
        classes,
        class_leq,
        class_label,
        classifier,
    }))
}

impl ChainModel {
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Index (into `elems`) of the representative of class `c`.
    pub fn representative(&self, c: usize) -> usize {
        self.classes[c][0]
    }

    /// Classify an arbitrary ±1 chain vector (component `j` answering
    /// "is `e_j ⪯ this entity`?").
    pub fn classify_vector(&self, v: &[i32]) -> Label {
        Label::from_sign(self.classifier.classify(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Engine;
    use relational::{DbBuilder, Schema};

    fn train(labels: &[(&str, bool)]) -> TrainingDb {
        let mut b = DbBuilder::new(Schema::entity_schema());
        for &(n, l) in labels {
            b = if l { b.positive(n) } else { b.negative(n) };
        }
        b.training()
    }

    #[test]
    fn total_order_any_labeling_separates() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Chain e0 ⪯ e1 ⪯ e2 ⪯ e3 with an alternating labeling: the
        // chain construction must still separate (this is the crux of
        // the Kimelfeld–Ré lemma the paper leans on).
        let t = train(&[("a", true), ("b", false), ("c", true), ("d", false)]);
        let elems = t.entities();
        let n = elems.len();
        let leq: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| i <= j).collect()).collect();
        let m = build_chain_in(&ctx, &t, &elems, &leq).unwrap().unwrap();
        assert_eq!(m.class_count(), 4);
        for c in 0..4 {
            let v: Vec<i32> = (0..4).map(|j| if j <= c { 1 } else { -1 }).collect();
            assert_eq!(m.classify_vector(&v), m.class_label[c]);
        }
    }

    #[test]
    fn mixed_class_detected() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = train(&[("a", true), ("b", false)]);
        let elems = t.entities();
        let leq = vec![vec![true, true], vec![true, true]];
        match build_chain_in(&ctx, &t, &elems, &leq).unwrap() {
            Err(ChainError::MixedClass { pos, neg }) => {
                assert_eq!(t.labeling.get(pos), Label::Positive);
                assert_eq!(t.labeling.get(neg), Label::Negative);
            }
            other => panic!("expected mixed class, got {other:?}"),
        }
    }

    #[test]
    fn antichain_classes() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Discrete preorder: every entity its own class; any labeling
        // separates (vectors are distinct unit-ish patterns).
        let t = train(&[("a", true), ("b", false), ("c", true)]);
        let elems = t.entities();
        let leq: Vec<Vec<bool>> = (0..3).map(|i| (0..3).map(|j| i == j).collect()).collect();
        let m = build_chain_in(&ctx, &t, &elems, &leq).unwrap().unwrap();
        assert_eq!(m.class_count(), 3);
        for c in 0..3 {
            let v: Vec<i32> = (0..3).map(|j| if j == c { 1 } else { -1 }).collect();
            assert_eq!(m.classify_vector(&v), m.class_label[c]);
        }
    }

    #[test]
    fn diamond_partial_order() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // bottom ⪯ {mid1, mid2} ⪯ top with labels +,-,-,+ .
        let t = train(&[("bot", true), ("m1", false), ("m2", false), ("top", true)]);
        let elems = t.entities();
        let idx = |n: &str| elems.iter().position(|&v| t.db.val_name(v) == n).unwrap();
        let (b, m1, m2, top) = (idx("bot"), idx("m1"), idx("m2"), idx("top"));
        let mut leq = vec![vec![false; 4]; 4];
        for (i, row) in leq.iter_mut().enumerate() {
            row[i] = true;
        }
        leq[b][m1] = true;
        leq[b][m2] = true;
        leq[b][top] = true;
        leq[m1][top] = true;
        leq[m2][top] = true;
        let m = build_chain_in(&ctx, &t, &elems, &leq).unwrap().unwrap();
        assert_eq!(m.class_count(), 4);
        // Check classification of each class's own vector.
        for c in 0..4 {
            let v: Vec<i32> = (0..4)
                .map(|j| if m.class_leq[j][c] { 1 } else { -1 })
                .collect();
            assert_eq!(m.classify_vector(&v), m.class_label[c], "class {c}");
        }
    }
}
