//! Statistics and separator models (§2–§3 of the paper).

use cq::{indicator, Cq};
use linsep::LinearClassifier;
use relational::{Database, Label, Labeling, TrainingDb, Val};
use std::fmt;

/// A statistic `Π = (q_1, …, q_n)`: a sequence of unary feature queries.
#[derive(Clone, Debug, PartialEq)]
pub struct Statistic {
    pub features: Vec<Cq>,
}

impl Statistic {
    pub fn new(features: Vec<Cq>) -> Statistic {
        for q in &features {
            assert!(q.is_unary(), "feature queries must be unary");
        }
        Statistic { features }
    }

    /// The dimension (number of feature queries).
    pub fn dimension(&self) -> usize {
        self.features.len()
    }

    /// `Π^D(e)` for every entity `e` in `entities`: the ±1 feature matrix,
    /// one row per entity.
    ///
    /// Each feature column is an independent evaluation (a batch of hom
    /// tests for its query), so columns are computed on the parallel
    /// driver and then transposed into rows.
    ///
    /// Interruptible. The feature sweep runs in blocks with an interrupt check
    /// between blocks, so wide enumerated statistics (the `CQ[m]` solvers) stop
    /// promptly.
    pub fn apply_in(
        &self,
        ctx: &engine::Ctx,
        d: &Database,
        entities: &[Val],
    ) -> Result<Vec<Vec<i32>>, engine::Interrupted> {
        ctx.check()?;
        const BLOCK: usize = 32;
        let mut cols: Vec<Vec<i32>> = Vec::with_capacity(self.features.len());
        for chunk in self.features.chunks(BLOCK) {
            cols.extend(ctx.engine().par_map(chunk, |q| indicator(q, d, entities)));
            ctx.check()?;
        }
        let mut rows = vec![Vec::with_capacity(self.features.len()); entities.len()];
        for col in cols {
            for (row, v) in rows.iter_mut().zip(col) {
                row.push(v);
            }
        }
        Ok(rows)
    }

    /// Total number of atoms across the features — the size measure of
    /// Theorems 5.7 and 6.7.
    pub fn total_atoms(&self) -> usize {
        self.features.iter().map(|q| q.atoms().len()).sum()
    }
}

impl fmt::Display for Statistic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.features.iter().enumerate() {
            writeln!(f, "q{i}: {q}")?;
        }
        Ok(())
    }
}

/// A statistic together with a linear classifier: the pair `(Π, Λ_w̄)`
/// that the feature-generation algorithms produce.
#[derive(Clone, Debug, PartialEq)]
pub struct SeparatorModel {
    pub statistic: Statistic,
    pub classifier: LinearClassifier,
}

impl SeparatorModel {
    /// Classify the entities of `d` (any database over the schema).
    ///
    /// Interruptible: the feature sweep honours the context's engine and
    /// interrupt handle.
    pub fn classify_in(
        &self,
        ctx: &engine::Ctx,
        d: &Database,
    ) -> Result<Labeling, engine::Interrupted> {
        let entities = d.entities();
        let rows = self.statistic.apply_in(ctx, d, &entities)?;
        Ok(entities
            .into_iter()
            .zip(rows)
            .map(|(e, row)| (e, Label::from_sign(self.classifier.classify(&row))))
            .collect())
    }

    /// Does this model reproduce the training labels exactly
    /// (`L`-separation in the sense of Definition 3.1)?
    pub fn separates_in(
        &self,
        ctx: &engine::Ctx,
        train: &TrainingDb,
    ) -> Result<bool, engine::Interrupted> {
        Ok(self.errors_in(ctx, train)? == 0)
    }

    /// Number of training entities the model misclassifies (the error
    /// count of §7).
    pub fn errors_in(
        &self,
        ctx: &engine::Ctx,
        train: &TrainingDb,
    ) -> Result<usize, engine::Interrupted> {
        let predicted = self.classify_in(ctx, &train.db)?;
        Ok(train
            .entities()
            .into_iter()
            .filter(|&e| predicted.get(e) != train.labeling.get(e))
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse::parse_cq;
    use engine::Engine;
    use numeric::qint;
    use relational::{DbBuilder, Schema};

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    fn train() -> TrainingDb {
        DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .positive("a")
            .positive("b")
            .negative("c")
            .training()
    }

    fn model() -> SeparatorModel {
        let q = parse_cq(&schema(), "q(x) :- eta(x), E(x,y)").unwrap();
        SeparatorModel {
            statistic: Statistic::new(vec![q]),
            classifier: LinearClassifier::new(qint(0), vec![qint(1)]),
        }
    }

    #[test]
    fn apply_builds_feature_matrix() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = train();
        let m = model();
        let rows = m.statistic.apply_in(&ctx, &t.db, &t.entities()).unwrap();
        assert_eq!(rows, vec![vec![1], vec![1], vec![-1]]);
    }

    #[test]
    fn model_separates_training_db() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = train();
        let m = model();
        assert!(m.separates_in(&ctx, &t).unwrap());
        assert_eq!(m.errors_in(&ctx, &t).unwrap(), 0);
    }

    #[test]
    fn errors_counted() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let mut t = train();
        // Flip a's label: the out-edge model now errs once.
        let a = t.db.val_by_name("a").unwrap();
        t.labeling.set(a, Label::Negative);
        assert_eq!(model().errors_in(&ctx, &t).unwrap(), 1);
    }

    #[test]
    fn classify_evaluation_database() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let m = model();
        let eval = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .entity("u")
            .entity("v")
            .build();
        let lab = m.classify_in(&ctx, &eval).unwrap();
        let u = eval.val_by_name("u").unwrap();
        let v = eval.val_by_name("v").unwrap();
        assert_eq!(lab.get(u), Label::Positive);
        assert_eq!(lab.get(v), Label::Negative);
    }

    #[test]
    fn dimension_and_atoms() {
        let m = model();
        assert_eq!(m.statistic.dimension(), 1);
        assert_eq!(m.statistic.total_atoms(), 2);
    }
}
