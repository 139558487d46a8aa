//! Compiled classifier artifact: a trained statistic + linear
//! classifier compiled into a persistable [`Model`] for batch serving.
//!
//! The naive serving path re-runs one full homomorphism search per
//! (feature, entity) pair, so cost scales as features × entities with
//! zero sharing. Compilation restructures the feature bank:
//!
//! 1. **Core-dedup** ([`cq::dedup_by_core`]): equivalent features have
//!    identical indicator columns, so each equivalence class keeps one
//!    core and its members' classifier weights are *folded* onto it —
//!    predictions are provably unchanged.
//! 2. **Shared-prefix trie**: the deduplicated cores are laid out as
//!    canonical atom paths in a prefix-sharing forest. Evaluating one
//!    entity walks the forest once with a frontier of partial
//!    homomorphisms: shared prefixes are mapped once and extended per
//!    branch, and a prefix that fails to map prunes its whole subtree
//!    (see [`cq::trie`]'s module docs for the invariants).
//!
//! A [`Model`] persists via [`Model::save`]/[`Model::load`] in the
//! workspace's shared `serde::bytes` wire style — magic-tagged,
//! temp-file+rename, all-or-nothing decode, so a corrupt or truncated
//! file falls back to a clean cold compile.

mod codec;

use cq::trie::{self, Trie};
use cq::Cq;
use cqsep::Statistic;
use engine::{Ctx, Interrupted};
use linsep::LinearClassifier;
use numeric::Rat;
use relational::{Database, Label, Labeling, Schema, Val};
use std::io;
use std::path::Path;

/// Counters from compiled batch prediction: the trie kernel's
/// counters under the name the serving layer reports them by.
pub use cq::trie::TrieStats as ClassifierStats;
pub use cq::trie::DEFAULT_FRONTIER_CAP;

/// A compiled, persistable classifier: deduplicated feature cores, the
/// weight-folded linear classifier over them, and the shared-prefix
/// evaluation trie.
#[derive(Debug)]
pub struct Model {
    pub(crate) schema: Schema,
    /// Deduplicated feature cores in path-canonical form (free
    /// variable `x0`, variables renamed along the canonical path).
    pub(crate) features: Vec<Cq>,
    /// Original feature index → index into `features`.
    pub(crate) class_of: Vec<usize>,
    /// The classifier with duplicate features' weights folded onto
    /// their class representative (same scores as the original).
    pub(crate) folded: LinearClassifier,
    pub(crate) frontier_cap: usize,
    trie: Trie,
    /// Canonical database + free value per compiled feature, for the
    /// exact-check fallback. Derived, not serialized.
    canon: Vec<(Database, Val)>,
}

impl PartialEq for Model {
    fn eq(&self, other: &Model) -> bool {
        // The trie and canonical databases are derived deterministically
        // from the serialized fields, so comparing those suffices.
        self.schema == other.schema
            && self.features == other.features
            && self.class_of == other.class_of
            && self.folded == other.folded
            && self.frontier_cap == other.frontier_cap
    }
}

impl Model {
    /// Compile a trained statistic and its classifier. Deduplicates the
    /// feature bank by core, folds weights per equivalence class, and
    /// builds the shared-prefix trie.
    ///
    /// # Panics
    /// Panics when the classifier arity does not match the statistic
    /// dimension.
    pub fn compile(statistic: &Statistic, classifier: &LinearClassifier) -> Model {
        assert_eq!(
            statistic.dimension(),
            classifier.arity(),
            "classifier arity must match statistic dimension"
        );
        let schema = match statistic.features.first() {
            Some(q) => q.schema().clone(),
            None => Schema::entity_schema(),
        };
        let dedup = cq::dedup_by_core(&statistic.features);
        // Store cores in path-canonical variable numbering so the trie
        // layout is a pure function of the stored features (save/load
        // rebuilds the identical trie).
        let features: Vec<Cq> = dedup
            .cores
            .iter()
            .map(|core| {
                Cq::new(
                    core.schema().clone(),
                    vec![cq::Var(0)],
                    trie::canonical_path(core),
                )
            })
            .collect();
        let mut weights = vec![Rat::zero(); features.len()];
        for (i, w) in classifier.weights.iter().enumerate() {
            weights[dedup.class_of[i]] += w;
        }
        let folded = LinearClassifier::new(classifier.threshold.clone(), weights);
        Model::from_parts(
            schema,
            features,
            dedup.class_of,
            folded,
            DEFAULT_FRONTIER_CAP,
        )
        .expect("deduplicated features always compile")
    }

    /// Compile a [`cqsep::SeparatorModel`].
    pub fn compile_separator(model: &cqsep::SeparatorModel) -> Model {
        Model::compile(&model.statistic, &model.classifier)
    }

    /// Assemble a model from its serialized fields, rebuilding the
    /// derived trie and canonical databases. `None` when the parts are
    /// inconsistent (wrong arity, out-of-range class, duplicate feature
    /// paths) — the all-or-nothing contract of [`Model::load`].
    pub(crate) fn from_parts(
        schema: Schema,
        features: Vec<Cq>,
        class_of: Vec<usize>,
        folded: LinearClassifier,
        frontier_cap: usize,
    ) -> Option<Model> {
        if folded.arity() != features.len() {
            return None;
        }
        if class_of.iter().any(|&c| c >= features.len()) {
            return None;
        }
        if features.iter().any(|q| !q.is_unary()) {
            return None;
        }
        let trie = Trie::build(&features);
        if !trie.paths_distinct() {
            return None;
        }
        let canon = features
            .iter()
            .map(|q| {
                let (db, frees) = q.canonical_db();
                (db, frees[0])
            })
            .collect();
        Some(Model {
            schema,
            features,
            class_of,
            folded,
            frontier_cap,
            trie,
            canon,
        })
    }

    /// Replace the frontier cap — a memory knob, not a semantics knob:
    /// a feature whose partial-homomorphism frontier outgrows the cap
    /// falls back to the exact per-feature search, so predictions are
    /// identical at every cap.
    pub fn with_frontier_cap(mut self, cap: usize) -> Model {
        assert!(cap >= 1, "frontier cap must be at least 1");
        self.frontier_cap = cap;
        self
    }

    /// The schema the model classifies over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Dimension of the statistic the model was compiled from.
    pub fn original_dimension(&self) -> usize {
        self.class_of.len()
    }

    /// Number of features after core-deduplication.
    pub fn compiled_dimension(&self) -> usize {
        self.features.len()
    }

    /// Nodes in the shared-prefix trie (≤ total atoms of the deduped
    /// bank; the gap is the sharing).
    pub fn trie_nodes(&self) -> usize {
        self.trie.node_count()
    }

    /// ±1 predictions for `entities` of `d`, plus evaluation counters.
    /// Entities stream through in blocks on the engine's worker pool
    /// with an interrupt check between blocks.
    pub fn predict_in(
        &self,
        ctx: &Ctx,
        d: &Database,
        entities: &[Val],
    ) -> Result<(Vec<i32>, ClassifierStats), Interrupted> {
        ctx.check()?;
        const BLOCK: usize = 64;
        let mut preds = Vec::with_capacity(entities.len());
        let mut stats = ClassifierStats::default();
        for chunk in entities.chunks(BLOCK) {
            let results = ctx.engine().par_map(chunk, |&e| {
                let (row, s) = self.eval_one(ctx, d, e);
                (self.folded.classify(&row), s)
            });
            for (p, s) in results {
                preds.push(p);
                stats.merge(&s);
            }
            ctx.check()?;
        }
        Ok((preds, stats))
    }

    /// Classify every entity of `d`, as [`cqsep::SeparatorModel::classify_in`]
    /// does, through the compiled trie.
    pub fn classify_in(
        &self,
        ctx: &Ctx,
        d: &Database,
    ) -> Result<(Labeling, ClassifierStats), Interrupted> {
        let entities = d.entities();
        let (preds, stats) = self.predict_in(ctx, d, &entities)?;
        let labeling = entities
            .into_iter()
            .zip(preds)
            .map(|(e, p)| (e, Label::from_sign(p)))
            .collect();
        Ok((labeling, stats))
    }

    /// The ±1 feature matrix in the *original* statistic dimension
    /// (duplicate features repeat their class column) — a drop-in,
    /// agreement-testable replacement for `Statistic::apply_in`.
    pub fn apply_in(
        &self,
        ctx: &Ctx,
        d: &Database,
        entities: &[Val],
    ) -> Result<Vec<Vec<i32>>, Interrupted> {
        ctx.check()?;
        const BLOCK: usize = 64;
        let mut rows = Vec::with_capacity(entities.len());
        for chunk in entities.chunks(BLOCK) {
            rows.extend(ctx.engine().par_map(chunk, |&e| {
                let (row, _) = self.eval_one(ctx, d, e);
                self.class_of.iter().map(|&c| row[c]).collect::<Vec<i32>>()
            }));
            ctx.check()?;
        }
        Ok(rows)
    }

    /// Evaluate one entity: the deduped ±1 row and its counters. A hom
    /// fallback stopped by the context's handle reports a filler verdict;
    /// callers re-check the handle after each block and discard it.
    fn eval_one(&self, ctx: &Ctx, d: &Database, e: Val) -> (Vec<i32>, ClassifierStats) {
        let mut stats = ClassifierStats::default();
        let fallback = |j: u32| {
            let (db, x) = &self.canon[j as usize];
            ctx.hom_exists(db, d, &[(*x, e)]).unwrap_or(false)
        };
        let row = self
            .trie
            .eval_entity(d, e, self.frontier_cap, &fallback, &mut stats);
        (row, stats)
    }

    /// Persist the model to `path` (single file, sibling temp file +
    /// atomic rename, magic `"CQSEPMD1"`).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        serde::bytes::write_atomic(path, &codec::encode(self))
    }

    /// Load a model from `path`. All-or-nothing: a missing, truncated,
    /// or corrupt file yields `None` — callers fall back to a cold
    /// [`Model::compile`].
    pub fn load(path: &Path) -> Option<Model> {
        std::fs::read(path).ok().and_then(codec::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse::parse_cq;
    use engine::Engine;
    use numeric::qint;
    use relational::DbBuilder;

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    fn q(text: &str) -> Cq {
        parse_cq(&schema(), text).unwrap()
    }

    fn db() -> Database {
        // a → b → c, c → c (self-loop), d isolated.
        DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .fact("E", &["c", "c"])
            .entity("a")
            .entity("b")
            .entity("c")
            .entity("d")
            .build()
    }

    fn bank() -> Statistic {
        Statistic::new(vec![
            q("q(x) :- eta(x)"),
            q("q(x) :- eta(x), E(x,y)"),
            q("q(x) :- eta(x), E(x,z)"), // duplicate of the previous
            q("q(x) :- eta(x), E(x,y), E(y,z)"),
            q("q(x) :- eta(x), E(x,x)"),
            q("q(x) :- eta(x), E(y,x)"),
        ])
    }

    #[test]
    fn compile_dedups_and_folds_weights() {
        let stat = bank();
        let weights = vec![qint(1), qint(2), qint(5), qint(3), qint(4), qint(6)];
        let cls = LinearClassifier::new(qint(1), weights);
        let model = Model::compile(&stat, &cls);
        assert_eq!(model.original_dimension(), 6);
        assert_eq!(model.compiled_dimension(), 5);
        // The two out-edge duplicates folded: 2 + 5 = 7.
        assert_eq!(model.folded.weights[1], qint(7));
        // Trie shares the eta(x0) prefix: fewer nodes than total atoms.
        let total_atoms: usize = model.features.iter().map(|f| f.atoms().len()).sum();
        assert!(model.trie_nodes() < total_atoms);
    }

    #[test]
    fn compiled_rows_agree_with_naive_indicators() {
        let stat = bank();
        let cls = LinearClassifier::new(qint(0), vec![qint(1); 6]);
        let model = Model::compile(&stat, &cls);
        let d = db();
        let entities = d.entities();
        let engine = Engine::new();
        let naive = stat.apply_in(&engine.ctx(), &d, &entities).unwrap();
        let compiled = model.apply_in(&engine.ctx(), &d, &entities).unwrap();
        assert_eq!(naive, compiled);
    }

    #[test]
    fn classification_agrees_with_separator_model() {
        let sep = cqsep::SeparatorModel {
            statistic: bank(),
            classifier: LinearClassifier::new(
                qint(1),
                vec![qint(1), qint(-2), qint(3), qint(1), qint(-1), qint(2)],
            ),
        };
        let model = Model::compile_separator(&sep);
        let d = db();
        let engine = Engine::new();
        let naive = sep.classify_in(&engine.ctx(), &d).unwrap();
        let (compiled, stats) = model.classify_in(&engine.ctx(), &d).unwrap();
        for e in d.entities() {
            assert_eq!(naive.get(e), compiled.get(e));
        }
        assert_eq!(stats.entities, 4);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn prefix_prune_fires_for_isolated_entity() {
        // Entity d has no incident edges: every non-trivial feature is
        // pruned right below the shared eta(x0) root.
        let stat = bank();
        let cls = LinearClassifier::new(qint(0), vec![qint(1); 6]);
        let model = Model::compile(&stat, &cls);
        let d = db();
        let engine = Engine::new();
        let iso = d.val_by_name("d").unwrap();
        let (_, stats) = model.predict_in(&engine.ctx(), &d, &[iso]).unwrap();
        assert!(stats.prefix_prunes > 0, "{}", stats.report());
    }

    #[test]
    fn tiny_frontier_cap_keeps_predictions_exact() {
        let stat = bank();
        let cls = LinearClassifier::new(qint(0), vec![qint(1); 6]);
        let mut model = Model::compile(&stat, &cls);
        model.frontier_cap = 1;
        let d = db();
        let entities = d.entities();
        let engine = Engine::new();
        let naive = stat.apply_in(&engine.ctx(), &d, &entities).unwrap();
        let compiled = model.apply_in(&engine.ctx(), &d, &entities).unwrap();
        assert_eq!(naive, compiled);
    }

    #[test]
    fn repeated_feature_paths_do_not_assemble() {
        let features = vec![q("q(x) :- eta(x), E(x,y)"), q("q(x) :- eta(x), E(x,z)")];
        let cls = LinearClassifier::new(qint(0), vec![qint(1); 2]);
        assert!(Model::from_parts(schema(), features, vec![0, 1], cls, 1).is_none());
    }

    #[test]
    fn empty_statistic_compiles() {
        let stat = Statistic::new(vec![]);
        let cls = LinearClassifier::new(qint(1), vec![]);
        let model = Model::compile(&stat, &cls);
        let d = db();
        let engine = Engine::new();
        let (labeling, _) = model.classify_in(&engine.ctx(), &d).unwrap();
        // Score 0 < threshold 1: everything negative.
        for e in d.entities() {
            assert_eq!(labeling.get(e), Label::Negative);
        }
    }

    #[test]
    fn deadline_interrupts_prediction() {
        let stat = bank();
        let cls = LinearClassifier::new(qint(0), vec![qint(1); 6]);
        let model = Model::compile(&stat, &cls);
        let d = db();
        let engine = Engine::new();
        let ctx = engine.ctx_with_deadline(std::time::Duration::ZERO);
        assert!(model.predict_in(&ctx, &d, &d.entities()).is_err());
    }
}
