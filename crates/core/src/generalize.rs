//! Train/test generalization evaluation across the regularized
//! hypothesis languages.
//!
//! The paper's languages — `CQ[m]` (§4), `GHW(k)` (§5), `Sep[ℓ]` (§6) —
//! and the min-error ε-approximate path (§7) trade *fitting power* for
//! *generalization*: related work shows that extremal fitting CQs
//! provably do not generalize (arXiv:2312.03407) and CQ learning is not
//! efficiently PAC (arXiv:2208.10255). This module measures the
//! trade-off directly: fit a model on a training database with one
//! [`FitMethod`], score it on a held-out labeled test database, and
//! report accuracy/precision/recall plus the training-side error count.
//!
//! Every fit method is **total**: when exact fitting fails (inseparable
//! training data under the chosen regularization strength) the method
//! degrades explicitly rather than erroring —
//!
//! * [`FitMethod::Cqm`] and [`FitMethod::Sep`] fall back to the
//!   majority-class constant predictor (maximal regularization), with
//!   [`EvalReport::fit_exact`] = false;
//! * [`FitMethod::Ghw`] always classifies via Algorithm 2's
//!   disagreement-minimal relabeling + Algorithm 1 (Corollary 7.5);
//! * [`FitMethod::MinError`] always produces the exact minimum-error
//!   `CQ[m]` model (Propositions 7.2/7.3).

use crate::apx::{cqm_apx_generate_in, ghw_apx_classify_in, ghw_min_errors_in};
use crate::sep_cqm::{column_reduced_statistic_in, cqm_generate_in};
use crate::sep_dim::{dedup_column_indices, search_columns_in};
use crate::statistic::{SeparatorModel, Statistic};
use cq::EnumConfig;
use engine::{Ctx, Interrupted};
use relational::{Label, Labeling, TrainingDb};

/// How to fit a classifier on the training database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitMethod {
    /// Exact `CQ[m]` separation (majority fallback when inseparable).
    Cqm(usize),
    /// `GHW(k)` via the ε-optimal relabeling (Algorithm 2) and
    /// classification without generation (Algorithm 1) — always total.
    Ghw(usize),
    /// `CQ[m]`-`Sep[ℓ]`: at most `ell` features chosen from the `CQ[m]`
    /// bank (majority fallback when no ≤ℓ subset separates). The subset
    /// sweep is the warm-started [`search_columns_in`] path.
    Sep { m: usize, ell: usize },
    /// Exact minimum-error `CQ[m]` (the NP-complete ε-approximate path
    /// through `linsep::minerror`) — always total.
    MinError(usize),
}

/// The `CQ[m]` bank a bare `sep<ℓ>` spelling draws features from.
pub const SEP_DEFAULT_BANK: usize = 2;

impl FitMethod {
    /// Parse `cqm<m>` / `ghw<k>` / `sep<ℓ>` / `minerr<m>` (all
    /// parameters ≥ 1; `sep<ℓ>` uses the `CQ[2]` feature bank). Every
    /// malformed spelling produces the same one-line message.
    pub fn parse(s: &str) -> Result<FitMethod, String> {
        let bad =
            || format!("bad method {s:?} (expected cqm<m≥1>, ghw<k≥1>, sep<ℓ≥1>, minerr<m≥1>)");
        let num = |suffix: &str| suffix.parse::<usize>().ok().filter(|&v| v >= 1);
        if let Some(m) = s.strip_prefix("cqm") {
            return num(m).map(FitMethod::Cqm).ok_or_else(bad);
        }
        if let Some(k) = s.strip_prefix("ghw") {
            return num(k).map(FitMethod::Ghw).ok_or_else(bad);
        }
        if let Some(ell) = s.strip_prefix("sep") {
            return num(ell)
                .map(|ell| FitMethod::Sep {
                    m: SEP_DEFAULT_BANK,
                    ell,
                })
                .ok_or_else(bad);
        }
        if let Some(m) = s.strip_prefix("minerr") {
            return num(m).map(FitMethod::MinError).ok_or_else(bad);
        }
        Err(bad())
    }

    /// The regularization strength knob of the method (its bound).
    pub fn strength(&self) -> usize {
        match *self {
            FitMethod::Cqm(m) | FitMethod::MinError(m) => m,
            FitMethod::Ghw(k) => k,
            FitMethod::Sep { ell, .. } => ell,
        }
    }
}

impl std::fmt::Display for FitMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FitMethod::Cqm(m) => write!(f, "CQ[{m}]"),
            FitMethod::Ghw(k) => write!(f, "GHW({k})"),
            FitMethod::Sep { m, ell } => write!(f, "CQ[{m}]-Sep[{ell}]"),
            FitMethod::MinError(m) => write!(f, "MinErr[{m}]"),
        }
    }
}

/// Held-out evaluation of one fitted model.
#[derive(Clone, Copy, Debug)]
pub struct EvalReport {
    /// The method that produced the model.
    pub method: FitMethod,
    /// Did the fit reproduce the (possibly noisy) training labels
    /// exactly? False for the majority fallback and for approximate
    /// fits that paid a nonzero error.
    pub fit_exact: bool,
    /// Training entities the fitted model misclassifies.
    pub train_errors: usize,
    /// Features in the fitted statistic (None when the method does not
    /// materialize one: `GHW(k)` and the majority fallback).
    pub dimension: Option<usize>,
    /// Held-out confusion counts (positive = the paper's `+1`).
    pub tp: usize,
    pub fp: usize,
    pub tn: usize,
    pub fn_: usize,
}

impl EvalReport {
    /// Held-out test size.
    pub fn test_size(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Held-out accuracy in `[0, 1]` (1.0 on an empty test set).
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.test_size())
    }

    /// Precision (1.0 when nothing was predicted positive).
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall (1.0 when the test set has no positives).
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Fit `method` on `train` and score it on the labeled held-out `test`.
///
/// Interruptible: the fit, the training-error count, and the held-out
/// classification sweep all observe the handle.
pub fn evaluate_in(
    ctx: &Ctx,
    train: &TrainingDb,
    test: &TrainingDb,
    method: FitMethod,
) -> Result<EvalReport, Interrupted> {
    ctx.check()?;
    let fitted = match method {
        FitMethod::Cqm(m) => cqm_generate_in(ctx, train, &EnumConfig::cqm(m))?
            .map(|model| (model, 0usize))
            .ok_or(Fallback),
        FitMethod::MinError(m) => {
            let (model, errors) = cqm_apx_generate_in(ctx, train, &EnumConfig::cqm(m))?;
            Ok((model, errors))
        }
        FitMethod::Sep { m, ell } => sep_generate_in(ctx, train, m, ell)?.ok_or(Fallback),
        FitMethod::Ghw(k) => {
            // No materialized statistic: classify directly (Algorithm 2
            // relabeling + Algorithm 1), which is minimum-error on the
            // training side by Corollary 7.5.
            let train_errors = ghw_min_errors_in(ctx, train, k)?;
            let predicted = ghw_apx_classify_in(ctx, train, &test.db, k)?;
            return Ok(report(method, train_errors, None, test, &predicted));
        }
    };
    match fitted {
        Ok((model, train_errors)) => {
            let predicted = model.classify_in(ctx, &test.db)?;
            Ok(report(
                method,
                train_errors,
                Some(model.statistic.dimension()),
                test,
                &predicted,
            ))
        }
        Err(Fallback) => {
            // Maximal regularization: the majority-class constant
            // predictor. This is what "the language cannot fit the
            // data" costs — the honest baseline the curves bottom out
            // at, not an error.
            let (majority, minority_count) = majority_of(train);
            let predicted: Labeling = test
                .db
                .entities()
                .into_iter()
                .map(|e| (e, majority))
                .collect();
            Ok(report(method, minority_count, None, test, &predicted))
        }
    }
}

/// Marker for "the exact fit does not exist; use the fallback".
struct Fallback;

/// Constructive `CQ[m]`-`Sep[ℓ]` generation: enumerate the deduplicated
/// `CQ[m]` column bank, sweep ≤ℓ subsets (size-ascending, warm-started —
/// the `BasisStore` path of `sep_dim`), and realize the first separating
/// subset as an explicit model. `None` when no ≤ℓ subset separates.
pub fn sep_generate_in(
    ctx: &Ctx,
    train: &TrainingDb,
    m: usize,
    ell: usize,
) -> Result<Option<(SeparatorModel, usize)>, Interrupted> {
    let (statistic, rows, labels) = column_reduced_statistic_in(ctx, train, &EnumConfig::cqm(m))?;
    let nfeat = statistic.dimension();
    let all: Vec<Vec<i32>> = (0..nfeat)
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect();
    // Also drop complement columns (a negated weight realizes them);
    // `keep` maps swept column index -> feature index.
    let keep = dedup_column_indices(&all);
    let columns: Vec<Vec<i32>> = keep.iter().map(|&j| all[j].clone()).collect();
    let chosen = match search_columns_in(ctx, &columns, &labels, ell)? {
        Some(c) => c,
        None => return Ok(None),
    };
    let features: Vec<cq::Cq> = chosen
        .iter()
        .map(|&c| statistic.features[keep[c]].clone())
        .collect();
    let sub_rows: Vec<Vec<i32>> = rows
        .iter()
        .map(|r| chosen.iter().map(|&c| r[keep[c]]).collect())
        .collect();
    let classifier = ctx
        .separate(&sub_rows, &labels)?
        .expect("search_columns verified this subset separates");
    Ok(Some((
        SeparatorModel {
            statistic: Statistic::new(features),
            classifier,
        },
        0,
    )))
}

fn majority_of(train: &TrainingDb) -> (Label, usize) {
    let pos = train.positives().len();
    let neg = train.negatives().len();
    if pos >= neg {
        (Label::Positive, neg)
    } else {
        (Label::Negative, pos)
    }
}

fn report(
    method: FitMethod,
    train_errors: usize,
    dimension: Option<usize>,
    test: &TrainingDb,
    predicted: &Labeling,
) -> EvalReport {
    let mut r = EvalReport {
        method,
        fit_exact: train_errors == 0,
        train_errors,
        dimension,
        tp: 0,
        fp: 0,
        tn: 0,
        fn_: 0,
    };
    for e in test.entities() {
        match (predicted.get(e), test.labeling.get(e)) {
            (Label::Positive, Label::Positive) => r.tp += 1,
            (Label::Positive, Label::Negative) => r.fp += 1,
            (Label::Negative, Label::Negative) => r.tn += 1,
            (Label::Negative, Label::Positive) => r.fn_ += 1,
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Engine;
    use relational::{DbBuilder, Schema};

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    /// Out-edge ground truth: train on one 2-path, test on another. The
    /// test entities mirror the training `→₁`-classes (source, middle,
    /// sink), so even the implicit GHW chain classifier — whose labels
    /// are only pinned down on vectors realized in training — must ace
    /// the split.
    fn out_edge_pair() -> (TrainingDb, TrainingDb) {
        let train = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "c"])
            .positive("a")
            .positive("b")
            .negative("c")
            .training();
        let test = DbBuilder::new(schema())
            .fact("E", &["t", "u"])
            .fact("E", &["u", "v"])
            .positive("t")
            .positive("u")
            .negative("v")
            .training();
        (train, test)
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!(FitMethod::parse("cqm2"), Ok(FitMethod::Cqm(2)));
        assert_eq!(FitMethod::parse("ghw1"), Ok(FitMethod::Ghw(1)));
        assert_eq!(
            FitMethod::parse("sep3"),
            Ok(FitMethod::Sep { m: 2, ell: 3 })
        );
        assert_eq!(FitMethod::parse("minerr1"), Ok(FitMethod::MinError(1)));
        assert_eq!(FitMethod::Cqm(2).to_string(), "CQ[2]");
        assert_eq!(FitMethod::Sep { m: 2, ell: 1 }.to_string(), "CQ[2]-Sep[1]");
        for bad in ["cqm0", "ghw", "sep0", "minerr0", "nope", ""] {
            let err = FitMethod::parse(bad).unwrap_err();
            assert_eq!(
                err,
                format!("bad method {bad:?} (expected cqm<m≥1>, ghw<k≥1>, sep<ℓ≥1>, minerr<m≥1>)")
            );
        }
    }

    #[test]
    fn all_methods_ace_the_clean_out_edge_instance() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let (train, test) = out_edge_pair();
        for method in [
            FitMethod::Cqm(1),
            FitMethod::Ghw(1),
            FitMethod::Sep { m: 1, ell: 1 },
            FitMethod::MinError(1),
        ] {
            let r = evaluate_in(&ctx, &train, &test, method).unwrap();
            assert!(r.fit_exact, "{method}");
            assert_eq!(r.train_errors, 0, "{method}");
            assert_eq!(r.accuracy(), 1.0, "{method}: {r:?}");
            assert_eq!(r.precision(), 1.0, "{method}");
            assert_eq!(r.recall(), 1.0, "{method}");
        }
    }

    #[test]
    fn sep_model_is_dimension_bounded() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let (train, test) = out_edge_pair();
        let r = evaluate_in(&ctx, &train, &test, FitMethod::Sep { m: 2, ell: 1 }).unwrap();
        assert!(r.fit_exact);
        assert_eq!(r.dimension, Some(1));
        assert_eq!(r.accuracy(), 1.0);
    }

    #[test]
    fn inseparable_instance_falls_back_to_majority() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // Hom-equivalent twins with opposite labels: no CQ class fits.
        let train = DbBuilder::new(schema())
            .fact("E", &["a", "b"])
            .fact("E", &["b", "a"])
            .positive("a")
            .negative("b")
            .training();
        let test = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .fact("E", &["v", "u"])
            .positive("u")
            .negative("v")
            .training();
        for method in [FitMethod::Cqm(2), FitMethod::Sep { m: 2, ell: 2 }] {
            let r = evaluate_in(&ctx, &train, &test, method).unwrap();
            assert!(!r.fit_exact, "{method}");
            assert_eq!(
                r.train_errors, 1,
                "{method}: the majority pays the minority"
            );
            assert_eq!(r.dimension, None, "{method}");
            // Majority of a tie is positive: both test entities predicted +.
            assert_eq!((r.tp, r.fp, r.tn, r.fn_), (1, 1, 0, 0), "{method}");
            assert_eq!(r.accuracy(), 0.5, "{method}");
        }
        // The approximate paths stay total and pay exactly one error.
        for method in [FitMethod::Ghw(1), FitMethod::MinError(2)] {
            let r = evaluate_in(&ctx, &train, &test, method).unwrap();
            assert!(!r.fit_exact, "{method}");
            assert_eq!(r.train_errors, 1, "{method}");
            assert_eq!(r.accuracy(), 0.5, "{method}: twins share one label");
        }
    }

    #[test]
    fn min_error_absorbs_label_noise_that_exact_fitting_cannot() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        // CQ[1]-separable path with one flipped label.
        let train = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .fact("E", &["3", "4"])
            .positive("1")
            .negative("2") // noise: out-edge ground truth says +
            .positive("3")
            .negative("4")
            .training();
        let test = DbBuilder::new(schema())
            .fact("E", &["u", "v"])
            .positive("u")
            .negative("v")
            .training();
        let r = evaluate_in(&ctx, &train, &test, FitMethod::MinError(1)).unwrap();
        assert!(!r.fit_exact);
        assert_eq!(r.train_errors, 1);
        assert_eq!(r.accuracy(), 1.0, "the min-error fit recovers the target");
        // Exact CQ[1] cannot fit the noisy labels: majority fallback.
        let r = evaluate_in(&ctx, &train, &test, FitMethod::Cqm(1)).unwrap();
        assert!(!r.fit_exact);
        assert_eq!(r.dimension, None);
    }

    #[test]
    fn evaluate_in_observes_the_deadline() {
        let (train, test) = out_edge_pair();
        let engine = Engine::new();
        let ctx = engine.ctx_with_deadline(std::time::Duration::ZERO);
        for method in [
            FitMethod::Cqm(1),
            FitMethod::Ghw(1),
            FitMethod::Sep { m: 1, ell: 1 },
            FitMethod::MinError(1),
        ] {
            let err =
                evaluate_in(&ctx, &train, &test, method).expect_err("zero budget must interrupt");
            assert!(err.deadline_exceeded(), "{method}");
        }
    }

    #[test]
    fn report_ratios_handle_empty_denominators() {
        let r = EvalReport {
            method: FitMethod::Cqm(1),
            fit_exact: true,
            train_errors: 0,
            dimension: Some(1),
            tp: 0,
            fp: 0,
            tn: 3,
            fn_: 0,
        };
        assert_eq!(r.accuracy(), 1.0);
        assert_eq!(r.precision(), 1.0, "no positive predictions");
        assert_eq!(r.recall(), 1.0, "no positive truths");
    }
}
