//! Text serialization of separator models, so trained classifiers can be
//! stored, inspected, and reloaded (used by the `cqsep-cli` tool).
//!
//! Format (one item per line, `#` comments):
//!
//! ```text
//! feature q(x) :- eta(x), E(x,y)
//! feature q(x) :- eta(x), E(y,x)
//! threshold 1/2
//! weights 1 -1/3
//! ```
//!
//! Queries use the Datalog-ish syntax of `cq::parse`; weights and the
//! threshold are exact rationals.

use crate::statistic::{SeparatorModel, Statistic};
use cq::parse::parse_cq;
use linsep::LinearClassifier;
use numeric::Rat;
use relational::Schema;
use std::fmt;

/// Error from [`parse_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelParseError(pub String);

impl fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model: {}", self.0)
    }
}

impl std::error::Error for ModelParseError {}

/// Render a model in the text format.
pub fn model_to_text(model: &SeparatorModel) -> String {
    let mut out = String::new();
    for q in &model.statistic.features {
        out.push_str(&format!("feature {q}\n"));
    }
    out.push_str(&format!("threshold {}\n", model.classifier.threshold));
    out.push_str("weights");
    for w in &model.classifier.weights {
        out.push_str(&format!(" {w}"));
    }
    out.push('\n');
    out
}

/// Parse a model against a schema (the schema is not stored in the model;
/// ship it alongside, e.g. as the database spec).
pub fn parse_model(schema: &Schema, text: &str) -> Result<SeparatorModel, ModelParseError> {
    let mut features = Vec::new();
    let mut threshold: Option<Rat> = None;
    let mut weights: Option<Vec<Rat>> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| ModelParseError(format!("line {}: {msg}", lineno + 1));
        // A bare directive (e.g. `weights` with zero weights) has no
        // trailing whitespace; treat the rest as empty then.
        let (kind, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match kind {
            "feature" => {
                let q = parse_cq(schema, rest.trim()).map_err(|e| err(format!("{e}")))?;
                if !q.is_unary() {
                    return Err(err("feature queries must be unary".into()));
                }
                features.push(q);
            }
            "threshold" => {
                threshold = Some(
                    rest.trim()
                        .parse()
                        .map_err(|_| err("bad threshold rational".into()))?,
                );
            }
            "weights" => {
                let ws: Result<Vec<Rat>, _> = rest.split_whitespace().map(|w| w.parse()).collect();
                weights = Some(ws.map_err(|_| err("bad weight rational".into()))?);
            }
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
    }
    let threshold = threshold.ok_or_else(|| ModelParseError("missing threshold".into()))?;
    let weights = weights.ok_or_else(|| ModelParseError("missing weights".into()))?;
    if weights.len() != features.len() {
        return Err(ModelParseError(format!(
            "{} weights for {} features",
            weights.len(),
            features.len()
        )));
    }
    Ok(SeparatorModel {
        statistic: Statistic::new(features),
        classifier: LinearClassifier::new(threshold, weights),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::EnumConfig;
    use engine::Engine;
    use relational::DbBuilder;

    fn schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    #[test]
    fn roundtrip_preserves_behavior() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let t = DbBuilder::new(schema())
            .fact("E", &["1", "2"])
            .fact("E", &["2", "3"])
            .positive("1")
            .positive("2")
            .negative("3")
            .training();
        let model = crate::sep_cqm::cqm_generate_in(&ctx, &t, &EnumConfig::cqm(1))
            .unwrap()
            .unwrap();
        let text = model_to_text(&model);
        let back = parse_model(&schema(), &text).unwrap();
        assert_eq!(back.statistic.dimension(), model.statistic.dimension());
        // Behavioral equality on the training database.
        let a = model.classify_in(&ctx, &t.db).unwrap();
        let b = back.classify_in(&ctx, &t.db).unwrap();
        for e in t.entities() {
            assert_eq!(a.get(e), b.get(e));
        }
        assert!(back.separates_in(&ctx, &t).unwrap());
    }

    #[test]
    fn rational_weights_roundtrip() {
        let text = "\
# a hand-written model
feature q(x) :- eta(x), E(x,y)
threshold -1/2
weights 2/3
";
        let model = parse_model(&schema(), text).unwrap();
        assert_eq!(model.classifier.threshold, numeric::qrat(-1, 2));
        assert_eq!(model.classifier.weights[0], numeric::qrat(2, 3));
        let again = parse_model(&schema(), &model_to_text(&model)).unwrap();
        assert_eq!(again.classifier.threshold, model.classifier.threshold);
    }

    #[test]
    fn errors_are_descriptive() {
        let s = schema();
        assert!(
            parse_model(&s, "feature q(x) :- nosuch(x)\nthreshold 0\nweights 1")
                .unwrap_err()
                .0
                .contains("line 1")
        );
        assert!(parse_model(&s, "threshold 0\nweights 1 2").is_err()); // arity mismatch
        assert!(parse_model(&s, "weights 1").is_err()); // missing threshold
        assert!(parse_model(&s, "bogus x").is_err());
        assert!(parse_model(&s, "threshold x\nweights").is_err());
    }

    #[test]
    fn zero_feature_model() {
        let engine = Engine::new();
        let ctx = engine.ctx();
        let text = "threshold -1\nweights\n";
        let model = parse_model(&schema(), text).unwrap();
        assert_eq!(model.statistic.dimension(), 0);
        // Classifies everything positive (0 >= -1).
        let d = DbBuilder::new(schema()).entity("a").build();
        let lab = model.classify_in(&ctx, &d).unwrap();
        assert_eq!(
            lab.get(d.val_by_name("a").unwrap()),
            relational::Label::Positive
        );
    }
}
