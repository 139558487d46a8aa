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
use std::fmt;

/// Declare `name/arity` in an entity schema. A declaration the schema
/// cannot hold — arity 0, the reserved entity symbol `eta`, or a name
/// declared twice — is an error, never a panic: specs arrive from
/// untrusted clients.
fn declare(schema: &mut Schema, name: &str, arity: usize) -> Result<(), String> {
    if arity == 0 {
        return Err(format!("relation {name:?} needs a positive arity"));
    }
    if name == ENTITY_REL_NAME {
        return Err(format!(
            "relation name {name:?} is reserved for the entity symbol"
        ));
    }
    if schema.rel_by_name(name).is_some() {
        return Err(format!("relation {name:?} declared twice"));
    }
    schema.add_relation(name, arity);
    Ok(())
}

/// Prefix an error message with its line number, when it has one.
fn at(line: Option<usize>) -> impl Fn(String) -> SpecError {
    move |msg| match line {
        Some(n) => SpecError(format!("line {n}: {msg}")),
        None => SpecError(msg),
    }
}

/// One line of the text format, borrowed from the input.
enum Item<'a> {
    Rel(&'a str, usize),
    /// A relation name and the text between the parentheses.
    Fact(&'a str, &'a str),
    Entity(&'a str, Option<bool>),
}

/// The arguments of a fact: comma-separated, trimmed, blanks skipped.
fn fact_args(inner: &str) -> impl Iterator<Item = &str> + Clone {
    inner.split(',').map(str::trim).filter(|a| !a.is_empty())
}

/// The one tokenizer of the text format: each item with its 1-based
/// line number, skipping blank and `#` lines.
fn items(text: &str) -> impl Iterator<Item = Result<(usize, Item<'_>), SpecError>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        Some(item(line).map(|it| (i + 1, it)).map_err(at(Some(i + 1))))
    })
}

fn item(line: &str) -> Result<Item<'_>, String> {
    let (kind, rest) = line
        .split_once(char::is_whitespace)
        .ok_or("expected `rel`, `fact`, or `entity`")?;
    let rest = rest.trim();
    match kind {
        "rel" => {
            let (name, arity) = rest.split_once('/').ok_or("expected name/arity")?;
            let arity = arity.parse().map_err(|_| "bad arity")?;
            Ok(Item::Rel(name, arity))
        }
        "fact" => {
            let open = rest.find('(').ok_or("expected `(`")?;
            let inner = rest[open + 1..].strip_suffix(')').ok_or("expected `)`")?;
            if fact_args(inner).next().is_none() {
                return Err("facts need at least one argument".into());
            }
            Ok(Item::Fact(rest[..open].trim(), inner))
        }
        "entity" => {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or("entity needs a name")?;
            let label = match parts.next() {
                None => None,
                Some("+") => Some(true),
                Some("-") => Some(false),
                Some(other) => return Err(format!("bad label {other:?} (use + or -)")),
            };
            Ok(Item::Entity(name, label))
        }
        other => Err(format!("unknown directive {other:?}")),
    }
}

/// The one build path from named facts to a [`Database`], shared by
/// [`DatabaseSpec::to_database`] and [`load_database`]. Facts are added in
/// order, then entities, so elements are interned in the same order — and
/// the fingerprint is the same — whichever path built the database.
fn build<'a, A>(
    schema: Schema,
    facts: impl ExactSizeIterator<Item = (Option<usize>, &'a str, A)>,
    entities: impl ExactSizeIterator<Item = &'a str>,
) -> Result<Database, SpecError>
where
    A: Iterator<Item = &'a str> + Clone,
{
    let mut db = Database::new(schema);
    db.reserve_facts(facts.len() + entities.len());
    for (line, rel, args) in facts {
        let rel_id = db
            .schema()
            .rel_by_name(rel)
            .ok_or_else(|| at(line)(format!("unknown relation {rel:?}")))?;
        let n = args.clone().count();
        if n != db.schema().arity(rel_id) {
            return Err(at(line)(format!(
                "arity mismatch for {rel:?}: got {n} args"
            )));
        }
        let vals = args.map(|a| db.value(a)).collect();
        db.add_fact(rel_id, vals);
    }
    for name in entities {
        let v = db.value(name);
        db.add_entity(v);
    }
    Ok(db)
}

/// An entity with its line number (if from text) and optional label.
type EntityLine<'a> = (Option<usize>, &'a str, Option<bool>);

/// Attach labels to a built database; every entity must carry one.
fn labeled<'a>(
    db: Database,
    entities: impl Iterator<Item = EntityLine<'a>>,
) -> Result<TrainingDb, SpecError> {
    let mut labeling = Labeling::new();
    for (line, name, label) in entities {
        let l = label.ok_or_else(|| at(line)(format!("entity {name:?} has no label")))?;
        let v = db.val_by_name(name).expect("entities are interned");
        labeling.set(v, if l { Label::Positive } else { Label::Negative });
    }
    Ok(TrainingDb::new(db, labeling))
}

/// Scan text-format input once and build its database: every `rel` is
/// declared first (a `rel` may follow the facts that use it), then facts
/// and entities go through [`build`] in file order. Also returns the
/// entity lines, for labeling.
fn load(text: &str) -> Result<(Database, Vec<EntityLine<'_>>), SpecError> {
    let mut schema = Schema::entity_schema();
    let (mut facts, mut entities) = (Vec::new(), Vec::new());
    for item in items(text) {
        match item? {
            (line, Item::Rel(name, arity)) => {
                declare(&mut schema, name, arity).map_err(at(Some(line)))?
            }
            (line, Item::Fact(rel, args)) => facts.push((Some(line), rel, args)),
            (line, Item::Entity(name, label)) => entities.push((Some(line), name, label)),
        }
    }
    let facts = facts
        .into_iter()
        .map(|(line, rel, args)| (line, rel, fact_args(args)));
    let db = build(schema, facts, entities.iter().map(|e| e.1))?;
    Ok((db, entities))
}

/// Load text-format database text straight into a [`Database`] (labels,
/// if any, are ignored): `DatabaseSpec::parse(text)?.to_database()`
/// without the owned intermediate.
pub fn load_database(text: &str) -> Result<Database, SpecError> {
    load(text).map(|(db, _)| db)
}

/// Load text-format training-database text; every entity must carry a
/// label. Equivalent to `DatabaseSpec::parse(text)?.to_training()`.
pub fn load_training(text: &str) -> Result<TrainingDb, SpecError> {
    let (db, entities) = load(text)?;
    labeled(db, entities.into_iter())
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
    /// Build the entity schema declared by this spec (see [`declare`]).
    pub fn schema(&self) -> Result<Schema, SpecError> {
        let mut s = Schema::entity_schema();
        for (name, arity) in &self.relations {
            declare(&mut s, name, *arity).map_err(SpecError)?;
        }
        Ok(s)
    }

    /// Instantiate as a plain database (labels, if any, are ignored).
    pub fn to_database(&self) -> Result<Database, SpecError> {
        build(
            self.schema()?,
            self.facts
                .iter()
                .map(|(rel, args)| (None, rel.as_str(), args.iter().map(String::as_str))),
            self.entities.iter().map(|(name, _)| name.as_str()),
        )
    }

    /// Instantiate as a training database; every entity must carry a label.
    pub fn to_training(&self) -> Result<TrainingDb, SpecError> {
        let db = self.to_database()?;
        let entities = self
            .entities
            .iter()
            .map(|(name, l)| (None, name.as_str(), *l));
        labeled(db, entities)
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
        let mut schema = Schema::entity_schema();
        for item in items(text) {
            match item? {
                (line, Item::Rel(name, arity)) => {
                    declare(&mut schema, name, arity).map_err(at(Some(line)))?;
                    spec.relations.push((name.to_string(), arity));
                }
                (_, Item::Fact(rel, args)) => spec.facts.push((
                    rel.to_string(),
                    fact_args(args).map(str::to_string).collect(),
                )),
                (_, Item::Entity(name, label)) => spec.entities.push((name.to_string(), label)),
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
        let e = DatabaseSpec::parse("rel f/1\nfact f a)").unwrap_err();
        assert_eq!(e.0, "line 2: expected `(`");
        // Text input also locates the errors found while building.
        let e = load_database("rel E/2\n\nfact E(a,b)\nfact F(a)").unwrap_err();
        assert_eq!(e.0, "line 4: unknown relation \"F\"");
        let e = load_training("fact E(a)\n# E follows\nrel E/2").unwrap_err();
        assert_eq!(e.0, "line 1: arity mismatch for \"E\": got 1 args");
        let e = load_training("rel E/1\nfact E(a)\nentity a").unwrap_err();
        assert_eq!(e.0, "line 3: entity \"a\" has no label");
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
