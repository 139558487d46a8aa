//! First-class edits: a [`Delta`] is a small, serializable batch of
//! mutations (fact inserts/deletes, entity adds, label flips) applied to
//! a [`Database`] or [`TrainingDb`] as one unit, producing a
//! [`DeltaReceipt`] that ties the parent and child content fingerprints
//! together.
//!
//! The receipt is what makes mutation *observable* to the caching layer:
//! instead of silently invalidating the fingerprint and cold-starting
//! every memo table, the [`Lineage`] registry records
//! `(parent_fp, delta_fp) -> child_fp` edges and can answer "is D₂ an
//! insert-only extension of D₁?" — the question the caches' subsumption
//! reads need (see `hom::cache` and DESIGN §7). Which verdicts survive
//! which edit direction:
//!
//! * a cached **positive** hom/game verdict into `D` stays valid for any
//!   insert-only descendant `D ∪ Δ` (CQ satisfaction is monotone in the
//!   target database);
//! * a cached **negative** verdict into `D` stays valid for any
//!   delete-only descendant `D ∖ Δ`;
//! * on the source side the rules flip: positives survive source
//!   deletions, negatives survive source insertions;
//! * label flips change *no* structural fingerprint at all — labels live
//!   in [`Labeling`], outside [`Database::fingerprint`] — so every
//!   hom/game entry stays exactly valid; the lineage memo still records
//!   the edit so repeated relabels are registry hits, not recomputes.
//!
//! Deltas name elements and relations by *string* so they can cross a
//! process boundary (NDJSON `append` requests, CLI delta files) and be
//! resolved against whichever resident database they reach.

use crate::database::{mix64, Database};
use crate::ids::{RelId, Val};
use crate::labeling::{Label, Labeling, TrainingDb};
use serde::bytes::{ByteReader, ByteWriter};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One primitive edit within a [`Delta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Intern an element (no facts). A no-op if the name exists.
    AddValue { name: String },
    /// Insert a fact, interning unseen argument names. A no-op if the
    /// fact is already present (still insert-only either way).
    AddFact { rel: String, args: Vec<String> },
    /// Delete a fact. Removing an absent fact is an error — deltas are
    /// exact edit scripts, not wish lists.
    RemoveFact { rel: String, args: Vec<String> },
    /// Insert `η(name)` (interning the name), labeling it when applied
    /// to a training database. The label is required there and rejected
    /// on an unlabeled database.
    AddEntity { name: String, label: Option<Label> },
    /// Flip the label of an existing entity (training databases only).
    FlipLabel { name: String },
}

/// The structural direction of a delta, which decides what the caches
/// may soundly reuse across the edit (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// No ops at all: child is the parent.
    Identity,
    /// Only inserts (values, facts, entities): parent ⊆ child.
    InsertOnly,
    /// Only fact deletions: parent ⊇ child.
    DeleteOnly,
    /// Only label flips: structurally the identity (labels are outside
    /// the fingerprint), so every cache entry stays exactly valid.
    LabelOnly,
    /// Inserts and deletes mixed: no sound containment either way.
    Mixed,
}

impl DeltaKind {
    /// Stable wire code (see `engine::persist`'s lineage table).
    pub fn code(self) -> u8 {
        match self {
            DeltaKind::Identity => 0,
            DeltaKind::InsertOnly => 1,
            DeltaKind::DeleteOnly => 2,
            DeltaKind::LabelOnly => 3,
            DeltaKind::Mixed => 4,
        }
    }

    /// Inverse of [`DeltaKind::code`]; `None` on an invalid byte.
    pub fn from_code(code: u8) -> Option<DeltaKind> {
        Some(match code {
            0 => DeltaKind::Identity,
            1 => DeltaKind::InsertOnly,
            2 => DeltaKind::DeleteOnly,
            3 => DeltaKind::LabelOnly,
            4 => DeltaKind::Mixed,
            _ => return None,
        })
    }
}

impl fmt::Display for DeltaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeltaKind::Identity => "identity",
            DeltaKind::InsertOnly => "insert-only",
            DeltaKind::DeleteOnly => "delete-only",
            DeltaKind::LabelOnly => "label-only",
            DeltaKind::Mixed => "mixed",
        };
        f.write_str(s)
    }
}

/// A delta application failed; the target database is left unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaError(pub String);

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta error: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

/// An ordered batch of [`DeltaOp`]s applied atomically: either every op
/// applies and a [`DeltaReceipt`] comes back, or the target database is
/// untouched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

const DELTA_MAGIC: [u8; 8] = *b"CQSEPDL1";
const RECEIPT_MAGIC: [u8; 8] = *b"CQSEPDR1";

impl Delta {
    pub fn new() -> Delta {
        Delta::default()
    }

    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Builder: intern an element.
    pub fn add_value(mut self, name: &str) -> Delta {
        self.ops.push(DeltaOp::AddValue {
            name: name.to_string(),
        });
        self
    }

    /// Builder: insert a fact by relation and argument names.
    pub fn add_fact(mut self, rel: &str, args: &[&str]) -> Delta {
        self.ops.push(DeltaOp::AddFact {
            rel: rel.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Builder: delete a fact by relation and argument names.
    pub fn remove_fact(mut self, rel: &str, args: &[&str]) -> Delta {
        self.ops.push(DeltaOp::RemoveFact {
            rel: rel.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Builder: insert an entity, labeled when targeting a training db.
    pub fn add_entity(mut self, name: &str, label: Option<Label>) -> Delta {
        self.ops.push(DeltaOp::AddEntity {
            name: name.to_string(),
            label,
        });
        self
    }

    /// Builder: flip an existing entity's label.
    pub fn flip_label(mut self, name: &str) -> Delta {
        self.ops.push(DeltaOp::FlipLabel {
            name: name.to_string(),
        });
        self
    }

    /// The structural direction of this delta (label flips do not count
    /// as structural edits — see [`DeltaKind::LabelOnly`]).
    pub fn kind(&self) -> DeltaKind {
        let (mut ins, mut del, mut label) = (false, false, false);
        for op in &self.ops {
            match op {
                DeltaOp::AddValue { .. } | DeltaOp::AddFact { .. } | DeltaOp::AddEntity { .. } => {
                    ins = true
                }
                DeltaOp::RemoveFact { .. } => del = true,
                DeltaOp::FlipLabel { .. } => label = true,
            }
        }
        match (ins, del, label) {
            (true, true, _) => DeltaKind::Mixed,
            (true, false, _) => DeltaKind::InsertOnly,
            (false, true, _) => DeltaKind::DeleteOnly,
            (false, false, true) => DeltaKind::LabelOnly,
            (false, false, false) => DeltaKind::Identity,
        }
    }

    /// A 128-bit content fingerprint of the edit script. Order-sensitive
    /// (deltas are scripts, not sets): together with the parent database
    /// fingerprint it keys the [`Lineage`] registry's
    /// `(parent_fp, delta_fp) -> child_fp` memo.
    pub fn fingerprint(&self) -> u128 {
        fn hash_str(s: &str) -> u64 {
            s.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }
        let mut lo = mix64(0x5D1A_9C7E_44B2_0D31 ^ self.ops.len() as u64);
        let mut hi = mix64(0x1F8E_6BD4_7A05_93C9);
        for op in &self.ops {
            let (tag, name, args): (u64, &str, &[String]) = match op {
                DeltaOp::AddValue { name } => (1, name, &[]),
                DeltaOp::AddFact { rel, args } => (2, rel, args),
                DeltaOp::RemoveFact { rel, args } => (3, rel, args),
                DeltaOp::AddEntity { name, label } => match label {
                    None => (4, name, &[]),
                    Some(Label::Positive) => (5, name, &[]),
                    Some(Label::Negative) => (6, name, &[]),
                },
                DeltaOp::FlipLabel { name } => (7, name, &[]),
            };
            let mut h = mix64(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hash_str(name));
            for a in args {
                h = mix64(h ^ hash_str(a));
            }
            lo = mix64(lo.rotate_left(9) ^ h);
            hi = mix64(hi ^ h.rotate_left(23));
        }
        ((hi as u128) << 64) | lo as u128
    }

    /// Parse the line-oriented delta text format:
    ///
    /// ```text
    /// add-value x
    /// add-fact E(a,b)
    /// del-fact E(a,b)
    /// add-entity x +      # label optional (required for training dbs)
    /// flip-label x
    /// ```
    ///
    /// Blank lines and `#` comments are ignored.
    pub fn parse(text: &str) -> Result<Delta, DeltaError> {
        let mut delta = Delta::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| DeltaError(format!("line {}: {msg}: {line:?}", no + 1));
            let (verb, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| err("missing operand"))?;
            let rest = rest.trim();
            let op = match verb {
                "add-value" => DeltaOp::AddValue {
                    name: rest.to_string(),
                },
                "add-fact" | "del-fact" => {
                    let (rel, args) = parse_atom(rest).ok_or_else(|| err("bad fact syntax"))?;
                    if verb == "add-fact" {
                        DeltaOp::AddFact { rel, args }
                    } else {
                        DeltaOp::RemoveFact { rel, args }
                    }
                }
                "add-entity" => {
                    let mut parts = rest.split_whitespace();
                    let name = parts.next().ok_or_else(|| err("missing entity name"))?;
                    let label = match parts.next() {
                        None => None,
                        Some("+") => Some(Label::Positive),
                        Some("-") => Some(Label::Negative),
                        Some(_) => return Err(err("bad label (expected + or -)")),
                    };
                    if parts.next().is_some() {
                        return Err(err("trailing tokens"));
                    }
                    DeltaOp::AddEntity {
                        name: name.to_string(),
                        label,
                    }
                }
                "flip-label" => DeltaOp::FlipLabel {
                    name: rest.to_string(),
                },
                _ => return Err(err("unknown delta verb")),
            };
            delta.ops.push(op);
        }
        Ok(delta)
    }

    /// Render back to the [`Delta::parse`] text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            match op {
                DeltaOp::AddValue { name } => out.push_str(&format!("add-value {name}\n")),
                DeltaOp::AddFact { rel, args } => {
                    out.push_str(&format!("add-fact {rel}({})\n", args.join(",")))
                }
                DeltaOp::RemoveFact { rel, args } => {
                    out.push_str(&format!("del-fact {rel}({})\n", args.join(",")))
                }
                DeltaOp::AddEntity { name, label } => match label {
                    None => out.push_str(&format!("add-entity {name}\n")),
                    Some(Label::Positive) => out.push_str(&format!("add-entity {name} +\n")),
                    Some(Label::Negative) => out.push_str(&format!("add-entity {name} -\n")),
                },
                DeltaOp::FlipLabel { name } => out.push_str(&format!("flip-label {name}\n")),
            }
        }
        out
    }

    /// Binary wire encoding (`serde::bytes` conventions: magic, strict
    /// bytes, all-or-nothing decode).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_magic(&DELTA_MAGIC);
        w.u32(self.ops.len() as u32);
        for op in &self.ops {
            match op {
                DeltaOp::AddValue { name } => {
                    w.u8(1);
                    w.str(name);
                }
                DeltaOp::AddFact { rel, args } => {
                    w.u8(2);
                    w.str(rel);
                    w.str_list(args);
                }
                DeltaOp::RemoveFact { rel, args } => {
                    w.u8(3);
                    w.str(rel);
                    w.str_list(args);
                }
                DeltaOp::AddEntity { name, label } => {
                    w.u8(4);
                    w.str(name);
                    w.opt_verdict(label.map(|l| l == Label::Positive));
                }
                DeltaOp::FlipLabel { name } => {
                    w.u8(5);
                    w.str(name);
                }
            }
        }
        w.finish()
    }

    /// Decode [`Delta::to_bytes`]; `None` on any corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<Delta> {
        let mut r = ByteReader::with_magic(bytes, &DELTA_MAGIC)?;
        let n = r.u32()?;
        let mut ops = Vec::new();
        for _ in 0..n {
            let op = match r.u8()? {
                1 => DeltaOp::AddValue { name: r.str()? },
                2 => DeltaOp::AddFact {
                    rel: r.str()?,
                    args: r.str_list()?,
                },
                3 => DeltaOp::RemoveFact {
                    rel: r.str()?,
                    args: r.str_list()?,
                },
                4 => DeltaOp::AddEntity {
                    name: r.str()?,
                    label: r.opt_verdict()?.map(|pos| {
                        if pos {
                            Label::Positive
                        } else {
                            Label::Negative
                        }
                    }),
                },
                5 => DeltaOp::FlipLabel { name: r.str()? },
                _ => return None,
            };
            ops.push(op);
        }
        r.finished().then_some(Delta { ops })
    }
}

/// `R(a,b)` → `("R", ["a","b"])`. Shared shape with the spec format.
fn parse_atom(s: &str) -> Option<(String, Vec<String>)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close != s.len() - 1 || open == 0 {
        return None;
    }
    let rel = s[..open].trim();
    let inner = &s[open + 1..close];
    if rel.is_empty() || inner.trim().is_empty() {
        return None;
    }
    let args: Vec<String> = inner.split(',').map(|a| a.trim().to_string()).collect();
    if args.iter().any(|a| a.is_empty()) {
        return None;
    }
    Some((rel.to_string(), args))
}

/// What applying a [`Delta`] did: the fingerprint edge for the
/// [`Lineage`] registry plus op counts for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaReceipt {
    /// Content fingerprint of the database before the edit.
    pub parent_fp: u128,
    /// Fingerprint of the edit script itself.
    pub delta_fp: u128,
    /// Content fingerprint after the edit (equals `parent_fp` for
    /// identity and label-only deltas).
    pub child_fp: u128,
    /// Structural direction (decides cache subsumption soundness).
    pub kind: DeltaKind,
    /// Facts actually inserted (duplicates excluded).
    pub facts_added: u64,
    /// Facts removed.
    pub facts_removed: u64,
    /// Elements newly interned.
    pub values_added: u64,
    /// Labels flipped (training databases only).
    pub labels_flipped: u64,
    /// Did the lineage registry already know `(parent_fp, delta_fp)`,
    /// sparing the child fingerprint recompute?
    pub registry_hit: bool,
}

impl DeltaReceipt {
    /// One-line human-readable summary (the `append` task/CLI output).
    pub fn summary(&self) -> String {
        format!(
            "applied {} delta: +{} facts, -{} facts, +{} values, {} flips; \
             {:032x} -> {:032x}{}",
            self.kind,
            self.facts_added,
            self.facts_removed,
            self.values_added,
            self.labels_flipped,
            self.parent_fp,
            self.child_fp,
            if self.registry_hit {
                " (lineage registry hit)"
            } else {
                ""
            }
        )
    }

    /// Binary wire encoding in the `serde::bytes` conventions.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_magic(&RECEIPT_MAGIC);
        w.u128(self.parent_fp);
        w.u128(self.delta_fp);
        w.u128(self.child_fp);
        w.u8(self.kind.code());
        w.u64(self.facts_added);
        w.u64(self.facts_removed);
        w.u64(self.values_added);
        w.u64(self.labels_flipped);
        w.verdict(self.registry_hit);
        w.finish()
    }

    /// Decode [`DeltaReceipt::to_bytes`]; `None` on any corruption.
    pub fn from_bytes(bytes: &[u8]) -> Option<DeltaReceipt> {
        let mut r = ByteReader::with_magic(bytes, &RECEIPT_MAGIC)?;
        let out = DeltaReceipt {
            parent_fp: r.u128()?,
            delta_fp: r.u128()?,
            child_fp: r.u128()?,
            kind: DeltaKind::from_code(r.u8()?)?,
            facts_added: r.u64()?,
            facts_removed: r.u64()?,
            values_added: r.u64()?,
            labels_flipped: r.u64()?,
            registry_hit: r.verdict()?,
        };
        r.finished().then_some(out)
    }
}

// ----------------------------------------------------------------------
// Applying deltas
// ----------------------------------------------------------------------

#[derive(Default)]
struct OpCounts {
    facts_added: u64,
    facts_removed: u64,
    values_added: u64,
    labels_flipped: u64,
}

/// The shared op loop. `lab` present ⇒ training semantics (labels
/// allowed and required); absent ⇒ structural ops only.
fn apply_ops(
    db: &mut Database,
    mut lab: Option<&mut Labeling>,
    delta: &Delta,
) -> Result<OpCounts, DeltaError> {
    let mut c = OpCounts::default();
    let intern = |db: &mut Database, name: &str, c: &mut OpCounts| -> Val {
        if db.val_by_name(name).is_none() {
            c.values_added += 1;
        }
        db.value(name)
    };
    for op in delta.ops() {
        match op {
            DeltaOp::AddValue { name } => {
                intern(db, name, &mut c);
            }
            DeltaOp::AddFact { rel, args } | DeltaOp::RemoveFact { rel, args } => {
                let rel_id: RelId = db
                    .schema()
                    .rel_by_name(rel)
                    .ok_or_else(|| DeltaError(format!("unknown relation {rel:?}")))?;
                if args.len() != db.schema().arity(rel_id) {
                    return Err(DeltaError(format!(
                        "arity mismatch for {rel}: got {}, schema says {}",
                        args.len(),
                        db.schema().arity(rel_id)
                    )));
                }
                if matches!(op, DeltaOp::AddFact { .. }) {
                    let vals: Vec<Val> = args.iter().map(|a| intern(db, a, &mut c)).collect();
                    if db.add_fact(rel_id, vals) {
                        c.facts_added += 1;
                    }
                } else {
                    let vals: Vec<Val> = args
                        .iter()
                        .map(|a| {
                            db.val_by_name(a)
                                .ok_or_else(|| DeltaError(format!("unknown element {a:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                    if !db.remove_fact(rel_id, &vals) {
                        return Err(DeltaError(format!(
                            "removes absent fact {rel}({})",
                            args.join(",")
                        )));
                    }
                    c.facts_removed += 1;
                }
            }
            DeltaOp::AddEntity { name, label } => {
                match (&mut lab, label) {
                    (Some(lab), Some(l)) => {
                        let v = intern(db, name, &mut c);
                        if db.add_entity(v) {
                            c.facts_added += 1;
                        }
                        lab.set(v, *l);
                    }
                    (Some(_), None) => {
                        return Err(DeltaError(format!(
                            "add-entity {name} needs a label (+/-) on a training database"
                        )))
                    }
                    (None, None) => {
                        let v = intern(db, name, &mut c);
                        if db.add_entity(v) {
                            c.facts_added += 1;
                        }
                    }
                    (None, Some(_)) => {
                        return Err(DeltaError(format!(
                            "add-entity {name} carries a label but the target database is \
                             unlabeled; apply to a training database"
                        )))
                    }
                };
            }
            DeltaOp::FlipLabel { name } => {
                let lab = lab.as_mut().ok_or_else(|| {
                    DeltaError(format!(
                        "flip-label {name} needs a labeled (training) database"
                    ))
                })?;
                let v = db
                    .val_by_name(name)
                    .ok_or_else(|| DeltaError(format!("unknown element {name:?}")))?;
                let old = lab.try_get(v).ok_or_else(|| {
                    DeltaError(format!("flip-label {name}: element has no label"))
                })?;
                lab.set(v, old.flip());
                c.labels_flipped += 1;
            }
        }
    }
    Ok(c)
}

fn finish_receipt(
    work: &mut Database,
    delta: &Delta,
    parent_fp: u128,
    counts: OpCounts,
    lineage: Option<&Lineage>,
) -> DeltaReceipt {
    let delta_fp = delta.fingerprint();
    let known_child = lineage.and_then(|l| l.child_of(parent_fp, delta_fp));
    let child_fp = match known_child {
        // The registry already computed this child's fingerprint for the
        // same (parent content, edit script): prime the OnceLock instead
        // of rehashing every fact.
        Some(c) => {
            work.prime_fingerprint(c);
            c
        }
        None => work.fingerprint(),
    };
    let receipt = DeltaReceipt {
        parent_fp,
        delta_fp,
        child_fp,
        kind: delta.kind(),
        facts_added: counts.facts_added,
        facts_removed: counts.facts_removed,
        values_added: counts.values_added,
        labels_flipped: counts.labels_flipped,
        registry_hit: known_child.is_some(),
    };
    if let (Some(l), None) = (lineage, known_child) {
        l.record(&receipt);
    }
    receipt
}

impl Database {
    /// Apply a structural delta (label ops are an error here — use
    /// [`TrainingDb::apply`]). Atomic: on `Err` the database is
    /// unchanged. Without a [`Lineage`] the edit still produces a
    /// receipt, it just isn't recorded anywhere; prefer
    /// [`Database::apply_via`] (or `Engine::apply_delta`) so the caches
    /// can reuse verdicts across the edit.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaReceipt, DeltaError> {
        self.apply_inner(delta, None)
    }

    /// [`Database::apply`] recording the fingerprint edge in `lineage`
    /// (and skipping the child-fingerprint recompute when the registry
    /// already knows this `(parent, delta)` pair).
    pub fn apply_via(
        &mut self,
        delta: &Delta,
        lineage: &Lineage,
    ) -> Result<DeltaReceipt, DeltaError> {
        self.apply_inner(delta, Some(lineage))
    }

    fn apply_inner(
        &mut self,
        delta: &Delta,
        lineage: Option<&Lineage>,
    ) -> Result<DeltaReceipt, DeltaError> {
        let parent_fp = self.fingerprint();
        let mut work = self.clone();
        let counts = apply_ops(&mut work, None, delta)?;
        let receipt = finish_receipt(&mut work, delta, parent_fp, counts, lineage);
        *self = work;
        Ok(receipt)
    }
}

impl TrainingDb {
    /// Apply a delta (structural ops and label ops). Atomic: on `Err`
    /// the training database is unchanged.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaReceipt, DeltaError> {
        self.apply_inner(delta, None)
    }

    /// [`TrainingDb::apply`] recording the fingerprint edge in
    /// `lineage`. Label-only deltas record an identity edge (same
    /// fingerprint), so repeated relabels of the same parent are
    /// registry hits.
    pub fn apply_via(
        &mut self,
        delta: &Delta,
        lineage: &Lineage,
    ) -> Result<DeltaReceipt, DeltaError> {
        self.apply_inner(delta, Some(lineage))
    }

    fn apply_inner(
        &mut self,
        delta: &Delta,
        lineage: Option<&Lineage>,
    ) -> Result<DeltaReceipt, DeltaError> {
        let parent_fp = self.db.fingerprint();
        let mut work = self.db.clone();
        let mut lab = self.labeling.clone();
        let counts = apply_ops(&mut work, Some(&mut lab), delta)?;
        let receipt = finish_receipt(&mut work, delta, parent_fp, counts, lineage);
        self.db = work;
        self.labeling = lab;
        Ok(receipt)
    }
}

// ----------------------------------------------------------------------
// The lineage registry
// ----------------------------------------------------------------------

/// How an ancestor database relates to a descendant, derived from a
/// uniform-direction chain of lineage edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Containment {
    /// The ancestor is contained in the descendant (insert-only chain):
    /// every fact (and element) of the ancestor is in the descendant.
    Subset,
    /// The ancestor contains the descendant (delete-only chain).
    Superset,
}

/// Cap on registered edges: lineage is metadata about *recent* edit
/// history, not an unbounded provenance store. Edges age in two
/// generations of `MAX_EDGES / 2` under the verdict memo's rule: when
/// the current generation is full it becomes the previous one and the
/// old previous one is dropped. A dropped edge costs only its
/// child-fingerprint memo and the subsumption it carried (a fresh
/// search, which is always sound).
const MAX_EDGES: usize = 1 << 16;
/// Caps on the ancestor walk, bounding subsumption probe cost per miss.
const MAX_ANCESTORS: usize = 8;
const MAX_WALK: usize = 64;

/// One generation of edges.
#[derive(Default)]
struct LineageTable {
    /// `(parent_fp, delta_fp) -> (child_fp, kind)` — the apply memo.
    children: HashMap<(u128, u128), (u128, DeltaKind)>,
    /// `child_fp -> [(parent_fp, containment)]` for the walkable
    /// (insert-only / delete-only) edges.
    parents: HashMap<u128, Vec<(u128, Containment)>>,
}

/// The current and previous generation. An edge lives in at most one
/// generation's `children`; a re-recorded edge moves to the current one.
#[derive(Default)]
struct LineageGenerations {
    cur: LineageTable,
    prev: LineageTable,
}

impl LineageGenerations {
    fn edges(&self) -> usize {
        self.cur.children.len() + self.prev.children.len()
    }

    fn child(&self, key: &(u128, u128)) -> Option<u128> {
        self.cur
            .children
            .get(key)
            .or_else(|| self.prev.children.get(key))
            .map(|&(child, _)| child)
    }

    /// `fp`'s parent entries from both generations (an entry may repeat).
    fn parents(&self, fp: u128) -> impl Iterator<Item = (u128, Containment)> + '_ {
        [&self.cur, &self.prev]
            .into_iter()
            .filter_map(move |t| t.parents.get(&fp))
            .flatten()
            .copied()
    }
}

/// The process- or engine-scoped registry of fingerprint lineage: which
/// database contents are edits of which, and in which direction. Owned
/// by `engine::Engine`; consulted by the caches' subsumption reads.
pub struct Lineage {
    inner: Mutex<LineageGenerations>,
    /// Mirror of the live edge count so the no-edge fast path (every
    /// cache miss probes it) never takes the lock.
    edge_count: AtomicU64,
    registry_hits: AtomicU64,
    /// Edges imported from a persisted lineage table.
    restored: AtomicU64,
}

impl Lineage {
    pub fn new() -> Lineage {
        Lineage {
            inner: Mutex::new(LineageGenerations::default()),
            edge_count: AtomicU64::new(0),
            registry_hits: AtomicU64::new(0),
            restored: AtomicU64::new(0),
        }
    }

    /// No edges registered? The fast path every subsumption probe checks
    /// before doing any work.
    pub fn no_edges(&self) -> bool {
        self.edge_count.load(Ordering::Relaxed) == 0
    }

    /// Registered edges.
    pub fn edge_count(&self) -> u64 {
        self.edge_count.load(Ordering::Relaxed)
    }

    /// Times [`Lineage::child_of`] answered from the memo — each one is
    /// a child-fingerprint recompute (or a re-parse) avoided.
    pub fn registry_hits(&self) -> u64 {
        self.registry_hits.load(Ordering::Relaxed)
    }

    /// Edges imported from a persisted table.
    pub fn restored(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }

    /// Zero the event counters (the edge table itself is untouched).
    pub fn reset_stats(&self) {
        self.registry_hits.store(0, Ordering::Relaxed);
        self.restored.store(0, Ordering::Relaxed);
    }

    /// The memoized child fingerprint for applying `delta_fp` to
    /// `parent_fp`, if this exact edit was seen before.
    pub fn child_of(&self, parent_fp: u128, delta_fp: u128) -> Option<u128> {
        let child = self.inner.lock().unwrap().child(&(parent_fp, delta_fp));
        if child.is_some() {
            self.registry_hits.fetch_add(1, Ordering::Relaxed);
        }
        child
    }

    /// Record a receipt's fingerprint edge.
    pub fn record(&self, receipt: &DeltaReceipt) {
        self.insert(
            receipt.parent_fp,
            receipt.delta_fp,
            receipt.child_fp,
            receipt.kind,
        );
    }

    /// Import one persisted edge (counts as `restored`).
    pub fn import_edge(&self, parent_fp: u128, delta_fp: u128, child_fp: u128, kind: DeltaKind) {
        self.insert(parent_fp, delta_fp, child_fp, kind);
        self.restored.fetch_add(1, Ordering::Relaxed);
    }

    fn insert(&self, parent_fp: u128, delta_fp: u128, child_fp: u128, kind: DeltaKind) {
        let mut g = self.inner.lock().unwrap();
        let key = (parent_fp, delta_fp);
        if !g.cur.children.contains_key(&key) {
            if g.cur.children.len() >= MAX_EDGES / 2 {
                g.prev = std::mem::take(&mut g.cur);
            }
            // A previous-generation parent entry for this edge may stay:
            // the current generation gets the same entry below.
            g.prev.children.remove(&key);
        }
        g.cur.children.insert(key, (child_fp, kind));
        self.edge_count.store(g.edges() as u64, Ordering::Relaxed);
        let containment = match kind {
            DeltaKind::InsertOnly => Containment::Subset,
            DeltaKind::DeleteOnly => Containment::Superset,
            // Identity/label-only edges relate equal fingerprints (the
            // exact key already matches); mixed edges admit no sound
            // containment.
            DeltaKind::Identity | DeltaKind::LabelOnly | DeltaKind::Mixed => return,
        };
        if child_fp == parent_fp {
            return;
        }
        let ups = g.cur.parents.entry(child_fp).or_default();
        if !ups.iter().any(|&(p, c)| p == parent_fp && c == containment) {
            // Most children have one parent: a first push would otherwise
            // allocate room for four.
            if ups.is_empty() {
                ups.reserve_exact(1);
            }
            ups.push((parent_fp, containment));
        }
    }

    /// Dump every edge for persistence, previous generation first, so
    /// importing the dump in order keeps the newest edges newest.
    pub fn export_edges(&self) -> Vec<(u128, u128, u128, DeltaKind)> {
        let g = self.inner.lock().unwrap();
        [&g.prev, &g.cur]
            .into_iter()
            .flat_map(|t| &t.children)
            .map(|(&(p, d), &(c, k))| (p, d, c, k))
            .collect()
    }

    /// Ancestors of `fp` reachable through uniform-direction edge
    /// chains, with how each contains (or is contained in) `fp`.
    /// Insert-only chains compose to `Subset` (ancestor ⊆ `fp`),
    /// delete-only chains to `Superset`; a direction change breaks the
    /// containment, so mixed chains are not followed. Bounded by
    /// `MAX_ANCESTORS`/`MAX_WALK` so a probe stays O(1)-ish.
    pub fn ancestors(&self, fp: u128) -> Vec<(u128, Containment)> {
        if self.no_edges() {
            return Vec::new();
        }
        let g = self.inner.lock().unwrap();
        let mut out = Vec::new();
        let mut queue: Vec<(u128, Containment)> = Vec::new();
        for up in g.parents(fp) {
            if !queue.contains(&up) {
                queue.push(up);
            }
        }
        let mut seen: Vec<(u128, Containment)> = queue.clone();
        let mut walked = 0;
        while let Some((anc, cont)) = queue.pop() {
            walked += 1;
            out.push((anc, cont));
            if out.len() >= MAX_ANCESTORS || walked >= MAX_WALK {
                break;
            }
            for (p, c) in g.parents(anc) {
                // Only uniform-direction chains keep a sound
                // containment through composition.
                if c == cont && !seen.contains(&(p, c)) {
                    seen.push((p, c));
                    queue.push((p, c));
                }
            }
        }
        out
    }
}

impl Default for Lineage {
    fn default() -> Lineage {
        Lineage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DbBuilder;
    use crate::schema::Schema;

    fn graph(edges: &[(&str, &str)]) -> Database {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let mut b = DbBuilder::new(s);
        for &(x, y) in edges {
            b = b.fact("E", &[x, y]);
        }
        b.build()
    }

    #[test]
    fn insert_only_apply_matches_hand_built() {
        let mut d = graph(&[("a", "b")]);
        let delta = Delta::new()
            .add_fact("E", &["b", "c"])
            .add_entity("c", None);
        let r = d.apply(&delta).unwrap();
        assert_eq!(r.kind, DeltaKind::InsertOnly);
        assert_eq!((r.facts_added, r.values_added), (2, 1));
        let mut want = graph(&[("a", "b"), ("b", "c")]);
        let c = want.value("c");
        want.add_entity(c);
        assert_eq!(d.fingerprint(), want.fingerprint());
        assert_eq!(r.child_fp, d.fingerprint());
        assert_ne!(r.parent_fp, r.child_fp);
    }

    #[test]
    fn delete_only_apply_and_absent_removal_errors() {
        let mut d = graph(&[("a", "b"), ("b", "c")]);
        let r = d
            .apply(&Delta::new().remove_fact("E", &["b", "c"]))
            .unwrap();
        assert_eq!(r.kind, DeltaKind::DeleteOnly);
        assert_eq!(r.facts_removed, 1);
        let fp = d.fingerprint();
        let err = d
            .apply(&Delta::new().remove_fact("E", &["b", "c"]))
            .unwrap_err();
        assert!(err.to_string().contains("absent fact"), "{err}");
        // Atomic: the failed apply left the database unchanged.
        assert_eq!(d.fingerprint(), fp);
    }

    #[test]
    fn structural_apply_rejects_label_ops() {
        let mut d = graph(&[("a", "b")]);
        assert!(d.apply(&Delta::new().flip_label("a")).is_err());
        assert!(d
            .apply(&Delta::new().add_entity("a", Some(Label::Positive)))
            .is_err());
    }

    #[test]
    fn training_apply_flips_labels_without_changing_fingerprint() {
        let mut d = graph(&[("a", "b")]);
        let a = d.value("a");
        let b = d.value("b");
        d.add_entity(a);
        d.add_entity(b);
        let mut lab = Labeling::new();
        lab.set(a, Label::Positive);
        lab.set(b, Label::Negative);
        let mut t = TrainingDb::new(d, lab);
        let fp = t.db.fingerprint();
        let r = t.apply(&Delta::new().flip_label("b")).unwrap();
        assert_eq!(r.kind, DeltaKind::LabelOnly);
        assert_eq!(r.labels_flipped, 1);
        assert_eq!(r.child_fp, fp, "labels live outside the fingerprint");
        assert_eq!(t.labeling.get(b), Label::Positive);
    }

    #[test]
    fn lineage_memo_skips_recompute_and_counts_hits() {
        let lineage = Lineage::new();
        let delta = Delta::new().add_fact("E", &["b", "c"]);
        let mut d1 = graph(&[("a", "b")]);
        let r1 = d1.apply_via(&delta, &lineage).unwrap();
        assert!(!r1.registry_hit);
        assert_eq!(lineage.edge_count(), 1);
        // Same parent content + same delta: the registry supplies the
        // child fingerprint.
        let mut d2 = graph(&[("a", "b")]);
        let r2 = d2.apply_via(&delta, &lineage).unwrap();
        assert!(r2.registry_hit);
        assert_eq!(r2.child_fp, r1.child_fp);
        assert_eq!(lineage.registry_hits(), 1);
        assert_eq!(d2.fingerprint(), r1.child_fp);
    }

    #[test]
    fn ancestors_follow_uniform_chains_only() {
        let lineage = Lineage::new();
        let mut d = graph(&[("a", "b")]);
        let fp0 = d.fingerprint();
        d.apply_via(&Delta::new().add_fact("E", &["b", "c"]), &lineage)
            .unwrap();
        let fp1 = d.fingerprint();
        d.apply_via(&Delta::new().add_fact("E", &["c", "d"]), &lineage)
            .unwrap();
        let fp2 = d.fingerprint();
        // Both ancestors are subsets through the insert-only chain.
        let anc = lineage.ancestors(fp2);
        assert!(anc.contains(&(fp1, Containment::Subset)));
        assert!(anc.contains(&(fp0, Containment::Subset)));
        // Now delete: the new edge is Superset, and composition stops at
        // the direction change.
        d.apply_via(&Delta::new().remove_fact("E", &["a", "b"]), &lineage)
            .unwrap();
        let fp3 = d.fingerprint();
        let anc3 = lineage.ancestors(fp3);
        assert_eq!(anc3, vec![(fp2, Containment::Superset)]);
    }

    #[test]
    fn lineage_keeps_the_newest_edges_past_the_cap() {
        // An insert-only chain 0 -> 1 -> … -> n, longer than the cap.
        const DELTA: u128 = 1 << 100;
        let n = (MAX_EDGES + 10) as u128;
        let lineage = Lineage::new();
        for i in 0..n {
            lineage.insert(i, DELTA + i, i + 1, DeltaKind::InsertOnly);
        }
        let newest_edge_answers = |l: &Lineage| {
            assert_eq!(l.child_of(n - 1, DELTA + n - 1), Some(n));
            assert!(l.ancestors(n).contains(&(n - 1, Containment::Subset)));
            assert!(l.edge_count() <= MAX_EDGES as u64);
            assert_eq!(l.edge_count(), l.export_edges().len() as u64);
        };
        newest_edge_answers(&lineage);
        // The oldest edges aged out.
        assert_eq!(lineage.child_of(0, DELTA), None);
        // Save/load: the engine persists `export_edges` and imports the
        // edges back in file order.
        let reloaded = Lineage::new();
        for (p, d, c, k) in lineage.export_edges() {
            reloaded.import_edge(p, d, c, k);
        }
        newest_edge_answers(&reloaded);
        assert_eq!(reloaded.edge_count(), lineage.edge_count());
    }

    #[test]
    fn delta_text_round_trips() {
        let delta = Delta::new()
            .add_value("x")
            .add_fact("E", &["x", "y"])
            .remove_fact("E", &["a", "b"])
            .add_entity("x", Some(Label::Positive))
            .add_entity("y", None)
            .flip_label("z");
        let text = delta.to_text();
        assert_eq!(Delta::parse(&text).unwrap(), delta);
        // And the binary wire form.
        assert_eq!(Delta::from_bytes(&delta.to_bytes()).unwrap(), delta);
    }

    #[test]
    fn delta_parse_rejects_garbage() {
        for bad in [
            "frobnicate x",
            "add-fact E(a,",
            "add-fact (a,b)",
            "add-entity x ?",
            "add-fact",
        ] {
            assert!(Delta::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(Delta::parse("# just a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn delta_fingerprint_is_order_sensitive_and_content_stable() {
        let d1 = Delta::new().add_fact("E", &["a", "b"]).add_value("z");
        let d2 = Delta::new().add_value("z").add_fact("E", &["a", "b"]);
        let d1_again = Delta::new().add_fact("E", &["a", "b"]).add_value("z");
        assert_eq!(d1.fingerprint(), d1_again.fingerprint());
        assert_ne!(d1.fingerprint(), d2.fingerprint());
        assert_ne!(d1.fingerprint(), Delta::new().fingerprint());
    }

    #[test]
    fn receipt_round_trips_through_bytes() {
        let r = DeltaReceipt {
            parent_fp: 7,
            delta_fp: 11,
            child_fp: 13,
            kind: DeltaKind::Mixed,
            facts_added: 2,
            facts_removed: 1,
            values_added: 3,
            labels_flipped: 0,
            registry_hit: true,
        };
        assert_eq!(DeltaReceipt::from_bytes(&r.to_bytes()).unwrap(), r);
        assert!(DeltaReceipt::from_bytes(b"garbage").is_none());
        assert_eq!(DeltaKind::from_code(9), None);
    }
}
