//! Binary model format, in the workspace's shared `serde::bytes` wire
//! style (the same conventions as the engine's cache tables).
//!
//! ```text
//! model:  "CQSEPMD1"
//!         | u32 rel_count | rel_count × (str name, u64 arity)
//!         | u8 has_entity | (u32 entity_rel if has_entity)
//!         | u32 n_features | n_features × feature
//!         | u64 original_dim | original_dim × u32 class
//!         | str threshold | n_features × str weight
//!         | u64 frontier_cap
//! feature: u32 n_atoms | n_atoms × (u32 rel, arity(rel) × u32 var)
//! ```
//!
//! Features are stored in path-canonical form (free variable `x0`), so
//! the free variable list is implicit and the trie rebuilds bit-for-bit
//! identically on load. Rationals are length-prefixed UTF-8 in their
//! `Display`/`FromStr` syntax (`"-2/3"`), matching the text model
//! format in `cqsep::persist`.
//!
//! Decoding is all-or-nothing: any out-of-range relation, non-dense
//! variable id, unparsable rational, duplicate feature path, or
//! trailing garbage rejects the whole file.

use crate::Model;
use cq::{Atom, Cq, Var};
use linsep::LinearClassifier;
use numeric::Rat;
use relational::{RelId, Schema};
use serde::bytes::{ByteReader, ByteWriter};
use std::collections::HashSet;

const MODEL_MAGIC: [u8; 8] = *b"CQSEPMD1";

pub(crate) fn encode(m: &Model) -> Vec<u8> {
    let mut w = ByteWriter::with_magic(&MODEL_MAGIC);
    let schema = &m.schema;
    w.u32(schema.rel_count() as u32);
    for rel in schema.rel_ids() {
        w.str(schema.name(rel));
        w.u64(schema.arity(rel) as u64);
    }
    match schema.entity_rel() {
        Some(rel) => {
            w.verdict(true);
            w.u32(rel.0);
        }
        None => w.verdict(false),
    }
    w.u32(m.features.len() as u32);
    for q in &m.features {
        w.u32(q.atoms().len() as u32);
        for a in q.atoms() {
            w.u32(a.rel.0);
            for v in &a.args {
                w.u32(v.0);
            }
        }
    }
    w.u64(m.class_of.len() as u64);
    for &c in &m.class_of {
        w.u32(c as u32);
    }
    w.str(&m.folded.threshold.to_string());
    for weight in &m.folded.weights {
        w.str(&weight.to_string());
    }
    w.u64(m.frontier_cap as u64);
    w.finish()
}

pub(crate) fn decode(bytes: Vec<u8>) -> Option<Model> {
    let mut r = ByteReader::with_magic(&bytes, &MODEL_MAGIC)?;
    let schema = decode_schema(&mut r)?;
    let n_features = r.u32()? as usize;
    // Every capacity below is bounded by the bytes left (`u32` counts
    // and length prefixes are 4 bytes each), never by a count alone.
    let mut features = Vec::with_capacity(r.capacity(n_features as u64, 4));
    for _ in 0..n_features {
        features.push(decode_feature(&mut r, &schema)?);
    }
    let original_dim = r.u64()?;
    let mut class_of = Vec::with_capacity(r.capacity(original_dim, 4));
    for _ in 0..original_dim {
        class_of.push(r.u32()? as usize);
    }
    let threshold: Rat = r.str()?.parse().ok()?;
    let mut weights = Vec::with_capacity(r.capacity(n_features as u64, 4));
    for _ in 0..n_features {
        weights.push(r.str()?.parse::<Rat>().ok()?);
    }
    let frontier_cap = r.u64()? as usize;
    if !r.finished() {
        return None;
    }
    Model::from_parts(
        schema,
        features,
        class_of,
        LinearClassifier::new(threshold, weights),
        frontier_cap,
    )
}

fn decode_schema(r: &mut ByteReader<'_>) -> Option<Schema> {
    let rel_count = r.u32()?;
    let mut schema = Schema::new();
    let mut names: HashSet<String> = HashSet::new();
    for _ in 0..rel_count {
        let name = r.str()?;
        let arity = r.u64()? as usize;
        // `Schema::add_relation` panics on these; fail the decode instead.
        if arity == 0 || !names.insert(name.clone()) {
            return None;
        }
        schema.add_relation(&name, arity);
    }
    if r.verdict()? {
        let rel = RelId(r.u32()?);
        if rel.0 >= rel_count || schema.arity(rel) != 1 {
            return None;
        }
        schema.set_entity(rel);
    }
    Some(schema)
}

fn decode_feature(r: &mut ByteReader<'_>, schema: &Schema) -> Option<Cq> {
    let n_atoms = r.u32()?;
    let mut atoms = Vec::with_capacity(r.capacity(n_atoms.into(), 4));
    let mut positions = 0u64;
    for _ in 0..n_atoms {
        let rel = RelId(r.u32()?);
        if rel.index() >= schema.rel_count() {
            return None;
        }
        let arity = schema.arity(rel);
        let mut args = Vec::with_capacity(r.capacity(arity as u64, 4));
        for _ in 0..arity {
            args.push(Var(r.u32()?));
        }
        positions += arity as u64;
        atoms.push(Atom::new(rel, args));
    }
    // Path-canonical variables are dense: ids are bounded by the number
    // of argument positions (+ the free variable). Anything larger is
    // corruption — and would over-allocate in `Cq::canonical_db`.
    let bound = positions + 1;
    if atoms
        .iter()
        .flat_map(|a| a.args.iter())
        .any(|v| u64::from(v.0) >= bound)
    {
        return None;
    }
    Some(Cq::new(schema.clone(), vec![Var(0)], atoms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_FRONTIER_CAP;
    use cq::parse::parse_cq;
    use cqsep::Statistic;
    use numeric::qint;

    fn model() -> Model {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        let stat = Statistic::new(vec![
            parse_cq(&s, "q(x) :- eta(x), E(x,y)").unwrap(),
            parse_cq(&s, "q(x) :- eta(x), E(x,y), E(y,z)").unwrap(),
            parse_cq(&s, "q(a) :- eta(a), E(a,b)").unwrap(),
        ]);
        let cls = LinearClassifier::new(
            "1/2".parse().unwrap(),
            vec![qint(2), "-1/3".parse().unwrap(), qint(1)],
        );
        Model::compile(&stat, &cls)
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = model();
        let decoded = decode(encode(&m)).expect("round trip decodes");
        assert_eq!(m, decoded);
        assert_eq!(m.trie_nodes(), decoded.trie_nodes());
        assert_eq!(m.frontier_cap, DEFAULT_FRONTIER_CAP);
    }

    #[test]
    fn truncations_never_decode() {
        let bytes = encode(&model());
        for len in 0..bytes.len() {
            assert!(
                decode(bytes[..len].to_vec()).is_none(),
                "truncation at {len} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut bytes = encode(&model());
        bytes.push(0);
        assert!(decode(bytes).is_none());
    }

    #[test]
    fn bad_magic_is_corruption() {
        let mut bytes = encode(&model());
        bytes[0] ^= 0xFF;
        assert!(decode(bytes).is_none());
    }

    #[test]
    fn out_of_range_variable_is_corruption() {
        let m = model();
        let good = encode(&m);
        // Find the first atom's first var field and blast it: rather
        // than byte-surgery, rebuild with a poisoned feature through
        // the writer to keep the offsets honest.
        let mut w = ByteWriter::with_magic(&MODEL_MAGIC);
        let schema = &m.schema;
        w.u32(schema.rel_count() as u32);
        for rel in schema.rel_ids() {
            w.str(schema.name(rel));
            w.u64(schema.arity(rel) as u64);
        }
        w.verdict(true);
        w.u32(schema.entity_rel().unwrap().0);
        w.u32(1); // one feature: eta(x_9999999)
        w.u32(1);
        w.u32(schema.entity_rel().unwrap().0);
        w.u32(9_999_999);
        w.u64(1);
        w.u32(0);
        w.str("0");
        w.str("1");
        w.u64(DEFAULT_FRONTIER_CAP as u64);
        assert!(decode(w.finish()).is_none());
        assert!(decode(good).is_some(), "the unpoisoned encoding decodes");
    }
}
