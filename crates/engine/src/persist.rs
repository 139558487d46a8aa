//! On-disk persistence for an [`Engine`]'s verdict tables.
//!
//! Cache keys are built from [`relational::Database::fingerprint`] —
//! a *content* hash — so a persisted verdict is valid in any later
//! process that constructs a database with the same facts, regardless of
//! allocation order or process identity. That makes the tables safe to
//! ship between runs: a warm start is `Engine::load(dir)` before the
//! solve, `Engine::save(dir)` after.
//!
//! # Format
//!
//! Three files under the cache directory — one per verdict table plus
//! the lineage edge table — share one little-endian framing in the
//! [`serde::bytes`] wire style: an 8-byte magic, a `u64` entry count,
//! the entries, and a `u64` FNV-1a checksum of every byte before it.
//! Only the entry differs per file; each key type encodes its own
//! fields:
//!
//! ```text
//! file:          magic | u64 count | count × entry | u64 fnv1a(magic..entries)
//! hom.cache:     magic "CQSEPCH2"
//!     entry:     u128 from_fp | u128 to_fp | u32 npairs
//!                | npairs × (u32 from_val, u32 to_val) | u8 verdict
//! game.cache:    magic "CQSEPCG2"
//!     entry:     u128 d_fp | u128 d2_fp | u32 na | na × u32
//!                | u32 nb | nb × u32 | u32 k | u8 verdict
//! lineage.table: magic "CQSEPLN2"
//!     entry:     u128 parent_fp | u128 delta_fp | u128 child_fp
//!                | u8 kind
//! ```
//!
//! Verdict bytes are strictly `0`/`1`; lineage kind bytes must be valid
//! [`DeltaKind`] codes. Loading is all-or-nothing per file: a missing
//! file, wrong magic (a v1 file included), checksum mismatch, truncated
//! entry, trailing garbage, or invalid byte discards that file's table
//! entirely (a *cold* start for that layer) rather than importing a
//! prefix of unknown integrity. The checksum (the shared framing of
//! [`serde::bytes`]) is what keeps a damaged file from loading as a
//! *wrong* verdict: a flipped verdict or kind byte is still a valid
//! byte.
//! Saving writes a temp file in the target directory and renames it into
//! place, so a crash mid-save cannot clobber a previous good table.

use crate::Engine;
use covergame::cache::GameKey;
use relational::{DeltaKind, HomKey, Val};
use serde::bytes::{write_atomic, ByteReader, ByteWriter};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// File names within a cache directory.
pub const HOM_FILE: &str = "hom.cache";
pub const GAME_FILE: &str = "game.cache";
pub const LINEAGE_FILE: &str = "lineage.table";

const HOM_MAGIC: [u8; 8] = *b"CQSEPCH2";
const GAME_MAGIC: [u8; 8] = *b"CQSEPCG2";
const LINEAGE_MAGIC: [u8; 8] = *b"CQSEPLN2";

/// What [`Engine::load`](crate::Engine::load) found in a cache
/// directory. A corrupted or missing table reports zero entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestoreSummary {
    /// Hom-existence verdicts imported.
    pub hom_entries: u64,
    /// Cover-game verdicts imported.
    pub game_entries: u64,
    /// Lineage fingerprint edges imported.
    pub lineage_edges: u64,
}

impl RestoreSummary {
    /// Total entries imported across all tables.
    pub fn total(&self) -> u64 {
        self.hom_entries + self.game_entries + self.lineage_edges
    }
}

pub(crate) fn save(engine: &Engine, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let hom = encode(&HOM_MAGIC, &engine.hom_cache().export());
    write_atomic(&dir.join(HOM_FILE), &hom)?;
    let game = encode(&GAME_MAGIC, &engine.game_cache().export());
    write_atomic(&dir.join(GAME_FILE), &game)?;
    let lineage = encode(&LINEAGE_MAGIC, &engine.lineage().export_edges());
    write_atomic(&dir.join(LINEAGE_FILE), &lineage)?;
    Ok(())
}

pub(crate) fn load(engine: &Engine, dir: &Path) -> io::Result<RestoreSummary> {
    let hom: Vec<(HomKey, bool)> = read(dir, HOM_FILE, &HOM_MAGIC);
    let game: Vec<(GameKey, bool)> = read(dir, GAME_FILE, &GAME_MAGIC);
    let edges: Vec<Edge> = read(dir, LINEAGE_FILE, &LINEAGE_MAGIC);
    let summary = RestoreSummary {
        hom_entries: hom.len() as u64,
        game_entries: game.len() as u64,
        lineage_edges: edges.len() as u64,
    };
    for (key, ans) in hom {
        engine.hom_cache().import(key, ans);
    }
    for (key, ans) in game {
        engine.game_cache().import(key, ans);
    }
    for (parent_fp, delta_fp, child_fp, kind) in edges {
        engine
            .lineage()
            .import_edge(parent_fp, delta_fp, child_fp, kind);
    }
    Ok(summary)
}

/// A lineage edge: parent, delta and child fingerprints plus the kind.
type Edge = (u128, u128, u128, DeltaKind);

/// One persisted entry, encoding and decoding its own fields.
trait Record: Sized {
    fn encode(&self, w: &mut ByteWriter);
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;
}

/// A verdict-table entry: the key's fields, then the verdict byte.
impl<K: Record> Record for (K, bool) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        w.verdict(self.1);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some((K::decode(r)?, r.verdict()?))
    }
}

impl Record for HomKey {
    fn encode(&self, w: &mut ByteWriter) {
        w.u128(self.from);
        w.u128(self.to);
        w.u32(self.fixed.len() as u32);
        for (a, b) in &self.fixed {
            w.u32(a.0);
            w.u32(b.0);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let from = r.u128()?;
        let to = r.u128()?;
        let mut fixed = Vec::new();
        for _ in 0..r.u32()? {
            fixed.push((Val(r.u32()?), Val(r.u32()?)));
        }
        Some(HomKey { from, to, fixed })
    }
}

impl Record for GameKey {
    fn encode(&self, w: &mut ByteWriter) {
        w.u128(self.d);
        w.u128(self.d2);
        for tuple in [&self.a, &self.b] {
            w.u32(tuple.len() as u32);
            for v in tuple {
                w.u32(v.0);
            }
        }
        w.u32(self.k as u32);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let d = r.u128()?;
        let d2 = r.u128()?;
        let a = val_vec(r)?;
        let b = val_vec(r)?;
        let k = r.u32()? as usize;
        Some(GameKey { d, d2, a, b, k })
    }
}

impl Record for Edge {
    fn encode(&self, w: &mut ByteWriter) {
        w.u128(self.0);
        w.u128(self.1);
        w.u128(self.2);
        w.u8(self.3.code());
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some((
            r.u128()?,
            r.u128()?,
            r.u128()?,
            DeltaKind::from_code(r.u8()?)?,
        ))
    }
}

fn val_vec(r: &mut ByteReader<'_>) -> Option<Vec<Val>> {
    let n = r.u32()?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(Val(r.u32()?));
    }
    Some(out)
}

/// The framing, written once: magic, count, entries, checksum.
fn encode<E: Record>(magic: &[u8; 8], entries: &[E]) -> Vec<u8> {
    let mut w = ByteWriter::with_magic(magic);
    w.u64(entries.len() as u64);
    for e in entries {
        e.encode(&mut w);
    }
    w.finish_checksummed()
}

/// Inverse of [`encode`]; `None` on any damage (see the module docs).
fn decode<E: Record>(bytes: &[u8], magic: &[u8; 8]) -> Option<Vec<E>> {
    let mut r = ByteReader::with_checksum(bytes, magic)?;
    let count = r.u64()?;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(E::decode(&mut r)?);
    }
    r.finished().then_some(out)
}

/// The entries of one file under `dir`; empty when it is missing or
/// damaged.
fn read<E: Record>(dir: &Path, name: &str, magic: &[u8; 8]) -> Vec<E> {
    fs::read(dir.join(name))
        .ok()
        .and_then(|bytes| decode(&bytes, magic))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::bytes::fnv1a;

    /// `body` followed by its checksum, as [`encode`] frames it.
    fn framed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    #[test]
    fn reader_rejects_bad_magic_and_underruns() {
        assert!(ByteReader::with_magic(b"NOTMAGIC", &HOM_MAGIC).is_none());
        let mut ok = HOM_MAGIC.to_vec();
        ok.extend_from_slice(&3u64.to_le_bytes());
        let mut r = ByteReader::with_magic(&ok, &HOM_MAGIC).unwrap();
        assert_eq!(r.u64(), Some(3));
        assert_eq!(r.u32(), None, "underrun must fail, not panic");
    }

    #[test]
    fn verdict_bytes_are_strict() {
        let mut buf = HOM_MAGIC.to_vec();
        buf.push(2);
        let mut r = ByteReader::with_magic(&buf, &HOM_MAGIC).unwrap();
        assert_eq!(r.verdict(), None);
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut buf = HOM_MAGIC.to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        let empty = decode::<(HomKey, bool)>(&framed(buf.clone()), &HOM_MAGIC);
        assert_eq!(empty.map(|v| v.len()), Some(0));
        // Checksummed, so only the count/payload disagreement rejects it.
        buf.push(0xFF);
        assert_eq!(decode::<(HomKey, bool)>(&framed(buf), &HOM_MAGIC), None);
    }

    #[test]
    fn v2_layout_is_pinned() {
        let hom = HomKey {
            from: 1,
            to: 2,
            fixed: vec![(Val(3), Val(4))],
        };
        let mut body = b"CQSEPCH2".to_vec();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u128.to_le_bytes());
        body.extend_from_slice(&2u128.to_le_bytes());
        for word in [1u32, 3, 4] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        body.push(1);
        let bytes = encode(&HOM_MAGIC, &[(hom.clone(), true)]);
        assert_eq!(bytes, framed(body));
        assert_eq!(decode(&bytes, &HOM_MAGIC), Some(vec![(hom, true)]));

        let game = GameKey {
            d: 5,
            d2: 6,
            a: vec![Val(7)],
            b: vec![Val(8), Val(9)],
            k: 2,
        };
        let mut body = b"CQSEPCG2".to_vec();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&5u128.to_le_bytes());
        body.extend_from_slice(&6u128.to_le_bytes());
        for word in [1u32, 7, 2, 8, 9, 2] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        body.push(0);
        let bytes = encode(&GAME_MAGIC, &[(game.clone(), false)]);
        assert_eq!(bytes, framed(body));
        assert_eq!(decode(&bytes, &GAME_MAGIC), Some(vec![(game, false)]));
    }

    #[test]
    fn a_flipped_verdict_byte_fails_the_checksum() {
        let key = HomKey {
            from: 1,
            to: 2,
            fixed: vec![],
        };
        let mut bytes = encode(&HOM_MAGIC, &[(key, true)]);
        let verdict_at = bytes.len() - 9;
        assert_eq!(bytes[verdict_at], 1);
        bytes[verdict_at] = 0;
        assert_eq!(decode::<(HomKey, bool)>(&bytes, &HOM_MAGIC), None);
    }
}
