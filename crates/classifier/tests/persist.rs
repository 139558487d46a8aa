//! `Model::save`/`Model::load` round-trip and corruption behavior,
//! mirroring the all-or-nothing contract of `Engine::load`.

use classifier::Model;
use cq::parse::parse_cq;
use linsep::LinearClassifier;
use numeric::qint;
use proptest::prelude::*;
use relational::{DbBuilder, Schema};
use serde::bytes::ByteWriter;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    s.add_relation("T", 3);
    s
}

fn compiled() -> Model {
    let s = schema();
    let stat = cqsep::Statistic::new(vec![
        parse_cq(&s, "q(x) :- eta(x)").unwrap(),
        parse_cq(&s, "q(x) :- eta(x), E(x,y)").unwrap(),
        parse_cq(&s, "q(x) :- eta(x), E(x,y), E(y,x)").unwrap(),
        parse_cq(&s, "q(x) :- eta(x), T(x,y,z), E(y,z)").unwrap(),
        parse_cq(&s, "q(u) :- eta(u), E(u,v)").unwrap(), // dup of feature 1
    ]);
    let cls = LinearClassifier::new(
        "3/2".parse().unwrap(),
        vec![qint(1), qint(2), qint(-1), "1/3".parse().unwrap(), qint(4)],
    );
    Model::compile(&stat, &cls)
}

/// The serving pattern under test: load if a good artifact exists,
/// otherwise compile cold.
fn load_or_compile(path: &Path) -> (Model, bool) {
    match Model::load(path) {
        Some(m) => (m, true),
        None => (compiled(), false),
    }
}

#[test]
fn save_load_round_trip_preserves_model_and_predictions() {
    let dir = TempDir::new("roundtrip");
    let path = dir.join("model.bin");
    let m = compiled();
    m.save(&path).unwrap();
    let loaded = Model::load(&path).expect("saved model loads");
    assert_eq!(m, loaded);
    assert_eq!(m.trie_nodes(), loaded.trie_nodes());
    assert_eq!(m.compiled_dimension(), loaded.compiled_dimension());

    // Loaded model predicts identically.
    let d = DbBuilder::new(schema())
        .fact("E", &["a", "b"])
        .fact("E", &["b", "a"])
        .fact("T", &["a", "b", "c"])
        .fact("E", &["b", "c"])
        .entity("a")
        .entity("b")
        .entity("c")
        .build();
    let engine = engine::Engine::new();
    let (orig, _) = m.classify_in(&engine.ctx(), &d).unwrap();
    let (redo, _) = loaded.classify_in(&engine.ctx(), &d).unwrap();
    for e in d.entities() {
        assert_eq!(orig.get(e), redo.get(e));
    }
}

#[test]
fn missing_file_falls_back_to_cold_compile() {
    let dir = TempDir::new("missing");
    let (m, warm) = load_or_compile(&dir.join("nope.bin"));
    assert!(!warm);
    assert_eq!(m, compiled());
}

#[test]
fn every_truncation_falls_back_to_cold_compile() {
    let dir = TempDir::new("truncate");
    let path = dir.join("model.bin");
    let m = compiled();
    m.save(&path).unwrap();
    let bytes = fs::read(&path).unwrap();
    // Step through prefixes (stride keeps the test fast; boundaries
    // near the start are covered exhaustively).
    for len in (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(7)) {
        fs::write(&path, &bytes[..len]).unwrap();
        let (got, warm) = load_or_compile(&path);
        assert!(!warm, "truncation at {len} must not load");
        assert_eq!(got, m);
    }
}

#[test]
fn corrupt_bytes_fall_back_to_cold_compile() {
    let dir = TempDir::new("corrupt");
    let path = dir.join("model.bin");
    let m = compiled();
    m.save(&path).unwrap();
    let good = fs::read(&path).unwrap();

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    fs::write(&path, &bad).unwrap();
    assert!(Model::load(&path).is_none());

    // Trailing garbage: count fields and payload disagree.
    let mut bad = good.clone();
    bad.push(0xAB);
    fs::write(&path, &bad).unwrap();
    assert!(Model::load(&path).is_none());

    // Restored intact file loads again.
    fs::write(&path, &good).unwrap();
    let (got, warm) = load_or_compile(&path);
    assert!(warm);
    assert_eq!(got, m);
}

/// Load `bytes` as a model file. A file that loads must round-trip:
/// saving the loaded model and loading that again gives the same model.
fn load_bytes(dir: &Path, bytes: &[u8]) -> Option<Model> {
    let path = dir.join("model.bin");
    fs::write(&path, bytes).unwrap();
    let loaded = Model::load(&path)?;
    loaded.save(&path).unwrap();
    assert_eq!(Model::load(&path).as_ref(), Some(&loaded));
    Some(loaded)
}

/// A model file's header up to its feature count: magic, one relation
/// `R` of the given arity, and no entity relation.
fn header(arity: u64) -> ByteWriter {
    let mut w = ByteWriter::with_magic(b"CQSEPMD1");
    w.u32(1);
    w.str("R");
    w.u64(arity);
    w.verdict(false);
    w
}

/// Count fields taken straight from the file must never size an
/// allocation: each of these fails cleanly instead of aborting on
/// "capacity overflow" or trying to reserve hundreds of GiB.
#[test]
fn huge_count_headers_fail_cleanly() {
    let dir = TempDir::new("huge");
    // The 25-byte file: no relations, no features, `original_dim` at its
    // maximum and nothing after it.
    let mut w = ByteWriter::with_magic(b"CQSEPMD1");
    w.u32(0);
    w.verdict(false);
    w.u32(0);
    w.u64(u64::MAX);
    let bytes = w.finish();
    assert_eq!(bytes.len(), 25);
    assert!(load_bytes(&dir, &bytes).is_none());

    let mut w = header(2);
    w.u32(u32::MAX); // n_features
    assert!(load_bytes(&dir, &w.finish()).is_none());

    let mut w = header(2);
    w.u32(1);
    w.u32(u32::MAX); // n_atoms
    w.u32(0);
    assert!(load_bytes(&dir, &w.finish()).is_none());

    // One atom over a relation whose arity is half the u64 range.
    let mut w = header(u64::MAX / 2);
    w.u32(1);
    w.u32(1);
    w.u32(0);
    w.u32(0);
    assert!(load_bytes(&dir, &w.finish()).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate a good file anywhere and flip a few bits: loading never
    /// panics, and a file that still loads is a well-formed model.
    #[test]
    fn truncated_and_bit_flipped_files_never_panic(
        cut in 0usize..4096,
        flips in proptest::collection::vec((0usize..4096, 0u32..8), 0..4),
    ) {
        let dir = TempDir::new("fuzz");
        let path = dir.join("model.bin");
        compiled().save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(cut % (bytes.len() + 1));
        for (at, bit) in flips {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] ^= 1 << bit;
            }
        }
        load_bytes(&dir, &bytes);
    }
}

#[test]
fn save_is_atomic_no_tmp_left_behind() {
    let dir = TempDir::new("atomic");
    let path = dir.join("model.bin");
    compiled().save(&path).unwrap();
    assert!(path.exists());
    assert!(!dir.join("model.bin.tmp").exists());
}

/// A scratch directory unique to this process and call, removed on
/// drop (tests run concurrently, so a pid alone is not enough).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "classifier_persist_{tag}_{}_{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
