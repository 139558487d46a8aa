//! Save → load → warm-hit round trips for the persisted verdict tables,
//! including the corruption fallbacks: a damaged or truncated cache file
//! must degrade to a cold start, never to a wrong answer or a panic.

use engine::persist::{GAME_FILE, HOM_FILE, LINEAGE_FILE};
use engine::Engine;
use relational::{Database, DbBuilder, Delta, Schema, Val};
use std::fs;
use std::path::PathBuf;

/// A scratch directory unique to this test process + name, cleaned up on
/// drop so reruns start fresh.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("cqsep-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn graph(edges: &[(&str, &str)]) -> Database {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let mut b = DbBuilder::new(s);
    for &(x, y) in edges {
        b = b.fact("E", &[x, y]);
    }
    b.build()
}

/// A workload touching both tables: 2 hom queries (one with fixed
/// pairs), 2 game queries. Returns the verdicts for later comparison.
fn run_workload(e: &Engine) -> Vec<bool> {
    let p = graph(&[("a", "b"), ("b", "c")]);
    let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
    let (a, x) = (p.val_by_name("a").unwrap(), c3.val_by_name("x").unwrap());
    let pa: Vec<Val> = vec![a];
    let cx: Vec<Val> = vec![x];
    vec![
        e.ctx().hom_exists(&p, &c3, &[]).unwrap(),
        e.ctx().hom_exists(&p, &c3, &[(a, x)]).unwrap(),
        e.ctx().cover_implies(&p, &pa, &c3, &cx, 1).unwrap(),
        e.ctx().cover_implies(&c3, &cx, &p, &pa, 1).unwrap(),
    ]
}

#[test]
fn save_load_round_trip_starts_warm() {
    let tmp = TempDir::new("roundtrip");
    let first = Engine::new();
    let verdicts = run_workload(&first);
    let s1 = first.stats();
    assert_eq!(s1.hom.cache_misses, 2);
    assert_eq!(s1.game.cache_misses, 2);
    first.save(&tmp.0).expect("save must succeed");

    // A second process (modeled by a second engine) loads the tables and
    // replays the workload entirely from cache: all hits, no solves.
    let second = Engine::new();
    let summary = second.load(&tmp.0).expect("load must succeed");
    assert_eq!(summary.hom_entries, 2);
    assert_eq!(summary.game_entries, 2);
    assert_eq!(summary.total(), 4);
    assert_eq!(run_workload(&second), verdicts);
    let s2 = second.stats();
    assert_eq!(s2.restored_entries, 4);
    assert_eq!((s2.hom.cache_hits, s2.hom.cache_misses), (2, 0));
    assert_eq!((s2.game.cache_hits, s2.game.cache_misses), (2, 0));
    assert_eq!(s2.hom.solves, 0, "warm start must run no searches");
    assert_eq!(s2.game.games_solved, 0, "warm start must run no analyses");
}

#[test]
fn missing_directory_is_a_cold_start() {
    let tmp = TempDir::new("missing");
    let e = Engine::new();
    let summary = e.load(&tmp.0.join("never-created")).unwrap();
    assert_eq!(summary, Default::default());
    assert_eq!(e.stats().restored_entries, 0);
}

#[test]
fn corrupted_and_truncated_files_fall_back_to_cold() {
    let tmp = TempDir::new("corrupt");
    let first = Engine::new();
    let verdicts = run_workload(&first);
    first.save(&tmp.0).unwrap();

    // Flip the magic on one table, truncate the other mid-entry.
    let hom_path = tmp.0.join(HOM_FILE);
    let mut bytes = fs::read(&hom_path).unwrap();
    bytes[0] ^= 0xFF;
    fs::write(&hom_path, &bytes).unwrap();
    let game_path = tmp.0.join(GAME_FILE);
    let game_bytes = fs::read(&game_path).unwrap();
    fs::write(&game_path, &game_bytes[..game_bytes.len() - 3]).unwrap();

    let second = Engine::new();
    let summary = second.load(&tmp.0).unwrap();
    assert_eq!(summary, Default::default(), "both tables must be discarded");
    // Cold but correct: everything recomputes to the same verdicts.
    assert_eq!(run_workload(&second), verdicts);
    let s2 = second.stats();
    assert_eq!(s2.restored_entries, 0);
    assert_eq!(s2.hom.cache_misses, 2);
    assert_eq!(s2.game.cache_misses, 2);
}

#[test]
fn partial_corruption_keeps_the_intact_table() {
    let tmp = TempDir::new("partial");
    let first = Engine::new();
    run_workload(&first);
    first.save(&tmp.0).unwrap();
    fs::write(tmp.0.join(GAME_FILE), b"garbage").unwrap();

    let second = Engine::new();
    let summary = second.load(&tmp.0).unwrap();
    assert_eq!(summary.hom_entries, 2, "intact hom table must restore");
    assert_eq!(summary.game_entries, 0, "damaged game table must not");
    let s2 = second.stats();
    assert_eq!(s2.restored_entries, 2);
}

#[test]
fn lineage_edges_round_trip_and_pay_off_after_reload() {
    let tmp = TempDir::new("lineage");
    let first = Engine::new();
    let p = graph(&[("a", "b"), ("b", "c")]);
    let mut c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
    assert!(first.ctx().hom_exists(&p, &c3, &[]).unwrap());
    let delta = Delta::new().add_value("w").add_fact("E", &["z", "w"]);
    first.apply_delta(&mut c3, &delta).unwrap();
    assert_eq!(first.stats().sub.lineage_edges, 1);
    first.save(&tmp.0).unwrap();

    // A fresh engine restores the verdicts AND the lineage edge, so the
    // subsumption read works across the process boundary: the grown
    // target is answered without a search.
    let second = Engine::new();
    let summary = second.load(&tmp.0).unwrap();
    assert_eq!(summary.lineage_edges, 1);
    assert!(summary.total() >= 2);
    assert!(second.ctx().hom_exists(&p, &c3, &[]).unwrap());
    let s2 = second.stats();
    assert_eq!(s2.sub.hom_subsumption_hits, 1);
    assert_eq!(s2.hom.solves, 0, "warm lineage must avoid the search");
    // And the registry memo answers a replayed apply.
    let mut parent = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
    let receipt = second.apply_delta(&mut parent, &delta).unwrap();
    assert!(receipt.registry_hit);
}

#[test]
fn corrupt_lineage_table_is_a_cold_start_for_lineage_only() {
    let tmp = TempDir::new("lineage-corrupt");
    let first = Engine::new();
    run_workload(&first);
    let mut c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
    let delta = Delta::new().add_value("w").add_fact("E", &["z", "w"]);
    first.apply_delta(&mut c3, &delta).unwrap();
    first.save(&tmp.0).unwrap();

    // Truncate the lineage table mid-entry: the whole file is discarded,
    // the verdict tables still restore.
    let path = tmp.0.join(LINEAGE_FILE);
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

    let second = Engine::new();
    let summary = second.load(&tmp.0).unwrap();
    assert_eq!(summary.lineage_edges, 0, "damaged lineage must not load");
    assert_eq!(summary.hom_entries, 2);
    assert_eq!(summary.game_entries, 2);
    assert_eq!(second.stats().sub.lineage_edges, 0);
}

#[test]
fn save_overwrites_atomically_and_is_reloadable() {
    let tmp = TempDir::new("resave");
    let e = Engine::new();
    run_workload(&e);
    e.save(&tmp.0).unwrap();
    // Grow the table and save again over the same directory.
    let d = graph(&[("m", "n"), ("n", "m")]);
    let d2 = graph(&[("s", "t")]);
    e.ctx().hom_exists(&d, &d2, &[]).unwrap();
    e.save(&tmp.0).unwrap();
    assert!(
        !tmp.0.join(format!("{HOM_FILE}.tmp")).exists(),
        "temp files must not linger after a successful save"
    );
    let reread = Engine::new();
    let summary = reread.load(&tmp.0).unwrap();
    assert_eq!(summary.hom_entries, 3);
    assert_eq!(summary.game_entries, 2);
}

/// A v1 table (the pre-checksum format) is a cold start, not an error.
#[test]
fn v1_file_loads_as_a_cold_start() {
    let tmp = TempDir::new("v1");
    fs::create_dir_all(&tmp.0).unwrap();
    // One well-formed v1 hom entry: magic, count, from/to fingerprints,
    // no fixed pairs, verdict — and no checksum.
    let mut v1 = b"CQSEPCH1".to_vec();
    v1.extend_from_slice(&1u64.to_le_bytes());
    v1.extend_from_slice(&1u128.to_le_bytes());
    v1.extend_from_slice(&2u128.to_le_bytes());
    v1.extend_from_slice(&0u32.to_le_bytes());
    v1.push(1);
    fs::write(tmp.0.join(HOM_FILE), &v1).unwrap();
    let e = Engine::new();
    assert_eq!(e.load(&tmp.0).unwrap(), Default::default());
    assert!(e.hom_cache().is_empty());
}

/// The parent of the closing edit in the bit-flip workload: the path
/// `a → b → c`, which the 3-cycle does not map into (no hom, and
/// Spoiler wins the 1-cover game).
fn open_path() -> Database {
    graph(&[("a", "b"), ("b", "c")])
}

fn closing_edge() -> Delta {
    Delta::new().add_fact("E", &["c", "a"])
}

/// [`run_workload`] plus two negative verdicts on [`open_path`] and the
/// insert-only edit that closes it into a 3-cycle. The closed path is
/// never queried here, so a replay can only answer it by a fresh solve
/// or by subsumption through the saved lineage edge.
fn seed_flip_workload(e: &Engine) {
    run_workload(e);
    let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
    let mut p = open_path();
    assert!(!e.ctx().hom_exists(&c3, &p, &[]).unwrap());
    assert!(!e.ctx().cover_implies(&c3, &[], &p, &[], 1).unwrap());
    e.apply_delta(&mut p, &closing_edge()).unwrap();
}

/// Every verdict of [`seed_flip_workload`], then the closed path's —
/// which an insert-only edge must not answer from the negative parent
/// verdicts.
fn replay_flip_workload(e: &Engine) -> Vec<bool> {
    let mut verdicts = run_workload(e);
    let c3 = graph(&[("x", "y"), ("y", "z"), ("z", "x")]);
    let mut p = open_path();
    verdicts.push(e.ctx().hom_exists(&c3, &p, &[]).unwrap());
    verdicts.push(e.ctx().cover_implies(&c3, &[], &p, &[], 1).unwrap());
    e.apply_delta(&mut p, &closing_edge()).unwrap();
    verdicts.push(e.ctx().hom_exists(&c3, &p, &[]).unwrap());
    verdicts.push(e.ctx().cover_implies(&c3, &[], &p, &[], 1).unwrap());
    verdicts
}

/// A saved table with any single bit flipped loads as a cold start for
/// that file (or, for a flip the decoder cannot see, as the same
/// entries): a restored engine never answers differently from one that
/// loaded the intact files. Exhaustive over every bit of every file.
#[test]
fn bit_flips_never_change_a_verdict() {
    let tmp = TempDir::new("bitflip");
    let first = Engine::new();
    seed_flip_workload(&first);
    first.save(&tmp.0).unwrap();

    let intact = Engine::new();
    let restored = intact.load(&tmp.0).unwrap();
    assert_eq!(restored.lineage_edges, 1);
    let expected = replay_flip_workload(&intact);
    assert_eq!(
        expected,
        replay_flip_workload(&Engine::new()),
        "cold replay"
    );
    assert_eq!(&expected[4..], &[false, false, true, true]);

    for name in [HOM_FILE, GAME_FILE, LINEAGE_FILE] {
        let path = tmp.0.join(name);
        let original = fs::read(&path).unwrap();
        for byte in 0..original.len() {
            for bit in 0..8 {
                let mut flipped = original.clone();
                flipped[byte] ^= 1 << bit;
                fs::write(&path, &flipped).unwrap();
                let e = Engine::new();
                e.load(&tmp.0).unwrap();
                assert_eq!(
                    replay_flip_workload(&e),
                    expected,
                    "{name}: flipping bit {bit} of byte {byte} changed a verdict"
                );
            }
        }
        fs::write(&path, &original).unwrap();
    }
}
