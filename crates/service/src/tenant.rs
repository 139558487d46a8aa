//! The tenant layer: one [`Engine`] (memo caches, lineage, statistics)
//! plus one [`Residents`] registry per tenant, so independent customers
//! sharing a server never see each other's verdicts, resident databases,
//! or lineage edges.
//!
//! A [`TenantRegistry`] holds the *default* tenant (requests without a
//! `tenant` field) pinned for the registry's lifetime, plus a size-capped LRU
//! of *named* tenants. Checking out a tenant past the capacity
//! **snapshots then evicts** the coldest named tenant: its verdict
//! tables and lineage go through [`Engine::save`] and its residents are
//! serialized to `residents.db`, all under `<cache-dir>/<tenant>/`, so
//! the next checkout warm-starts from disk ([`Engine::load`] reports
//! the imports as `restored_entries`, and re-queries land as cache
//! hits). Without a cache directory eviction is cold — the caches are
//! simply dropped.
//!
//! Tenant ids double as snapshot directory names, so they are
//! validated: 1–64 chars, first alphanumeric, rest `[A-Za-z0-9._-]`.
//! The default tenant persists under the reserved `_default` directory,
//! which no valid tenant id can collide with.

use crate::task::{load_training, Residents};
use engine::Engine;
use relational::spec::DatabaseSpec;
use serde::bytes::{write_atomic, ByteReader, ByteWriter};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic tag of a tenant's serialized resident registry. Version 2
/// ends in a checksum; a version-1 file is a cold start.
const RESIDENTS_MAGIC: [u8; 8] = *b"CQSEPRD2";
/// File holding a tenant's residents inside its snapshot directory.
const RESIDENTS_FILE: &str = "residents.db";
/// Snapshot directory of the default (unnamed) tenant.
const DEFAULT_TENANT_DIR: &str = "_default";

/// How a registry builds and persists tenant engines.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Maximum *named* tenants held in memory at once (≥ 1); the
    /// default tenant is pinned and does not count.
    pub capacity: usize,
    /// Snapshot root: tenant state persists under `<cache_dir>/<id>/`.
    /// `None` disables persistence — eviction discards the caches.
    pub cache_dir: Option<PathBuf>,
    /// Per-engine solver parallelism cap (`None`: adaptive default).
    pub threads: Option<usize>,
    /// Build engines with memo caches (the normal mode).
    pub use_cache: bool,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            capacity: 8,
            cache_dir: None,
            threads: None,
            use_cache: true,
        }
    }
}

/// A checked-out tenant: the engine to run under and the resident
/// registry to resolve names against. Cheap clones of shared handles —
/// eviction while a job holds one is safe (the engine stays alive via
/// the `Arc`; only the registry's slot is released).
#[derive(Clone)]
pub struct TenantHandle {
    pub engine: Arc<Engine>,
    pub residents: Residents,
}

struct TenantEntry {
    handle: TenantHandle,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    named: HashMap<String, TenantEntry>,
    /// Monotone LRU clock (bumped per checkout).
    clock: u64,
    evictions: u64,
    /// Checkouts that imported at least one snapshot entry.
    warm_restores: u64,
    /// Total entries imported across all warm restores.
    restored_entries: u64,
}

/// See the module docs.
pub struct TenantRegistry {
    default_handle: TenantHandle,
    config: TenantConfig,
    inner: Mutex<Inner>,
}

/// Check a tenant id against the wire rules (also directory-safety:
/// ids name snapshot directories, so no separators, no leading dots,
/// and the `_default` reservation falls out of the first-char rule).
pub fn validate_tenant_id(id: &str) -> Result<(), String> {
    let bad = |why: &str| {
        Err(format!(
            "bad tenant id {id:?}: {why} (1-64 chars, first alphanumeric, rest [A-Za-z0-9._-])"
        ))
    };
    if id.is_empty() || id.len() > 64 {
        return bad("length out of range");
    }
    let mut chars = id.chars();
    let first = chars.next().unwrap();
    if !first.is_ascii_alphanumeric() {
        return bad("first char must be alphanumeric");
    }
    if !chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')) {
        return bad("illegal character");
    }
    Ok(())
}

impl TenantRegistry {
    /// A registry that builds tenant engines from `config`. The default
    /// tenant's engine is built the same way and, when a cache
    /// directory is set, warm-started from `<cache_dir>/_default/`.
    pub fn new(config: TenantConfig) -> TenantRegistry {
        assert!(config.capacity >= 1, "tenant capacity must be at least 1");
        let handle = TenantHandle {
            engine: Arc::new(build_engine(&config)),
            residents: Residents::new(),
        };
        if let Some(dir) = config.cache_dir.as_ref() {
            load_tenant(&dir.join(DEFAULT_TENANT_DIR), &handle);
        }
        TenantRegistry {
            default_handle: handle,
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The default tenant's engine (stats reporting around a batch).
    pub fn default_engine(&self) -> &Arc<Engine> {
        &self.default_handle.engine
    }

    /// Check out a tenant's engine + residents, creating (and, if a
    /// snapshot exists, warm-restoring) the tenant on first use and
    /// bumping its LRU slot. May snapshot-then-evict the coldest other
    /// named tenant to stay within capacity. `None` is the pinned
    /// default tenant.
    pub fn checkout(&self, tenant: Option<&str>) -> Result<TenantHandle, String> {
        let id = match tenant {
            None => return Ok(self.default_handle.clone()),
            Some(id) => id,
        };
        validate_tenant_id(id)?;
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.named.get_mut(id) {
            entry.last_used = clock;
            return Ok(entry.handle.clone());
        }
        // Cold checkout: build, warm-start from disk if possible.
        let handle = TenantHandle {
            engine: Arc::new(build_engine(&self.config)),
            residents: Residents::new(),
        };
        if let Some(dir) = self.tenant_dir(id) {
            let restored = load_tenant(&dir, &handle);
            if restored > 0 {
                inner.warm_restores += 1;
                inner.restored_entries += restored;
            }
        }
        inner.named.insert(
            id.to_string(),
            TenantEntry {
                handle: handle.clone(),
                last_used: clock,
            },
        );
        while inner.named.len() > self.config.capacity {
            let coldest = inner
                .named
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a minimum");
            let entry = inner.named.remove(&coldest).unwrap();
            inner.evictions += 1;
            if let Some(dir) = self.tenant_dir(&coldest) {
                if let Err(e) = save_tenant(&dir, &entry.handle) {
                    eprintln!("cqsep-serve: tenant {coldest:?} snapshot failed: {e}");
                }
            }
        }
        Ok(handle)
    }

    /// Snapshot every resident tenant (default included) to the cache
    /// directory. No-op without one. Returns the tenants saved.
    pub fn snapshot_all(&self) -> std::io::Result<usize> {
        let Some(root) = self.config.cache_dir.as_ref() else {
            return Ok(0);
        };
        save_tenant(&root.join(DEFAULT_TENANT_DIR), &self.default_handle)?;
        let mut saved = 1;
        let inner = self.inner.lock().unwrap();
        for (id, entry) in inner.named.iter() {
            save_tenant(&root.join(id), &entry.handle)?;
            saved += 1;
        }
        Ok(saved)
    }

    /// Named tenants currently resident in memory.
    pub fn resident_tenants(&self) -> usize {
        self.inner.lock().unwrap().named.len()
    }

    /// Snapshot-then-evict cycles so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Cold checkouts that found a snapshot on disk.
    pub fn warm_restores(&self) -> u64 {
        self.inner.lock().unwrap().warm_restores
    }

    /// Total snapshot entries imported across all warm restores.
    pub fn restored_entries(&self) -> u64 {
        self.inner.lock().unwrap().restored_entries
    }

    fn tenant_dir(&self, id: &str) -> Option<PathBuf> {
        self.config.cache_dir.as_ref().map(|root| root.join(id))
    }
}

fn build_engine(config: &TenantConfig) -> Engine {
    let mut engine = Engine::new();
    if let Some(n) = config.threads {
        engine = engine.with_threads(n);
    }
    if !config.use_cache {
        engine = engine.without_cache();
    }
    engine
}

/// Persist one tenant's engine caches and residents under `dir`.
fn save_tenant(dir: &Path, handle: &TenantHandle) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    handle.engine.save(dir)?;
    let mut w = ByteWriter::with_magic(&RESIDENTS_MAGIC);
    let entries = handle.residents.entries();
    w.u32(entries.len() as u32);
    for (name, train) in &entries {
        w.str(name);
        w.str(&DatabaseSpec::from_database(&train.db, Some(&train.labeling)).to_text());
    }
    write_atomic(&dir.join(RESIDENTS_FILE), &w.finish_checksummed())
}

/// Warm-start one tenant from `dir`, returning how many entries were
/// imported (verdict-table entries + lineage edges + residents).
/// Missing or corrupt files are a cold start, not an error.
fn load_tenant(dir: &Path, handle: &TenantHandle) -> u64 {
    let mut restored = match handle.engine.load(dir) {
        Ok(summary) => summary.total(),
        Err(_) => 0,
    };
    restored += load_residents(&dir.join(RESIDENTS_FILE), &handle.residents).unwrap_or(0);
    restored
}

/// Decode a residents file into `residents`; all-or-nothing like every
/// other persisted table (`None` imports nothing). The checksum keeps a
/// damaged name or spec from loading as a different, valid database.
fn load_residents(path: &Path, residents: &Residents) -> Option<u64> {
    let bytes = std::fs::read(path).ok()?;
    let mut r = ByteReader::with_checksum(&bytes, &RESIDENTS_MAGIC)?;
    let count = r.u32()?;
    // The count is untrusted input: never allocate by it up front (a
    // corrupt header would ask for gigabytes); each iteration's reads
    // are bounds-checked, so a lying count just fails below.
    let mut parsed = Vec::new();
    for _ in 0..count {
        let name = r.str()?;
        let train = load_training(&r.str()?).ok()?;
        parsed.push((name, train));
    }
    if !r.finished() {
        return None;
    }
    let imported = parsed.len() as u64;
    for (name, train) in parsed {
        residents.insert(&name, train);
    }
    Some(imported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const TRAIN: &str = "rel E/2\nfact E(a,b)\nentity a +\nentity b -\n";

    /// A scratch directory unique to this process and call, removed on
    /// drop (tests run concurrently, so a pid alone is not enough).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("cqsep_tenants_{tag}_{}_{n}", std::process::id()));
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

    #[test]
    fn tenant_ids_are_validated() {
        for ok in ["a", "acme", "t-1", "A.b_c", "x9"] {
            assert!(validate_tenant_id(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            ".",
            "..",
            "_default",
            "-x",
            "a/b",
            "a b",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(validate_tenant_id(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn default_tenant_is_pinned_and_shared() {
        let registry = TenantRegistry::new(TenantConfig::default());
        let a = registry.checkout(None).unwrap();
        let b = registry.checkout(None).unwrap();
        assert!(Arc::ptr_eq(&a.engine, &b.engine));
        assert!(Arc::ptr_eq(&a.engine, registry.default_engine()));
        assert_eq!(registry.resident_tenants(), 0);
    }

    #[test]
    fn named_tenants_get_distinct_engines_and_residents() {
        let registry = TenantRegistry::new(TenantConfig::default());
        let a = registry.checkout(Some("a")).unwrap();
        let b = registry.checkout(Some("b")).unwrap();
        assert!(!Arc::ptr_eq(&a.engine, &b.engine));
        a.residents
            .insert("t", crate::task::load_training(TRAIN).unwrap());
        assert!(b.residents.get("t").is_none(), "residents are per-tenant");
        // A re-checkout sees the same handle.
        let a2 = registry.checkout(Some("a")).unwrap();
        assert!(Arc::ptr_eq(&a.engine, &a2.engine));
        assert!(a2.residents.get("t").is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_and_snapshots_round_trip() {
        let dir = TempDir::new("lru");
        let config = TenantConfig {
            capacity: 2,
            cache_dir: Some(dir.to_path_buf()),
            ..TenantConfig::default()
        };
        let registry = TenantRegistry::new(config);
        let t1 = registry.checkout(Some("t1")).unwrap();
        t1.residents
            .insert("db", crate::task::load_training(TRAIN).unwrap());
        // Do real engine work so the snapshot has verdict entries.
        let check = crate::task::Task::Check {
            train: TRAIN.to_string(),
            classes: vec![crate::task::ClassSpec::Cq],
        };
        let outcome = crate::task::execute_res_in(&t1.engine.ctx(), &t1.residents, &check);
        assert!(outcome.is_success(), "{outcome:?}");
        registry.checkout(Some("t2")).unwrap();
        assert_eq!(registry.resident_tenants(), 2);
        assert_eq!(registry.evictions(), 0);
        // Third tenant: t1 (coldest) is snapshotted and evicted.
        registry.checkout(Some("t3")).unwrap();
        assert_eq!(registry.resident_tenants(), 2);
        assert_eq!(registry.evictions(), 1);
        assert!(dir.join("t1").join(RESIDENTS_FILE).exists());
        // Re-checkout warm-restores residents (and any cache entries).
        let t1b = registry.checkout(Some("t1")).unwrap();
        assert!(
            t1b.residents.get("db").is_some(),
            "residents survive the evict/restore round trip"
        );
        assert!(registry.warm_restores() >= 1);
        assert!(registry.restored_entries() >= 1);
        // The restored verdict tables actually answer: replaying the
        // same check on the fresh engine must hit the restored caches
        // rather than re-derive everything.
        let before = t1b.engine.stats();
        let replay = crate::task::execute_res_in(&t1b.engine.ctx(), &t1b.residents, &check);
        assert!(replay.is_success(), "{replay:?}");
        let delta = t1b.engine.stats().since(&before);
        assert!(
            delta.hom.cache_hits + delta.game.cache_hits > 0,
            "warm-restored engine must serve cache hits: {delta:?}"
        );
    }

    #[test]
    fn corrupt_residents_file_is_a_cold_start() {
        let dir = TempDir::new("corrupt");
        std::fs::write(dir.join(RESIDENTS_FILE), b"CQSEPRD2garbage").unwrap();
        let residents = Residents::new();
        assert_eq!(load_residents(&dir.join(RESIDENTS_FILE), &residents), None);
        assert!(residents.is_empty());
    }

    /// The residents file a tenant holding `TRAIN` as `a` saves.
    fn saved_residents(dir: &Path) -> Vec<u8> {
        let handle = TenantHandle {
            engine: Arc::new(Engine::new()),
            residents: Residents::new(),
        };
        handle
            .residents
            .insert("a", crate::task::load_training(TRAIN).unwrap());
        save_tenant(dir, &handle).unwrap();
        std::fs::read(dir.join(RESIDENTS_FILE)).unwrap()
    }

    /// Load `bytes` as a residents file into an empty registry.
    fn load_bytes(dir: &Path, bytes: &[u8]) -> Option<u64> {
        let path = dir.join("probe.db");
        std::fs::write(&path, bytes).unwrap();
        let residents = Residents::new();
        let loaded = load_residents(&path, &residents);
        assert_eq!(residents.len() as u64, loaded.unwrap_or(0));
        loaded
    }

    #[test]
    fn every_bit_flip_and_truncation_of_residents_is_a_cold_start() {
        let dir = TempDir::new("flips");
        let bytes = saved_residents(&dir);
        assert_eq!(load_bytes(&dir, &bytes), Some(1));
        // The flip that once loaded silently: the name `a` becomes `c`.
        let name_at = bytes
            .windows(5)
            .position(|w| w == [1, 0, 0, 0, b'a'])
            .unwrap()
            + 4;
        let mut renamed = bytes.clone();
        renamed[name_at] = b'c';
        assert_eq!(load_bytes(&dir, &renamed), None);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(load_bytes(&dir, &bad), None, "bit {bit}");
        }
        for len in 0..bytes.len() {
            assert_eq!(load_bytes(&dir, &bytes[..len]), None, "length {len}");
        }
        // A version-1 file (no checksum) is a cold start too.
        let mut v1 = b"CQSEPRD1".to_vec();
        v1.extend_from_slice(&bytes[8..bytes.len() - 8]);
        assert_eq!(load_bytes(&dir, &v1), None);
    }

    #[test]
    fn a_huge_resident_count_is_a_cold_start() {
        let dir = TempDir::new("huge");
        for count in [2, u32::MAX / 2, u32::MAX] {
            let mut w = ByteWriter::with_magic(&RESIDENTS_MAGIC);
            w.u32(count);
            w.str("a");
            w.str(TRAIN);
            assert_eq!(load_bytes(&dir, &w.finish_checksummed()), None, "{count}");
        }
    }
}
