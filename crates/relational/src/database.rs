//! Databases: finite sets of facts over a schema, with the index the
//! homomorphism solver and cover-game solver rely on.

use crate::ids::{RelId, Val};
use crate::schema::Schema;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-global count of full fingerprint computations (every
/// fact is rehashed). Observable via [`fingerprint_computations`] so
/// tests can assert that the delta/lineage path *avoids* recomputes.
static FP_COMPUTES: AtomicU64 = AtomicU64::new(0);

/// How many times any [`Database::fingerprint`] in this process fell
/// back to a full recompute (monotone counter).
pub fn fingerprint_computations() -> u64 {
    FP_COMPUTES.load(Ordering::Relaxed)
}

/// The 64-bit finalizer (splitmix64-style) shared by the database
/// fingerprint and the delta-script fingerprint in [`crate::delta`].
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A single fact `R(ā)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    pub rel: RelId,
    pub args: Vec<Val>,
}

impl Fact {
    pub fn new(rel: RelId, args: Vec<Val>) -> Fact {
        Fact { rel, args }
    }
}

/// A finite database over a [`Schema`].
///
/// Elements are dense [`Val`]s with optional human-readable names; facts
/// are deduplicated (a database is a *set* of facts). Facts grouped by
/// relation are kept eagerly; the positional index of the homomorphism
/// solver and the by-value index of the k-cover game are one
/// `Index`, built on first query and dropped by any mutation.
#[derive(Clone)]
pub struct Database {
    schema: Schema,
    val_names: Vec<String>,
    name_to_val: HashMap<String, Val>,
    facts: Vec<Fact>,
    /// Fact ids per relation, in insertion order (removal preserves the
    /// relative order: `entities()` order is output).
    by_rel: Vec<Vec<usize>>,
    dedup: FactTable,
    /// Cached content fingerprint (see [`Database::fingerprint`]);
    /// invalidated by any mutation.
    fingerprint: OnceLock<u128>,
    /// Lazily built fact index; invalidated with the fingerprint.
    index: OnceLock<Index>,
}

/// The dedup table: each fact's content hash maps to its fact id, and a
/// hit is confirmed against `facts[id]`, so no second copy of the
/// arguments is kept. Hashes are keyed per table (std `RandomState`),
/// which keeps client-chosen element names from steering collisions.
#[derive(Clone, Default)]
struct FactTable {
    first: HashMap<u64, usize>,
    /// Further facts whose hash equals a key of `first` (almost always
    /// empty). Invariant: every hash here is also a key of `first`.
    more: Vec<(u64, usize)>,
}

#[cfg(test)]
thread_local! {
    /// Test hook: when set, every fact hashes to this value.
    static FORCED_HASH: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

impl FactTable {
    fn hash(&self, rel: RelId, args: &[Val]) -> u64 {
        #[cfg(test)]
        if let Some(h) = FORCED_HASH.with(|c| c.get()) {
            return h;
        }
        self.first.hasher().hash_one((rel, args))
    }

    /// The id of fact `rel(args)` with hash `h`, if present.
    fn find(&self, facts: &[Fact], h: u64, rel: RelId, args: &[Val]) -> Option<usize> {
        let is = |id: usize| facts[id].rel == rel && facts[id].args == args;
        let &id = self.first.get(&h)?;
        if is(id) {
            return Some(id);
        }
        self.more
            .iter()
            .find(|&&(mh, mid)| mh == h && is(mid))
            .map(|&(_, mid)| mid)
    }

    fn insert(&mut self, h: u64, id: usize) {
        if let Some(&taken) = self.first.get(&h) {
            debug_assert_ne!(taken, id);
            self.more.push((h, id));
        } else {
            self.first.insert(h, id);
        }
    }

    fn remove(&mut self, h: u64, id: usize) {
        if self.first.get(&h) == Some(&id) {
            // Promote a colliding fact, if any, to keep the invariant.
            match self.more.iter().position(|&(mh, _)| mh == h) {
                Some(p) => self.first.insert(h, self.more.swap_remove(p).1),
                None => self.first.remove(&h),
            };
        } else if let Some(p) = self.more.iter().position(|&e| e == (h, id)) {
            self.more.swap_remove(p);
        }
    }

    /// The fact with hash `h` moved from id `old` to id `new`.
    fn renumber(&mut self, h: u64, old: usize, new: usize) {
        match self.first.get_mut(&h) {
            Some(id) if *id == old => *id = new,
            _ => {
                if let Some(e) = self.more.iter_mut().find(|e| **e == (h, old)) {
                    e.1 = new;
                }
            }
        }
    }
}

/// The fact index, built in one pass on first query.
///
/// Occurrences are value-major: `off[v]..off[v + 1]` spans the cells
/// holding value `v`, sorted by `(column, fact id)`, where a column is
/// `col_base[rel] + pos`. Only relations with facts get columns, so the
/// index is `O(cells + dom)` whatever arities the schema declares.
/// `val_off`/`val_fact` list, per value, the facts containing it once
/// each. Every list is in ascending fact-id order: on a freshly loaded
/// database that is insertion order, so searches visit facts as they did
/// under eagerly maintained indexes, and after removals the order still
/// depends only on the fact ids, not on the edit history.
#[derive(Clone)]
struct Index {
    /// First column of each relation; `u32::MAX` for relations with no
    /// facts.
    col_base: Vec<u32>,
    off: Vec<usize>,
    col: Vec<u32>,
    fact: Vec<usize>,
    val_off: Vec<usize>,
    val_fact: Vec<usize>,
}

impl Index {
    fn build(db: &Database) -> Index {
        let dom = db.val_names.len();
        let mut off = vec![0usize; dom + 1];
        for f in &db.facts {
            for &a in &f.args {
                off[a.index() + 1] += 1;
            }
        }
        for v in 0..dom {
            off[v + 1] += off[v];
        }
        let cells = off[dom];
        let (mut col, mut fact) = (vec![0u32; cells], vec![0usize; cells]);
        let mut next = off[..dom].to_vec();
        let mut col_base = vec![u32::MAX; db.by_rel.len()];
        let mut base = 0u32;
        let mut ids = Vec::new();
        // Column-major over ascending fact ids: each value's cells land
        // in (column, fact id) order without a sort.
        for (r, rel_facts) in db.by_rel.iter().enumerate() {
            if rel_facts.is_empty() {
                continue;
            }
            ids.clear();
            ids.extend_from_slice(rel_facts);
            ids.sort_unstable();
            col_base[r] = base;
            for pos in 0..db.schema.arity(RelId(r as u32)) {
                for &i in &ids {
                    let v = db.facts[i].args[pos].index();
                    col[next[v]] = base;
                    fact[next[v]] = i;
                    next[v] += 1;
                }
                base = base.checked_add(1).expect("fewer than 2^32 columns");
            }
        }
        // Facts per value, each fact once: `last[v]` is the last fact
        // counted for `v`.
        let mut val_off = vec![0usize; dom + 1];
        let mut last = vec![usize::MAX; dom];
        for (i, f) in db.facts.iter().enumerate() {
            for &a in &f.args {
                if std::mem::replace(&mut last[a.index()], i) != i {
                    val_off[a.index() + 1] += 1;
                }
            }
        }
        for v in 0..dom {
            val_off[v + 1] += val_off[v];
        }
        let mut val_fact = vec![0usize; val_off[dom]];
        next.copy_from_slice(&val_off[..dom]);
        last.fill(usize::MAX);
        for (i, f) in db.facts.iter().enumerate() {
            for &a in &f.args {
                if std::mem::replace(&mut last[a.index()], i) != i {
                    val_fact[next[a.index()]] = i;
                    next[a.index()] += 1;
                }
            }
        }
        Index {
            col_base,
            off,
            col,
            fact,
            val_off,
            val_fact,
        }
    }

    fn facts_with(&self, rel: RelId, pos: u32, arity: usize, v: Val) -> &[usize] {
        let base = self.col_base[rel.index()];
        if base == u32::MAX || pos as usize >= arity || v.index() + 1 >= self.off.len() {
            return &[];
        }
        let c = base + pos;
        let (lo, hi) = (self.off[v.index()], self.off[v.index() + 1]);
        let cols = &self.col[lo..hi];
        let start = cols.partition_point(|&x| x < c);
        let end = start + cols[start..].partition_point(|&x| x == c);
        &self.fact[lo + start..lo + end]
    }

    fn facts_of_val(&self, v: Val) -> &[usize] {
        &self.val_fact[self.val_off[v.index()]..self.val_off[v.index() + 1]]
    }

    /// Heap words held, for the memory bound tests.
    #[cfg(test)]
    fn words(&self) -> usize {
        let w = |bytes: usize| bytes.div_ceil(std::mem::size_of::<usize>());
        w(self.col_base.len() * 4)
            + self.off.len()
            + w(self.col.len() * 4)
            + self.fact.len()
            + self.val_off.len()
            + self.val_fact.len()
    }
}

impl Database {
    pub fn new(schema: Schema) -> Database {
        let rel_count = schema.rel_count();
        Database {
            schema,
            val_names: Vec::new(),
            name_to_val: HashMap::new(),
            facts: Vec::new(),
            by_rel: vec![Vec::new(); rel_count],
            dedup: FactTable::default(),
            fingerprint: OnceLock::new(),
            index: OnceLock::new(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Make room for `n` more facts.
    pub(crate) fn reserve_facts(&mut self, n: usize) {
        self.facts.reserve(n);
        self.dedup.first.reserve(n);
    }

    /// Intern a named element, creating it on first use.
    pub fn value(&mut self, name: &str) -> Val {
        if let Some(&v) = self.name_to_val.get(name) {
            return v;
        }
        let v = Val(self.val_names.len() as u32);
        self.val_names.push(name.to_string());
        self.name_to_val.insert(name.to_string(), v);
        self.invalidate();
        v
    }

    /// Create a fresh anonymous element.
    pub fn fresh_value(&mut self) -> Val {
        let name = format!("_v{}", self.val_names.len());
        self.value(&name)
    }

    pub fn val_name(&self, v: Val) -> &str {
        &self.val_names[v.index()]
    }

    pub fn val_by_name(&self, name: &str) -> Option<Val> {
        self.name_to_val.get(name).copied()
    }

    /// Number of elements ever interned. Note: the paper's `dom(D)` is the
    /// set of elements occurring in facts; see [`Database::active_dom`].
    pub fn dom_size(&self) -> usize {
        self.val_names.len()
    }

    pub fn dom(&self) -> impl Iterator<Item = Val> + '_ {
        (0..self.val_names.len() as u32).map(Val)
    }

    /// `dom(D)` in the paper's sense: elements that occur in some fact.
    pub fn active_dom(&self) -> Vec<Val> {
        self.dom()
            .filter(|&v| !self.facts_of_val(v).is_empty())
            .collect()
    }

    /// Add a fact; returns `false` if it was already present.
    ///
    /// # Panics
    /// Panics if the arity does not match the schema or an argument is an
    /// unknown element.
    pub fn add_fact(&mut self, rel: RelId, args: Vec<Val>) -> bool {
        assert_eq!(
            args.len(),
            self.schema.arity(rel),
            "arity mismatch for {}",
            self.schema.name(rel)
        );
        for &a in &args {
            assert!(a.index() < self.val_names.len(), "unknown value {a:?}");
        }
        let h = self.dedup.hash(rel, &args);
        if self.dedup.find(&self.facts, h, rel, &args).is_some() {
            return false;
        }
        let idx = self.facts.len();
        self.dedup.insert(h, idx);
        self.by_rel[rel.index()].push(idx);
        self.facts.push(Fact::new(rel, args));
        self.invalidate();
        true
    }

    /// Remove a fact; returns `false` if it was not present. The removal
    /// slot is backfilled with the last fact, `swap_remove`-style.
    pub fn remove_fact(&mut self, rel: RelId, args: &[Val]) -> bool {
        let h = self.dedup.hash(rel, args);
        let Some(idx) = self.dedup.find(&self.facts, h, rel, args) else {
            return false;
        };
        self.dedup.remove(h, idx);
        let list = &mut self.by_rel[rel.index()];
        let p = list
            .iter()
            .position(|&i| i == idx)
            .expect("fact listed under its relation");
        list.remove(p);
        let last = self.facts.len() - 1;
        if idx != last {
            // The last fact moves into `idx`.
            let moved = &self.facts[last];
            self.dedup
                .renumber(self.dedup.hash(moved.rel, &moved.args), last, idx);
            let slot = self.by_rel[moved.rel.index()]
                .iter_mut()
                .find(|i| **i == last)
                .expect("fact listed under its relation");
            *slot = idx;
        }
        self.facts.swap_remove(idx);
        self.invalidate();
        true
    }

    /// Add a fact identified by relation and element names, interning
    /// elements on the fly.
    pub fn add_named_fact(&mut self, rel_name: &str, args: &[&str]) -> bool {
        let rel = self
            .schema
            .rel_by_name(rel_name)
            .unwrap_or_else(|| panic!("unknown relation {rel_name:?}"));
        let vals: Vec<Val> = args.iter().map(|a| self.value(a)).collect();
        self.add_fact(rel, vals)
    }

    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    pub fn fact(&self, idx: usize) -> &Fact {
        &self.facts[idx]
    }

    pub fn has_fact(&self, rel: RelId, args: &[Val]) -> bool {
        let h = self.dedup.hash(rel, args);
        self.dedup.find(&self.facts, h, rel, args).is_some()
    }

    /// Indices of facts of relation `rel`.
    pub fn facts_of_rel(&self, rel: RelId) -> &[usize] {
        &self.by_rel[rel.index()]
    }

    /// Indices of facts with value `v` at position `pos` of relation
    /// `rel`, in ascending order.
    pub fn facts_with(&self, rel: RelId, pos: u32, v: Val) -> &[usize] {
        self.index().facts_with(rel, pos, self.schema.arity(rel), v)
    }

    /// Indices of facts containing `v` anywhere, in ascending order.
    pub fn facts_of_val(&self, v: Val) -> &[usize] {
        self.index().facts_of_val(v)
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| Index::build(self))
    }

    /// Heap words held by the fact index, building it if needed.
    #[cfg(test)]
    pub(crate) fn index_words(&self) -> usize {
        self.index().words()
    }

    /// Relations that actually have at least one fact.
    pub fn populated_rels(&self) -> Vec<RelId> {
        self.schema
            .rel_ids()
            .filter(|r| !self.by_rel[r.index()].is_empty())
            .collect()
    }

    /// The entities: elements `e` with `η(e) ∈ D`.
    pub fn entities(&self) -> Vec<Val> {
        let eta = self.schema.entity_rel_required();
        self.by_rel[eta.index()]
            .iter()
            .map(|&i| self.facts[i].args[0])
            .collect()
    }

    /// Mark an element as an entity (insert `η(v)`).
    pub fn add_entity(&mut self, v: Val) -> bool {
        let eta = self.schema.entity_rel_required();
        self.add_fact(eta, vec![v])
    }

    /// Is `η(v) ∈ D`?
    pub fn is_entity(&self, v: Val) -> bool {
        let eta = self.schema.entity_rel_required();
        self.has_fact(eta, &[v])
    }

    /// Total size `|D|` measured as the number of cells (fact arguments);
    /// the usual yardstick in combined-complexity statements.
    pub fn size_cells(&self) -> usize {
        self.facts.iter().map(|f| f.args.len()).sum()
    }

    /// A 128-bit structural content fingerprint, used as the
    /// database-identity component of homomorphism memo keys
    /// (see [`crate::hom::cache`]).
    ///
    /// The fingerprint covers exactly the structure homomorphism semantics
    /// depends on: the number of interned elements, the relation arities,
    /// and the *set* of facts as index tuples — element and relation names
    /// are not hashed, and fact insertion order does not matter. It is
    /// computed lazily and cached; any mutation ([`Database::value`],
    /// [`Database::add_fact`]) invalidates the cache, and
    /// [`crate::builder::DbBuilder::build`] forces computation so built
    /// databases pay the cost once, up front.
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    /// Drop the cached content fingerprint and fact index. Every mutator
    /// funnels through here — one invalidation point means neither the
    /// delta/lineage machinery in [`crate::delta`] nor an index query can
    /// see stale derived state through a future mutation path.
    fn invalidate(&mut self) {
        self.fingerprint = OnceLock::new();
        self.index = OnceLock::new();
    }

    /// Seed the fingerprint cache with a value the lineage registry
    /// already computed for this exact content, skipping the full
    /// rehash. Debug builds cross-check against a real recompute.
    pub(crate) fn prime_fingerprint(&mut self, fp: u128) {
        // Already cached with the same value (label-only deltas never
        // invalidate): nothing to seed, and debug builds skip the
        // cross-check recompute so fingerprint_computations() stays
        // flat across repeated label-only applies.
        if self.fingerprint.get() == Some(&fp) {
            return;
        }
        debug_assert_eq!(
            self.compute_fingerprint(),
            fp,
            "lineage-primed fingerprint does not match database content"
        );
        self.fingerprint = OnceLock::from(fp);
    }

    fn compute_fingerprint(&self) -> u128 {
        FP_COMPUTES.fetch_add(1, Ordering::Relaxed);
        let mix = mix64;
        let mut lo = mix(0xA076_1D64_78BD_642F ^ self.val_names.len() as u64);
        let mut hi = mix(0xE703_7ED1_A0B4_28DB ^ self.schema.rel_count() as u64);
        for r in self.schema.rel_ids() {
            lo = mix(lo ^ self.schema.arity(r) as u64);
            hi = mix(hi.rotate_left(7) ^ self.schema.arity(r) as u64);
        }
        // Facts form a set; combine per-fact hashes commutatively so the
        // fingerprint is independent of insertion order.
        let (mut sum, mut xor) = (0u64, 0u64);
        for f in &self.facts {
            let mut h = mix(0x9E37_79B9_7F4A_7C15 ^ f.rel.index() as u64);
            for &a in &f.args {
                h = mix(h ^ a.index() as u64);
            }
            sum = sum.wrapping_add(h);
            xor ^= h.rotate_left((h % 63) as u32);
        }
        lo = mix(lo ^ sum);
        hi = mix(hi ^ xor);
        ((hi as u128) << 64) | lo as u128
    }

    /// Render a fact for debugging / the text format.
    pub fn fact_to_string(&self, f: &Fact) -> String {
        let args: Vec<&str> = f.args.iter().map(|&a| self.val_name(a)).collect();
        format!("{}({})", self.schema.name(f.rel), args.join(","))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Database[{} elems, {} facts]",
            self.dom_size(),
            self.fact_count()
        )?;
        let mut lines: Vec<String> = self.facts.iter().map(|x| self.fact_to_string(x)).collect();
        lines.sort();
        for l in lines {
            writeln!(f, "  {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_schema() -> Schema {
        let mut s = Schema::entity_schema();
        s.add_relation("E", 2);
        s
    }

    #[test]
    fn add_facts_and_dedup() {
        let mut d = Database::new(graph_schema());
        assert!(d.add_named_fact("E", &["a", "b"]));
        assert!(!d.add_named_fact("E", &["a", "b"]));
        assert!(d.add_named_fact("E", &["b", "a"]));
        assert_eq!(d.fact_count(), 2);
        assert_eq!(d.dom_size(), 2);
        assert_eq!(d.size_cells(), 4);
    }

    #[test]
    fn indexes_are_consistent() {
        let mut d = Database::new(graph_schema());
        d.add_named_fact("E", &["a", "b"]);
        d.add_named_fact("E", &["a", "c"]);
        d.add_named_fact("E", &["b", "c"]);
        let e = d.schema().rel_by_name("E").unwrap();
        let a = d.val_by_name("a").unwrap();
        let c = d.val_by_name("c").unwrap();
        assert_eq!(d.facts_of_rel(e).len(), 3);
        assert_eq!(d.facts_with(e, 0, a).len(), 2);
        assert_eq!(d.facts_with(e, 1, c).len(), 2);
        assert_eq!(d.facts_of_val(a).len(), 2);
        assert!(d.has_fact(e, &[a, c]));
        assert!(!d.has_fact(e, &[c, a]));
    }

    #[test]
    fn self_loop_counted_once_in_by_val() {
        let mut d = Database::new(graph_schema());
        d.add_named_fact("E", &["a", "a"]);
        let a = d.val_by_name("a").unwrap();
        assert_eq!(d.facts_of_val(a).len(), 1);
    }

    #[test]
    fn entities_roundtrip() {
        let mut d = Database::new(graph_schema());
        d.add_named_fact("E", &["a", "b"]);
        let a = d.val_by_name("a").unwrap();
        let b = d.val_by_name("b").unwrap();
        d.add_entity(a);
        assert!(d.is_entity(a));
        assert!(!d.is_entity(b));
        assert_eq!(d.entities(), vec![a]);
    }

    #[test]
    fn active_dom_excludes_isolated_values() {
        let mut d = Database::new(graph_schema());
        let a = d.value("a");
        let _lonely = d.value("z");
        d.add_entity(a);
        assert_eq!(d.active_dom(), vec![a]);
        assert_eq!(d.dom_size(), 2);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut d = Database::new(graph_schema());
        d.add_named_fact("E", &["a", "b"]);
        let fp1 = d.fingerprint();
        assert_eq!(fp1, d.fingerprint(), "stable across calls");

        // Mutation changes it.
        d.add_named_fact("E", &["b", "a"]);
        let fp2 = d.fingerprint();
        assert_ne!(fp1, fp2);

        // Same facts in a different insertion order: same fingerprint.
        let mut d2 = Database::new(graph_schema());
        d2.value("a");
        d2.value("b");
        d2.add_named_fact("E", &["b", "a"]);
        d2.add_named_fact("E", &["a", "b"]);
        assert_eq!(d2.fingerprint(), fp2);

        // An extra interned (even isolated) element changes it: dom size
        // is part of homomorphism semantics.
        d2.value("z");
        assert_ne!(d2.fingerprint(), fp2);
    }

    #[test]
    fn remove_fact_keeps_indexes_consistent() {
        let mut d = Database::new(graph_schema());
        d.add_named_fact("E", &["a", "b"]);
        d.add_named_fact("E", &["a", "c"]);
        d.add_named_fact("E", &["b", "c"]);
        let e = d.schema().rel_by_name("E").unwrap();
        let a = d.val_by_name("a").unwrap();
        let b = d.val_by_name("b").unwrap();
        let c = d.val_by_name("c").unwrap();

        // Remove a middle fact: the last fact backfills its slot.
        assert!(d.remove_fact(e, &[a, c]));
        assert!(!d.remove_fact(e, &[a, c]), "second removal is a no-op");
        assert_eq!(d.fact_count(), 2);
        assert!(d.has_fact(e, &[a, b]));
        assert!(d.has_fact(e, &[b, c]));
        assert!(!d.has_fact(e, &[a, c]));
        assert_eq!(d.facts_of_rel(e).len(), 2);
        assert_eq!(d.facts_with(e, 0, a).len(), 1);
        assert_eq!(d.facts_with(e, 1, c).len(), 1);
        assert_eq!(d.facts_of_val(a).len(), 1);
        assert_eq!(d.facts_of_val(c).len(), 1);
        for &i in d.facts_of_val(b) {
            assert!(d.fact(i).args.contains(&b), "stale facts_of_val entry");
        }

        // Removal then re-addition restores the original fingerprint.
        let fp = d.fingerprint();
        d.add_fact(e, vec![a, c]);
        d.remove_fact(e, &[a, c]);
        assert_eq!(d.fingerprint(), fp);
    }

    #[test]
    fn remove_entity_fact_preserves_entity_order() {
        let mut d = Database::new(graph_schema());
        for name in ["a", "b", "c", "d"] {
            let v = d.value(name);
            d.add_entity(v);
        }
        let eta = d.schema().entity_rel_required();
        let b = d.val_by_name("b").unwrap();
        assert!(d.remove_fact(eta, &[b]));
        let names: Vec<&str> = d.entities().iter().map(|&v| d.val_name(v)).collect();
        assert_eq!(names, ["a", "c", "d"], "relative entity order preserved");
        assert!(!d.is_entity(b));
    }

    #[test]
    fn remove_self_loop_cleans_by_val() {
        let mut d = Database::new(graph_schema());
        d.add_named_fact("E", &["a", "a"]);
        d.add_named_fact("E", &["a", "b"]);
        let e = d.schema().rel_by_name("E").unwrap();
        let a = d.val_by_name("a").unwrap();
        assert!(d.remove_fact(e, &[a, a]));
        assert_eq!(d.facts_of_val(a).len(), 1);
        assert_eq!(d.facts_with(e, 0, a).len(), 1);
    }

    #[test]
    fn dedup_survives_hash_collisions() {
        FORCED_HASH.with(|h| h.set(Some(7)));
        let mut d = Database::new(graph_schema());
        assert!(d.add_named_fact("E", &["a", "b"]));
        assert!(d.add_named_fact("E", &["b", "a"]));
        assert!(d.add_named_fact("E", &["a", "a"]));
        assert!(!d.add_named_fact("E", &["b", "a"]), "a colliding duplicate");
        let e = d.schema().rel_by_name("E").unwrap();
        let a = d.val_by_name("a").unwrap();
        let b = d.val_by_name("b").unwrap();
        assert!(d.add_entity(a));
        assert_eq!(d.dedup.more.len(), 3, "every fact shares one hash");
        assert!(d.has_fact(e, &[b, a]));
        assert!(!d.has_fact(e, &[b, b]));
        assert!(!d.has_fact(e, &[a]));

        // Drop the table's first entry: a colliding fact takes its place,
        // and the last fact (η(a)) moves into the freed id.
        assert!(d.remove_fact(e, &[a, b]));
        assert!(!d.has_fact(e, &[a, b]));
        assert!(d.has_fact(e, &[b, a]) && d.has_fact(e, &[a, a]) && d.is_entity(a));
        assert!(!d.remove_fact(e, &[a, b]));
        assert!(d.add_named_fact("E", &["a", "b"]));
        for args in [[b, a], [a, a], [a, b]] {
            assert!(d.remove_fact(e, &args));
        }
        assert!(d.is_entity(a) && d.fact_count() == 1);
        assert!(d.dedup.more.is_empty());
        FORCED_HASH.with(|h| h.set(None));
    }

    #[test]
    fn index_memory_is_linear_in_cells_and_dom() {
        // One 50 000-ary fact of distinct elements, plus a declared but
        // unused relation of the same arity.
        let n = 50_000;
        let names: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        let text = format!(
            "rel W/{n}\nrel V/{n}\nfact W({})\nentity x0\n",
            names.join(",")
        );
        let d = crate::spec::load_database(&text).unwrap();
        let w = d.schema().rel_by_name("W").unwrap();
        let v = d.schema().rel_by_name("V").unwrap();
        let last = d.val_by_name("x49999").unwrap();
        assert_eq!(d.facts_with(w, n as u32 - 1, last), &[0]);
        assert!(d.facts_with(w, 0, last).is_empty());
        assert!(d.facts_with(v, 7, last).is_empty());
        assert_eq!(d.facts_of_val(last), &[0]);
        let (cells, dom) = (d.size_cells(), d.dom_size());
        let words = d.index_words();
        assert!(
            words <= 3 * (cells + dom),
            "{words} words for {cells} cells, {dom} elements"
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut d = Database::new(graph_schema());
        let a = d.value("a");
        let e = d.schema().rel_by_name("E").unwrap();
        d.add_fact(e, vec![a]);
    }
}
