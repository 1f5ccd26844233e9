//! Shared, content-addressed artifact store.
//!
//! An [`ArtifactStore`] is the one thread-safe home of compiled artifacts,
//! shared by any number of sessions (and by the `fortrand-serve` daemon),
//! so two sessions compiling the same program do not generate everything
//! twice: artifacts are keyed by
//! **content** — the driver-options fingerprint, the unit's structural
//! source hash, and the digest of the unit's read log (the facts its code
//! generation read, `crate::reads`). A lookup takes the variants stored
//! under one options fingerprint and source hash and returns the first
//! whose logged reads re-answer alike against the new analysis, so a unit
//! compiled by *any* session is reusable by *every* session that would
//! read the same facts, and a stale entry can never be returned (an edit
//! that moves a read fails the test; it does not overwrite the slot).
//!
//! It also holds the front end's artifacts, one per unit slice of a
//! source, keyed by the slice text and the unit-table reads of its sema
//! (`crate::local`); they share the capacity and the LRU order with the
//! compiled units.
//!
//! The store is bounded: each entry is charged an approximate cost,
//! least-recently-used entries are evicted once the total exceeds the
//! capacity, and hit/miss/eviction/insertion counters of compiled units
//! (the held cost counts front-end artifacts too) are exposed via
//! [`ArtifactStore::stats`] — the driver surfaces them on the trace and in
//! `CompileReport::pass_stats`.

use crate::local::SliceArtifact;
use crate::model::{DynDecompSummary, Residual};
use crate::reads::Read;
use fortrand_ir::dist::ArrayDist;
use fortrand_spmd::ir::{walk_stmts, SProc};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One compiled unit, position-independent: every symbol, distribution
/// and callee reference is an index into the tables carried here, so the
/// unit can be grafted into any program, whichever ids its interner and
/// distribution table assign. Code generation writes a unit in this form,
/// numbering names and distributions in the order it first uses them; the
/// sweep grafts it, and the store keeps the same value.
#[derive(Clone, Debug)]
pub struct CachedUnit {
    /// The emitted procedure.
    pub(crate) proc: SProc,
    /// Residual handed to callers.
    pub(crate) residual: Residual,
    /// Dynamic-decomposition summary.
    pub(crate) dyn_summary: DynDecompSummary,
    /// Digest of `(residual, dyn_summary)`, symbols named through `names`:
    /// what this unit contributes to each caller's `residuals` fact class.
    /// Computed once, when the unit is generated, so a store hit costs no
    /// rendering.
    pub(crate) residual_digest: u64,
    /// The facts code generation read, in the order it first asked: the
    /// test a later compile puts the unit to before reusing it.
    pub(crate) reads: Vec<Read>,
    /// Symbol id → name.
    pub(crate) names: Vec<String>,
    /// Distribution id → distribution.
    pub(crate) dists: Vec<ArrayDist>,
    /// Callee reference → callee procedure name.
    pub(crate) callees: Vec<String>,
}

impl CachedUnit {
    /// Approximate heap footprint in bytes, charged against the store's
    /// capacity. An estimate (statement count × a per-statement constant
    /// plus the side tables), not an exact measurement: eviction only
    /// needs relative sizes to be sane.
    pub(crate) fn approx_cost(&self) -> usize {
        let mut stmts = 0;
        walk_stmts(&self.proc.body, &mut |_| stmts += 1);
        let names: usize = self.names.iter().map(|n| n.len() + 24).sum();
        let callees: usize = self.callees.iter().map(|n| n.len() + 24).sum();
        let reads: usize = self.reads.iter().map(|(_, n, _)| n.len() + 48).sum();
        stmts * 96
            + self.proc.decls.len() * 48
            + self.proc.formals.len() * 8
            + self.dists.len() * 64
            + names
            + callees
            + reads
            + 256
    }
}

/// Content address of one cached artifact: the driver options, the unit's
/// source structure and the digest of its read log. Codegen is a pure
/// function of the first two and of the answers to the reads, so a stored
/// unit whose reads re-answer alike is what codegen would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactKey {
    opts: u64,
    source: u64,
    facts: u64,
}

impl ArtifactKey {
    /// Builds a key from the options fingerprint, the unit's stable
    /// source hash, and the digest of its read log.
    pub fn new(opts: u64, source: u64, facts: u64) -> ArtifactKey {
        ArtifactKey {
            opts,
            source,
            facts,
        }
    }
}

/// Counter snapshot of an [`ArtifactStore`] (cumulative since creation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that missed (the unit was then recompiled).
    pub misses: u64,
    /// Compiled units evicted to stay under capacity.
    pub evictions: u64,
    /// Compiled units inserted.
    pub insertions: u64,
    /// Live compiled units.
    pub entries: usize,
    /// Approximate bytes currently held, front-end artifacts included.
    pub cost: usize,
    /// Capacity in approximate bytes.
    pub capacity: usize,
}

impl StoreStats {
    /// Hits per lookup, in hundredths of a percent-free unit — i.e.
    /// `50` means half the lookups hit: the true ratio × 100, rounded
    /// down. Integer so that the daemon's `compile` and `stats` responses
    /// keep their byte form.
    pub fn hit_rate_x100(&self) -> u64 {
        (self.hits * 100)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

struct Entry<T> {
    art: Arc<T>,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    /// Compiled units.
    map: BTreeMap<ArtifactKey, Entry<CachedUnit>>,
    /// Front-end artifacts, by the digest of their slice text and of the
    /// unit-table reads of their sema.
    slices: BTreeMap<(u64, u64), Entry<SliceArtifact>>,
    tick: u64,
    cost: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl Inner {
    /// Books an entry of `cost` just inserted, replacing one of `old`
    /// cost if any, then evicts least-recently-used entries, units and
    /// front-end artifacts alike, until the total cost fits the capacity
    /// again. The entry just inserted is the most recent, so it is evicted
    /// only if it exceeds the capacity all by itself — and even then one
    /// entry is always allowed to remain.
    fn charge(&mut self, cost: usize, old: Option<usize>) {
        self.tick += 1;
        if let Some(old) = old {
            self.cost -= old;
        }
        self.cost += cost;
        while self.cost > self.capacity && self.map.len() + self.slices.len() > 1 {
            let unit = (self.map.iter()).min_by_key(|(_, e)| e.last_used);
            let slice = (self.slices.iter()).min_by_key(|(_, e)| e.last_used);
            let unit_first = match (unit, slice) {
                (Some((_, u)), Some((_, s))) => u.last_used < s.last_used,
                (unit, _) => unit.is_some(),
            };
            let cost = match (unit, slice) {
                (Some((&k, _)), _) if unit_first => {
                    self.evictions += 1;
                    self.map.remove(&k).map(|e| e.cost)
                }
                (_, Some((&k, _))) => self.slices.remove(&k).map(|e| e.cost),
                _ => None,
            }
            .expect("an entry remains past the capacity");
            self.cost -= cost;
        }
    }
}

/// Thread-safe content-addressed artifact cache with LRU eviction (see
/// the module docs). Cheap to share: wrap in an [`Arc`] and hand clones
/// to every session.
pub struct ArtifactStore {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default capacity: 256 MiB of approximate artifact cost.
const DEFAULT_CAPACITY: usize = 256 << 20;

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ArtifactStore {
    /// A store with the default capacity.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// A store bounded at `bytes` of approximate artifact cost.
    pub fn with_capacity(bytes: usize) -> ArtifactStore {
        ArtifactStore {
            inner: Mutex::new(Inner {
                capacity: bytes.max(1),
                ..Inner::default()
            }),
        }
    }

    /// Convenience: a fresh shared handle.
    pub fn shared() -> Arc<ArtifactStore> {
        Arc::new(ArtifactStore::new())
    }

    /// Looks up a unit: the first variant stored under `opts` and
    /// `source`, in key order, that `valid` accepts, bumping its recency.
    /// Every call is counted as one hit or one miss.
    pub(crate) fn lookup(
        &self,
        opts: u64,
        source: u64,
        valid: impl Fn(&CachedUnit) -> bool,
    ) -> Option<Arc<CachedUnit>> {
        let mut guard = self.inner.lock().expect("artifact store poisoned");
        let inner = &mut *guard;
        inner.tick += 1;
        let variants = ArtifactKey::new(opts, source, 0)..=ArtifactKey::new(opts, source, u64::MAX);
        let Some((_, e)) = inner.map.range_mut(variants).find(|(_, e)| valid(&e.art)) else {
            inner.misses += 1;
            return None;
        };
        e.last_used = inner.tick;
        inner.hits += 1;
        Some(Arc::clone(&e.art))
    }

    /// The front-end artifacts stored for a slice whose text digests to
    /// `text` (one per unit table its sema read differently), bumping
    /// their recency. Counted neither as a hit nor as a miss: those
    /// counters are code generation's.
    pub(crate) fn slice_variants(&self, text: u64) -> Vec<Arc<SliceArtifact>> {
        let mut guard = self.inner.lock().expect("artifact store poisoned");
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        (inner.slices.range_mut((text, 0)..=(text, u64::MAX)))
            .map(|(_, e)| {
                e.last_used = tick;
                Arc::clone(&e.art)
            })
            .collect()
    }

    /// Inserts (or refreshes) a front-end artifact under the digests of
    /// its slice text and of its unit-table reads; evicts as [`Self::put`].
    pub(crate) fn put_slice(&self, text: u64, reads: u64, art: Arc<SliceArtifact>) {
        let cost = art.approx_cost();
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        let entry = Entry {
            art,
            cost,
            last_used: inner.tick + 1,
        };
        let old = inner.slices.insert((text, reads), entry).map(|e| e.cost);
        inner.charge(cost, old);
    }

    /// Inserts (or refreshes) an artifact, then evicts least-recently-used
    /// entries until the total cost fits the capacity again. The entry
    /// just inserted is the most recent, so it is evicted only if it
    /// exceeds the capacity all by itself — and even then one entry is
    /// always allowed to remain.
    pub(crate) fn put(&self, key: ArtifactKey, unit: Arc<CachedUnit>) {
        let cost = unit.approx_cost();
        let mut inner = self.inner.lock().expect("artifact store poisoned");
        let entry = Entry {
            art: unit,
            cost,
            last_used: inner.tick + 1,
        };
        let old = inner.map.insert(key, entry).map(|e| e.cost);
        if old.is_none() {
            inner.insertions += 1;
        }
        inner.charge(cost, old);
    }

    /// Cumulative counters plus current occupancy.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("artifact store poisoned");
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            insertions: inner.insertions,
            entries: inner.map.len(),
            cost: inner.cost,
            capacity: inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(tag: &str, pad: usize) -> Arc<CachedUnit> {
        Arc::new(CachedUnit {
            proc: SProc {
                name: fortrand_ir::Sym(0),
                formals: Vec::new(),
                decls: Vec::new(),
                body: Vec::new(),
            },
            residual: Residual::default(),
            dyn_summary: DynDecompSummary::default(),
            residual_digest: 0,
            reads: Vec::new(),
            names: vec![tag.repeat(pad.max(1))],
            dists: Vec::new(),
            callees: Vec::new(),
        })
    }

    /// Every variant under `key`'s options and source is valid.
    fn get(store: &ArtifactStore, key: &ArtifactKey) -> Option<Arc<CachedUnit>> {
        store.lookup(key.opts, key.source, |_| true)
    }

    #[test]
    fn get_put_counts_hits_and_misses() {
        let store = ArtifactStore::new();
        let k = ArtifactKey::new(1, 2, 3);
        assert!(get(&store, &k).is_none());
        store.put(k, unit("a", 1));
        assert!(get(&store, &k).is_some());
        let st = store.stats();
        assert_eq!((st.hits, st.misses, st.insertions), (1, 1, 1));
        assert_eq!(st.entries, 1);
        assert!(st.cost > 0);
    }

    #[test]
    fn lru_eviction_respects_recency_and_capacity() {
        // Three entries of ~equal cost into a store that fits two.
        let one_cost = unit("x", 64).approx_cost();
        let store = ArtifactStore::with_capacity(one_cost * 2 + 64);
        let (ka, kb, kc) = (
            ArtifactKey::new(0, 1, 0),
            ArtifactKey::new(0, 2, 0),
            ArtifactKey::new(0, 3, 0),
        );
        store.put(ka, unit("x", 64));
        store.put(kb, unit("y", 64));
        assert!(get(&store, &ka).is_some(), "touch a: b becomes LRU");
        store.put(kc, unit("z", 64));
        let st = store.stats();
        assert_eq!(st.evictions, 1, "{st:?}");
        assert!(get(&store, &kb).is_none(), "b was evicted");
        assert!(get(&store, &ka).is_some() && get(&store, &kc).is_some());
        assert!(st.cost <= st.capacity);
    }

    #[test]
    fn refreshing_a_key_does_not_double_charge() {
        let store = ArtifactStore::new();
        let k = ArtifactKey::new(9, 9, 9);
        store.put(k, unit("a", 4));
        let c1 = store.stats().cost;
        store.put(k, unit("a", 4));
        assert_eq!(store.stats().cost, c1);
        assert_eq!(store.stats().entries, 1);
        assert_eq!(store.stats().insertions, 1);
    }
}
