//! Incremental re-execution cache: per-rule result reuse with
//! **key-driven misses** and a **byte-budget LRU** (DESIGN.md §9).
//!
//! The §5.2 reuse optimization re-executes only "the parts of the plan
//! that may possibly have changed" between iterations. The keys alone
//! make that precise:
//!
//! * every compiled rule gets a **fingerprint**
//!   ([`crate::plan::rule_fingerprint`]) hashing the rendered rule — which,
//!   after unfolding, already inlines the whole description-rule chain —
//!   plus the signatures of every feature procedure the rule calls;
//! * every intermediate relation gets a **version**: a hash of its rules'
//!   fingerprints and the versions of the relations those rules read;
//! * each rule's output [`CompactTable`] is cached under
//!   `(relation, sample, fingerprint, input versions)`, so a refinement
//!   misses exactly on the refined rule and everything downstream of it
//!   (their keys changed) while every upstream entry keeps hitting.
//!
//! Nothing is invalidated: an entry whose key the current program no
//! longer produces simply stops being used. Memory is reclaimed by one
//! rule — each entry records its estimated heap bytes and the tick of its
//! last use, and [`IncrCache::insert`] / [`IncrCache::absorb`] evict
//! least-recently-used entries until the total is within [`BUDGET`]. The
//! cache's contents depend only on which keys were used, in which order,
//! never on which program ran last: a Simulation probe that runs a
//! refined program leaves its rules here for the next question, and the
//! base program's entries stay as recent as their last use.
//!
//! Correctness note: a degraded rule's widened stand-in is **never**
//! inserted here (the next run must retry the rule exactly), and entries
//! are pure functions of their key — absorbing a service fork's entries
//! via first-writer-wins, or evicting any entry, cannot change results.
//!
//! Fingerprint-stability rule (DESIGN.md §11): a compiled plan is a
//! function of its rule and the signatures of the procedures it calls —
//! exactly what the fingerprint hashes — so one fingerprint names one
//! plan. A plan choice that read anything else (relation sizes, learned
//! statistics) would have to salt the fingerprint with it.

use crate::probe::JoinTrace;
use iflex_ctable::{Assignment, Cell, CompactTable, CompactTuple};
use std::collections::{btree_map, BTreeMap};
use std::mem::size_of;
use std::sync::Arc;

/// The cache's byte budget: 64 MiB, about 3.5× the largest cache the
/// benchmark workloads build (≈ 18.5 MB on `iterate-join`).
#[cfg(not(test))]
const BUDGET: usize = 64 << 20;
/// A small budget, so unit tests can exercise eviction.
#[cfg(test)]
const BUDGET: usize = 4096;

/// Cache key: relation name, sample key, rule fingerprint, input-version
/// hash.
pub(crate) type Key = (String, String, u64, u64);

#[derive(Debug, Clone)]
struct Entry {
    table: Arc<CompactTable>,
    /// Extraction volume the rule's evaluation reported; re-reported on
    /// hits so convergence monitoring sees identical signals.
    volume: usize,
    /// Estimated heap bytes of `table`, fixed at insert.
    bytes: usize,
    /// Tick of the last hit (or the insert), for LRU eviction.
    used: u64,
    /// Count-only probe sizes over `table` ([`crate::Engine::probe_sizes`]),
    /// by probe; they go when the entry goes.
    probes: BTreeMap<String, (usize, u64)>,
    /// The rule's evaluation with row lineage, which join probes count
    /// refinements over; it goes when the entry goes.
    trace: Option<Arc<JoinTrace>>,
}

/// Estimated heap bytes of a cached table: its tuples, their cells and
/// the cells' assignments.
pub(crate) fn table_bytes(t: &CompactTable) -> usize {
    t.len() * size_of::<CompactTuple>()
        + t.len() * t.arity() * size_of::<Cell>()
        + t.stats().assignments * size_of::<Assignment>()
}

/// The incremental re-execution cache. One per [`crate::Engine`];
/// service forks clone the core's and publish theirs back with
/// [`crate::EngineCore::publish`].
#[derive(Debug, Clone, Default)]
pub struct IncrCache {
    entries: BTreeMap<Key, Entry>,
    /// Sum of the entries' `bytes`; at most [`BUDGET`] between calls.
    bytes: usize,
    /// Use counter, bumped by every hit and insert.
    tick: u64,
    /// Entries the budget evicted since the last [`IncrCache::take_evicted`].
    evicted: usize,
}

impl IncrCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached rule results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry (registry mutations and session fallback retries
    /// call this through [`crate::Engine::clear_cache`]).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Returns and resets how many entries the byte budget evicted since
    /// the last call (the `engine.incr.invalidations` signal).
    pub fn take_evicted(&mut self) -> usize {
        std::mem::take(&mut self.evicted)
    }

    /// Looks up a rule result, refreshing its recency on a hit.
    pub fn get(
        &mut self,
        rel: &str,
        sample: &str,
        fp: u64,
        inputs: u64,
    ) -> Option<(Arc<CompactTable>, usize)> {
        let key = (rel.to_string(), sample.to_string(), fp, inputs);
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|e| {
            e.used = tick;
            (Arc::clone(&e.table), e.volume)
        })
    }

    /// Caches a rule result, then evicts least-recently-used entries
    /// until the cache is within budget. Callers must never insert
    /// degraded (widened) results — see the module docs.
    pub fn insert(
        &mut self,
        rel: &str,
        sample: &str,
        fp: u64,
        inputs: u64,
        table: Arc<CompactTable>,
        volume: usize,
    ) {
        self.tick += 1;
        let bytes = table_bytes(&table);
        let entry = Entry {
            table,
            volume,
            bytes,
            used: self.tick,
            probes: BTreeMap::new(),
            trace: None,
        };
        self.bytes += bytes;
        let key = (rel.to_string(), sample.to_string(), fp, inputs);
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.evict_to_budget();
    }

    /// A probe size memoized on the entry under `key`.
    pub fn probe_size(&self, key: &Key, probe: &str) -> Option<(usize, u64)> {
        self.entries.get(key)?.probes.get(probe).copied()
    }

    /// Memoizes a probe size on the entry under `key` — a no-op once the
    /// entry is gone — counting its bytes against the same budget.
    pub fn memo_probe(&mut self, key: &Key, probe: String, size: (usize, u64)) {
        let Some(e) = self.entries.get_mut(key) else {
            return;
        };
        let bytes = probe.len() + size_of::<(String, (usize, u64))>();
        if e.probes.insert(probe, size).is_none() {
            e.bytes += bytes;
            self.bytes += bytes;
            self.evict_to_budget();
        }
    }

    /// The join trace memoized on the entry under `key`.
    pub fn trace(&self, key: &Key) -> Option<Arc<JoinTrace>> {
        self.entries.get(key)?.trace.clone()
    }

    /// Memoizes a join trace on the entry under `key` — a no-op once the
    /// entry is gone or when it has one — counting its bytes against the
    /// same budget.
    pub fn memo_trace(&mut self, key: &Key, trace: Arc<JoinTrace>) {
        let Some(e) = self.entries.get_mut(key) else {
            return;
        };
        if e.trace.is_none() {
            let bytes = trace.bytes();
            e.trace = Some(trace);
            e.bytes += bytes;
            self.bytes += bytes;
            self.evict_to_budget();
        }
    }

    /// Folds another cache's entries into this one; existing entries win
    /// (both caches computed the same pure results) but take the later of
    /// the two last uses, so entries a fork hit stay recent. The core
    /// gates this on epoch equality.
    pub fn absorb(&mut self, other: IncrCache) {
        for (k, v) in other.entries {
            match self.entries.entry(k) {
                btree_map::Entry::Occupied(mut slot) => {
                    let e = slot.get_mut();
                    e.used = e.used.max(v.used);
                }
                btree_map::Entry::Vacant(slot) => {
                    self.bytes += v.bytes;
                    slot.insert(v);
                }
            }
        }
        self.tick = self.tick.max(other.tick);
        self.evict_to_budget();
    }

    /// Evicts least-recently-used entries until the total is within
    /// [`BUDGET`].
    fn evict_to_budget(&mut self) {
        while self.bytes > BUDGET {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.entries.remove(&oldest) {
                self.bytes -= e.bytes;
                self.evicted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_ctable::Value;

    fn table() -> Arc<CompactTable> {
        Arc::new(CompactTable::new(vec!["x".to_string()]))
    }

    /// A one-column table of `rows` exact numbers.
    fn rows(rows: usize) -> Arc<CompactTable> {
        Arc::new(CompactTable::from_exact_rows(
            vec!["x".to_string()],
            (0..rows).map(|i| vec![Value::Num(i as f64)]).collect(),
        ))
    }

    /// Rows per table such that three tables fit the test budget and a
    /// fourth does not.
    fn quarter_budget_rows() -> usize {
        let per_row = table_bytes(&rows(1));
        BUDGET / 4 / per_row + 1
    }

    #[test]
    fn hit_and_miss() {
        let mut c = IncrCache::new();
        assert!(c.get("q", "full", 1, 2).is_none());
        c.insert("q", "full", 1, 2, table(), 7);
        let (t, vol) = c.get("q", "full", 1, 2).expect("hit");
        assert_eq!(t.len(), 0);
        assert_eq!(vol, 7);
        assert!(c.get("q", "full", 1, 3).is_none(), "input version differs");
        assert!(c.get("q", "s", 1, 2).is_none(), "sample differs");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let n = quarter_budget_rows();
        let mut c = IncrCache::new();
        c.insert("a", "full", 1, 0, rows(n), 0);
        c.insert("b", "full", 2, 0, rows(n), 0);
        c.insert("c", "full", 3, 0, rows(n), 0);
        assert_eq!((c.len(), c.take_evicted()), (3, 0), "three tables fit");
        assert!(c.get("a", "full", 1, 0).is_some()); // refresh a: b is now oldest
        c.insert("d", "full", 4, 0, rows(n), 0);
        assert_eq!(c.take_evicted(), 1);
        assert!(
            c.get("b", "full", 2, 0).is_none(),
            "least recently used goes"
        );
        for (rel, fp) in [("a", 1), ("c", 3), ("d", 4)] {
            assert!(c.get(rel, "full", fp, 0).is_some(), "{rel} survives");
        }
    }

    #[test]
    fn bytes_stay_within_budget() {
        let n = quarter_budget_rows();
        let mut c = IncrCache::new();
        for i in 0..50u64 {
            c.insert("q", "full", i, 0, rows(n + i as usize % 3), 0);
            assert!(c.bytes <= BUDGET, "after insert {i}: {} bytes", c.bytes);
        }
        assert_eq!(c.take_evicted(), 50 - c.len());
        // An absorb past the budget evicts too, and the total stays
        // consistent with the entries that remain.
        let mut other = IncrCache::new();
        for i in 100..103u64 {
            other.insert("r", "full", i, 0, rows(n), 0);
        }
        c.absorb(other);
        assert!(c.bytes <= BUDGET, "after absorb: {} bytes", c.bytes);
        assert_eq!(c.bytes, c.entries.values().map(|e| e.bytes).sum::<usize>());
        assert!(c.take_evicted() > 0);
        // A table larger than the whole budget is not kept.
        c.insert("huge", "full", 0, 0, rows(4 * n), 0);
        assert!(c.get("huge", "full", 0, 0).is_none());
        assert!(c.bytes <= BUDGET);
    }

    #[test]
    fn absorb_keeps_existing_entries() {
        let mut base = IncrCache::new();
        base.insert("q", "full", 1, 0, table(), 5);
        let mut fork = base.clone();
        fork.insert("q", "full", 1, 0, table(), 99);
        fork.insert("r", "full", 2, 0, table(), 1);
        base.absorb(fork);
        assert_eq!(
            base.get("q", "full", 1, 0).expect("q").1,
            5,
            "existing wins"
        );
        assert_eq!(base.get("r", "full", 2, 0).expect("r").1, 1, "new folds in");
    }

    #[test]
    fn probe_sizes_go_with_their_entry() {
        let n = quarter_budget_rows();
        let mut c = IncrCache::new();
        c.insert("a", "full", 1, 0, rows(n), 0);
        let key: Key = ("a".into(), "full".into(), 1, 0);
        let before = c.bytes;
        c.memo_probe(&key, "0/1 bold-font=yes".into(), (7, 3));
        assert_eq!(c.probe_size(&key, "0/1 bold-font=yes"), Some((7, 3)));
        assert!(c.bytes > before, "the memo counts against the budget");
        let gone: Key = ("b".into(), "full".into(), 2, 0);
        c.memo_probe(&gone, "0/1 bold-font=yes".into(), (1, 1));
        assert_eq!(
            c.probe_size(&gone, "0/1 bold-font=yes"),
            None,
            "no entry, no memo"
        );
        // Three newer tables push the entry, and its memo, out.
        for fp in 2..5 {
            c.insert("b", "full", fp, 0, rows(n), 0);
        }
        assert!(c.get("a", "full", 1, 0).is_none());
        assert_eq!(c.probe_size(&key, "0/1 bold-font=yes"), None);
        assert_eq!(c.bytes, c.entries.values().map(|e| e.bytes).sum::<usize>());
    }

    #[test]
    fn clear_forgets_history() {
        let mut c = IncrCache::new();
        c.insert("q", "full", 1, 0, rows(3), 0);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes, 0);
        assert!(c.get("q", "full", 1, 0).is_none());
    }
}
