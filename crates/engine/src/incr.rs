//! Incremental re-execution cache: per-rule result reuse with
//! **dependency-cone invalidation** (DESIGN.md §9).
//!
//! The §5.2 reuse optimization re-executes only "the parts of the plan
//! that may possibly have changed" between iterations. This module makes
//! that precise and bounded:
//!
//! * every compiled rule gets a **fingerprint**
//!   ([`crate::plan::rule_fingerprint`]) hashing the rendered rule — which,
//!   after unfolding, already inlines the whole description-rule chain —
//!   plus the signatures of every feature procedure the rule calls;
//! * every intermediate relation gets a **version**: a hash of its rules'
//!   fingerprints and the versions of the relations those rules read;
//! * each rule's output [`CompactTable`] is cached under
//!   `(relation, sample, fingerprint, input versions)`, so a refinement
//!   misses exactly on the refined rule and its downstream **dependency
//!   cone** while every upstream entry keeps hitting;
//! * [`IncrCache::begin_run`] diffs the incoming fingerprints against the
//!   previous run's and **evicts** entries stranded in the changed cone —
//!   the memory-reclamation half of cone invalidation the old string-keyed
//!   cache never did (it leaked one entry per refinement per iteration).
//!
//! Eviction is deliberately lazy: simulation probes interleave refined
//! candidate programs with the base program on the *same* cache (the
//! serial probe path runs on the live engine, the parallel path folds
//! snapshot caches back in). Evicting a stale-looking entry immediately
//! would thrash the base program's entries once per probe, so cone
//! entries get a grace of [`IncrCache::keep_gens`] runs before they are
//! reclaimed, and a capacity bound evicts least-recently-used entries
//! beyond [`IncrCache::max_entries`].
//!
//! Correctness note: a degraded rule's widened stand-in is **never**
//! inserted here (the next run must retry the rule exactly), and entries
//! are pure functions of their key — absorbing a snapshot's entries via
//! first-writer-wins cannot change results.
//!
//! Fingerprint-stability rule (DESIGN.md §11): fingerprints hash the
//! **pre-optimization** unfolded rule — the logical-plan optimizer runs
//! *after* fingerprinting (`Engine::maybe_optimize` in `exec.rs`), and
//! its rewrites are byte-exact, so cache identities are
//! optimizer-invariant and entries stay valid and shareable whether a
//! run optimizes or not. Any future pass that is only
//! worlds-equivalent (not byte-exact) must salt the fingerprint
//! instead. The engine warns once when `use_optimizer` is off while
//! `use_incremental` is on: entries remain *valid*, but warm entries
//! may have been produced by optimized runs, which muddies ablation
//! timing.

use iflex_ctable::CompactTable;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cache key: relation name, sample key, rule fingerprint, input-version
/// hash. The relation name is first so one relation's entries are a
/// contiguous range — cone eviction walks only the affected relations.
type Key = (String, String, u64, u64);

#[derive(Debug, Clone)]
struct Entry {
    table: Arc<CompactTable>,
    /// Extraction volume the rule's evaluation reported; re-reported on
    /// hits so convergence monitoring sees identical signals.
    volume: usize,
    /// Generation of the last hit (or the insert), for grace/LRU eviction.
    used_gen: u64,
}

/// The incremental re-execution cache. One per [`crate::Engine`];
/// snapshots clone it and fold results back with
/// [`crate::Engine::absorb_cache`].
#[derive(Debug, Clone)]
pub struct IncrCache {
    entries: BTreeMap<Key, Entry>,
    /// Per-relation sorted rule fingerprints seen by the previous
    /// [`IncrCache::begin_run`]; the diff against the current run's
    /// fingerprints is the set of *changed* relations.
    last_fps: BTreeMap<String, Vec<u64>>,
    /// Run counter; bumped by every [`IncrCache::begin_run`].
    gen: u64,
    /// How many runs a cone-stranded entry survives before eviction.
    keep_gens: u64,
    /// Hard cap on cached entries; beyond it, least-recently-used entries
    /// are evicted regardless of cone membership.
    max_entries: usize,
}

impl Default for IncrCache {
    fn default() -> Self {
        Self::with_limits(64, 4096)
    }
}

impl IncrCache {
    /// An empty cache with the default grace (64 runs — comfortably more
    /// than one simulation phase's probe count) and capacity (4096
    /// entries).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with explicit eviction limits (tests use
    /// `keep_gens = 0` to force immediate cone eviction).
    pub fn with_limits(keep_gens: u64, max_entries: usize) -> Self {
        IncrCache {
            entries: BTreeMap::new(),
            last_fps: BTreeMap::new(),
            gen: 0,
            keep_gens,
            max_entries: max_entries.max(1),
        }
    }

    /// Number of cached rule results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry (registry mutations and session fallback retries
    /// call this through [`crate::Engine::clear_cache`]).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.last_fps.clear();
    }

    /// Starts a run: diffs `fps` (per-relation sorted rule fingerprints)
    /// against the previous run's, closes the changed set downstream over
    /// `deps` (relation → intensional relations its rules read) into the
    /// **dependency cone**, and evicts entries stranded in that cone —
    /// entries whose fingerprint no longer belongs to the current program
    /// and whose last hit is older than the grace window. Also enforces
    /// the capacity bound. Returns how many entries were evicted (the
    /// `engine.incr.invalidations` signal).
    pub fn begin_run(
        &mut self,
        fps: &BTreeMap<String, Vec<u64>>,
        deps: &BTreeMap<String, BTreeSet<String>>,
    ) -> usize {
        self.gen += 1;
        let mut changed: BTreeSet<&str> = fps
            .iter()
            .filter(|(rel, cur)| self.last_fps.get(*rel) != Some(cur))
            .map(|(rel, _)| rel.as_str())
            .collect();
        // Relations that vanished from the program changed too.
        changed.extend(
            self.last_fps
                .keys()
                .filter(|r| !fps.contains_key(*r))
                .map(String::as_str),
        );
        let cone = downstream_cone(&changed, deps);
        let gen = self.gen;
        let keep = self.keep_gens;
        let before = self.entries.len();
        // Sweep. An entry is *untouched* by this change when its relation
        // is outside the cone and its fingerprint is still part of the
        // current program — such entries are kept unconditionally (their
        // keys can still hit). Everything else — the changed relation's
        // own stranded fingerprints, downstream cone entries whose input
        // versions just went stale, fingerprints stranded by an earlier
        // alternation, vanished relations — is logically invalidated and
        // reclaimed once unused past the grace window.
        self.entries.retain(|(rel, _, fp, _), e| {
            let current = fps.get(rel).is_some_and(|v| v.binary_search(fp).is_ok());
            if current && !cone.contains(rel.as_str()) {
                return true;
            }
            gen.saturating_sub(e.used_gen) <= keep
        });
        let mut evicted = before - self.entries.len();
        evicted += self.enforce_capacity();
        self.last_fps = fps.clone();
        evicted
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
        let gen = self.gen;
        self.entries.get_mut(&key).map(|e| {
            e.used_gen = gen;
            (Arc::clone(&e.table), e.volume)
        })
    }

    /// Caches a rule result. Callers must never insert degraded
    /// (widened) results — see the module docs.
    pub fn insert(
        &mut self,
        rel: &str,
        sample: &str,
        fp: u64,
        inputs: u64,
        table: Arc<CompactTable>,
        volume: usize,
    ) {
        self.entries.insert(
            (rel.to_string(), sample.to_string(), fp, inputs),
            Entry {
                table,
                volume,
                used_gen: self.gen,
            },
        );
        self.enforce_capacity();
    }

    /// Folds another cache's entries into this one; existing entries win
    /// (both caches computed the same pure results). The engine gates
    /// this on epoch equality.
    pub fn absorb(&mut self, other: IncrCache) {
        for (k, v) in other.entries {
            self.entries.entry(k).or_insert(v);
        }
        self.enforce_capacity();
    }

    /// Evicts least-recently-used entries beyond the capacity bound;
    /// returns how many were dropped.
    fn enforce_capacity(&mut self) -> usize {
        let mut evicted = 0;
        while self.entries.len() > self.max_entries {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used_gen)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// The downstream dependency cone: `changed` plus every relation that
/// (transitively) reads a changed relation.
fn downstream_cone<'a>(
    changed: &BTreeSet<&'a str>,
    deps: &'a BTreeMap<String, BTreeSet<String>>,
) -> BTreeSet<&'a str> {
    let mut cone: BTreeSet<&str> = changed.clone();
    loop {
        let mut grew = false;
        for (rel, reads) in deps {
            if !cone.contains(rel.as_str()) && reads.iter().any(|d| cone.contains(d.as_str())) {
                cone.insert(rel.as_str());
                grew = true;
            }
        }
        if !grew {
            return cone;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<CompactTable> {
        Arc::new(CompactTable::new(vec!["x".to_string()]))
    }

    fn fps(pairs: &[(&str, &[u64])]) -> BTreeMap<String, Vec<u64>> {
        pairs
            .iter()
            .map(|(rel, v)| (rel.to_string(), v.to_vec()))
            .collect()
    }

    fn deps(pairs: &[(&str, &[&str])]) -> BTreeMap<String, BTreeSet<String>> {
        pairs
            .iter()
            .map(|(rel, ds)| {
                (
                    rel.to_string(),
                    ds.iter().map(|d| d.to_string()).collect(),
                )
            })
            .collect()
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
    fn cone_eviction_spares_upstream() {
        // p <- (ext), q reads p, r reads q, s independent.
        let d = deps(&[("p", &[]), ("q", &["p"]), ("r", &["q"]), ("s", &[])]);
        let mut c = IncrCache::with_limits(0, 64);
        c.begin_run(&fps(&[("p", &[1]), ("q", &[2]), ("r", &[3]), ("s", &[4])]), &d);
        c.insert("p", "full", 1, 0, table(), 0);
        c.insert("q", "full", 2, 10, table(), 0);
        c.insert("r", "full", 3, 20, table(), 0);
        c.insert("s", "full", 4, 0, table(), 0);
        // q's rule changes: q and r are the cone; p and s survive.
        let evicted =
            c.begin_run(&fps(&[("p", &[1]), ("q", &[22]), ("r", &[3]), ("s", &[4])]), &d);
        assert_eq!(evicted, 2, "q's stranded entry and r's input-stale entry go");
        assert!(c.get("p", "full", 1, 0).is_some());
        assert!(c.get("s", "full", 4, 0).is_some());
        assert!(c.get("q", "full", 2, 10).is_none());
        assert!(c.get("r", "full", 3, 20).is_none());
    }

    #[test]
    fn grace_window_defers_eviction() {
        let d = deps(&[("q", &[])]);
        let mut c = IncrCache::with_limits(2, 64);
        c.begin_run(&fps(&[("q", &[1])]), &d);
        c.insert("q", "full", 1, 0, table(), 0);
        // Probe-style alternation: the refined program strands the base
        // entry, but it survives the grace window...
        assert_eq!(c.begin_run(&fps(&[("q", &[9])]), &d), 0);
        assert_eq!(c.begin_run(&fps(&[("q", &[1])]), &d), 0);
        assert!(c.get("q", "full", 1, 0).is_some(), "base entry still live");
        // ...until it goes unused past the grace (keep_gens = 2 runs).
        assert_eq!(c.begin_run(&fps(&[("q", &[9])]), &d), 0);
        assert_eq!(c.begin_run(&fps(&[("q", &[9])]), &d), 0);
        assert_eq!(c.begin_run(&fps(&[("q", &[9])]), &d), 1);
        assert!(c.get("q", "full", 1, 0).is_none());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = IncrCache::with_limits(32, 2);
        c.insert("a", "full", 1, 0, table(), 0);
        c.insert("b", "full", 2, 0, table(), 0);
        let d = deps(&[]);
        c.begin_run(&fps(&[]), &d); // gen 1
        assert!(c.get("b", "full", 2, 0).is_some()); // refresh b
        c.insert("c", "full", 3, 0, table(), 0);
        assert_eq!(c.len(), 2);
        assert!(c.get("a", "full", 1, 0).is_none(), "oldest entry evicted");
        assert!(c.get("b", "full", 2, 0).is_some());
        assert!(c.get("c", "full", 3, 0).is_some());
    }

    #[test]
    fn absorb_keeps_existing_entries() {
        let mut base = IncrCache::new();
        base.insert("q", "full", 1, 0, table(), 5);
        let mut snap = base.clone();
        snap.insert("q", "full", 1, 0, table(), 99);
        snap.insert("r", "full", 2, 0, table(), 1);
        base.absorb(snap);
        assert_eq!(base.get("q", "full", 1, 0).expect("q").1, 5, "existing wins");
        assert_eq!(base.get("r", "full", 2, 0).expect("r").1, 1, "new folds in");
    }

    #[test]
    fn clear_forgets_history() {
        let d = deps(&[("q", &[])]);
        let mut c = IncrCache::with_limits(0, 64);
        c.begin_run(&fps(&[("q", &[1])]), &d);
        c.insert("q", "full", 1, 0, table(), 0);
        c.clear();
        assert_eq!(c.len(), 0);
        // After clear, the next begin_run sees a fresh history: nothing
        // to evict even though the fingerprints "changed".
        assert_eq!(c.begin_run(&fps(&[("q", &[2])]), &d), 0);
    }
}
