//! Shared memo cache for the results of feature `Verify` / `Refine` work.
//!
//! Feature procedures are pure functions of `(span-or-value, feature,
//! arg)` over an immutable [`DocumentStore`], so what they produce — a
//! cell refined under a constraint chain, a tuple run through a fused
//! pass — can be memoized across rules, iterations of the interactive
//! loop, and the assistant's simulation probes. (A third, per-call
//! span/value level existed below the cell level; no call site used it
//! once the cell level landed, and it was removed.) The cache is sharded
//! behind mutexes so
//! the parallel operators ([`crate::par`]) can share one instance, and
//! it is reference-counted so engine snapshots keep feeding the same
//! memo. Invalidation follows the rule cache: any mutation of the
//! feature registry clears it (see `Engine::features_mut`).
//!
//! Interplay with the morsel executor: which thread computes a tuple is
//! timing-dependent (a stolen morsel runs on the thief), so two runs may
//! populate shards in a different order and interleave hits and misses
//! differently. That is safe by construction — entries are pure values
//! keyed only by their inputs, an insert race just recomputes one value,
//! and a hit is byte-identical to a recompute — so the cache can never
//! break `par`'s serial-identity guarantee; only `feature_cache_hits` /
//! `feature_cache_misses` totals may drift between runs. Degraded
//! results are never inserted, so a morsel that failed mid-fault cannot
//! poison later runs.
//!
//! [`DocumentStore`]: iflex_text::DocumentStore

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use iflex_ctable::{Assignment, Cell};

/// Shard count. Small power of two: enough to keep worker threads from
/// serializing on one lock without wasting memory on empty maps.
const SHARDS: usize = 16;

/// A fast, deterministic, process-stable hasher (the FxHash fold). The
/// memo is on the hot path of every feature call; SipHash's per-lookup
/// cost would eat the savings on cheap features. Shard choice and map
/// hashing only affect speed, never results.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

fn fx_hash<T: Hash>(t: &T) -> u64 {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

/// The rendered identity of one constraint chain (`new` + priors), shared
/// by every cell-level lookup under one Constraint operator evaluation.
/// Rendering is done once per operator call, not once per tuple.
#[derive(Debug, Clone)]
pub(crate) struct CellCtx {
    text: Arc<str>,
    hash: u64,
}

impl CellCtx {
    /// Builds the chain identity from its rendered text. The rendering
    /// must be injective over (feature, arg) chains — see
    /// [`crate::constraint::chain_ctx`].
    pub(crate) fn new(text: String) -> Self {
        let hash = fx_hash(&text.as_bytes());
        CellCtx {
            text: text.into(),
            hash,
        }
    }
}

/// Per-feature call statistics, recorded on the memo's *miss* path (the
/// actual feature invocations). The optimizer's selectivity model
/// (`lplan::analyze`) reads these to rank constraints: a feature whose
/// `Verify` mostly returns false, or whose `Refine` shrinks its input a
/// lot, is *selective* and worth running early.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeatStats {
    /// `Verify` invocations.
    pub verify_calls: u64,
    /// `Verify` invocations that returned true.
    pub verify_true: u64,
    /// `Refine` invocations.
    pub refine_calls: u64,
    /// Total assignments produced across all `Refine` calls.
    pub refine_out: u64,
}

impl FeatStats {
    /// Estimated pass rate in `[0, 1]`: fraction of probes this feature
    /// lets through. `None` until enough calls have been observed to
    /// trust the estimate.
    pub fn pass_rate(&self) -> Option<f64> {
        let calls = self.verify_calls + self.refine_calls;
        if calls < 8 {
            return None;
        }
        // A refine call "passes" to the extent it produces output; cap
        // the per-call contribution at 1 so prolific refines don't look
        // anti-selective.
        let passed = self.verify_true as f64 + (self.refine_out as f64).min(self.refine_calls as f64);
        Some((passed / calls as f64).clamp(0.0, 1.0))
    }
}

/// Stored key of the cell-level cache: the full input cell contents plus
/// the constraint-chain identity. Equality is exact — the hash only
/// routes to a bucket.
#[derive(Debug, Clone)]
struct CellKey {
    ctx: Arc<str>,
    assigns: Vec<Assignment>,
    expand: bool,
}

impl CellKey {
    fn matches(&self, ctx: &CellCtx, cell: &Cell) -> bool {
        self.expand == cell.is_expand()
            && self.assigns.as_slice() == cell.assignments()
            && (Arc::ptr_eq(&self.ctx, &ctx.text) || *self.ctx == *ctx.text)
    }
}

fn cell_hash(ctx: &CellCtx, cell: &Cell) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(ctx.hash);
    h.write_u8(u8::from(cell.is_expand()));
    for a in cell.assignments() {
        a.hash(&mut h);
    }
    h.finish()
}

/// Stored key of the tuple-level cache: one fused σ-pipeline identity
/// plus the *entire* input tuple's cells.
#[derive(Debug, Clone)]
struct TupleKey {
    ctx: Arc<str>,
    cells: Vec<Cell>,
}

impl TupleKey {
    fn matches(&self, ctx: &CellCtx, cells: &[Cell]) -> bool {
        self.cells.as_slice() == cells
            && (Arc::ptr_eq(&self.ctx, &ctx.text) || *self.ctx == *ctx.text)
    }
}

/// Cached outcome of running one tuple through a fused σ/π pipeline
/// (`exec`'s `Plan::Fused` interpreter). Deterministic given the input
/// cells, the pipeline identity, and the immutable document store, so it
/// can be replayed for every identical tuple across rules, iterations,
/// and simulation probes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TupleOutcome {
    /// Output cells (post-projection when the pipeline ends in π);
    /// `None` when the tuple was dropped by a selection.
    pub cells: Option<Arc<Vec<Cell>>>,
    /// Whether the pipeline's may/must comparisons widened the tuple
    /// (`maybe |= extra_maybe`); meaningless when dropped.
    pub extra_maybe: bool,
    /// The convergence-signal volume this tuple contributes (§ Project's
    /// assignments-produced accounting); 0 when dropped.
    pub volume: u64,
}

fn tuple_hash(ctx: &CellCtx, cells: &[Cell]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(ctx.hash);
    h.write_usize(cells.len());
    for c in cells {
        h.write_u8(u8::from(c.is_expand()));
        for a in c.assignments() {
            a.hash(&mut h);
        }
    }
    h.finish()
}

type Bucket<K, V> = HashMap<u64, Vec<(K, V)>, FxBuild>;

/// The sharded, thread-safe memo table. See the module docs.
///
/// Two levels share the hit/miss counters:
/// * **cell level** — one entry per (cell contents, constraint chain)
///   pair, so a hit skips the whole §4.2 refinement worklist;
/// * **tuple level** — one entry per (tuple cells, fused pipeline) pair,
///   so a hit skips an entire fused σ/π pass of two or more steps
///   (DESIGN.md §11).
///
/// Entries live in per-shard buckets keyed by a precomputed 64-bit hash;
/// collisions fall back to exact key comparison, so a hit is always a
/// true hit.
#[derive(Debug)]
pub struct FeatureMemo {
    cells: Vec<Mutex<Bucket<CellKey, Cell>>>,
    tuples: Vec<Mutex<Bucket<TupleKey, TupleOutcome>>>,
    stats: Mutex<HashMap<String, FeatStats>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for FeatureMemo {
    fn default() -> Self {
        FeatureMemo {
            cells: (0..SHARDS).map(|_| Mutex::new(HashMap::default())).collect(),
            tuples: (0..SHARDS).map(|_| Mutex::new(HashMap::default())).collect(),
            stats: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

impl FeatureMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up a whole-cell constraint application, counting the hit or
    /// miss. Returns the hash for the paired insert.
    pub(crate) fn get_cell(&self, ctx: &CellCtx, cell: &Cell) -> (u64, Option<Cell>) {
        let h = cell_hash(ctx, cell);
        let shard = self.cells[h as usize % SHARDS].lock().unwrap();
        let found = shard
            .get(&h)
            .and_then(|b| b.iter().find(|(k, _)| k.matches(ctx, cell)))
            .map(|(_, v)| v.clone());
        drop(shard);
        self.count(found.is_some());
        (h, found)
    }

    /// Stores the result of applying a constraint chain to one cell.
    pub(crate) fn insert_cell(&self, hash: u64, ctx: &CellCtx, cell: &Cell, out: Cell) {
        let mut shard = self.cells[hash as usize % SHARDS].lock().unwrap();
        let bucket = shard.entry(hash).or_default();
        if !bucket.iter().any(|(k, _)| k.matches(ctx, cell)) {
            bucket.push((
                CellKey {
                    ctx: Arc::clone(&ctx.text),
                    assigns: cell.assignments().to_vec(),
                    expand: cell.is_expand(),
                },
                out,
            ));
        }
    }

    /// Looks up a fused-pipeline outcome for one tuple, counting the hit
    /// or miss. Returns the hash for the paired insert.
    pub(crate) fn get_tuple(&self, ctx: &CellCtx, cells: &[Cell]) -> (u64, Option<TupleOutcome>) {
        let h = tuple_hash(ctx, cells);
        let shard = self.tuples[h as usize % SHARDS].lock().unwrap();
        let found = shard
            .get(&h)
            .and_then(|b| b.iter().find(|(k, _)| k.matches(ctx, cells)))
            .map(|(_, v)| v.clone());
        drop(shard);
        self.count(found.is_some());
        (h, found)
    }

    /// Stores the outcome of running one tuple through a fused pipeline.
    pub(crate) fn insert_tuple(&self, hash: u64, ctx: &CellCtx, cells: &[Cell], out: TupleOutcome) {
        let mut shard = self.tuples[hash as usize % SHARDS].lock().unwrap();
        let bucket = shard.entry(hash).or_default();
        if !bucket.iter().any(|(k, _)| k.matches(ctx, cells)) {
            bucket.push((
                TupleKey {
                    ctx: Arc::clone(&ctx.text),
                    cells: cells.to_vec(),
                },
                out,
            ));
        }
    }

    /// Records one `Verify` invocation (miss path only — hits never call
    /// the feature, so they carry no new selectivity signal).
    pub(crate) fn note_verify(&self, feature: &str, passed: bool) {
        let mut stats = self.stats.lock().unwrap();
        let s = stats.entry(feature.to_string()).or_default();
        s.verify_calls += 1;
        s.verify_true += u64::from(passed);
    }

    /// Records one `Refine` invocation and how many assignments it
    /// produced (miss path only).
    pub(crate) fn note_refine(&self, feature: &str, out_len: usize) {
        let mut stats = self.stats.lock().unwrap();
        let s = stats.entry(feature.to_string()).or_default();
        s.refine_calls += 1;
        s.refine_out = s.refine_out.saturating_add(out_len as u64);
    }

    /// A snapshot of per-feature call statistics, for the optimizer's
    /// selectivity model. Cheap: the stats map has one entry per feature
    /// name, not per call.
    pub(crate) fn feature_stats(&self) -> HashMap<String, FeatStats> {
        self.stats.lock().unwrap().clone()
    }

    /// Drops every entry (feature registry changed).
    pub fn clear(&self) {
        for s in &self.cells {
            s.lock().unwrap().clear();
        }
        for s in &self.tuples {
            s.lock().unwrap().clear();
        }
        self.stats.lock().unwrap().clear();
    }

    /// Total entries across shards (all levels).
    pub fn len(&self) -> usize {
        let cells: usize = self
            .cells
            .iter()
            .map(|s| s.lock().unwrap().values().map(Vec::len).sum::<usize>())
            .sum();
        let tuples: usize = self
            .tuples
            .iter()
            .map(|s| s.lock().unwrap().values().map(Vec::len).sum::<usize>())
            .sum();
        cells + tuples
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// One consistent `(hits, misses)` reading. The memo is shared
    /// across runs and snapshot engines, so its counters are lifetime
    /// totals; per-run figures (what `ExecStats` reports and the engine
    /// mirrors into its metrics registry as
    /// `engine.feature_cache_{hits,misses}`) are deltas between two
    /// snapshots taken at run start and end.
    pub fn counters(&self) -> (usize, usize) {
        (self.hits(), self.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::chain_ctx;
    use crate::plan::CompiledConstraint;
    use iflex_ctable::Value;
    use iflex_features::FeatureArg;
    use iflex_text::Span;

    fn span(doc: u32, start: u32, end: u32) -> Span {
        Span {
            doc: iflex_text::DocId(doc),
            start,
            end,
        }
    }

    fn cc(feature: &str, arg: FeatureArg) -> CompiledConstraint {
        CompiledConstraint {
            feature: feature.into(),
            arg,
        }
    }

    fn exact(n: f64) -> Cell {
        Cell::of(vec![Assignment::Exact(Value::Num(n))])
    }

    #[test]
    fn hit_and_miss_counting() {
        let memo = FeatureMemo::new();
        let ctx = chain_ctx(&cc("bold-font", FeatureArg::yes()), &[]);
        let cell = Cell::contain(span(0, 0, 4));
        let (h, found) = memo.get_cell(&ctx, &cell);
        assert!(found.is_none());
        memo.insert_cell(h, &ctx, &cell, exact(1.0));
        let (h2, found) = memo.get_cell(&ctx, &cell);
        assert_eq!(h, h2, "cell hash is stable");
        assert_eq!(found, Some(exact(1.0)));
        assert_eq!(memo.counters(), (1, 1));
    }

    #[test]
    fn num_args_distinguished_by_bits_not_text() {
        let chain = |n: f64| chain_ctx(&cc("min-value", FeatureArg::Num(n)), &[]);
        let (a, b) = (chain(1.0), chain(1.0 + f64::EPSILON));
        let memo = FeatureMemo::new();
        let cell = Cell::contain(span(0, 0, 4));
        let (ha, _) = memo.get_cell(&a, &cell);
        memo.insert_cell(ha, &a, &cell, exact(7.0));
        assert!(memo.get_cell(&b, &cell).1.is_none());
        // an equal chain rendered afresh (no shared `Arc`) still hits
        assert!(memo.get_cell(&chain(1.0), &cell).1.is_some());
    }

    #[test]
    fn clear_empties_every_shard() {
        let memo = FeatureMemo::new();
        let ctx = chain_ctx(&cc("bold-font", FeatureArg::yes()), &[]);
        for i in 0..100 {
            let cell = Cell::contain(span(i, 0, 8));
            let (h, _) = memo.get_cell(&ctx, &cell);
            memo.insert_cell(h, &ctx, &cell, exact(0.0));
        }
        assert_eq!(memo.len(), 100);
        let occupied = memo.cells.iter().filter(|s| !s.lock().unwrap().is_empty());
        assert!(occupied.count() > 1, "entries spread over shards");
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn shared_across_clones_of_the_arc() {
        let memo = Arc::new(FeatureMemo::new());
        let other = Arc::clone(&memo);
        let ctx = chain_ctx(&cc("f", FeatureArg::no()), &[]);
        let cell = exact(3.0);
        let (h, _) = memo.get_cell(&ctx, &cell);
        memo.insert_cell(h, &ctx, &cell, cell.clone());
        assert_eq!(other.len(), 1);
        assert!(other.get_cell(&ctx, &cell).1.is_some());
    }

    #[test]
    fn tuple_cache_round_trips_and_distinguishes_pipelines() {
        let memo = FeatureMemo::new();
        let ctx = CellCtx::new("numeric\u{1}|π[0]".into());
        let cells = vec![Cell::contain(span(0, 0, 12)), Cell::contain(span(0, 4, 8))];
        let out = TupleOutcome {
            cells: Some(Arc::new(vec![Cell::of(vec![Assignment::Exact(Value::Num(7.0))])])),
            extra_maybe: true,
            volume: 3,
        };
        let (h, found) = memo.get_tuple(&ctx, &cells);
        assert!(found.is_none());
        memo.insert_tuple(h, &ctx, &cells, out.clone());
        assert_eq!(memo.get_tuple(&ctx, &cells).1, Some(out));
        // dropped tuples cache too
        let other_ctx = CellCtx::new("bold-font\u{1}".into());
        let (h2, found) = memo.get_tuple(&other_ctx, &cells);
        assert!(found.is_none());
        memo.insert_tuple(
            h2,
            &other_ctx,
            &cells,
            TupleOutcome {
                cells: None,
                extra_maybe: false,
                volume: 0,
            },
        );
        let hit = memo.get_tuple(&other_ctx, &cells).1.unwrap();
        assert!(hit.cells.is_none());
        memo.clear();
        assert!(memo.get_tuple(&ctx, &cells).1.is_none());
    }

    #[test]
    fn feature_stats_accumulate_and_rate() {
        let memo = FeatureMemo::new();
        for i in 0..10 {
            memo.note_verify("picky", i == 0);
        }
        for _ in 0..10 {
            memo.note_verify("lenient", true);
        }
        memo.note_refine("picky", 0);
        let stats = memo.feature_stats();
        let picky = stats["picky"];
        assert_eq!(picky.verify_calls, 10);
        assert_eq!(picky.verify_true, 1);
        assert!(picky.pass_rate().unwrap() < 0.2);
        assert!(stats["lenient"].pass_rate().unwrap() > 0.9);
        // too few observations → no estimate
        memo.note_verify("rare", true);
        assert!(memo.feature_stats()["rare"].pass_rate().is_none());
    }

    #[test]
    fn cell_cache_round_trips_exact_contents() {
        let memo = FeatureMemo::new();
        let ctx = CellCtx::new("numeric\u{1}tri:yes".into());
        let cell = Cell::contain(span(0, 0, 12));
        let out = Cell::of(vec![Assignment::Exact(Value::Num(7.0))]);
        let (h, found) = memo.get_cell(&ctx, &cell);
        assert!(found.is_none());
        memo.insert_cell(h, &ctx, &cell, out.clone());
        assert_eq!(memo.get_cell(&ctx, &cell).1, Some(out));
        // a different chain (different ctx text) misses
        let other_ctx = CellCtx::new("bold-font\u{1}tri:yes".into());
        assert!(memo.get_cell(&other_ctx, &cell).1.is_none());
        // a different cell misses
        let other_cell = Cell::contain(span(0, 0, 13));
        assert!(memo.get_cell(&ctx, &other_cell).1.is_none());
    }
}
