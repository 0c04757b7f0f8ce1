//! The metrics registry: named counters and log₂-bucketed histograms.
//!
//! A [`Registry`] is a cheap cloneable handle. Hot paths hold a
//! [`Counter`] or [`Histogram`] handle (one `Arc<Atomic…>` clone) and
//! update it with a relaxed atomic op — the registry's map lock is only
//! taken when a handle is first created or a snapshot is rendered.
//!
//! The engine's `ExecStats` is rebuilt from this registry at the end of
//! every run (see `iflex-engine::exec`), and the whole registry renders
//! into a `BENCH_*`-compatible JSON object via [`Registry::render_json`].

use crate::json_escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Well-known metric names (the engine/session contract; DESIGN.md §8).
/// Each has a reader beyond its writer: `ExecStats`, the service's live
/// telemetry, or the benchmark's registry layer.
pub mod names {
    /// Rules actually (re)computed this run.
    pub const RULES_EVALUATED: &str = "engine.rules_evaluated";
    /// Extensional tuples scanned this run.
    pub const TUPLES_SCANNED: &str = "engine.tuples_scanned";
    /// Possible-value volume across pre-projection extraction results.
    pub const ASSIGNMENTS_PRODUCED: &str = "engine.assignments_produced";
    /// Rules degraded this run.
    pub const DEGRADATIONS: &str = "engine.degradations";
    /// Parallel operator sections that fanned out to worker threads.
    pub const PAR_SECTIONS: &str = "engine.par_sections";
    /// Morsels (index ranges) dispensed by the work-stealing executor,
    /// including each section's calibration morsel.
    pub const PAR_MORSELS: &str = "engine.par.morsels";
    /// Morsels a participant stole from another participant's segment.
    pub const PAR_STEALS: &str = "engine.par.steals";
    /// Wall-clock spent claiming/stealing morsel ranges, in µs.
    pub const PAR_DISPENSE_US: &str = "engine.par.dispense_us";
    /// Incremental-cache lookups served from a prior run (DESIGN.md §9).
    pub const INCR_HITS: &str = "engine.incr.hits";
    /// Incremental-cache lookups that fell through to evaluation.
    pub const INCR_MISSES: &str = "engine.incr.misses";
    /// Incremental-cache entries evicted by its byte budget (DESIGN.md §9).
    pub const INCR_INVALIDATIONS: &str = "engine.incr.invalidations";
    /// Per-shard busy µs counters are `engine.shard_busy_us.<index>`.
    pub const SHARD_BUSY_PREFIX: &str = "engine.shard_busy_us.";
    /// Live run-latency sketch name (µs per engine run) — unlike
    /// the counters above this lives in a `LiveSet` and survives the
    /// per-run registry reset.
    pub const RUN_US: &str = "engine.run_us";
    /// Fused passes in the plans of the rules this run compiled and
    /// evaluated (DESIGN.md §11).
    pub const OPT_FUSED_NODES: &str = "engine.opt.fused_nodes";
}

/// A monotonically increasing (or `set`-overwritten gauge-style) metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value (gauge usage).
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i` counts values with
/// `bit_length(v) == i` (bucket 0 is `v == 0`), so the histogram covers
/// the full `u64` range.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram (count / sum / max / buckets).
#[derive(Debug)]
pub struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A cheap cloneable histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let h = &self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()) as usize;
        h.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time summary.
    pub fn summary(&self) -> HistogramSummary {
        let h = &self.0;
        HistogramSummary {
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        let h = &self.0;
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A rendered histogram: count, sum, max, and the non-empty log₂ buckets
/// as `(bit_length, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty `(bit_length, count)` buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSummary {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// The shared metrics registry handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

/// A point-in-time view of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use. Hold the handle on
    /// hot paths — creation takes the registry's write lock.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().expect("metrics lock").get(name) {
            return c.clone();
        }
        let mut map = self.inner.counters.write().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The counter's current value, `None` if it was never created.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner
            .counters
            .read()
            .expect("metrics lock")
            .get(name)
            .map(Counter::get)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self
            .inner
            .histograms
            .read()
            .expect("metrics lock")
            .get(name)
        {
            return h.clone();
        }
        let mut map = self.inner.histograms.write().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Zeroes every metric (per-run reset). Existing handles stay valid —
    /// they point at the same atomics.
    pub fn reset(&self) {
        for c in self.inner.counters.read().expect("metrics lock").values() {
            c.set(0);
        }
        for h in self
            .inner
            .histograms
            .read()
            .expect("metrics lock")
            .values()
        {
            h.reset();
        }
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// Renders the full registry as a `BENCH_*`-style JSON object.
    pub fn render_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\n  \"counters\": {\n");
        let n = snap.counters.len();
        for (i, (k, v)) in snap.counters.iter().enumerate() {
            out += &format!("    \"{}\": {v}", json_escape(k));
            out += if i + 1 == n { "\n" } else { ",\n" };
        }
        out += "  },\n  \"histograms\": {\n";
        let n = snap.histograms.len();
        for (i, (k, h)) in snap.histograms.iter().enumerate() {
            out += &format!(
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.2}}}",
                json_escape(k),
                h.count,
                h.sum,
                h.max,
                h.mean()
            );
            out += if i + 1 == n { "\n" } else { ",\n" };
        }
        out += "  }\n}\n";
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let r = Registry::new();
        let c = r.counter("engine.tuples_scanned");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(r.counter_value("engine.tuples_scanned"), Some(6));
        assert_eq!(r.counter_value("missing"), None);
        r.reset();
        assert_eq!(c.get(), 0, "handles survive reset");
    }

    #[test]
    fn handles_share_storage() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter_value("x"), Some(5));
        let clone = r.clone();
        clone.counter("x").inc();
        assert_eq!(r.counter_value("x"), Some(6));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let r = Registry::new();
        let h = r.histogram("engine.op.join.us");
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1000 → bucket 10
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
        assert!((s.mean() - 201.2).abs() < 1e-9);
    }

    #[test]
    fn render_json_is_valid_shape() {
        let r = Registry::new();
        r.counter("a.b").add(7);
        r.histogram("h \"q\"").observe(3);
        let json = r.render_json();
        assert!(json.contains("\"a.b\": 7"));
        assert!(json.contains("\\\"q\\\""));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn snapshot_is_stable() {
        let r = Registry::new();
        r.counter("c").add(1);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
    }
}
