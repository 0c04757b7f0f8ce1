//! Lock-cheap sliding-window aggregators.
//!
//! A [`Window`] is a ring of fixed-width time buckets (250 ms × 256 ≈ 64 s
//! of coverage) over which rate / mean / max can be read for the trailing
//! 1 s, 10 s, and 60 s. Writers never take a lock: a bucket is claimed for
//! the current time slice with one compare-and-swap on its sequence tag
//! (lazy reset — stale buckets are re-zeroed by the first writer of the new
//! slice), and observations land as relaxed atomic adds. Readers sum the
//! buckets whose tag falls inside the requested horizon.
//!
//! Windows are grouped in a [`LiveSet`] — a named registry sharing one
//! enabled flag, fixed at birth, so an entire telemetry surface records
//! or not together and the **disabled path is a single relaxed atomic
//! load** per call (the same contract the trace journal makes).
//!
//! The lazy-reset scheme trades a sliver of precision for lock freedom: a
//! reader racing the first writer of a fresh slice can observe a bucket
//! mid-reset. Telemetry consumers tolerate that; invariants never hang off
//! these numbers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::quantile::QuantileSketch;

/// Width of one ring bucket in milliseconds.
pub const BUCKET_MS: u64 = 250;
/// Number of buckets in the ring (256 × 250 ms = 64 s of history, enough
/// to answer a trailing-60 s query plus the current partial slice).
pub const BUCKETS: usize = 256;

/// Sequence tag meaning "never written".
const EMPTY: u64 = u64::MAX;

/// One time-slice accumulator.
#[derive(Debug)]
struct Bucket {
    /// The slice index this bucket currently holds (`EMPTY` = unused).
    seq: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            seq: AtomicU64::new(EMPTY),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct WindowInner {
    enabled: Arc<AtomicBool>,
    epoch: Instant,
    buckets: Vec<Bucket>,
}

/// A cheap cloneable handle to one sliding-window aggregator.
#[derive(Debug, Clone)]
pub struct Window {
    inner: Arc<WindowInner>,
}

/// Aggregates over one trailing horizon of a [`Window`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Horizon length in seconds.
    pub secs: u64,
    /// Observations inside the horizon.
    pub count: u64,
    /// Sum of observed values inside the horizon.
    pub sum: u64,
    /// Largest observed value inside the horizon (0 when empty).
    pub max: u64,
}

impl WindowStats {
    /// Observations per second over the horizon.
    pub fn rate(&self) -> f64 {
        if self.secs == 0 {
            0.0
        } else {
            self.count as f64 / self.secs as f64
        }
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Window {
    /// A standalone always-enabled window (tests, offline replay).
    pub fn new() -> Window {
        Window::with_flag(Arc::new(AtomicBool::new(true)), Instant::now())
    }

    /// A window sharing an external enabled flag and epoch — how
    /// [`LiveSet`] builds its members.
    pub fn with_flag(enabled: Arc<AtomicBool>, epoch: Instant) -> Window {
        Window {
            inner: Arc::new(WindowInner {
                enabled,
                epoch,
                buckets: (0..BUCKETS).map(|_| Bucket::new()).collect(),
            }),
        }
    }

    /// Whether observations are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Records one observation of value `v` at the current time. Disabled
    /// windows return after a single relaxed load.
    pub fn observe(&self, v: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.record_at(self.now_us(), 1, v, v);
    }

    /// Records `n` unit events (count += n, sum += n) — the shape used for
    /// event-rate windows (requests, degradations, cache hits).
    pub fn add_count(&self, n: u64) {
        if n == 0 || !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.record_at(self.now_us(), n, n, 1);
    }

    /// Test / replay entry point: records at an explicit microsecond
    /// timestamp relative to the window's epoch, bypassing the enabled
    /// flag (offline replays always want the data).
    pub fn observe_at(&self, t_us: u64, v: u64) {
        self.record_at(t_us, 1, v, v);
    }

    fn record_at(&self, t_us: u64, count: u64, sum: u64, max: u64) {
        let seq = t_us / (BUCKET_MS * 1000);
        let b = &self.inner.buckets[(seq % BUCKETS as u64) as usize];
        let cur = b.seq.load(Ordering::Acquire);
        if cur != seq {
            // A bucket never travels backwards: an out-of-order write for
            // a slice older than the one the bucket holds is dropped (it
            // would be outside every horizon that still sees the bucket).
            if cur != EMPTY && cur > seq {
                return;
            }
            // First writer of this slice claims the bucket and lazily
            // zeroes the stale contents. Losing the CAS means another
            // writer already did (or is doing) the reset.
            if b
                .seq
                .compare_exchange(cur, seq, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                b.count.store(0, Ordering::Relaxed);
                b.sum.store(0, Ordering::Relaxed);
                b.max.store(0, Ordering::Relaxed);
            }
        }
        b.count.fetch_add(count, Ordering::Relaxed);
        b.sum.fetch_add(sum, Ordering::Relaxed);
        b.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Aggregates over the trailing `secs` seconds ending now.
    pub fn stats(&self, secs: u64) -> WindowStats {
        self.stats_at(self.now_us(), secs)
    }

    /// [`Window::stats`] against an explicit "now" (tests, replay).
    pub fn stats_at(&self, now_us: u64, secs: u64) -> WindowStats {
        let cur_seq = now_us / (BUCKET_MS * 1000);
        // Number of slices covering the horizon, capped so the query never
        // wraps past its own tail (ring covers 64 s; 60 s is the widest
        // supported horizon).
        let slices = (secs * 1000 / BUCKET_MS).min(BUCKETS as u64 - 8).max(1);
        let oldest = cur_seq.saturating_sub(slices - 1);
        let mut out = WindowStats {
            secs,
            count: 0,
            sum: 0,
            max: 0,
        };
        for b in &self.inner.buckets {
            let seq = b.seq.load(Ordering::Acquire);
            if seq == EMPTY || seq < oldest || seq > cur_seq {
                continue;
            }
            out.count += b.count.load(Ordering::Relaxed);
            out.sum += b.sum.load(Ordering::Relaxed);
            out.max = out.max.max(b.max.load(Ordering::Relaxed));
        }
        out
    }

    /// The standard trailing horizons (1 s / 10 s / 60 s) in one call.
    pub fn horizons(&self) -> [WindowStats; 3] {
        let now = self.now_us();
        [
            self.stats_at(now, 1),
            self.stats_at(now, 10),
            self.stats_at(now, 60),
        ]
    }
}

impl Default for Window {
    fn default() -> Self {
        Window::new()
    }
}

#[derive(Debug)]
struct LiveSetInner {
    enabled: Arc<AtomicBool>,
    epoch: Instant,
    windows: RwLock<std::collections::BTreeMap<String, Window>>,
    sketches: RwLock<std::collections::BTreeMap<String, QuantileSketch>>,
    shard_busy: Mutex<Vec<Window>>,
}

/// A named collection of [`Window`]s and [`QuantileSketch`]es sharing one
/// enabled flag — the per-session (or per-host) live-telemetry surface.
///
/// Handles returned by [`LiveSet::window`] / [`LiveSet::sketch`] stay
/// valid forever and share the set's flag, so a consumer can cache them.
#[derive(Debug, Clone)]
pub struct LiveSet {
    inner: Arc<LiveSetInner>,
}

impl LiveSet {
    /// A live set recording from birth.
    pub fn enabled() -> LiveSet {
        LiveSet::with_enabled(true)
    }

    /// A live set that drops every observation after one relaxed load —
    /// the default wired into engines outside a service.
    pub fn disabled() -> LiveSet {
        LiveSet::with_enabled(false)
    }

    fn with_enabled(on: bool) -> LiveSet {
        LiveSet {
            inner: Arc::new(LiveSetInner {
                enabled: Arc::new(AtomicBool::new(on)),
                epoch: Instant::now(),
                windows: RwLock::new(std::collections::BTreeMap::new()),
                sketches: RwLock::new(std::collections::BTreeMap::new()),
                shard_busy: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether members are recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The window named `name`, created on first use. The handle shares
    /// the set's enabled flag and epoch.
    pub fn window(&self, name: &str) -> Window {
        if let Some(w) = self.inner.windows.read().expect("live lock").get(name) {
            return w.clone();
        }
        let mut map = self.inner.windows.write().expect("live lock");
        map.entry(name.to_string())
            .or_insert_with(|| Window::with_flag(self.inner.enabled.clone(), self.inner.epoch))
            .clone()
    }

    /// The quantile sketch named `name`, created on first use with the
    /// default relative accuracy.
    pub fn sketch(&self, name: &str) -> QuantileSketch {
        if let Some(s) = self.inner.sketches.read().expect("live lock").get(name) {
            return s.clone();
        }
        let mut map = self.inner.sketches.write().expect("live lock");
        map.entry(name.to_string())
            .or_insert_with(|| QuantileSketch::with_flag(self.inner.enabled.clone()))
            .clone()
    }

    /// The per-shard busy-time window for shard `i`, grown on demand —
    /// the windowed companion of the `engine.shard_busy_us.<i>` counters.
    pub fn shard_busy(&self, i: usize) -> Window {
        let mut v = self.inner.shard_busy.lock().expect("live lock");
        while v.len() <= i {
            v.push(Window::with_flag(self.inner.enabled.clone(), self.inner.epoch));
        }
        v[i].clone()
    }

    /// Snapshot of every named sketch handle (for rendering).
    pub fn sketches(&self) -> Vec<(String, QuantileSketch)> {
        self.inner
            .sketches
            .read()
            .expect("live lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Snapshot of the per-shard busy windows.
    pub fn shard_busy_windows(&self) -> Vec<Window> {
        self.inner.shard_busy.lock().expect("live lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000; // one second in µs

    #[test]
    fn horizons_partition_time() {
        let w = Window::new();
        // 5 events in the last second, 20 more spread over the last 10 s,
        // 30 more in the last minute, 10 ancient.
        let now = 120 * S;
        for i in 0..5 {
            w.observe_at(now - i * 100_000, 10);
        }
        for i in 0..20 {
            w.observe_at(now - S - i * 400_000, 20);
        }
        for i in 0..30 {
            w.observe_at(now - 10 * S - i * S, 30);
        }
        for i in 0..10 {
            w.observe_at(now - 70 * S - i * S, 999);
        }
        let s1 = w.stats_at(now, 1);
        let s10 = w.stats_at(now, 10);
        let s60 = w.stats_at(now, 60);
        assert_eq!(s1.count, 5);
        assert_eq!(s1.max, 10);
        assert_eq!(s10.count, 25);
        assert_eq!(s60.count, 55);
        assert_eq!(s60.max, 30);
        assert!(s60.count >= s10.count && s10.count >= s1.count);
        assert!((s1.rate() - 5.0).abs() < 1e-9);
        assert!((s1.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ring_reclaims_stale_buckets() {
        let w = Window::new();
        w.observe_at(S, 7);
        // Far future: the slice index wraps onto the same bucket position
        // at least once; stale data must not leak into the new horizon.
        let later = S + (BUCKETS as u64) * BUCKET_MS * 1000;
        w.observe_at(later, 3);
        let s = w.stats_at(later, 60);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 3);
    }

    #[test]
    fn add_count_is_unit_events() {
        let w = Window::new();
        w.observe_at(S, 0); // seed the slice
        w.add_count(0); // no-op
        let before = w.stats(60).count;
        w.add_count(4);
        let s = w.stats(60);
        assert_eq!(s.count, before + 4);
    }

    #[test]
    fn disabled_set_drops_everything() {
        let set = LiveSet::disabled();
        let w = set.window("x");
        let q = set.sketch("x");
        w.observe(5);
        q.observe(5);
        assert_eq!(w.stats(60).count, 0);
        assert_eq!(q.count(), 0);
        assert_eq!(set.shard_busy(0).stats(60).count, 0);
    }

    #[test]
    fn live_set_handles_are_shared() {
        let set = LiveSet::enabled();
        let a = set.window("w");
        let b = set.window("w");
        a.observe(1);
        assert_eq!(b.stats(60).count, 1);
        let s0 = set.shard_busy(2);
        s0.observe(9);
        assert_eq!(set.shard_busy_windows().len(), 3);
        assert_eq!(set.shard_busy_windows()[2].stats(60).sum, 9);
    }
}
