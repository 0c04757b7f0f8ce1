//! Morsel-driven work-stealing fan-out for per-tuple operators.
//!
//! [`scatter`] runs an index-range closure over `0..n` using a persistent
//! per-run worker pool ([`RunPool`]): instead of cutting the input into
//! one fixed contiguous shard per thread, the section keeps a shared
//! atomic *morsel dispenser*. Every participant (the calling thread plus
//! the pool workers) owns a contiguous segment and claims small ranges —
//! morsels — from its front; a participant whose segment runs dry *steals*
//! morsels from the back of the fullest remaining segment, so fast
//! workers drain slow workers' leftovers instead of idling at the merge
//! barrier.
//!
//! Morsel size is auto-tuned per section: the caller's thread first runs
//! a small calibration morsel, and the measured per-tuple cost sizes the
//! remaining morsels to target [`MORSEL_TARGET_US`] of work each, clamped
//! to the caller's [`MorselCfg`] (`Limits::morsel_tuples`). Cheap tuples
//! get big morsels (low dispatch overhead); expensive tuples get small
//! ones (fine-grained stealing).
//!
//! Determinism: results are folded by morsel *start index*, not by thread
//! — [`MorselRun::merge`] sorts parts by start and concatenates, so a
//! parallel run produces byte-identical output to the serial one. Every
//! claimed morsel runs to completion (or records its error); the merged
//! error is the one with the lowest start index, which is the error a
//! serial scan would have surfaced first.
//!
//! A panicking morsel is contained: its part becomes
//! [`EngineError::RulePanic`], which the rule boundary in `exec.rs` turns
//! into a per-rule degradation rather than an abort. Busy time is
//! recorded around the containment, so a panicked participant still
//! reports the time it burned up to the panic. The run clock is probed at
//! every morsel boundary: once tripped, remaining morsels record the
//! degradation cause without running, draining the dispenser quickly.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use iflex_obs::{SpanId, SpanKind, Tracer};

use crate::budget::RunClock;
use crate::exec::{injected, panic_message, EngineError};
use crate::fault::{site, FaultPlan};

/// Target wall-clock per morsel, in microseconds. Auto-tuning aims every
/// dispensed range at roughly this much work so dispatch overhead stays
/// ≤ ~0.1% while stealing granularity stays interactive.
pub const MORSEL_TARGET_US: u64 = 1_000;

/// Morsel-size clamp, in tuples (`Limits::morsel_tuples`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselCfg {
    /// Smallest range the dispenser hands out; also the calibration size.
    pub min: usize,
    /// Largest range the dispenser hands out, however cheap a tuple is.
    pub max: usize,
}

impl Default for MorselCfg {
    fn default() -> Self {
        MorselCfg {
            min: 16,
            max: 65_536,
        }
    }
}

impl MorselCfg {
    fn normalized(self) -> MorselCfg {
        let min = self.min.max(1);
        MorselCfg {
            min,
            max: self.max.max(min),
        }
    }
}

/// A shared parallel section job: takes the participant index.
type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// The job board workers watch: a sequence number bumps on every new
/// section, so each worker runs each job at most once.
struct Board {
    seq: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct PoolShared {
    board: Mutex<Board>,
    bell: Condvar,
}

struct PoolCore {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

/// Locks a mutex, surviving poisoning: the executor's own bookkeeping
/// never leaves shared state half-updated (panics are contained per
/// morsel), so a poisoned lock just means some unrelated morsel panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The per-run worker pool: spawned lazily on the first parallel-worthy
/// section of a run, reused by every later section, joined on drop at the
/// end of the run. Engine runs that never meet a parallel-worthy operator
/// never spawn a thread.
pub struct RunPool {
    workers: usize,
    core: OnceLock<PoolCore>,
}

impl RunPool {
    /// A pool for `threads`-way sections: the calling thread participates,
    /// so `threads - 1` workers back it.
    pub fn new(threads: usize) -> Self {
        RunPool {
            workers: threads.max(1) - 1,
            core: OnceLock::new(),
        }
    }

    /// Spawns the workers on first use. `None` when this pool cannot make
    /// a section parallel (single-threaded, or every spawn failed —
    /// spawn failures degrade to fewer workers, never to an error).
    fn engage(&self) -> Option<&PoolCore> {
        if self.workers == 0 {
            return None;
        }
        let core = self.core.get_or_init(|| {
            let shared = Arc::new(PoolShared {
                board: Mutex::new(Board {
                    seq: 0,
                    job: None,
                    shutdown: false,
                }),
                bell: Condvar::new(),
            });
            let handles = (1..=self.workers)
                .filter_map(|p| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("iflex-par-{p}"))
                        .spawn(move || worker_loop(&shared, p))
                        .ok()
                })
                .collect();
            PoolCore { shared, handles }
        });
        if core.handles.is_empty() {
            None
        } else {
            Some(core)
        }
    }
}

impl Drop for RunPool {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            {
                let mut board = lock(&core.shared.board);
                board.shutdown = true;
                board.job = None;
            }
            core.shared.bell.notify_all();
            for h in core.handles {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared, p: usize) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut board = lock(&shared.board);
            loop {
                if board.shutdown {
                    return;
                }
                if board.seq != last_seq {
                    break;
                }
                board = shared.bell.wait(board).unwrap_or_else(|e| e.into_inner());
            }
            last_seq = board.seq;
            board.job.clone()
        };
        if let Some(job) = job {
            job(p);
        }
    }
}

/// Everything a parallel section needs from the engine. Owned handles
/// (not borrows), because pool workers outlive any one operator's stack
/// frame.
pub struct SectionCtx<'a> {
    /// The run's pool; `None` forces the serial path.
    pub pool: Option<&'a RunPool>,
    /// Morsel-size clamp (`Limits::morsel_tuples`).
    pub cfg: MorselCfg,
    /// Probed at every morsel boundary; once tripped, remaining morsels
    /// record the degradation cause without running.
    pub clock: Option<Arc<RunClock>>,
    /// Fault plan for the `engine.par_steal` site, probed when a stolen
    /// morsel starts.
    pub fault: Option<FaultPlan>,
    /// Enabled-tracer context: each morsel records a `morsel<start>` span
    /// under this parent, closed by a drop guard.
    pub trace: Option<(Tracer, SpanId)>,
}

impl<'a> SectionCtx<'a> {
    /// A bare context (production uses `Engine::section_ctx`).
    #[cfg(test)]
    pub fn new(pool: Option<&'a RunPool>, cfg: MorselCfg) -> Self {
        SectionCtx {
            pool,
            cfg,
            clock: None,
            fault: None,
            trace: None,
        }
    }
}

/// Per-section scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SectionStats {
    /// Per-participant busy wall-clock, in microseconds. A panicked
    /// participant still reports time burned up to the panic.
    pub busy_micros: Vec<u64>,
    /// Whether pool workers could have participated (false for the serial
    /// fallback on small inputs, missing pool, or when calibration left
    /// less than one morsel of work).
    pub went_parallel: bool,
    /// Ranges dispensed, including the calibration morsel.
    pub morsels: u64,
    /// Morsels taken from another participant's segment.
    pub steals: u64,
    /// Wall-clock spent claiming/stealing ranges, in microseconds.
    pub dispense_us: u64,
}

/// The outcome of one [`scatter`] call: parts keyed by morsel start
/// index, already sorted.
pub struct MorselRun<R> {
    /// `(start_index, result)` per morsel, in start-index order.
    pub parts: Vec<(usize, Result<Vec<R>, EngineError>)>,
    /// Scheduler statistics for this section.
    pub stats: SectionStats,
}

impl<R> MorselRun<R> {
    /// Concatenates morsel outputs in index order, surfacing the error
    /// with the lowest start index — the same error a serial scan would
    /// return first.
    pub fn merge(self) -> Result<Vec<R>, EngineError> {
        let mut out = Vec::new();
        for (_, part) in self.parts {
            out.extend(part?);
        }
        Ok(out)
    }
}

/// Packs a segment's `(cursor, end)` into one CAS-able word. Index-range
/// counts fit u32 by a wide margin (`Limits::max_result_tuples` caps
/// materialization in the low millions).
fn pack(cursor: u32, end: u32) -> u64 {
    (u64::from(cursor) << 32) | u64::from(end)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Panic-safe morsel span: begun when the morsel starts, ended on drop so
/// the journal stays well-nested even when the morsel panics and unwinds.
struct MorselSpan<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    start_idx: u64,
    len: u64,
    stolen: bool,
    t0: Instant,
}

impl<'a> MorselSpan<'a> {
    fn begin(
        trace: Option<&'a (Tracer, SpanId)>,
        range: &Range<usize>,
        stolen: bool,
    ) -> Option<Self> {
        trace.map(|(tracer, parent)| MorselSpan {
            id: tracer.begin(*parent, SpanKind::Morsel, &format!("morsel{}", range.start)),
            tracer,
            start_idx: range.start as u64,
            len: range.len() as u64,
            stolen,
            t0: Instant::now(),
        })
    }
}

impl Drop for MorselSpan<'_> {
    fn drop(&mut self) {
        self.tracer.end_with(
            self.id,
            &[
                ("start", self.start_idx),
                ("len", self.len),
                ("stolen", u64::from(self.stolen)),
                ("busy_us", self.t0.elapsed().as_micros() as u64),
            ],
        );
    }
}

/// A morsel body: the caller's per-range closure, boxed for the section.
type MorselFn<R> = Box<dyn Fn(Range<usize>) -> Result<Vec<R>, EngineError> + Send + Sync>;
/// The fold buffer: completed morsels as `(start index, result)` parts.
type Parts<R> = Vec<(usize, Result<Vec<R>, EngineError>)>;

/// One live parallel section: the dispenser, the fold buffer, and the
/// engine handles every participant shares.
struct Section<R> {
    run: MorselFn<R>,
    /// Per-participant packed `(cursor << 32) | end` segments. Owners
    /// claim from the front, thieves from the back; one CAS word per
    /// segment serializes both.
    segs: Vec<AtomicU64>,
    morsel: u32,
    /// Items not yet completed; the participant that drives it to zero
    /// rings the bell.
    pending: AtomicUsize,
    parts: Mutex<Parts<R>>,
    busy_us: Vec<AtomicU64>,
    dispense_ns: AtomicU64,
    morsels: AtomicU64,
    steals: AtomicU64,
    done: Mutex<bool>,
    bell: Condvar,
    clock: Option<Arc<RunClock>>,
    fault: Option<FaultPlan>,
    trace: Option<(Tracer, SpanId)>,
}

impl<R: Send> Section<R> {
    /// Participant `p`'s drain loop: claim own morsels from the front,
    /// then steal from the fullest other segment until nothing is left.
    fn work(&self, p: usize) {
        loop {
            let t0 = Instant::now();
            let claim = self.claim(p);
            self.dispense_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let Some((range, stolen)) = claim else { return };
            self.run_morsel(p, range, stolen);
        }
    }

    fn claim(&self, p: usize) -> Option<(Range<usize>, bool)> {
        if let Some(r) = self.claim_front(p) {
            return Some((r, false));
        }
        loop {
            let victim = self
                .segs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != p)
                .map(|(i, s)| {
                    let (c, e) = unpack(s.load(Ordering::Acquire));
                    (e.saturating_sub(c), i)
                })
                .max()?;
            let (remaining, v) = victim;
            if remaining == 0 {
                return None;
            }
            // Lost races rescan: another thief may have drained the victim.
            if let Some(r) = self.claim_back(v) {
                return Some((r, true));
            }
        }
    }

    fn claim_front(&self, p: usize) -> Option<Range<usize>> {
        let seg = &self.segs[p];
        let mut cur = seg.load(Ordering::Acquire);
        loop {
            let (c, e) = unpack(cur);
            if c >= e {
                return None;
            }
            let step = self.morsel.min(e - c);
            match seg.compare_exchange_weak(
                cur,
                pack(c + step, e),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(c as usize..(c + step) as usize),
                Err(v) => cur = v,
            }
        }
    }

    fn claim_back(&self, v: usize) -> Option<Range<usize>> {
        let seg = &self.segs[v];
        let mut cur = seg.load(Ordering::Acquire);
        loop {
            let (c, e) = unpack(cur);
            if c >= e {
                return None;
            }
            let step = self.morsel.min(e - c);
            let ne = e - step;
            match seg.compare_exchange_weak(cur, pack(c, ne), Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(ne as usize..e as usize),
                Err(x) => cur = x,
            }
        }
    }

    fn run_morsel(&self, p: usize, range: Range<usize>, stolen: bool) {
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _span = MorselSpan::begin(self.trace.as_ref(), &range, stolen);
            if stolen {
                if let Some(plan) = &self.fault {
                    if let Some(f) = plan.hit(site::PAR_STEAL) {
                        return Err(injected(f));
                    }
                }
            }
            if let Some(clock) = &self.clock {
                clock.check().map_err(EngineError::from)?;
            }
            (self.run)(range.clone())
        }));
        let result =
            result.unwrap_or_else(|e| Err(EngineError::RulePanic(panic_message(e.as_ref()))));
        // Recorded outside the containment, so a panicked morsel still
        // contributes its time-to-panic to the imbalance metrics.
        self.busy_us[p].fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.morsels.fetch_add(1, Ordering::Relaxed);
        lock(&self.parts).push((range.start, result));
        let n = range.len();
        if self.pending.fetch_sub(n, Ordering::AcqRel) == n {
            *lock(&self.done) = true;
            self.bell.notify_all();
        }
    }
}

/// Runs `run` over `0..n` serially as a single part (one morsel span, no
/// containment — a panic propagates to the rule boundary exactly like
/// pre-parallel evaluation).
fn run_serial<R: Send>(
    ctx: &SectionCtx<'_>,
    n: usize,
    run: impl Fn(Range<usize>) -> Result<Vec<R>, EngineError>,
) -> MorselRun<R> {
    let t0 = Instant::now();
    let result = {
        let _span = MorselSpan::begin(ctx.trace.as_ref(), &(0..n), false);
        run(0..n)
    };
    MorselRun {
        parts: vec![(0, result)],
        stats: SectionStats {
            busy_micros: vec![t0.elapsed().as_micros() as u64],
            went_parallel: false,
            morsels: 1,
            steals: 0,
            dispense_us: 0,
        },
    }
}

/// Runs `run` over index ranges covering `0..n`, morsel-driven with work
/// stealing when the section's pool has workers and the input is big
/// enough to pay for them; serially otherwise.
///
/// The closure must be a *pure per-index map*: `run(a..b)` followed by
/// `run(b..c)` concatenated must equal `run(a..c)`. All operator call
/// sites satisfy this (per-tuple transforms over immutable snapshots).
pub fn scatter<R: Send + 'static>(
    ctx: &SectionCtx<'_>,
    n: usize,
    run: impl Fn(Range<usize>) -> Result<Vec<R>, EngineError> + Send + Sync + 'static,
) -> MorselRun<R> {
    debug_assert!(n < u32::MAX as usize, "index ranges are packed into u32");
    let cfg = ctx.cfg.normalized();
    let core = match ctx.pool {
        Some(pool) if n > 2 * cfg.min => match pool.engage() {
            Some(core) => core,
            None => return run_serial(ctx, n, run),
        },
        _ => return run_serial(ctx, n, run),
    };

    // Calibration: the caller's thread runs the first `cfg.min` items and
    // the measured cost sizes every later morsel to ~MORSEL_TARGET_US.
    let calib = cfg.min.min(n);
    let t0 = Instant::now();
    let calib_result = {
        let _span = MorselSpan::begin(ctx.trace.as_ref(), &(0..calib), false);
        run(0..calib)
    };
    let calib_elapsed = t0.elapsed().as_micros() as u64;
    let per_morsel = (calib as u64 * MORSEL_TARGET_US) / calib_elapsed.max(1);
    let morsel = per_morsel.clamp(cfg.min as u64, cfg.max as u64) as u32;

    let rest = n - calib;
    if rest <= morsel as usize {
        // Less than one morsel left: cheaper to finish on this thread than
        // to wake the pool.
        let t1 = Instant::now();
        let rest_result = {
            let _span = MorselSpan::begin(ctx.trace.as_ref(), &(calib..n), false);
            run(calib..n)
        };
        return MorselRun {
            parts: vec![(0, calib_result), (calib, rest_result)],
            stats: SectionStats {
                busy_micros: vec![calib_elapsed + t1.elapsed().as_micros() as u64],
                went_parallel: false,
                morsels: 2,
                steals: 0,
                dispense_us: 0,
            },
        };
    }

    // Segment the remainder evenly over the participants (this thread is
    // participant 0); the dispenser and stealing erase any imbalance.
    let p_total = core.handles.len() + 1;
    let seg_len = rest.div_ceil(p_total);
    let segs: Vec<AtomicU64> = (0..p_total)
        .map(|i| {
            let s = (calib + i * seg_len).min(n);
            let e = (s + seg_len).min(n);
            AtomicU64::new(pack(s as u32, e as u32))
        })
        .collect();
    let section = Arc::new(Section {
        run: Box::new(run),
        segs,
        morsel,
        pending: AtomicUsize::new(rest),
        parts: Mutex::new(vec![(0, calib_result)]),
        busy_us: (0..p_total).map(|_| AtomicU64::new(0)).collect(),
        dispense_ns: AtomicU64::new(0),
        morsels: AtomicU64::new(1),
        steals: AtomicU64::new(0),
        done: Mutex::new(false),
        bell: Condvar::new(),
        clock: ctx.clock.clone(),
        fault: ctx.fault.clone(),
        trace: ctx.trace.clone(),
    });
    section.busy_us[0].store(calib_elapsed, Ordering::Relaxed);

    let job: Job = {
        let s = Arc::clone(&section);
        Arc::new(move |p| s.work(p))
    };
    {
        let mut board = lock(&core.shared.board);
        board.seq += 1;
        board.job = Some(job);
    }
    core.shared.bell.notify_all();

    section.work(0);
    {
        let mut done = lock(&section.done);
        while !*done {
            done = section.bell.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
    // Unpin the section from the board so it drops with the run, not at
    // the next section.
    lock(&core.shared.board).job = None;

    let mut parts = std::mem::take(&mut *lock(&section.parts));
    parts.sort_by_key(|&(start, _)| start);
    let stats = SectionStats {
        busy_micros: section
            .busy_us
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        went_parallel: true,
        morsels: section.morsels.load(Ordering::Relaxed),
        steals: section.steals.load(Ordering::Relaxed),
        dispense_us: section.dispense_ns.load(Ordering::Relaxed) / 1_000,
    };
    MorselRun { parts, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, Trigger};
    use std::time::Duration;

    fn tiny() -> MorselCfg {
        MorselCfg { min: 2, max: 4 }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let run = |items: Vec<u64>| {
            move |r: Range<usize>| Ok(items[r].iter().map(|x| x * 3 + 1).collect())
        };
        let serial = scatter(
            &SectionCtx::new(None, tiny()),
            items.len(),
            run(items.clone()),
        )
        .merge()
        .unwrap();
        for threads in [2, 3, 8] {
            let pool = RunPool::new(threads);
            let ctx = SectionCtx::new(Some(&pool), MorselCfg { min: 8, max: 64 });
            let par = scatter(&ctx, items.len(), run(items.clone()));
            assert!(par.stats.went_parallel);
            assert!(par.stats.morsels > 1);
            assert_eq!(par.merge().unwrap(), serial);
        }
    }

    #[test]
    fn small_inputs_stay_serial() {
        let pool = RunPool::new(8);
        let ctx = SectionCtx::new(Some(&pool), MorselCfg::default());
        let out = scatter(&ctx, 3, |r: Range<usize>| Ok(r.collect::<Vec<_>>()));
        assert!(!out.stats.went_parallel);
        assert_eq!(out.parts.len(), 1);
        assert_eq!(out.merge().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn first_error_in_index_order_wins() {
        let pool = RunPool::new(4);
        let ctx = SectionCtx::new(Some(&pool), tiny());
        let run = |r: Range<usize>| -> Result<Vec<usize>, EngineError> {
            // Every morsel errors, naming its first item; the merged error
            // must be the lowest-index one.
            Err(EngineError::TooLarge(format!("item {}", r.start)))
        };
        match scatter(&ctx, 64, run).merge() {
            Err(EngineError::TooLarge(msg)) => assert_eq!(msg, "item 0"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn worker_panic_becomes_rule_panic() {
        let pool = RunPool::new(4);
        let ctx = SectionCtx::new(Some(&pool), tiny());
        let out = scatter(&ctx, 64, |r: Range<usize>| {
            if r.contains(&63) {
                panic!("worker exploded");
            }
            Ok(r.collect::<Vec<_>>())
        });
        assert!(out.stats.went_parallel);
        // Satellite: the panicking participant still reports busy time.
        assert!(out.stats.busy_micros.iter().any(|&us| us > 0));
        match out.merge() {
            Err(EngineError::RulePanic(msg)) => assert!(msg.contains("worker exploded")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// Forces a steal deterministically: participant 0's segment is free,
    /// the workers' segments sleep per item, so the caller drains its own
    /// segment and then must steal from a sleeping victim's back.
    fn stealing_section(n: usize, fault: Option<FaultPlan>) -> MorselRun<usize> {
        let pool = RunPool::new(2);
        let mut ctx = SectionCtx::new(Some(&pool), MorselCfg { min: 2, max: 2 });
        ctx.fault = fault;
        scatter(&ctx, n, move |r: Range<usize>| {
            // The second half (the worker's segment) is slow.
            if r.start >= n / 2 {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(r.collect::<Vec<_>>())
        })
    }

    #[test]
    fn fast_participant_steals_from_slow_victim() {
        let out = stealing_section(16, None);
        assert!(out.stats.went_parallel);
        assert!(out.stats.steals > 0, "caller must steal from the sleeper");
        assert_eq!(out.merge().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn panic_mid_steal_is_contained_with_busy_time() {
        let plan = FaultPlan::disarmed();
        plan.arm(
            site::PAR_STEAL,
            Trigger::Nth(0),
            Fault::Panic("mid-steal".into()),
            0,
        );
        let out = stealing_section(16, Some(plan.clone()));
        assert!(out.stats.went_parallel);
        assert!(out.stats.steals > 0);
        assert_eq!(plan.fired_count(site::PAR_STEAL), 1);
        // Satellite: the participant that panicked mid-steal (the caller,
        // participant 0 — its segment is the fast half) still reports the
        // busy time it burned up to the panic.
        assert!(out.stats.busy_micros[0] > 0);
        match out.merge() {
            Err(EngineError::RulePanic(msg)) => assert!(msg.contains("mid-steal")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn tripped_clock_drains_remaining_morsels() {
        let budget = crate::budget::RunBudget::with_deadline(Duration::from_millis(0));
        let clock = Arc::new(budget.start());
        std::thread::sleep(Duration::from_millis(2));
        let pool = RunPool::new(2);
        let mut ctx = SectionCtx::new(Some(&pool), tiny());
        ctx.clock = Some(clock);
        let out = scatter(&ctx, 64, |r: Range<usize>| Ok(r.collect::<Vec<_>>()));
        match out.merge() {
            // Calibration runs before the first boundary check, so the
            // surfaced error is the deadline from the first real morsel.
            Err(EngineError::Deadline) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
