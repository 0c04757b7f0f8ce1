//! The multi-session host: one shared [`EngineCore`], many isolated
//! session workers.
//!
//! Every session runs on its own worker thread behind a **bounded** job
//! queue — the bulkhead. Sessions share the immutable document store
//! and the warm incremental rule cache through the core (read-only or
//! pure), while everything isolation-relevant — fault plan, budget,
//! cancel token, clock, metrics — is per fork.
//! A panicking, degrading, or budget-exhausted session is contained to
//! its own worker; siblings keep producing byte-identical results.
//!
//! Resilience policy:
//! - **Admission control**: at most `max_sessions` live sessions; past
//!   the cap `create-session` is rejected with `retry_after_ms`, never
//!   queued.
//! - **Backpressure**: each session's queue holds `QUEUE_DEPTH` (4) jobs;
//!   a full queue rejects with `retry_after_ms` instead of buffering
//!   without bound.
//! - **Watchdog**: a background thread cancels (via the session's
//!   [`CancelToken`]) any run that exceeds `stuck_limit`; the engine
//!   degrades the rest of that run cooperatively.
//! - **Graceful shutdown**: stop admitting, drain queued jobs, publish
//!   each clean session's cache entries back to the core, join workers.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::protocol::{decode, err_response, ok_response, DecodeError, Request};
use iflex_alog::{parse_program, Program};
use iflex_assistant::{add_constraint, attributes, ordered_questions};
use iflex_engine::obs::flight::DEFAULT_FLIGHT_CAP;
use iflex_engine::obs::metrics::names;
use iflex_engine::obs::{Counter, FlightRecorder, LiveSet, QuantileSketch, Registry, Window};
use iflex_engine::{fault, CancelToken, Engine, EngineCore, Fault, FaultPlan, Trigger};
use iflex_features::{FeatureArg, FeatureValue};

/// Bound on retained flight-recorder dumps (oldest evicted first).
const MAX_FLIGHT_DUMPS: usize = 32;

/// Bound of each session's job queue; a full queue rejects (backpressure).
const QUEUE_DEPTH: usize = 4;

/// Backoff hint attached to every retryable rejection (admission cap,
/// full queue, failed spawn, connection cap).
pub(crate) const RETRY_AFTER_MS: u64 = 25;

/// Wall-clock deadline applied to every engine run.
const RUN_DEADLINE: Duration = Duration::from_secs(10);

/// Transient session-spawn failures retried before giving up; the
/// backoff starts at [`BACKOFF_BASE`] and doubles (5, 10, 20 ms).
const SPAWN_RETRIES: u32 = 3;

/// First spawn-retry backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(5);

/// The `health` verdict's SLO: p99 ask-to-answer latency stays under
/// this many milliseconds.
const SLO_P99_MS: u64 = 1_000;

/// The host's deployment settings: the admission cap, the watchdog's
/// pace and patience, and where flight dumps go. Every other policy
/// value (queue depth, retry hint, run deadline, spawn retries, SLO) is
/// a constant of this module.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission cap: live sessions past this are rejected.
    pub max_sessions: usize,
    /// How often the watchdog scans for stuck runs.
    pub watchdog_interval: Duration,
    /// A job older than this is cancelled by the watchdog.
    pub stuck_limit: Duration,
    /// When set, every flight dump is also written to this directory as
    /// `flight-<session>-<seq>-<reason>.jsonl`. Dumps are always kept
    /// in memory regardless (see [`Host::flight_dumps`]).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_sessions: 8,
            watchdog_interval: Duration::from_millis(20),
            stuck_limit: Duration::from_secs(2),
            flight_dir: None,
        }
    }
}

/// Cached handles to every service-layer counter, resolved once at host
/// construction — the request hot path never re-resolves a counter by
/// name (the same pattern the engine's internal counter cache uses).
pub(crate) struct ServiceCounters {
    pub requests: Counter,
    pub decode_errors: Counter,
    pub sessions_created: Counter,
    pub rejected_admission: Counter,
    pub rejected_backpressure: Counter,
    pub rejected_connections: Counter,
    pub spawn_failures: Counter,
    pub cancels: Counter,
    pub worker_panics: Counter,
    pub watchdog_cancels: Counter,
    pub publishes: Counter,
    pub publish_skipped: Counter,
    pub cache_share_faults: Counter,
    pub decode_faults: Counter,
    pub write_faults: Counter,
    pub responses_lost: Counter,
    pub flight_dumps: Counter,
}

impl ServiceCounters {
    fn new(reg: &Registry) -> ServiceCounters {
        ServiceCounters {
            requests: reg.counter("service.requests"),
            decode_errors: reg.counter("service.decode_errors"),
            sessions_created: reg.counter("service.sessions_created"),
            rejected_admission: reg.counter("service.rejected_admission"),
            rejected_backpressure: reg.counter("service.rejected_backpressure"),
            rejected_connections: reg.counter("service.rejected_connections"),
            spawn_failures: reg.counter("service.spawn_failures"),
            cancels: reg.counter("service.cancels"),
            worker_panics: reg.counter("service.worker_panics"),
            watchdog_cancels: reg.counter("service.watchdog_cancels"),
            publishes: reg.counter("service.publishes"),
            publish_skipped: reg.counter("service.publish_skipped"),
            cache_share_faults: reg.counter("service.cache_share_faults"),
            decode_faults: reg.counter("service.decode_faults"),
            write_faults: reg.counter("service.write_faults"),
            responses_lost: reg.counter("service.responses_lost"),
            flight_dumps: reg.counter("service.flight_dumps"),
        }
    }
}

/// Host-wide live-telemetry surface: request rate and ask-to-answer
/// latency across every session, plus the watchdog-cancel window the
/// `health` verdict reads.
struct HostTelemetry {
    requests: Window,
    latency_us_win: Window,
    latency_us: QuantileSketch,
    watchdog_cancels: Window,
}

impl HostTelemetry {
    fn new() -> HostTelemetry {
        // The handles keep the set's shared enabled flag alive; the set
        // itself need not outlive construction.
        let live = LiveSet::enabled();
        HostTelemetry {
            requests: live.window("service.requests"),
            latency_us_win: live.window("service.ask_to_answer_us"),
            latency_us: live.sketch("service.ask_to_answer_us"),
            watchdog_cancels: live.window("service.watchdog_cancels"),
        }
    }
}

/// One session's live-telemetry surface. Every handle is resolved once
/// at spawn and shared with the worker; `live` is the *same* set the
/// session's engine records its run latency, degradation, and
/// shard-busy series into, so the scoped `stats` view reads engine-side
/// telemetry without crossing the bulkhead.
pub(crate) struct SessionTelemetry {
    live: LiveSet,
    requests: Window,
    latency_us_win: Window,
    latency_us: QuantileSketch,
    cache_hits: Window,
    cache_misses: Window,
    degradations: Window,
    /// Jobs accepted but not yet picked up by the worker.
    queued: AtomicU64,
    flight: FlightRecorder,
}

impl SessionTelemetry {
    fn new() -> SessionTelemetry {
        let live = LiveSet::enabled();
        SessionTelemetry {
            requests: live.window("service.requests"),
            latency_us_win: live.window("service.ask_to_answer_us"),
            latency_us: live.sketch("service.ask_to_answer_us"),
            cache_hits: live.window("service.cache_hits"),
            cache_misses: live.window("service.cache_misses"),
            degradations: live.window(names::DEGRADATIONS),
            queued: AtomicU64::new(0),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAP),
            live,
        }
    }
}

/// One captured flight-recorder dump — the post-mortem record of a
/// watchdog cancel, worker panic, or degraded run.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The victim session.
    pub session: u64,
    /// What triggered the dump (`"watchdog_cancel"`, `"worker_panic"`,
    /// `"degradation"`).
    pub reason: String,
    /// The JSONL payload: a header line, then one line per event.
    pub jsonl: String,
}

/// One queued unit of session work: the request plus its reply slot.
struct Job {
    req: Request,
    reply: SyncSender<Json>,
}

/// The host side of a live session.
struct SessionHandle {
    tx: SyncSender<Job>,
    worker: Option<JoinHandle<()>>,
    cancel: CancelToken,
    engine_fault: Arc<FaultPlan>,
    running_since: Arc<Mutex<Option<Instant>>>,
    published: Arc<AtomicBool>,
    telemetry: Arc<SessionTelemetry>,
}

struct Inner {
    core: Arc<EngineCore>,
    cfg: ServiceConfig,
    sessions: Mutex<BTreeMap<u64, SessionHandle>>,
    next_id: AtomicU64,
    accepting: AtomicBool,
    stop: AtomicBool,
    /// Live TCP connections, kept by the transport.
    connections: AtomicU64,
    /// Service-layer fault plan: session-spawn, request-decode,
    /// response-write, cache-share probes.
    fault: Arc<FaultPlan>,
    metrics: Registry,
    counters: ServiceCounters,
    telemetry: HostTelemetry,
    /// Retained flight dumps, oldest first, capped at
    /// [`MAX_FLIGHT_DUMPS`].
    dumps: Mutex<Vec<FlightDump>>,
    dump_seq: AtomicU64,
    default_program: String,
}

/// The multi-session service host. Cheap to share behind `&`; all
/// methods take `&self`.
pub struct Host {
    inner: Arc<Inner>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

/// Worker-thread state for one session (never crosses the bulkhead).
struct SessionState {
    engine: Engine,
    program: Program,
    asked: BTreeSet<(String, String)>,
    poisoned: bool,
}

impl Host {
    /// Builds a host over a shared core with the given default program.
    pub fn new(core: EngineCore, default_program: &str, cfg: ServiceConfig) -> Host {
        let metrics = Registry::new();
        let counters = ServiceCounters::new(&metrics);
        let telemetry = HostTelemetry::new();
        let inner = Arc::new(Inner {
            core: Arc::new(core),
            cfg,
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            accepting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            fault: Arc::new(FaultPlan::disarmed()),
            metrics,
            counters,
            telemetry,
            dumps: Mutex::new(Vec::new()),
            dump_seq: AtomicU64::new(0),
            default_program: default_program.to_string(),
        });
        let watchdog = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("iflex-watchdog".into())
                .spawn(move || watchdog_loop(&inner))
                .ok()
        };
        Host { inner, watchdog: Mutex::new(watchdog) }
    }

    /// The service-layer fault plan (spawn/decode/write/cache-share
    /// sites). Arm it to chaos-test the host itself.
    pub fn fault(&self) -> &Arc<FaultPlan> {
        &self.inner.fault
    }

    /// The service metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// The cached service counter handles (hot-path increments go
    /// through these, never through a by-name registry lookup).
    pub(crate) fn counters(&self) -> &ServiceCounters {
        &self.inner.counters
    }

    /// The configuration the host was built with.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// The live-connection gauge. The TCP transport owns its updates;
    /// `stats` reports it.
    pub(crate) fn connections(&self) -> &AtomicU64 {
        &self.inner.connections
    }

    /// Flight-recorder dumps captured so far (watchdog cancels, worker
    /// panics, degraded runs), oldest first.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        self.inner.dumps.lock().expect("dumps lock").clone()
    }

    /// Live session count.
    pub fn active_sessions(&self) -> usize {
        self.inner.sessions.lock().expect("sessions lock").len()
    }

    /// True until shutdown begins.
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::Acquire)
    }

    /// Arms a fault on one session's *engine* plan (bulkhead-internal
    /// sites: eval-rule, join-tuple, memo-lookup, ...). Returns false
    /// when the session does not exist.
    pub fn arm_session(
        &self,
        session: u64,
        site: &'static str,
        trigger: Trigger,
        fault_kind: Fault,
        seed: u64,
    ) -> bool {
        let sessions = self.inner.sessions.lock().expect("sessions lock");
        match sessions.get(&session) {
            Some(h) => {
                h.engine_fault.arm(site, trigger, fault_kind, seed);
                true
            }
            None => false,
        }
    }

    /// Decodes one request line and handles it. Decode failures become
    /// non-retryable error responses (a malformed line will not improve
    /// on retry).
    pub fn handle_line(&self, line: &str) -> Json {
        match decode(line) {
            Ok(req) => self.handle(req),
            Err(e) => self.decode_failed(&e),
        }
    }

    /// The non-retryable reply to a line that is not a request.
    pub(crate) fn decode_failed(&self, e: &DecodeError) -> Json {
        self.inner.counters.decode_errors.inc();
        err_response(e.id.as_deref(), &e.msg, None)
    }

    /// Handles one decoded request.
    pub fn handle(&self, req: Request) -> Json {
        self.inner.counters.requests.inc();
        self.inner.telemetry.requests.add_count(1);
        let id = req.id().map(str::to_string);
        let id = id.as_deref();
        match req {
            Request::CreateSession { program, .. } => self.create_session(id, program.as_deref()),
            Request::Cancel { session, .. } => {
                let sessions = self.inner.sessions.lock().expect("sessions lock");
                match sessions.get(&session) {
                    Some(h) => {
                        h.cancel.cancel();
                        self.inner.counters.cancels.inc();
                        h.telemetry.flight.record("cancel", "client", "");
                        ok_response(id, vec![("cancelled", Json::Bool(true))])
                    }
                    None => err_response(id, &format!("no such session {session}"), None),
                }
            }
            Request::CloseSession { session, .. } => self.close_session(id, session),
            Request::Stats { session: Some(session), .. } => self.session_stats(id, session),
            Request::Stats { session: None, .. } => self.stats(id),
            Request::Metrics { format, .. } => self.metrics_cmd(id, format.as_deref()),
            Request::Health { .. } => self.health(id),
            Request::Shutdown { .. } => {
                let drained = self.shutdown();
                ok_response(id, vec![("drained_sessions", Json::num(drained as u64))])
            }
            req @ (Request::AskQuestion { .. }
            | Request::Answer { .. }
            | Request::GetResults { .. }
            | Request::Sleep { .. }) => {
                let session = match req {
                    Request::AskQuestion { session, .. }
                    | Request::Answer { session, .. }
                    | Request::GetResults { session, .. }
                    | Request::Sleep { session, .. } => session,
                    _ => unreachable!(),
                };
                match self.submit(session, req) {
                    Ok(rx) => rx.recv().unwrap_or_else(|_| {
                        err_response(id, "session worker died before replying", None)
                    }),
                    Err(resp) => resp,
                }
            }
        }
    }

    /// Enqueues a session-targeted request without waiting for the
    /// reply. `Err` carries the ready-to-send rejection (unknown
    /// session, or queue full — the backpressure path).
    pub fn submit(&self, session: u64, req: Request) -> Result<Receiver<Json>, Json> {
        let id = req.id().map(str::to_string);
        let (tx, tel) = {
            let sessions = self.inner.sessions.lock().expect("sessions lock");
            match sessions.get(&session) {
                Some(h) => (h.tx.clone(), Arc::clone(&h.telemetry)),
                None => {
                    return Err(err_response(
                        id.as_deref(),
                        &format!("no such session {session}"),
                        None,
                    ))
                }
            }
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        // The queue-depth gauge rises before the send so the worker's
        // matching decrement (at dequeue) can never race it below zero.
        tel.queued.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(Job { req, reply: reply_tx }) {
            Ok(()) => Ok(reply_rx),
            Err(TrySendError::Full(_)) => {
                tel.queued.fetch_sub(1, Ordering::Relaxed);
                self.inner.counters.rejected_backpressure.inc();
                tel.flight.record("reject", "backpressure", "queue full");
                Err(err_response(
                    id.as_deref(),
                    &format!("session {session} queue full"),
                    Some(RETRY_AFTER_MS),
                ))
            }
            Err(TrySendError::Disconnected(_)) => {
                tel.queued.fetch_sub(1, Ordering::Relaxed);
                Err(err_response(id.as_deref(), &format!("session {session} worker died"), None))
            }
        }
    }

    fn create_session(&self, id: Option<&str>, program: Option<&str>) -> Json {
        let inner = &self.inner;
        if !self.is_accepting() {
            return err_response(id, "service is shutting down", None);
        }
        let source = program.unwrap_or(&inner.default_program).to_string();
        let parsed = match parse_program(&source) {
            Ok(p) => p,
            Err(e) => return err_response(id, &format!("program parse error: {e}"), None),
        };
        // Admission control: check the cap while holding the table lock
        // so concurrent creates cannot oversubscribe.
        {
            let sessions = inner.sessions.lock().expect("sessions lock");
            if sessions.len() >= inner.cfg.max_sessions {
                inner.counters.rejected_admission.inc();
                return err_response(
                    id,
                    &format!("session table full ({} live)", sessions.len()),
                    Some(RETRY_AFTER_MS),
                );
            }
        }
        // Session spawn, with exponential backoff across transient
        // failures (an injected fault at the spawn site models thread
        // or resource exhaustion; the fault is consumed, not raised).
        let mut attempt = 0u32;
        let spawned = loop {
            match self.try_spawn(parsed.clone()) {
                Ok(s) => break Some(s),
                Err(transient) => {
                    inner.counters.spawn_failures.inc();
                    if !transient || attempt >= SPAWN_RETRIES {
                        break None;
                    }
                    std::thread::sleep(BACKOFF_BASE * (1 << attempt));
                    attempt += 1;
                }
            }
        };
        let Some((session_id, warm)) = spawned else {
            return err_response(id, "session spawn failed after retries", Some(RETRY_AFTER_MS));
        };
        inner.counters.sessions_created.inc();
        ok_response(
            id,
            vec![
                ("session", Json::num(session_id)),
                ("warm_entries", Json::num(warm as u64)),
            ],
        )
    }

    /// One spawn attempt. `Err(true)` is transient (retry makes sense);
    /// `Err(false)` is permanent.
    fn try_spawn(&self, program: Program) -> Result<(u64, usize), bool> {
        let inner = &self.inner;
        if inner.fault.hit(fault::site::SESSION_SPAWN).is_some() {
            return Err(true);
        }
        let mut engine = inner.core.fork();
        let mut warm = inner.core.warm_entries();
        // Cache hand-off probe: a fault here degrades the new session to
        // a cold cache instead of failing the spawn — the bulkhead keeps
        // working, it just recomputes.
        if inner.fault.hit(fault::site::CACHE_SHARE).is_some() {
            inner.counters.cache_share_faults.inc();
            engine.clear_cache();
            warm = 0;
        }
        engine.budget.deadline = Some(RUN_DEADLINE);
        let cancel = engine.budget.cancel_token();
        let engine_fault = Arc::clone(&engine.fault);
        let session_id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        // The session's telemetry surface shares its live set and flight
        // recorder with the engine: the engine's run-latency, degradation,
        // and shard-busy series land in the same per-tenant scope the
        // `stats {session}` view reads.
        let telemetry = Arc::new(SessionTelemetry::new());
        engine.live = telemetry.live.clone();
        engine.flight = telemetry.flight.clone();
        telemetry.flight.record("session", "create", format!("warm_entries={warm}"));
        let running_since = Arc::new(Mutex::new(None));
        let published = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<Job>(QUEUE_DEPTH);
        let state = SessionState { engine, program, asked: BTreeSet::new(), poisoned: false };
        let worker = {
            let inner = Arc::clone(inner);
            let running_since = Arc::clone(&running_since);
            let published = Arc::clone(&published);
            let cancel = cancel.clone();
            let telemetry = Arc::clone(&telemetry);
            std::thread::Builder::new()
                .name(format!("iflex-session-{session_id}"))
                .spawn(move || {
                    worker_loop(
                        &inner,
                        session_id,
                        state,
                        rx,
                        &running_since,
                        &published,
                        &cancel,
                        &telemetry,
                    )
                })
                .map_err(|_| true)?
        };
        let handle = SessionHandle {
            tx,
            worker: Some(worker),
            cancel,
            engine_fault,
            running_since,
            published,
            telemetry,
        };
        inner.sessions.lock().expect("sessions lock").insert(session_id, handle);
        Ok((session_id, warm))
    }

    fn close_session(&self, id: Option<&str>, session: u64) -> Json {
        let handle = {
            let mut sessions = self.inner.sessions.lock().expect("sessions lock");
            sessions.remove(&session)
        };
        let Some(mut handle) = handle else {
            return err_response(id, &format!("no such session {session}"), None);
        };
        // Dropping the sender ends the worker's receive loop once the
        // queued jobs drain; the worker publishes on its way out.
        drop(handle.tx);
        if let Some(w) = handle.worker.take() {
            let _ = w.join();
        }
        ok_response(
            id,
            vec![
                ("closed", Json::Bool(true)),
                ("published", Json::Bool(handle.published.load(Ordering::Acquire))),
            ],
        )
    }

    fn stats(&self, id: Option<&str>) -> Json {
        let inner = &self.inner;
        let live = self.active_sessions() as u64;
        let c = |c: &Counter| Json::num(c.get());
        let k = &inner.counters;
        let [r1, r10, r60] = inner.telemetry.requests.horizons();
        let lat = inner.telemetry.latency_us.summary();
        ok_response(
            id,
            vec![
                ("sessions", Json::num(live)),
                ("max_sessions", Json::num(inner.cfg.max_sessions as u64)),
                ("accepting", Json::Bool(self.is_accepting())),
                ("created", c(&k.sessions_created)),
                ("rejected_admission", c(&k.rejected_admission)),
                ("rejected_backpressure", c(&k.rejected_backpressure)),
                ("connections", Json::num(inner.connections.load(Ordering::Relaxed))),
                ("rejected_connections", c(&k.rejected_connections)),
                ("spawn_failures", c(&k.spawn_failures)),
                ("decode_errors", c(&k.decode_errors)),
                ("worker_panics", c(&k.worker_panics)),
                ("watchdog_cancels", c(&k.watchdog_cancels)),
                ("publishes", c(&k.publishes)),
                ("publish_skipped", c(&k.publish_skipped)),
                ("warm_entries", Json::num(inner.core.warm_entries() as u64)),
                ("requests", c(&k.requests)),
                ("flight_dumps", c(&k.flight_dumps)),
                ("requests_1s", Json::Num(r1.rate())),
                ("requests_10s", Json::Num(r10.rate())),
                ("requests_60s", Json::Num(r60.rate())),
                ("latency_p50_us", Json::Num(lat.p50)),
                ("latency_p95_us", Json::Num(lat.p95)),
                ("latency_p99_us", Json::Num(lat.p99)),
            ],
        )
    }

    /// The scoped live view of one tenant.
    fn session_stats(&self, id: Option<&str>, session: u64) -> Json {
        let tel = {
            let sessions = self.inner.sessions.lock().expect("sessions lock");
            match sessions.get(&session) {
                Some(h) => Arc::clone(&h.telemetry),
                None => return err_response(id, &format!("no such session {session}"), None),
            }
        };
        let mut fields = vec![("session", Json::num(session))];
        fields.extend(session_view(&tel));
        ok_response(id, fields)
    }

    /// The `metrics` command: lifetime counters plus every per-session
    /// live series, as JSON or Prometheus text exposition.
    fn metrics_cmd(&self, id: Option<&str>, format: Option<&str>) -> Json {
        match format {
            Some("prometheus") => ok_response(
                id,
                vec![
                    ("format", Json::str("prometheus")),
                    ("exposition", Json::str(self.render_prometheus())),
                ],
            ),
            Some("json") | None => {
                let snap = self.inner.metrics.snapshot();
                let counters = Json::Obj(
                    snap.counters.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect(),
                );
                let sessions: Vec<Json> = {
                    let table = self.inner.sessions.lock().expect("sessions lock");
                    table
                        .iter()
                        .map(|(sid, h)| {
                            let mut fields = vec![("session", Json::num(*sid))];
                            fields.extend(session_view(&h.telemetry));
                            Json::obj(fields)
                        })
                        .collect()
                };
                let [r1, r10, r60] = self.inner.telemetry.requests.horizons();
                let lat = self.inner.telemetry.latency_us.summary();
                ok_response(
                    id,
                    vec![
                        ("counters", counters),
                        ("requests_1s", Json::Num(r1.rate())),
                        ("requests_10s", Json::Num(r10.rate())),
                        ("requests_60s", Json::Num(r60.rate())),
                        ("latency_p50_us", Json::Num(lat.p50)),
                        ("latency_p95_us", Json::Num(lat.p95)),
                        ("latency_p99_us", Json::Num(lat.p99)),
                        ("sessions", Json::Arr(sessions)),
                    ],
                )
            }
            Some(other) => err_response(id, &format!("unknown metrics format {other:?}"), None),
        }
    }

    /// The `health` command: one SLO verdict over the live windows.
    fn health(&self, id: Option<&str>) -> Json {
        let inner = &self.inner;
        let lat = inner.telemetry.latency_us.summary();
        let cancels_60s = inner.telemetry.watchdog_cancels.stats(60).count;
        let slo_us = SLO_P99_MS * 1_000;
        let p99_within_slo = lat.p99 <= slo_us as f64;
        let accepting = self.is_accepting();
        let healthy = accepting && cancels_60s == 0 && p99_within_slo;
        ok_response(
            id,
            vec![
                ("healthy", Json::Bool(healthy)),
                ("accepting", Json::Bool(accepting)),
                ("sessions", Json::num(self.active_sessions() as u64)),
                ("p99_ask_to_answer_us", Json::Num(lat.p99)),
                ("slo_p99_us", Json::num(slo_us)),
                ("p99_within_slo", Json::Bool(p99_within_slo)),
                ("watchdog_cancels_60s", Json::num(cancels_60s)),
                ("flight_dumps", Json::num(inner.counters.flight_dumps.get())),
            ],
        )
    }

    /// Renders the whole telemetry surface as Prometheus text
    /// exposition: every registry counter and histogram, the host-wide
    /// windows and latency quantiles, then one labelled series set per
    /// live session.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let snap = self.inner.metrics.snapshot();
        for (name, v) in &snap.counters {
            let m = prom_name(name);
            out.push_str("# TYPE ");
            out.push_str(&m);
            out.push_str(" counter\n");
            out.push_str(&format!("{m} {v}\n"));
        }
        for (name, h) in &snap.histograms {
            let m = prom_name(name);
            out.push_str("# TYPE ");
            out.push_str(&m);
            out.push_str(" summary\n");
            out.push_str(&format!("{m}_count {}\n{m}_sum {}\n{m}_max {}\n", h.count, h.sum, h.max));
        }
        let t = &self.inner.telemetry;
        for s in t.requests.horizons() {
            out.push_str(&format!(
                "iflex_service_requests_rate{{window=\"{}s\"}} {}\n",
                s.secs,
                fmt_sample(s.rate())
            ));
        }
        let lat = t.latency_us.summary();
        for (q, v) in [("0.5", lat.p50), ("0.95", lat.p95), ("0.99", lat.p99)] {
            out.push_str(&format!(
                "iflex_service_ask_to_answer_us{{quantile=\"{q}\"}} {}\n",
                fmt_sample(v)
            ));
        }
        out.push_str(&format!("iflex_service_ask_to_answer_us_count {}\n", lat.count));
        let sessions = self.inner.sessions.lock().expect("sessions lock");
        for (sid, h) in sessions.iter() {
            let tel = &h.telemetry;
            for s in tel.requests.horizons() {
                out.push_str(&format!(
                    "iflex_session_requests_rate{{session=\"{sid}\",window=\"{}s\"}} {}\n",
                    s.secs,
                    fmt_sample(s.rate())
                ));
            }
            let lat = tel.latency_us.summary();
            for (q, v) in [("0.5", lat.p50), ("0.95", lat.p95), ("0.99", lat.p99)] {
                out.push_str(&format!(
                    "iflex_session_ask_to_answer_us{{session=\"{sid}\",quantile=\"{q}\"}} {}\n",
                    fmt_sample(v)
                ));
            }
            let run = tel.live.sketch(names::RUN_US).summary();
            for (q, v) in [("0.5", run.p50), ("0.95", run.p95), ("0.99", run.p99)] {
                out.push_str(&format!(
                    "iflex_session_run_us{{session=\"{sid}\",quantile=\"{q}\"}} {}\n",
                    fmt_sample(v)
                ));
            }
            out.push_str(&format!(
                "iflex_session_queue_depth{{session=\"{sid}\"}} {}\n",
                tel.queued.load(Ordering::Relaxed)
            ));
            let hits = tel.cache_hits.stats(60);
            let misses = tel.cache_misses.stats(60);
            out.push_str(&format!(
                "iflex_session_cache_hit_ratio{{session=\"{sid}\"}} {}\n",
                fmt_sample(hit_ratio(hits.count, misses.count))
            ));
            let deg = tel.degradations.stats(60);
            out.push_str(&format!(
                "iflex_session_degradations_rate{{session=\"{sid}\",window=\"60s\"}} {}\n",
                fmt_sample(deg.rate())
            ));
            for (i, w) in tel.live.shard_busy_windows().iter().enumerate() {
                let s = w.stats(10);
                out.push_str(&format!(
                    "iflex_session_shard_busy_us{{session=\"{sid}\",shard=\"{i}\",window=\"10s\"}} {}\n",
                    s.sum
                ));
            }
        }
        out
    }

    /// Stops admitting, drains every session (queued jobs complete, then
    /// clean caches publish back to the core), joins all workers and the
    /// watchdog. Idempotent. Returns how many sessions were drained.
    pub fn shutdown(&self) -> usize {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::Release);
        let handles: Vec<(u64, SessionHandle)> = {
            let mut sessions = inner.sessions.lock().expect("sessions lock");
            std::mem::take(&mut *sessions).into_iter().collect()
        };
        let drained = handles.len();
        for (_, mut h) in handles {
            drop(h.tx);
            if let Some(w) = h.worker.take() {
                let _ = w.join();
            }
        }
        inner.stop.store(true, Ordering::Release);
        if let Some(w) = self.watchdog.lock().expect("watchdog lock").take() {
            let _ = w.join();
        }
        drained
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The live-series fields of one session, shared between the scoped
/// `stats` view and the JSON `metrics` rendering.
fn session_view(tel: &SessionTelemetry) -> Vec<(&'static str, Json)> {
    let [r1, r10, r60] = tel.requests.horizons();
    let lat = tel.latency_us.summary();
    let run = tel.live.sketch(names::RUN_US).summary();
    let hits = tel.cache_hits.stats(60);
    let misses = tel.cache_misses.stats(60);
    let deg = tel.degradations.stats(60);
    vec![
        ("requests_1s", Json::Num(r1.rate())),
        ("requests_10s", Json::Num(r10.rate())),
        ("requests_60s", Json::Num(r60.rate())),
        ("queue_depth", Json::num(tel.queued.load(Ordering::Relaxed))),
        ("latency_p50_us", Json::Num(lat.p50)),
        ("latency_p95_us", Json::Num(lat.p95)),
        ("latency_p99_us", Json::Num(lat.p99)),
        ("run_p99_us", Json::Num(run.p99)),
        ("cache_hit_ratio_60s", Json::Num(hit_ratio(hits.count, misses.count))),
        ("degradations_60s", Json::num(deg.count)),
        ("degradation_rate_60s", Json::Num(deg.rate())),
        ("flight_events", Json::num(tel.flight.total())),
    ]
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Prometheus sample formatting: integers stay integral, fractions get
/// a fixed six decimal places (the exposition format takes any float;
/// fixed width keeps scrapes byte-stable for a given value).
fn fmt_sample(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// `service.requests` → `iflex_service_requests`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("iflex_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
    }
    out
}

/// Captures `flight`'s current ring as a dump: kept in memory (bounded)
/// and, when configured, written to `flight_dir` as one JSONL file.
fn record_flight_dump(inner: &Inner, session: u64, reason: &str, flight: &FlightRecorder) {
    let jsonl = flight.dump_jsonl(session, reason);
    inner.counters.flight_dumps.inc();
    if let Some(dir) = &inner.cfg.flight_dir {
        let seq = inner.dump_seq.fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(format!("flight-{session}-{seq}-{reason}.jsonl")), &jsonl);
    }
    let mut dumps = inner.dumps.lock().expect("dumps lock");
    if dumps.len() >= MAX_FLIGHT_DUMPS {
        dumps.remove(0);
    }
    dumps.push(FlightDump { session, reason: reason.to_string(), jsonl });
}

/// The wire verb of a request, for flight-recorder event names.
fn cmd_name(req: &Request) -> &'static str {
    match req {
        Request::CreateSession { .. } => "create-session",
        Request::AskQuestion { .. } => "ask-question",
        Request::Answer { .. } => "answer",
        Request::GetResults { .. } => "get-results",
        Request::Sleep { .. } => "sleep",
        Request::Cancel { .. } => "cancel",
        Request::CloseSession { .. } => "close-session",
        Request::Stats { .. } => "stats",
        Request::Metrics { .. } => "metrics",
        Request::Health { .. } => "health",
        Request::Shutdown { .. } => "shutdown",
    }
}

fn watchdog_loop(inner: &Inner) {
    while !inner.stop.load(Ordering::Acquire) {
        std::thread::sleep(inner.cfg.watchdog_interval);
        let sessions = inner.sessions.lock().expect("sessions lock");
        for (sid, h) in sessions.iter() {
            let stuck = h
                .running_since
                .lock()
                .expect("running_since lock")
                .map(|t| t.elapsed() > inner.cfg.stuck_limit)
                .unwrap_or(false);
            if stuck && !h.cancel.is_cancelled() {
                inner.counters.watchdog_cancels.inc();
                inner.telemetry.watchdog_cancels.add_count(1);
                h.telemetry.flight.record(
                    "cancel",
                    "watchdog",
                    format!("stuck beyond {:?}", inner.cfg.stuck_limit),
                );
                record_flight_dump(inner, *sid, "watchdog_cancel", &h.telemetry.flight);
                // Last: whoever sees the cancelled reply finds the counter
                // moved and the dump already written.
                h.cancel.cancel();
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    inner: &Inner,
    session_id: u64,
    mut state: SessionState,
    rx: Receiver<Job>,
    running_since: &Mutex<Option<Instant>>,
    published: &AtomicBool,
    cancel: &CancelToken,
    tel: &SessionTelemetry,
) {
    while let Ok(job) = rx.recv() {
        tel.queued.fetch_sub(1, Ordering::Relaxed);
        let t0 = Instant::now();
        *running_since.lock().expect("running_since lock") = Some(t0);
        let id = job.req.id().map(str::to_string);
        // The bulkhead wall: a panic anywhere in job handling poisons
        // this session only. The engine already contains rule panics;
        // this catches everything else (assistant code, render, bugs).
        // The worker-job fault site sits inside the wall so chaos can
        // drive the real containment path from the worker's own frame.
        let mut panicked = false;
        let resp = catch_unwind(AssertUnwindSafe(|| {
            if let Some(Fault::Panic(msg)) = state.engine.fault.hit(fault::site::WORKER_JOB) {
                panic!("injected fault: {msg}");
            }
            handle_job(&mut state, cancel, &job.req)
        }))
        .unwrap_or_else(|payload| {
            state.poisoned = true;
            panicked = true;
            inner.counters.worker_panics.inc();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            err_response(id.as_deref(), &format!("session poisoned by panic: {msg}"), None)
        });
        *running_since.lock().expect("running_since lock") = None;
        let us = t0.elapsed().as_micros() as u64;
        tel.requests.add_count(1);
        tel.latency_us_win.observe(us);
        tel.latency_us.observe(us);
        inner.telemetry.latency_us_win.observe(us);
        inner.telemetry.latency_us.observe(us);
        tel.flight.record("request", cmd_name(&job.req), format!("us={us}"));
        if panicked {
            record_flight_dump(inner, session_id, "worker_panic", &tel.flight);
        } else if !state.poisoned {
            // Engine-side per-run deltas: the incremental-cache hit/miss
            // windows behind the scoped cache-hit ratio, and a flight
            // dump whenever the run degraded (the engine has already
            // recorded each degradation event into the shared recorder).
            if matches!(job.req, Request::GetResults { .. }) {
                let st = &state.engine.stats;
                tel.cache_hits.add_count(st.incr_hits as u64);
                tel.cache_misses.add_count(st.incr_misses as u64);
                if !st.degradations.is_empty() {
                    record_flight_dump(inner, session_id, "degradation", &tel.flight);
                }
            }
        }
        let _ = job.reply.send(resp);
    }
    // Drain: hand clean cache entries back to the shared core so the
    // next session starts warm. A poisoned session publishes nothing,
    // and an injected cache-share fault skips the publish (the core
    // stays correct either way — degraded results are never cached, and
    // `publish` refuses diverged forks by epoch).
    if state.poisoned || inner.fault.hit(fault::site::CACHE_SHARE).is_some() {
        inner.counters.publish_skipped.inc();
    } else if inner.core.publish(&state.engine) {
        inner.counters.publishes.inc();
        published.store(true, Ordering::Release);
    } else {
        inner.counters.publish_skipped.inc();
    }
}

fn handle_job(state: &mut SessionState, cancel: &CancelToken, req: &Request) -> Json {
    let id = req.id();
    if state.poisoned {
        return err_response(id, "session poisoned by earlier panic; close it", None);
    }
    // A fresh job gets a fresh cancel slate; `cancel` targets the run in
    // flight, and the watchdog re-cancels if this one is stuck too.
    cancel.reset();
    match req {
        Request::AskQuestion { count, .. } => {
            let questions: Vec<Json> =
                ordered_questions(&state.program, state.engine.features(), &state.asked)
                    .into_iter()
                    .take(*count)
                    .map(|q| {
                        Json::obj(vec![
                            ("attr", Json::str(q.attr.display())),
                            ("feature", Json::str(&q.feature)),
                            ("text", Json::str(&q.text)),
                        ])
                    })
                    .collect();
            ok_response(id, vec![("questions", Json::Arr(questions))])
        }
        Request::Answer { attr, feature, value, .. } => {
            let Some(attribute) =
                attributes(&state.program).into_iter().find(|a| &a.display() == attr)
            else {
                return err_response(id, &format!("unknown attribute {attr:?}"), None);
            };
            let arg = parse_feature_arg(value);
            state.program = add_constraint(&state.program, &attribute, feature, &arg);
            state.asked.insert((attribute.display(), feature.clone()));
            ok_response(id, vec![("applied", Json::Bool(true))])
        }
        Request::GetResults { limit, .. } => match state.engine.run(&state.program) {
            Ok(table) => {
                let store = state.engine.store();
                let degradations = state.engine.stats.degradations.len();
                ok_response(
                    id,
                    vec![
                        ("table", Json::str(table.render(store, *limit))),
                        ("tuples", Json::num(table.len() as u64)),
                        ("expanded", Json::num(table.expanded_len(store))),
                        ("degradations", Json::num(degradations as u64)),
                        ("degraded", Json::Bool(degradations > 0)),
                    ],
                )
            }
            Err(e) => err_response(id, &format!("run failed: {e}"), None),
        },
        Request::Sleep { ms, .. } => {
            let deadline = Instant::now() + Duration::from_millis(*ms);
            let mut cancelled = false;
            while Instant::now() < deadline {
                if cancel.is_cancelled() {
                    cancelled = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            ok_response(
                id,
                vec![
                    ("slept_ms", Json::num(*ms)),
                    ("cancelled", Json::Bool(cancelled)),
                ],
            )
        }
        _ => err_response(id, "request is not session work", None),
    }
}

fn parse_feature_arg(value: &str) -> FeatureArg {
    if let Ok(t) = value.parse::<FeatureValue>() {
        FeatureArg::Tri(t)
    } else if let Ok(n) = value.parse::<f64>() {
        FeatureArg::Num(n)
    } else {
        FeatureArg::Text(value.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{tiny_core, PROGRAM};

    fn fast_cfg() -> ServiceConfig {
        ServiceConfig {
            watchdog_interval: Duration::from_millis(5),
            stuck_limit: Duration::from_millis(40),
            ..ServiceConfig::default()
        }
    }

    fn create(host: &Host) -> u64 {
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        resp.get("session").and_then(Json::as_u64).expect("session id")
    }

    #[test]
    fn full_session_lifecycle_over_the_protocol() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let resp = host.handle_line(r#"{"cmd":"create-session","id":"c1"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let sid = resp.get("session").and_then(Json::as_u64).unwrap();

        let q = host.handle_line(&format!(r#"{{"cmd":"ask-question","session":{sid}}}"#));
        assert_eq!(q.get("ok"), Some(&Json::Bool(true)));
        let Json::Arr(qs) = q.get("questions").unwrap() else { panic!("questions array") };
        assert!(!qs.is_empty());
        let attr = qs[0].get("attr").and_then(Json::as_str).unwrap().to_string();

        let a = host.handle_line(&format!(
            r#"{{"cmd":"answer","session":{sid},"attr":"{attr}","feature":"bold-font","value":"yes"}}"#
        ));
        assert_eq!(a.get("ok"), Some(&Json::Bool(true)));

        let r = host.handle_line(&format!(r#"{{"cmd":"get-results","session":{sid},"limit":8}}"#));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("degraded"), Some(&Json::Bool(false)));
        assert_eq!(r.get("tuples").and_then(Json::as_u64), Some(5));

        let c = host.handle_line(&format!(r#"{{"cmd":"close-session","session":{sid}}}"#));
        assert_eq!(c.get("closed"), Some(&Json::Bool(true)));
        assert_eq!(c.get("published"), Some(&Json::Bool(true)));
        assert_eq!(host.active_sessions(), 0);
        // The published cache warms the core for the next tenant.
        assert!(host.inner.core.warm_entries() > 0);
    }

    #[test]
    fn admission_cap_rejects_with_retry_hint() {
        let cfg = ServiceConfig { max_sessions: 2, ..fast_cfg() };
        let host = Host::new(tiny_core(), PROGRAM, cfg);
        create(&host);
        create(&host);
        let resp = host.handle(Request::CreateSession { id: Some("late".into()), program: None });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("retry_after_ms").and_then(Json::as_u64), Some(25));
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("late"));
        // Closing a session frees the slot.
        let sid = {
            let sessions = host.inner.sessions.lock().unwrap();
            *sessions.keys().next().unwrap()
        };
        host.handle(Request::CloseSession { id: None, session: sid });
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn queue_backpressure_rejects_instead_of_buffering() {
        // Stuck limit above the busy job, so the watchdog cannot free a
        // slot while the queue fills.
        let cfg = ServiceConfig { stuck_limit: Duration::from_secs(2), ..fast_cfg() };
        let host = Host::new(tiny_core(), PROGRAM, cfg);
        let sid = create(&host);
        // Hold the worker on a long sleep, then fill the queue.
        let busy = host
            .submit(sid, Request::Sleep { id: None, session: sid, ms: 400 })
            .expect("busy job accepted");
        // The worker dequeues the busy job before it sleeps; wait until
        // it has, so the queue holds only what is submitted below.
        while host.inner.sessions.lock().unwrap()[&sid].telemetry.queued.load(Ordering::Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut pending = Vec::new();
        let rejected = loop {
            match host.submit(sid, Request::Sleep { id: None, session: sid, ms: 1 }) {
                Ok(rx) => pending.push(rx),
                Err(resp) => break resp,
            }
            assert!(pending.len() <= QUEUE_DEPTH, "the queue buffered past its bound");
        };
        assert_eq!(pending.len(), QUEUE_DEPTH, "every slot fills before a rejection");
        assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(rejected.get("retryable"), Some(&Json::Bool(true)));
        assert_eq!(rejected.get("retry_after_ms").and_then(Json::as_u64), Some(25));
        assert!(
            host.metrics().counter_value("service.rejected_backpressure").unwrap_or(0) >= 1
        );
        // Cancel the long sleep so the queue drains promptly.
        host.handle(Request::Cancel { id: None, session: sid });
        assert_eq!(busy.recv().unwrap().get("cancelled"), Some(&Json::Bool(true)));
        for rx in pending {
            assert_eq!(rx.recv().unwrap().get("ok"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn watchdog_cancels_stuck_runs() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        // 400ms of "work" against a 40ms stuck limit: the watchdog must
        // cancel long before the sleep finishes on its own.
        let t0 = Instant::now();
        let resp = host.handle(Request::Sleep { id: None, session: sid, ms: 400 });
        assert_eq!(resp.get("cancelled"), Some(&Json::Bool(true)));
        assert!(t0.elapsed() < Duration::from_millis(300), "watchdog was too slow");
        assert!(host.metrics().counter_value("service.watchdog_cancels").unwrap_or(0) >= 1);
        // The session stays usable afterwards.
        let r = host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn spawn_faults_are_retried_with_backoff() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        // Two transient spawn failures, then success on the third try,
        // after backing off 5 then 10 ms.
        host.fault().arm(fault::site::SESSION_SPAWN, Trigger::Nth(0), Fault::Io("x".into()), 1);
        host.fault().arm(fault::site::SESSION_SPAWN, Trigger::Nth(1), Fault::Io("x".into()), 1);
        let t0 = Instant::now();
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        assert!(t0.elapsed() >= Duration::from_millis(15), "backoff: {:?}", t0.elapsed());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(host.metrics().counter_value("service.spawn_failures"), Some(2));

        // A permanently failing site exhausts the retries and rejects
        // with a retry hint (the client's problem now, not the host's).
        host.fault().disarm_all();
        host.fault().arm(fault::site::SESSION_SPAWN, Trigger::Always, Fault::Io("x".into()), 1);
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));
        assert_eq!(host.active_sessions(), 1);
    }

    #[test]
    fn cache_share_fault_degrades_to_cold_fork() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        // Warm the core through a first session.
        let sid = create(&host);
        host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        host.handle(Request::CloseSession { id: None, session: sid });
        assert!(host.inner.core.warm_entries() > 0);
        // A cache-share fault on the next create: session still works,
        // just cold.
        host.fault().arm(fault::site::CACHE_SHARE, Trigger::Nth(0), Fault::Io("x".into()), 1);
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("warm_entries").and_then(Json::as_u64), Some(0));
        let sid2 = resp.get("session").and_then(Json::as_u64).unwrap();
        let r = host.handle(Request::GetResults { id: None, session: sid2, limit: 4 });
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("degraded"), Some(&Json::Bool(false)));
    }

    #[test]
    fn shutdown_drains_and_is_idempotent() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        create(&host);
        create(&host);
        let resp = host.handle(Request::Shutdown { id: Some("bye".into()) });
        assert_eq!(resp.get("drained_sessions").and_then(Json::as_u64), Some(2));
        assert!(!host.is_accepting());
        assert_eq!(host.active_sessions(), 0);
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(host.shutdown(), 0);
    }

    #[test]
    fn answer_rejects_unknown_attribute() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        let resp = host.handle(Request::Answer {
            id: None,
            session: sid,
            attr: "nope.v".into(),
            feature: "bold-font".into(),
            value: "yes".into(),
        });
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("retryable"), Some(&Json::Bool(false)));
    }

    #[test]
    fn feature_arg_parsing_covers_tri_num_text() {
        assert_eq!(parse_feature_arg("distinct-yes"), FeatureArg::Tri(FeatureValue::DistinctYes));
        assert_eq!(parse_feature_arg("1000000"), FeatureArg::Num(1_000_000.0));
        assert_eq!(parse_feature_arg("Price:"), FeatureArg::Text("Price:".into()));
    }

    #[test]
    fn scoped_stats_expose_live_windows_and_quantiles() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        for _ in 0..3 {
            let r = host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        }
        let s = host.handle(Request::Stats { id: None, session: Some(sid) });
        assert_eq!(s.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(s.get("session").and_then(Json::as_u64), Some(sid));
        let req60 = s.get("requests_60s").and_then(Json::as_f64).unwrap();
        assert!(req60 > 0.0, "windowed request rate must be live: {req60}");
        let p99 = s.get("latency_p99_us").and_then(Json::as_f64).unwrap();
        assert!(p99 > 0.0, "latency quantile must be populated");
        assert_eq!(s.get("queue_depth").and_then(Json::as_u64), Some(0));
        // The second and third runs hit the incremental cache.
        let ratio = s.get("cache_hit_ratio_60s").and_then(Json::as_f64).unwrap();
        assert!(ratio > 0.0, "warm reruns must register cache hits: {ratio}");
        // The engine's run-latency sketch lands in the same scope.
        let run_p99 = s.get("run_p99_us").and_then(Json::as_f64).unwrap();
        assert!(run_p99 >= 0.0);
        // Scoped stats for a missing session fail cleanly.
        let missing = host.handle(Request::Stats { id: None, session: Some(999) });
        assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn ask_question_runs_no_program() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        for _ in 0..2 {
            let q = host.handle(Request::AskQuestion { id: None, session: sid, count: 2 });
            let Some(Json::Arr(qs)) = q.get("questions") else { panic!("questions: {q:?}") };
            assert_eq!(qs.len(), 2);
        }
        // An ask that ran the program would have missed the cold rule
        // cache, then hit the warm one; only a run feeds these windows.
        let ratio = |host: &Host| {
            let s = host.handle(Request::Stats { id: None, session: Some(sid) });
            s.get("cache_hit_ratio_60s").and_then(Json::as_f64).unwrap()
        };
        assert_eq!(ratio(&host), 0.0);
        host.handle(Request::GetResults { id: None, session: sid, limit: 1 });
        assert_eq!(ratio(&host), 0.0, "the first get-results runs cold");
    }

    #[test]
    fn quantiles_move_across_scrapes() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        let first = host.handle(Request::Stats { id: None, session: Some(sid) });
        let c1 = {
            let sessions = host.inner.sessions.lock().unwrap();
            sessions[&sid].telemetry.latency_us.count()
        };
        // A visibly slower request shifts the sketch population.
        host.handle(Request::Sleep { id: None, session: sid, ms: 15 });
        let second = host.handle(Request::Stats { id: None, session: Some(sid) });
        let c2 = {
            let sessions = host.inner.sessions.lock().unwrap();
            sessions[&sid].telemetry.latency_us.count()
        };
        assert!(c2 > c1, "sketch population must grow between scrapes");
        let p99_a = first.get("latency_p99_us").and_then(Json::as_f64).unwrap();
        let p99_b = second.get("latency_p99_us").and_then(Json::as_f64).unwrap();
        assert!(p99_b >= p99_a, "a 15ms outlier cannot lower p99");
        assert!(p99_b >= 10_000.0, "p99 must reflect the slow request: {p99_b}");
    }

    #[test]
    fn watchdog_cancel_dumps_the_flight_recorder() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        let resp = host.handle(Request::Sleep { id: None, session: sid, ms: 400 });
        assert_eq!(resp.get("cancelled"), Some(&Json::Bool(true)));
        let dumps = host.flight_dumps();
        assert!(!dumps.is_empty(), "watchdog cancel must capture a dump");
        let d = dumps.iter().find(|d| d.reason == "watchdog_cancel").expect("reason");
        assert_eq!(d.session, sid);
        assert!(d.jsonl.lines().next().unwrap().contains("\"flight\":\"v1\""));
        assert!(d.jsonl.contains("\"kind\":\"cancel\""), "dump: {}", d.jsonl);
        assert!(d.jsonl.contains("\"name\":\"create-session\"") || d.jsonl.contains("\"kind\":\"session\""));
    }

    #[test]
    fn worker_panic_dumps_the_flight_recorder() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        assert!(host.arm_session(
            sid,
            fault::site::WORKER_JOB,
            Trigger::Nth(0),
            Fault::Panic("chaos".into()),
            1,
        ));
        let r = host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert!(host.metrics().counter_value("service.worker_panics").unwrap_or(0) >= 1);
        let dumps = host.flight_dumps();
        let d = dumps.iter().find(|d| d.reason == "worker_panic").expect("panic dump");
        assert_eq!(d.session, sid);
        // The victim's preceding healthy request is in the ring.
        assert!(d.jsonl.contains("\"name\":\"get-results\""), "dump: {}", d.jsonl);
    }

    #[test]
    fn health_reflects_watchdog_cancels_and_slo() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        let h = host.handle(Request::Health { id: Some("h1".into()) });
        assert_eq!(h.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(h.get("healthy"), Some(&Json::Bool(true)));
        assert_eq!(h.get("watchdog_cancels_60s").and_then(Json::as_u64), Some(0));
        // A stuck run turns the verdict red via the cancel window.
        host.handle(Request::Sleep { id: None, session: sid, ms: 400 });
        let h = host.handle(Request::Health { id: None });
        assert_eq!(h.get("healthy"), Some(&Json::Bool(false)));
        assert!(h.get("watchdog_cancels_60s").and_then(Json::as_u64).unwrap() >= 1);
    }

    #[test]
    fn metrics_command_renders_json_and_prometheus() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        let m = host.handle(Request::Metrics { id: None, format: None });
        assert_eq!(m.get("ok"), Some(&Json::Bool(true)));
        let counters = m.get("counters").expect("counters object");
        assert!(counters.get("service.requests").and_then(Json::as_u64).unwrap() > 0);
        let Json::Arr(sessions) = m.get("sessions").unwrap() else { panic!("sessions array") };
        assert_eq!(sessions.len(), 1);
        assert!(sessions[0].get("latency_p99_us").and_then(Json::as_f64).unwrap() > 0.0);

        let p = host.handle(Request::Metrics { id: None, format: Some("prometheus".into()) });
        let text = p.get("exposition").and_then(Json::as_str).unwrap();
        assert!(text.contains("# TYPE iflex_service_requests counter"));
        assert!(text.contains(&format!("iflex_session_ask_to_answer_us{{session=\"{sid}\",quantile=\"0.99\"}}")));
        assert!(text.contains(&format!("iflex_session_requests_rate{{session=\"{sid}\",window=\"10s\"}}")));
        // Every sample line parses as `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad sample: {line}"));
        }
        let bad = host.handle(Request::Metrics { id: None, format: Some("xml".into()) });
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn degraded_run_dumps_the_flight_recorder() {
        let host = Host::new(tiny_core(), PROGRAM, fast_cfg());
        let sid = create(&host);
        assert!(host.arm_session(
            sid,
            fault::site::EVAL_RULE,
            Trigger::Nth(0),
            Fault::TooLarge,
            1,
        ));
        let r = host.handle(Request::GetResults { id: None, session: sid, limit: 4 });
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("degraded"), Some(&Json::Bool(true)));
        let dumps = host.flight_dumps();
        let d = dumps.iter().find(|d| d.reason == "degradation").expect("degradation dump");
        assert!(d.jsonl.contains("\"kind\":\"degradation\""), "dump: {}", d.jsonl);
    }

    #[test]
    fn flight_dir_writes_dump_files() {
        let dir = std::env::temp_dir().join(format!("iflex-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig { flight_dir: Some(dir.clone()), ..fast_cfg() };
        let host = Host::new(tiny_core(), PROGRAM, cfg);
        let sid = create(&host);
        host.handle(Request::Sleep { id: None, session: sid, ms: 400 });
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("flight dir created")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            files.iter().any(|f| f.starts_with(&format!("flight-{sid}-")) && f.ends_with("watchdog_cancel.jsonl")),
            "files: {files:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
