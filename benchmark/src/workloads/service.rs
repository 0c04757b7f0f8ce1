//! `service-sessions`: the multi-session service, measured from the
//! calling client.
//!
//! `serve_tcp` runs on 127.0.0.1 inside the benchmark process over one
//! shared engine core holding the tables of four tasks, with the default
//! service configuration. Two closed-loop clients (the host has two cores)
//! with zero think time each run scripted sessions, one connection per
//! session:
//!
//! `create-session(program)` → up to `TURNS` × (`ask-question` →
//! `answer`s from the task oracle) → `get-results limit=10` →
//! `close-session`.
//!
//! Closed loop because each developer waits for a reply before acting, and
//! because the server handles one connection at a time: an open loop would
//! only measure its own backlog. This is the only workload that pays JSON,
//! protocol, transport and queueing costs and exercises cross-session
//! cache sharing; the engine work per turn is small.

use super::{extract::input_docs, BuildTimes, Mode, Opts, RepOut, Workload};
use crate::report::Metrics;
use crate::spans::At;
use crate::stats;
use iflex::engine::Engine;
use iflex_corpus::{Corpus, CorpusConfig, Task, TaskId};
use iflex_service::json::{self, Json};
use iflex_service::{serve_tcp, Host, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TASKS: [TaskId; 4] = [TaskId::T1, TaskId::T5, TaskId::T7, TaskId::T8];
const SCALE: f64 = 3.0;
const SMOKE_SCALE: f64 = 0.1;
/// Closed-loop clients: one per core of the reference host.
const CLIENTS: usize = 2;
/// Ask/answer turns per session.
const TURNS: usize = 4;
/// Questions answered per turn.
const ANSWERS_PER_TURN: usize = 2;
/// A turn slower than this misses the latency limit.
const TURN_LIMIT_MS: f64 = 250.0;
/// A request with no reply after this long has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The verbs of the session script plus `stats`, in reporting order.
const VERBS: [&str; 6] = [
    "create-session",
    "ask-question",
    "answer",
    "get-results",
    "close-session",
    "stats",
];

/// How requests reach the host: over a socket, or by a direct call.
trait Transport {
    fn call(&mut self, line: &str) -> Result<Json, String>;
}

struct Tcp {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Tcp {
    fn connect(addr: SocketAddr) -> Result<Tcp, String> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("socket: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(Tcp { stream, reader })
    }
}

impl Transport for Tcp {
    fn call(&mut self, line: &str) -> Result<Json, String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("no reply: {e}"))?;
        if n == 0 {
            return Err("connection closed before the reply".into());
        }
        json::parse(reply.trim()).map_err(|e| format!("reply is not JSON: {e:?}"))
    }
}

struct InProcess<'a>(&'a Host);

impl Transport for InProcess<'_> {
    fn call(&mut self, line: &str) -> Result<Json, String> {
        Ok(self.0.handle_line(line))
    }
}

/// One request as the client saw it.
struct Call {
    verb: &'static str,
    ms: f64,
}

/// What one scripted session did.
#[derive(Default)]
struct SessionLog {
    task: String,
    calls: Vec<Call>,
    /// Connect attempt → reply to `close-session`, seconds.
    session_s: f64,
    /// Connect attempt → reply to `create-session`, ms.
    first_reply_ms: f64,
    answered: u64,
    tuples: u64,
    expanded: u64,
    failures: Vec<String>,
}

fn request(fields: Vec<(&str, Json)>) -> String {
    Json::obj(fields).render()
}

/// Sends one request, records its latency, and returns the reply when it
/// is `ok:true`.
fn call(
    t: &mut dyn Transport,
    verb: &'static str,
    line: &str,
    log: &mut SessionLog,
    at: At,
) -> Option<Json> {
    let t0 = Instant::now();
    let reply = at.scope(verb, || t.call(line));
    log.calls.push(Call {
        verb,
        ms: t0.elapsed().as_secs_f64() * 1e3,
    });
    match reply {
        Ok(j) if j.get("ok").and_then(Json::as_bool) == Some(true) => Some(j),
        Ok(j) => {
            log.failures
                .push(format!("{verb} on {}: {}", log.task, j.render()));
            None
        }
        Err(e) => {
            log.failures.push(format!("{verb} on {}: {e}", log.task));
            None
        }
    }
}

/// Runs the session script for `task` over `t`. The client answers the
/// first `ANSWERS_PER_TURN` questions of each turn that its oracle knows,
/// and asks for as many more questions as it has had to pass on, so that
/// questions it cannot answer do not block the ones it can.
fn run_script(t: &mut dyn Transport, task: &Task, program: &str, log: &mut SessionLog, at: At) {
    let created = call(
        t,
        "create-session",
        &request(vec![
            ("cmd", Json::str("create-session")),
            ("program", Json::str(program)),
        ]),
        log,
        at,
    );
    let Some(session) = created.and_then(|j| j.get("session").and_then(Json::as_u64)) else {
        return;
    };
    let mut passed: Vec<(String, String)> = Vec::new();
    for _ in 0..TURNS {
        let ask = request(vec![
            ("cmd", Json::str("ask-question")),
            ("session", Json::num(session)),
            ("count", Json::num((ANSWERS_PER_TURN + passed.len()) as u64)),
        ]);
        let Some(reply) = call(t, "ask-question", &ask, log, at) else {
            break;
        };
        let Some(Json::Arr(questions)) = reply.get("questions") else {
            break;
        };
        let mut answered_now = 0;
        for q in questions {
            let field = |k: &str| q.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            let (attr, feature) = (field("attr"), field("feature"));
            if passed.contains(&(attr.clone(), feature.clone())) {
                continue;
            }
            let Some(value) = task.oracle.lookup(&attr, &feature) else {
                passed.push((attr, feature));
                continue;
            };
            let value = match value.as_text() {
                Some(text) => text.to_string(),
                None => value.to_string(),
            };
            let answer = request(vec![
                ("cmd", Json::str("answer")),
                ("session", Json::num(session)),
                ("attr", Json::str(attr)),
                ("feature", Json::str(feature)),
                ("value", Json::str(value)),
            ]);
            if call(t, "answer", &answer, log, at).is_some() {
                log.answered += 1;
            }
            answered_now += 1;
            if answered_now == ANSWERS_PER_TURN {
                break;
            }
        }
        if answered_now == 0 {
            break;
        }
    }
    let get = request(vec![
        ("cmd", Json::str("get-results")),
        ("session", Json::num(session)),
        ("limit", Json::num(10)),
    ]);
    if let Some(reply) = call(t, "get-results", &get, log, at) {
        log.tuples = reply.get("tuples").and_then(Json::as_u64).unwrap_or(0);
        log.expanded = reply.get("expanded").and_then(Json::as_u64).unwrap_or(0);
        if reply.get("degraded").and_then(Json::as_bool) != Some(false) {
            log.failures
                .push(format!("get-results on {} degraded", log.task));
        }
        if log.expanded < task.truth.len() as u64 {
            log.failures.push(format!(
                "get-results on {}: {} result tuples cannot contain the {} true tuples",
                log.task,
                log.expanded,
                task.truth.len()
            ));
        }
    }
    let close = request(vec![
        ("cmd", Json::str("close-session")),
        ("session", Json::num(session)),
    ]);
    call(t, "close-session", &close, log, at);
}

/// One session over its own TCP connection.
fn tcp_session(addr: SocketAddr, task: &Task, program: &str, at: At) -> SessionLog {
    let mut log = SessionLog {
        task: task.id.name().to_string(),
        ..Default::default()
    };
    let (span, inside) = at.open(&format!("tcp-session:{}", log.task));
    let t0 = Instant::now();
    match Tcp::connect(addr) {
        Ok(mut tcp) => run_script(&mut tcp, task, program, &mut log, inside),
        Err(e) => log.failures.push(format!("session on {}: {e}", log.task)),
    }
    log.session_s = t0.elapsed().as_secs_f64();
    log.first_reply_ms = log.calls.first().map_or(0.0, |c| c.ms);
    inside.close(span);
    log
}

/// The workload.
pub struct ServiceSessions {
    corpus: Corpus,
    tasks: Vec<Task>,
    programs: Vec<String>,
    host: Arc<Host>,
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
    /// Which task the first client's first session runs; from the seed.
    rotation: usize,
    next_op: AtomicU64,
    /// Logs of the traced repetition, kept for the layer probes.
    traced_logs: Vec<SessionLog>,
}

impl ServiceSessions {
    /// Sessions each client runs per repetition, so that one repetition
    /// runs every task once.
    fn sessions_per_client(&self) -> usize {
        self.tasks.len() / CLIENTS
    }

    fn task_of(&self, client: usize, session: usize) -> usize {
        (self.rotation + client * self.sessions_per_client() + session) % self.tasks.len()
    }
}

impl Workload for ServiceSessions {
    const NAME: &'static str = "service-sessions";
    const WALL_CALIBRATED: bool = false;

    fn build(opts: &Opts) -> (Self, BuildTimes) {
        let t0 = Instant::now();
        let corpus = Corpus::build(CorpusConfig::scaled(if opts.smoke {
            SMOKE_SCALE
        } else {
            SCALE
        }));
        let corpus_s = t0.elapsed().as_secs_f64();
        let mut task_ms = Vec::new();
        // One task per client is enough to exercise every path.
        let ids = if opts.smoke {
            &TASKS[..CLIENTS]
        } else {
            &TASKS[..]
        };
        let tasks: Vec<Task> = ids
            .iter()
            .map(|&id| {
                let t0 = Instant::now();
                let task = corpus.task(id, None);
                task_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                task
            })
            .collect();
        let mut engine = Engine::new(corpus.store.clone());
        for task in &tasks {
            for (name, ids) in &task.tables {
                engine.add_doc_table(name, ids);
            }
        }
        let programs: Vec<String> = tasks.iter().map(|t| t.program.to_string()).collect();
        let host = Arc::new(Host::new(
            engine.into_core(),
            &programs[0],
            ServiceConfig::default(),
        ));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let host = Arc::clone(&host);
            std::thread::spawn(move || {
                serve_tcp(&host, "127.0.0.1:0", move |addr| {
                    let _ = addr_tx.send(addr);
                })
            })
        };
        let addr = addr_rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("the server binds 127.0.0.1:0 or the benchmark cannot run");
        (
            ServiceSessions {
                corpus,
                tasks,
                programs,
                host,
                addr,
                server: Some(server),
                rotation: (opts.seed % ids.len() as u64) as usize,
                next_op: AtomicU64::new(0),
                traced_logs: Vec::new(),
            },
            BuildTimes {
                corpus_s,
                task_ms: stats::median(&task_ms),
            },
        )
    }

    fn rep(&mut self, mode: Mode, at: At) -> RepOut {
        let t0 = Instant::now();
        let this = &*self;
        let mut logs: Vec<SessionLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        (0..this.sessions_per_client())
                            .map(|session| {
                                let i = this.task_of(client, session);
                                let op = this.next_op.fetch_add(1, Ordering::Relaxed) + 1;
                                tcp_session(this.addr, &this.tasks[i], &this.programs[i], at.op(op))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let mut out = RepOut {
            work_s: t0.elapsed().as_secs_f64(),
            ..Default::default()
        };
        // Clients finish in any order; results are compared by task.
        logs.sort_by(|a, b| a.task.cmp(&b.task));
        for (log, task) in logs.iter().zip(sorted_by_name(&self.tasks)) {
            out.attempted += log.calls.len() as u64;
            out.failures.extend(log.failures.iter().cloned());
            out.questions += log.answered;
            out.result_tuples += log.expanded;
            out.truth_tuples += task.truth.len() as u64;
            out.input_docs += input_docs(task);
            out.signature
                .push((log.task.clone(), [log.tuples, log.expanded, log.answered]));
            out.waits_ms.extend(
                log.calls
                    .iter()
                    .filter(|c| matches!(c.verb, "ask-question" | "get-results"))
                    .map(|c| c.ms),
            );
        }
        if mode == Mode::Traced {
            let sessions: Vec<f64> = logs.iter().map(|l| l.session_s).collect();
            let over = out
                .waits_ms
                .iter()
                .filter(|&&ms| ms > TURN_LIMIT_MS)
                .count()
                + out.failures.len();
            out.layer.push((
                "service.turn.over_limit_ratio".into(),
                over as f64 / (out.waits_ms.len() + out.failures.len()).max(1) as f64,
            ));
            out.layer
                .push(("service.session.p50_s".into(), stats::median(&sessions)));
            out.layer.push((
                "service.sessions_per_s".into(),
                logs.len() as f64 / out.work_s.max(1e-9),
            ));
            self.traced_logs = logs;
        }
        out
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Separates transport cost from handler cost: the same script over
    /// TCP (one client, so nothing queues) and by direct `handle_line`
    /// calls, per verb; then the host's own latency sketch beside what the
    /// clients saw.
    fn probe_layers(&mut self, at: At, m: &mut Metrics) -> Vec<String> {
        let mut failures = Vec::new();
        let mut solo: Vec<SessionLog> = Vec::new();
        let mut direct: Vec<SessionLog> = Vec::new();
        for (task, program) in self.tasks.iter().zip(&self.programs) {
            solo.push(tcp_session(self.addr, task, program, at));
            let mut log = SessionLog {
                task: task.id.name().to_string(),
                ..Default::default()
            };
            run_script(&mut InProcess(&self.host), task, program, &mut log, at);
            direct.push(log);
        }
        // `stats` is not part of the session script; time it on its own.
        let stats_line = request(vec![("cmd", Json::str("stats"))]);
        let mut stats_log = SessionLog {
            task: "stats".into(),
            ..Default::default()
        };
        let mut stats_direct = SessionLog {
            task: "stats".into(),
            ..Default::default()
        };
        let mut host_stats = None;
        match Tcp::connect(self.addr) {
            Ok(mut tcp) => {
                for _ in 0..8 {
                    host_stats = call(&mut tcp, "stats", &stats_line, &mut stats_log, at);
                    call(
                        &mut InProcess(&self.host),
                        "stats",
                        &stats_line,
                        &mut stats_direct,
                        at,
                    );
                }
            }
            Err(e) => failures.push(format!("stats probe: {e}")),
        }
        solo.push(stats_log);
        direct.push(stats_direct);
        for log in solo.iter().chain(&direct) {
            failures.extend(log.failures.iter().cloned());
        }

        let by_verb = |logs: &[SessionLog], verb: &str| -> Vec<f64> {
            logs.iter()
                .flat_map(|l| &l.calls)
                .filter(|c| c.verb == verb)
                .map(|c| c.ms)
                .collect()
        };
        println!("-- client/server latency cross-check (ms) --");
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "verb", "2-cl p50", "2-cl p90", "solo p50", "direct p50", "transport"
        );
        let mut overheads = Vec::new();
        for verb in VERBS {
            let contended = by_verb(&self.traced_logs, verb);
            let tcp = by_verb(&solo, verb);
            let inproc = by_verb(&direct, verb);
            let overhead = stats::median(&tcp) - stats::median(&inproc);
            overheads.push(overhead);
            m.set(
                &format!("service.host.handle_line_ms.{verb}"),
                stats::median(&inproc),
            );
            println!(
                "{verb:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                stats::median(&contended),
                stats::percentile(&contended, 90.0),
                stats::median(&tcp),
                stats::median(&inproc),
                overhead
            );
        }
        m.set("service.server.tcp_overhead_ms", stats::median(&overheads));
        m.note(
            "service.server.tcp_overhead_ms",
            "median over verbs of solo TCP p50 − direct p50",
        );

        // Time queued behind the other client's connection: how much
        // longer the first reply took with two clients than with one.
        let first = |logs: &[SessionLog]| -> Vec<f64> {
            logs.iter()
                .filter(|l| l.task != "stats")
                .map(|l| l.first_reply_ms)
                .collect()
        };
        let accept_wait =
            (stats::median(&first(&self.traced_logs)) - stats::median(&first(&solo))).max(0.0);
        m.set("service.server.accept_wait_ms", accept_wait);

        if let Some(s) = host_stats {
            let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let (p50, p95) = (num("latency_p50_us") / 1e3, num("latency_p95_us") / 1e3);
            m.set("service.host.server_p50_ms", p50);
            m.set("service.host.server_p95_ms", p95);
            m.set("service.requests", num("requests"));
            m.set(
                "service.rejected",
                num("rejected_admission") + num("rejected_backpressure"),
            );
            m.set("service.watchdog_cancels", num("watchdog_cancels"));
            m.set("service.worker_panics", num("worker_panics"));
            // The host's sketch covers the verbs that go through a session
            // worker, over its whole life; compare like with like.
            let worker: Vec<f64> = self
                .traced_logs
                .iter()
                .flat_map(|l| &l.calls)
                .filter(|c| matches!(c.verb, "ask-question" | "answer" | "get-results"))
                .map(|c| c.ms)
                .collect();
            let (c50, c95) = (stats::median(&worker), stats::percentile(&worker, 95.0));
            println!(
                "session-worker verbs: clients saw p50 {c50:.3} p95 {c95:.3}; host sketch p50 {p50:.3} p95 {p95:.3}; difference p50 {:.3} p95 {:.3}",
                c50 - p50,
                c95 - p95
            );
        }
        failures
    }

    fn finish(mut self) {
        let stopped = Tcp::connect(self.addr)
            .and_then(|mut tcp| tcp.call(&request(vec![("cmd", Json::str("shutdown"))])));
        match (stopped, self.server.take()) {
            (Ok(_), Some(server)) => {
                if !matches!(server.join(), Ok(Ok(()))) {
                    eprintln!("the server thread ended with an error");
                }
            }
            // The listener never saw the request; its thread is blocked in
            // accept() and ends with the process.
            (Err(e), _) => eprintln!("could not stop the server: {e}"),
            (Ok(_), None) => {}
        }
    }
}

fn sorted_by_name(tasks: &[Task]) -> Vec<&Task> {
    let mut v: Vec<&Task> = tasks.iter().collect();
    v.sort_by_key(|t| t.id.name());
    v
}
