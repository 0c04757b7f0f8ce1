//! The iFlex multi-session server binary.
//!
//! ```text
//! service                    serve JSON lines on stdin/stdout (Movies corpus)
//! service --tcp ADDR         serve JSON lines over TCP (e.g. 127.0.0.1:7878),
//!                            a thread per connection
//! service --smoke            protocol + resilience smoke gate (tier-1): the
//!                            scripted transcript in memory, then over two
//!                            concurrent sockets, then the telemetry surface
//! service --chaos [--seed N] [--full]
//!                            replay the seeded fault matrix; nonzero exit on
//!                            any isolation violation
//! ```

use iflex_corpus::{Corpus, CorpusConfig};
use iflex_engine::Engine;
use iflex_service::{chaos, fixture, serve_lines, serve_stdio, serve_tcp, Client, Host, Json, ServiceConfig};
use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The default program served over the Movies corpus — the same starting
/// point as the interactive example.
const MOVIES_PROGRAM: &str = "q(x, title) :- imdb(x), extractTitle(#x, title).\n\
                              extractTitle(#x, t) :- from(#x, t), bold-font(t) = yes.\n";

fn corpus_host() -> Host {
    let corpus = Corpus::build(CorpusConfig::tiny());
    let mut engine = Engine::new(corpus.store.clone());
    let imdb: Vec<_> = corpus.movies.imdb.iter().map(|(d, _)| *d).collect();
    let ebert: Vec<_> = corpus.movies.ebert.iter().map(|(d, _)| *d).collect();
    engine.add_doc_table("imdb", &imdb);
    engine.add_doc_table("ebert", &ebert);
    Host::new(engine.into_core(), MOVIES_PROGRAM, ServiceConfig::default())
}

/// Drives a scripted transcript through the line server and asserts the
/// protocol behaves: session lifecycle works, results are exact, the
/// admission cap holds. Returns an error string on the first violation.
fn smoke() -> Result<(), String> {
    let cfg = ServiceConfig { max_sessions: 2, ..ServiceConfig::default() };
    let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, cfg);
    let script = "{\"cmd\":\"create-session\",\"id\":\"s1\"}\n\
                  {\"cmd\":\"ask-question\",\"session\":1,\"count\":2}\n\
                  {\"cmd\":\"answer\",\"session\":1,\"attr\":\"extractV.v\",\"feature\":\"bold-font\",\"value\":\"yes\"}\n\
                  {\"cmd\":\"get-results\",\"session\":1,\"limit\":8}\n\
                  {\"cmd\":\"create-session\",\"id\":\"s2\"}\n\
                  {\"cmd\":\"create-session\",\"id\":\"s3\"}\n\
                  {\"cmd\":\"stats\"}\n\
                  {\"cmd\":\"close-session\",\"session\":1}\n\
                  {\"cmd\":\"shutdown\"}\n";
    let mut out = Vec::new();
    serve_lines(&host, script.as_bytes(), &mut out).map_err(|e| format!("serve failed: {e}"))?;
    let out = String::from_utf8(out).map_err(|e| format!("non-utf8 output: {e}"))?;
    let responses: Vec<Json> = out
        .lines()
        .map(|l| iflex_service::json::parse(l).map_err(|e| format!("bad response {l:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let expect = |i: usize, field: &str, want: &Json| -> Result<(), String> {
        let got = responses
            .get(i)
            .ok_or_else(|| format!("missing response {i}"))?
            .get(field);
        if got == Some(want) {
            Ok(())
        } else {
            Err(format!("response {i}: {field} = {got:?}, want {want:?}"))
        }
    };
    if responses.len() != 9 {
        return Err(format!("expected 9 responses, got {}:\n{out}", responses.len()));
    }
    expect(0, "ok", &Json::Bool(true))?;
    expect(1, "ok", &Json::Bool(true))?;
    expect(2, "applied", &Json::Bool(true))?;
    expect(3, "degraded", &Json::Bool(false))?;
    expect(3, "tuples", &Json::num(5))?;
    expect(4, "ok", &Json::Bool(true))?;
    // Third create exceeds max_sessions=2: rejected with a retry hint.
    expect(5, "ok", &Json::Bool(false))?;
    expect(5, "retryable", &Json::Bool(true))?;
    expect(6, "sessions", &Json::num(2))?;
    expect(7, "published", &Json::Bool(true))?;
    expect(8, "drained_sessions", &Json::num(1))?;
    tcp_smoke()?;
    telemetry_smoke()
}

/// One session's worth of the smoke transcript over its own socket.
/// Returns every round trip's duration.
fn tcp_client(addr: SocketAddr) -> Result<Vec<Duration>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut trips = Vec::new();
    let mut call = |line: String| -> Result<Json, String> {
        let t0 = Instant::now();
        let reply = client.call(&line).map_err(|e| format!("no reply to {line}: {e}"))?;
        trips.push(t0.elapsed());
        iflex_service::json::parse(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
    };
    let created = call("{\"cmd\":\"create-session\"}".into())?;
    let session = created
        .get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("create failed: {}", created.render()))?;
    call(format!("{{\"cmd\":\"ask-question\",\"session\":{session},\"count\":2}}"))?;
    let answered = call(format!(
        "{{\"cmd\":\"answer\",\"session\":{session},\"attr\":\"extractV.v\",\"feature\":\"bold-font\",\"value\":\"yes\"}}"
    ))?;
    if answered.get("applied") != Some(&Json::Bool(true)) {
        return Err(format!("answer not applied: {}", answered.render()));
    }
    for _ in 0..4 {
        let results = call(format!("{{\"cmd\":\"get-results\",\"session\":{session},\"limit\":8}}"))?;
        if results.get("tuples") != Some(&Json::num(5)) || results.get("degraded") != Some(&Json::Bool(false)) {
            return Err(format!("wrong results over TCP: {}", results.render()));
        }
    }
    let closed = call(format!("{{\"cmd\":\"close-session\",\"session\":{session}}}"))?;
    if closed.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("close failed: {}", closed.render()));
    }
    Ok(trips)
}

/// The TCP pass of the smoke gate: two clients at once against
/// `serve_tcp`, every reply checked, and the median round trip under
/// 5 ms — a reply that leaves in two segments takes ≈44 ms.
fn tcp_smoke() -> Result<(), String> {
    // Room for the two clients and the connection that stops the server.
    let cfg = ServiceConfig { max_sessions: 3, ..ServiceConfig::default() };
    let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, cfg);
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_tcp(&host, "127.0.0.1:0", move |a| {
                let _ = addr_tx.send(a);
            })
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| "serve_tcp never bound 127.0.0.1:0".to_string())?;
        // Connected first, so it is inside the connection bound for sure.
        let control = Client::connect(addr);
        let clients: Vec<_> = (0..2).map(|_| scope.spawn(move || tcp_client(addr))).collect();
        let outcomes: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|_| Err("a smoke client panicked".into())))
            .collect();
        // Stop the listener before reporting, whatever the clients found.
        control
            .and_then(|mut c| c.send("{\"cmd\":\"shutdown\"}"))
            .map_err(|e| format!("could not stop serve_tcp: {e}"))?;
        match server.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("serve_tcp failed: {e}")),
            Err(_) => return Err("serve_tcp panicked".into()),
        }
        let mut trips = Vec::new();
        for outcome in outcomes {
            trips.extend(outcome?);
        }
        trips.sort();
        let median = trips[trips.len() / 2];
        println!(
            "service smoke: {} TCP round trips over 2 concurrent connections, median {:.3} ms",
            trips.len(),
            median.as_secs_f64() * 1e3
        );
        if median >= Duration::from_millis(5) {
            return Err(format!("median TCP round trip {median:?} is not under 5 ms"));
        }
        Ok(())
    })
}

/// Scrapes one exposition via the server's `GET /metrics` path and
/// returns the parsed `(name-with-labels, value)` samples.
fn scrape(host: &Host) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    serve_lines(host, "GET /metrics HTTP/1.1\n".as_bytes(), &mut out)
        .map_err(|e| format!("scrape failed: {e}"))?;
    let text = String::from_utf8(out).map_err(|e| format!("non-utf8 scrape: {e}"))?;
    if !text.starts_with("HTTP/1.1 200 OK\r\n") {
        return Err(format!("scrape is not an HTTP 200: {text}"));
    }
    let body = text
        .split("\r\n\r\n")
        .nth(1)
        .ok_or_else(|| format!("scrape has no body: {text}"))?;
    let mut samples = Vec::new();
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("exposition line has no value: {line:?}"))?;
        let value: f64 =
            value.parse().map_err(|_| format!("non-numeric sample: {line:?}"))?;
        samples.push((name.to_string(), value));
    }
    Ok(samples)
}

/// The live-telemetry smoke gate: with telemetry on (the default), the
/// exposition endpoint must parse, carry per-session quantile and
/// window series, and visibly change between two scrapes separated by
/// traffic.
fn telemetry_smoke() -> Result<(), String> {
    let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, ServiceConfig::default());
    let drive = |n: usize| -> Result<(), String> {
        for _ in 0..n {
            let r = host.handle_line("{\"cmd\":\"get-results\",\"session\":1,\"limit\":4}");
            if r.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("get-results failed: {}", r.render()));
            }
        }
        Ok(())
    };
    let created = host.handle_line("{\"cmd\":\"create-session\"}");
    if created.get("session").and_then(Json::as_u64) != Some(1) {
        return Err(format!("create failed: {}", created.render()));
    }
    drive(2)?;
    let first = scrape(&host)?;
    drive(3)?;
    let second = scrape(&host)?;
    let find = |samples: &[(String, f64)], name: &str| -> Result<f64, String> {
        samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("exposition misses {name}"))
    };
    // Per-session p99 and window series exist and parse.
    let p99 = find(&first, "iflex_session_ask_to_answer_us{session=\"1\",quantile=\"0.99\"}")?;
    if p99 <= 0.0 {
        return Err(format!("session p99 not populated: {p99}"));
    }
    find(&first, "iflex_session_requests_rate{session=\"1\",window=\"10s\"}")?;
    find(&first, "iflex_session_run_us{session=\"1\",quantile=\"0.99\"}")?;
    // Traffic between scrapes moves the lifetime and sketch counts.
    let c1 = find(&first, "iflex_service_requests")?;
    let c2 = find(&second, "iflex_service_requests")?;
    if c2 <= c1 {
        return Err(format!("request counter frozen across scrapes: {c1} → {c2}"));
    }
    let s1 = find(&first, "iflex_service_ask_to_answer_us_count")?;
    let s2 = find(&second, "iflex_service_ask_to_answer_us_count")?;
    if s2 <= s1 {
        return Err(format!("latency sketch frozen across scrapes: {s1} → {s2}"));
    }
    // The protocol-side surface agrees: scoped stats, health, metrics.
    let stats = host.handle_line("{\"cmd\":\"stats\",\"session\":1}");
    if stats.get("requests_60s").and_then(Json::as_f64).unwrap_or(0.0) <= 0.0 {
        return Err(format!("scoped stats has no live rate: {}", stats.render()));
    }
    let health = host.handle_line("{\"cmd\":\"health\"}");
    if health.get("healthy") != Some(&Json::Bool(true)) {
        return Err(format!("fresh host must be healthy: {}", health.render()));
    }
    let metrics = host.handle_line("{\"cmd\":\"metrics\"}");
    if metrics.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("metrics command failed: {}", metrics.render()));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };

    if has("--smoke") {
        match smoke() {
            Ok(()) => println!("service smoke OK"),
            Err(e) => {
                eprintln!("service smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if has("--chaos") {
        let seed: u64 = value_of("--seed").and_then(|s| s.parse().ok()).unwrap_or(7);
        let quick = !has("--full");
        let report = chaos::run_matrix(seed, quick);
        println!("{}", report.summary());
        if !report.passed() {
            for f in &report.failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    let host = corpus_host();
    if let Some(addr) = value_of("--tcp") {
        eprintln!("iflex service: listening on {addr}");
        let served = std::thread::scope(|scope| {
            // Rejected connections, reported once a second at most.
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let rejected = || host.metrics().counter_value("service.rejected_connections").unwrap_or(0);
            scope.spawn(move || {
                let mut seen = 0;
                while done_rx.recv_timeout(Duration::from_secs(1)) == Err(RecvTimeoutError::Timeout) {
                    let now = rejected();
                    if now > seen {
                        eprintln!("iflex service: turned away {} connections (too many open)", now - seen);
                        seen = now;
                    }
                }
            });
            let served = serve_tcp(&host, &addr, |a| eprintln!("iflex service: bound {a}"));
            drop(done_tx);
            served
        });
        if let Err(e) = served {
            eprintln!("iflex service: {e}");
            std::process::exit(1);
        }
    } else {
        eprintln!("iflex service: JSON lines on stdio; send {{\"cmd\":\"shutdown\"}} to stop");
        if let Err(e) = serve_stdio(&host) {
            eprintln!("iflex service: {e}");
            std::process::exit(1);
        }
    }
}
