//! The seeded chaos harness: replay a fault matrix against a
//! multi-session workload and check the bulkhead invariants.
//!
//! Every scenario arms exactly one fault — on the victim session's
//! engine plan (engine sites) or on the host's service plan (service
//! sites) — then runs three concurrent sessions through the same
//! workload. The invariants:
//!
//! 1. **The process never aborts.** Injected panics are contained at
//!    the rule boundary (engine) or the worker bulkhead (service).
//! 2. **Siblings are untouched.** Sessions 2 and 3 produce responses
//!    byte-identical to a solo run on a fault-free host.
//! 3. **The victim fails safe.** It either still answers exactly,
//!    answers degraded (superset-safe widening), or returns an error
//!    response — never garbage, never a hang past the watchdog.
//! 4. **Degraded state never propagates.** A session created after the
//!    victim ran still matches the solo baseline (degraded results are
//!    never cached, poisoned sessions never publish).
//!
//! Everything is seeded: the same `(seed, quick)` pair replays the
//! same matrix, so a CI failure reproduces locally.

use crate::fixture;
use crate::host::{Host, ServiceConfig};
use crate::json::Json;
use crate::protocol::Request;
use crate::server::{serve_lines, serve_tcp, Client};
use iflex_engine::{fault, Fault, Trigger};
use std::net::SocketAddr;
use std::time::Duration;

/// The outcome of one matrix replay.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Victim responses that came back exact (fault never fired or was
    /// absorbed upstream).
    pub victim_exact: usize,
    /// Victim responses that came back degraded (widened, superset-safe).
    pub victim_degraded: usize,
    /// Victim requests that came back as error responses.
    pub victim_errors: usize,
    /// Invariant violations; empty means the harness passed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held in every scenario.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "chaos: {} scenarios, victim exact/degraded/error {}/{}/{}, {} failures",
            self.scenarios,
            self.victim_exact,
            self.victim_degraded,
            self.victim_errors,
            self.failures.len()
        )
    }
}

fn chaos_cfg() -> ServiceConfig {
    ServiceConfig {
        max_sessions: 8,
        // A fast watchdog keeps the stuck scenarios snappy.
        watchdog_interval: Duration::from_millis(10),
        stuck_limit: Duration::from_millis(500),
        ..ServiceConfig::default()
    }
}

/// Creates a session and runs the canonical workload: answer the
/// bold-font question, fetch results. Returns the `get-results`
/// response (the comparison unit — it carries no ids or timestamps, so
/// equal runs render byte-identically).
fn workload(host: &Host, session: u64) -> Json {
    let _ = host.handle(Request::Answer {
        id: None,
        session,
        attr: fixture::ANSWER_ATTR.into(),
        feature: "bold-font".into(),
        value: "yes".into(),
    });
    host.handle(Request::GetResults { id: None, session, limit: 16 })
}

fn create(host: &Host) -> Result<u64, Json> {
    let resp = host.handle(Request::CreateSession { id: None, program: None });
    resp.get("session").and_then(Json::as_u64).ok_or(resp)
}

/// The fault-free reference: one session, one workload, solo host.
fn solo_baseline() -> String {
    let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
    let sid = create(&host).expect("solo create");
    let resp = workload(&host, sid);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "solo baseline must be clean");
    resp.render()
}

/// Classifies the victim's `get-results` response.
fn classify(report: &mut ChaosReport, baseline: &str, resp: &Json) {
    if resp.get("ok") == Some(&Json::Bool(false)) {
        report.victim_errors += 1;
    } else if resp.get("degraded") == Some(&Json::Bool(true)) {
        report.victim_degraded += 1;
    } else if resp.render() == baseline {
        report.victim_exact += 1;
    } else {
        // ok, not degraded, but different bytes: that is a correctness
        // hole, not a graceful failure.
        report.victim_errors += 1;
        report
            .failures
            .push(format!("victim returned clean but non-baseline result: {}", resp.render()));
    }
}

/// One engine-site scenario: arm the victim's engine, run three
/// concurrent sessions, check the invariants.
#[allow(clippy::too_many_arguments)]
fn engine_scenario(
    report: &mut ChaosReport,
    baseline: &str,
    core: iflex_engine::EngineCore,
    site: &'static str,
    trigger: Trigger,
    fault_kind: &Fault,
    seed: u64,
) {
    report.scenarios += 1;
    let label = format!("{site}/{trigger:?}/{fault_kind:?}");
    let host = Host::new(core, fixture::PROGRAM, chaos_cfg());
    let victim = match create(&host) {
        Ok(s) => s,
        Err(resp) => {
            report.failures.push(format!("{label}: victim create failed: {}", resp.render()));
            return;
        }
    };
    let siblings: Vec<u64> = (0..2).filter_map(|_| create(&host).ok()).collect();
    if siblings.len() != 2 {
        report.failures.push(format!("{label}: sibling create failed"));
        return;
    }
    assert!(host.arm_session(victim, site, trigger, fault_kind.clone(), seed));

    let host_ref = &host;
    let (victim_resp, sibling_resps) = std::thread::scope(|scope| {
        let victim_join = scope.spawn(move || workload(host_ref, victim));
        let sibling_joins: Vec<_> =
            siblings.iter().map(|&s| scope.spawn(move || workload(host_ref, s))).collect();
        (
            victim_join.join().expect("victim thread must not die"),
            sibling_joins
                .into_iter()
                .map(|j| j.join().expect("sibling thread must not die"))
                .collect::<Vec<_>>(),
        )
    });

    classify(report, baseline, &victim_resp);
    for (i, resp) in sibling_resps.iter().enumerate() {
        if resp.render() != baseline {
            report.failures.push(format!(
                "{label}: sibling {i} diverged from solo baseline:\n got {}\n want {baseline}",
                resp.render()
            ));
        }
    }

    // Invariant 4: a *fresh* session after the chaos still matches solo
    // — nothing degraded leaked into the shared core through the caches.
    for &s in &siblings {
        let _ = host.handle(Request::CloseSession { id: None, session: s });
    }
    let _ = host.handle(Request::CloseSession { id: None, session: victim });
    match create(&host) {
        Ok(fresh) => {
            let resp = workload(&host, fresh);
            if resp.render() != baseline {
                report.failures.push(format!(
                    "{label}: post-chaos fresh session diverged: {}",
                    resp.render()
                ));
            }
        }
        Err(resp) => report
            .failures
            .push(format!("{label}: post-chaos create failed: {}", resp.render())),
    }
    host.shutdown();
}

/// Service-layer scenarios: spawn, decode, write (in memory and over
/// TCP), cache-share faults plus the admission-cap check. Tailored
/// assertions per site — these faults live outside any session's
/// bulkhead.
fn service_scenarios(report: &mut ChaosReport, baseline: &str, seed: u64) {
    // session-spawn, transient: retried inside create; everything clean.
    {
        report.scenarios += 1;
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
        host.fault().arm(fault::site::SESSION_SPAWN, Trigger::Nth(0), Fault::Io("spawn".into()), seed);
        match create(&host) {
            Ok(sid) => {
                let resp = workload(&host, sid);
                if resp.render() != baseline {
                    report.failures.push(format!(
                        "spawn/Nth(0): workload diverged: {}",
                        resp.render()
                    ));
                }
            }
            Err(resp) => report
                .failures
                .push(format!("spawn/Nth(0): create failed despite retry: {}", resp.render())),
        }
    }
    // session-spawn, permanent: rejected with a retry hint; host alive.
    {
        report.scenarios += 1;
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
        host.fault().arm(fault::site::SESSION_SPAWN, Trigger::Always, Fault::Io("spawn".into()), seed);
        let resp = host.handle(Request::CreateSession { id: None, program: None });
        if resp.get("retryable") != Some(&Json::Bool(true)) {
            report
                .failures
                .push(format!("spawn/Always: expected retryable rejection, got {}", resp.render()));
        }
        host.fault().disarm_all();
        if create(&host).is_err() {
            report.failures.push("spawn/Always: host did not recover after disarm".into());
        }
    }
    // request-decode: victim's transcript loses a request to a decode
    // fault (retryable), a concurrent direct-API sibling is untouched.
    {
        report.scenarios += 1;
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
        host.fault().arm(fault::site::REQUEST_DECODE, Trigger::Nth(0), Fault::Io("line".into()), seed);
        let sibling = create(&host).expect("sibling create");
        let (transcript, sibling_resp) = std::thread::scope(|scope| {
            let t = scope.spawn(|| {
                let mut out = Vec::new();
                serve_lines(
                    &host,
                    "{\"cmd\":\"stats\",\"id\":\"lost\"}\n{\"cmd\":\"stats\",\"id\":\"kept\"}\n"
                        .as_bytes(),
                    &mut out,
                )
                .expect("serve_lines io");
                String::from_utf8(out).expect("utf8 transcript")
            });
            let s = scope.spawn(|| workload(&host, sibling));
            (t.join().expect("transcript thread"), s.join().expect("sibling thread"))
        });
        if !transcript.lines().next().map(|l| l.contains("retryable\":true")).unwrap_or(false) {
            report.failures.push(format!("decode: first response not retryable: {transcript}"));
        }
        if !transcript.contains("\"kept\"") {
            report.failures.push("decode: second request did not survive".into());
        }
        if sibling_resp.render() != baseline {
            report
                .failures
                .push(format!("decode: sibling diverged: {}", sibling_resp.render()));
        }
    }
    // response-write: persistent write faults lose responses but leave
    // the host and a direct-API sibling fully intact.
    {
        report.scenarios += 1;
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
        host.fault().arm(fault::site::RESPONSE_WRITE, Trigger::Always, Fault::Io("wire".into()), seed);
        let sibling = create(&host).expect("sibling create");
        let mut out = Vec::new();
        serve_lines(&host, "{\"cmd\":\"stats\"}\n".as_bytes(), &mut out).expect("serve_lines io");
        if !out.is_empty() {
            report.failures.push("write/Always: response should have been lost".into());
        }
        host.fault().disarm_all();
        let resp = workload(&host, sibling);
        if resp.render() != baseline {
            report.failures.push(format!("write: sibling diverged: {}", resp.render()));
        }
    }
    // response-write over TCP: see `tcp_write_scenario`.
    {
        report.scenarios += 1;
        if let Err(e) = tcp_write_scenario(baseline, seed) {
            report.failures.push(format!("tcp-write: {e}"));
        }
    }
    // cache-share: every hand-off faulted — sessions run cold, results
    // must still be byte-identical (entries are pure; sharing is an
    // optimization, never a correctness dependency).
    {
        report.scenarios += 1;
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
        host.fault().arm(fault::site::CACHE_SHARE, Trigger::Always, Fault::Io("share".into()), seed);
        match create(&host) {
            Ok(sid) => {
                let resp = workload(&host, sid);
                if resp.render() != baseline {
                    report
                        .failures
                        .push(format!("cache-share: cold session diverged: {}", resp.render()));
                }
            }
            Err(resp) => report
                .failures
                .push(format!("cache-share: create failed: {}", resp.render())),
        }
    }
    // admission: the cap holds under a create storm.
    {
        report.scenarios += 1;
        let host = Host::new(
            fixture::tiny_core(),
            fixture::PROGRAM,
            ServiceConfig { max_sessions: 2, ..chaos_cfg() },
        );
        let created: Vec<_> = (0..4).map(|_| create(&host)).collect();
        let admitted = created.iter().filter(|r| r.is_ok()).count();
        if admitted != 2 {
            report.failures.push(format!("admission: cap 2 admitted {admitted}"));
        }
        for r in created.iter().filter_map(|r| r.as_ref().err()) {
            if r.get("retryable") != Some(&Json::Bool(true)) {
                report
                    .failures
                    .push(format!("admission: rejection not retryable: {}", r.render()));
            }
        }
    }
}

/// response-write over TCP: every reply to the victim connection is
/// lost while a sibling connection holds a session on the same listener.
/// The sibling's transcript must match the solo baseline byte for byte,
/// the victim's replies must all be counted as lost, and the listener
/// must still accept a connection and stop when told to. The fault plan
/// is host-wide, so the sibling speaks before the fault is armed and
/// after the victim is done: what the two share is the listener, not the
/// instant.
fn tcp_write_scenario(baseline: &str, seed: u64) -> Result<(), String> {
    let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_tcp(&host, "127.0.0.1:0", move |a| {
                let _ = addr_tx.send(a);
            })
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| "listener never bound".to_string())?;
        let outcome = tcp_victim_and_sibling(&host, addr, baseline, seed);
        host.fault().disarm_all();
        Client::connect(addr)
            .and_then(|mut c| c.call("{\"cmd\":\"shutdown\"}"))
            .map_err(|e| format!("listener did not survive: {e}"))?;
        match server.join() {
            Ok(Ok(())) => outcome,
            Ok(Err(e)) => Err(format!("serve_tcp failed: {e}")),
            Err(_) => Err("serve_tcp panicked".into()),
        }
    })
}

fn tcp_victim_and_sibling(host: &Host, addr: SocketAddr, baseline: &str, seed: u64) -> Result<(), String> {
    let io = |e: std::io::Error| format!("socket: {e}");
    let mut sibling = Client::connect(addr).map_err(io)?;
    let created = sibling.call("{\"cmd\":\"create-session\"}").map_err(io)?;
    let session = crate::json::parse(&created)
        .ok()
        .and_then(|j| j.get("session").and_then(Json::as_u64))
        .ok_or_else(|| format!("sibling create failed: {created}"))?;

    host.fault().arm(fault::site::RESPONSE_WRITE, Trigger::Always, Fault::Io("wire".into()), seed);
    let mut victim = Client::connect(addr).map_err(io)?;
    for _ in 0..3 {
        victim.send("{\"cmd\":\"stats\"}").map_err(io)?;
    }
    // Half-close: the server works through all three requests, meets the
    // end of the input and closes, so EOF here means all three are done.
    victim.finish_sending().map_err(io)?;
    let got = victim.recv().map_err(io)?;
    host.fault().disarm_all();
    if let Some(reply) = got {
        return Err(format!("victim replies should have been lost, got {reply}"));
    }
    let lost = host.metrics().counter_value("service.responses_lost");
    if lost != Some(3) {
        return Err(format!("3 victim replies were lost, the counter says {lost:?}"));
    }

    let answer = Json::obj(vec![
        ("cmd", Json::str("answer")),
        ("session", Json::num(session)),
        ("attr", Json::str(fixture::ANSWER_ATTR)),
        ("feature", Json::str("bold-font")),
        ("value", Json::str("yes")),
    ]);
    sibling.call(&answer.render()).map_err(io)?;
    let results = sibling
        .call(&format!("{{\"cmd\":\"get-results\",\"session\":{session},\"limit\":16}}"))
        .map_err(io)?;
    if results != baseline {
        return Err(format!("sibling diverged:\n got {results}\n want {baseline}"));
    }
    Ok(())
}

/// Flight-recorder scenarios: the two hard-failure triggers — a worker
/// panic inside the bulkhead and a watchdog cancel of a stuck run —
/// must each leave a JSONL dump holding the victim session's recent
/// events, while sibling sessions keep answering byte-identically to
/// the solo baseline. (Invariant 2 extended with the observability
/// contract: a post-mortem exists, and capturing it perturbs nobody.)
fn flight_scenarios(report: &mut ChaosReport, baseline: &str, seed: u64) {
    // Worker panic: the injected panic fires on the victim's first job.
    {
        report.scenarios += 1;
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, chaos_cfg());
        let victim = create(&host).expect("victim create");
        let siblings: Vec<u64> = (0..2).filter_map(|_| create(&host).ok()).collect();
        assert!(host.arm_session(
            victim,
            fault::site::WORKER_JOB,
            Trigger::Nth(0),
            Fault::Panic("chaos".into()),
            seed,
        ));
        let host_ref = &host;
        let (victim_resp, sibling_resps) = std::thread::scope(|scope| {
            let v = scope.spawn(move || workload(host_ref, victim));
            let s: Vec<_> =
                siblings.iter().map(|&s| scope.spawn(move || workload(host_ref, s))).collect();
            (
                v.join().expect("victim thread"),
                s.into_iter().map(|j| j.join().expect("sibling thread")).collect::<Vec<_>>(),
            )
        });
        if victim_resp.get("ok") != Some(&Json::Bool(false)) {
            report.failures.push(format!(
                "flight/panic: victim should be poisoned, got {}",
                victim_resp.render()
            ));
        }
        for (i, resp) in sibling_resps.iter().enumerate() {
            if resp.render() != baseline {
                report
                    .failures
                    .push(format!("flight/panic: sibling {i} diverged: {}", resp.render()));
            }
        }
        let dumps = host.flight_dumps();
        match dumps.iter().find(|d| d.reason == "worker_panic" && d.session == victim) {
            Some(d) => {
                // The ring must hold the victim's history up to the blast:
                // its create event precedes the panic-killed job.
                if !d.jsonl.contains("\"kind\":\"session\"") {
                    report.failures.push(format!(
                        "flight/panic: dump misses the victim's prior events: {}",
                        d.jsonl
                    ));
                }
            }
            None => report
                .failures
                .push(format!("flight/panic: no worker_panic dump for victim (have {:?})",
                    dumps.iter().map(|d| (&d.reason, d.session)).collect::<Vec<_>>())),
        }
        host.shutdown();
    }
    // Watchdog cancel: a stuck victim is cancelled and dumped; siblings
    // running the real workload concurrently stay on the baseline.
    {
        report.scenarios += 1;
        let cfg = ServiceConfig {
            watchdog_interval: Duration::from_millis(5),
            stuck_limit: Duration::from_millis(40),
            ..chaos_cfg()
        };
        let host = Host::new(fixture::tiny_core(), fixture::PROGRAM, cfg);
        let victim = create(&host).expect("victim create");
        let siblings: Vec<u64> = (0..2).filter_map(|_| create(&host).ok()).collect();
        let host_ref = &host;
        let (victim_resp, sibling_resps) = std::thread::scope(|scope| {
            let v = scope.spawn(move || {
                host_ref.handle(Request::Sleep { id: None, session: victim, ms: 400 })
            });
            let s: Vec<_> =
                siblings.iter().map(|&s| scope.spawn(move || workload(host_ref, s))).collect();
            (
                v.join().expect("victim thread"),
                s.into_iter().map(|j| j.join().expect("sibling thread")).collect::<Vec<_>>(),
            )
        });
        if victim_resp.get("cancelled") != Some(&Json::Bool(true)) {
            report.failures.push(format!(
                "flight/watchdog: stuck run not cancelled: {}",
                victim_resp.render()
            ));
        }
        for (i, resp) in sibling_resps.iter().enumerate() {
            if resp.render() != baseline {
                report
                    .failures
                    .push(format!("flight/watchdog: sibling {i} diverged: {}", resp.render()));
            }
        }
        let dumps = host.flight_dumps();
        match dumps.iter().find(|d| d.reason == "watchdog_cancel" && d.session == victim) {
            Some(d) => {
                if !d.jsonl.contains("\"kind\":\"cancel\"") || !d.jsonl.contains("watchdog") {
                    report.failures.push(format!(
                        "flight/watchdog: dump misses the cancel event: {}",
                        d.jsonl
                    ));
                }
            }
            None => report.failures.push("flight/watchdog: no watchdog_cancel dump".into()),
        }
        host.shutdown();
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// backtrace spam of *injected* panics — they are expected and contained
/// — while leaving every real panic's diagnostics intact.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
    });
}

/// Replays the matrix. `quick` trims the engine-site sweep for CI smoke
/// runs; the full sweep covers every (site × fault × trigger) combo.
pub fn run_matrix(seed: u64, quick: bool) -> ChaosReport {
    silence_injected_panics();
    let mut report = ChaosReport::default();
    let baseline = solo_baseline();

    let engine_sites: &[&'static str] = &[
        fault::site::EVAL_RULE,
        fault::site::JOIN_TUPLE,
        fault::site::GENERATOR,
        fault::site::ANNOTATE,
        fault::site::MEMO_LOOKUP,
    ];
    let faults: Vec<Fault> = if quick {
        vec![Fault::Panic("chaos".into()), Fault::TooLarge]
    } else {
        vec![
            Fault::Panic("chaos".into()),
            Fault::TooLarge,
            Fault::DeadlineExpired,
            Fault::Io("chaos".into()),
        ]
    };
    let triggers: Vec<Trigger> = if quick {
        vec![Trigger::Always]
    } else {
        vec![Trigger::Nth(0), Trigger::Always, Trigger::PerMille(350)]
    };

    let mut scenario_seed = seed;
    for site in engine_sites {
        for f in &faults {
            for t in &triggers {
                scenario_seed = scenario_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                engine_scenario(&mut report, &baseline, fixture::tiny_core(), site, *t, f, scenario_seed);
            }
        }
    }
    // Worker-steal victim: the thief panics the instant it begins a
    // stolen morsel (`engine.par_steal`) — the worst spot for the
    // dispenser's bookkeeping. Only reachable with a worker pool, so this
    // scenario runs on a core with threads and one-tuple morsels. Steals
    // are timing-dependent; a run where none happens leaves the victim
    // exact, which the invariants accept — either way the siblings and a
    // fresh post-chaos session must match the *serial* solo baseline
    // byte-for-byte, proving the parallel core computes the same bytes.
    scenario_seed = scenario_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    engine_scenario(
        &mut report,
        &baseline,
        fixture::stealing_core(),
        fault::site::PAR_STEAL,
        Trigger::Always,
        &Fault::Panic("mid-steal".into()),
        scenario_seed,
    );
    service_scenarios(&mut report, &baseline, seed);
    flight_scenarios(&mut report, &baseline, seed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_holds_every_invariant() {
        let report = run_matrix(7, true);
        assert!(report.passed(), "chaos failures:\n{}", report.failures.join("\n"));
        // 5 engine sites x 2 faults x 1 trigger + 1 worker-steal victim
        // + 7 service scenarios + 2 flight-recorder scenarios.
        assert_eq!(report.scenarios, 20);
        // Always-triggered faults must actually bite the victim.
        assert!(
            report.victim_degraded + report.victim_errors > 0,
            "no scenario perturbed the victim: {}",
            report.summary()
        );
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let a = run_matrix(1729, true);
        let b = run_matrix(1729, true);
        assert_eq!(a.victim_exact, b.victim_exact);
        assert_eq!(a.victim_degraded, b.victim_degraded);
        assert_eq!(a.victim_errors, b.victim_errors);
        assert_eq!(a.failures, b.failures);
    }
}
