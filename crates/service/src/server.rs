//! Transports: JSON-lines over stdio or TCP, one request per line.
//!
//! The transport is deliberately thin — all policy lives in the
//! [`Host`]. What the transport does own:
//!
//! * **Framing.** A request is one line of at most [`MAX_LINE_BYTES`]
//!   bytes of UTF-8; a longer or non-UTF-8 line gets a non-retryable
//!   error reply and the connection carries on with the next line.
//! * **One write per reply.** Body and newline are rendered into a
//!   buffer the connection reuses and leave in a single `write_all`. Two
//!   small writes per reply are what Nagle's algorithm and the client's
//!   delayed ACK turn into a ≈40 ms stall on every reply but the first.
//! * **Its two fault sites**: `service.request_decode` (a fired fault
//!   poisons the incoming line, modelling a corrupted read) and
//!   `service.response_write` (a fired fault makes the write transiently
//!   fail; the server retries with exponential backoff before giving the
//!   response up as lost — the client's retry, keyed by its request
//!   `id`, recovers).
//! * **Connections** ([`serve_tcp`]): a thread each over the shared
//!   host, bounded by `ServiceConfig::max_sessions`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::host::{Host, RETRY_AFTER_MS};
use crate::json::Json;
use crate::protocol::{decode, err_response, DecodeError, Request};
use iflex_engine::fault;

/// How many write attempts (first try + retries) a response gets.
const WRITE_ATTEMPTS: u32 = 4;

/// The longest request line the transport accepts, newline excluded.
/// Bounds what one connection can make the server buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_request_line`] found.
enum Line {
    /// The input ended.
    Eof,
    /// The buffer holds one line, terminator stripped.
    Ready,
    /// The line ran past [`MAX_LINE_BYTES`]; it has been skipped.
    TooLong,
}

/// Reads the next line into `line` (cleared first), never buffering more
/// than `MAX_LINE_BYTES + 1` bytes of it.
fn read_request_line<R: BufRead>(input: &mut R, line: &mut Vec<u8>) -> io::Result<Line> {
    line.clear();
    let n = input
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_LINE_BYTES {
        skip_past_newline(input)?;
        return Ok(Line::TooLong);
    }
    // Otherwise the input ended inside its last line: serve it.
    Ok(Line::Ready)
}

/// Discards input up to and including the next newline (or the end).
fn skip_past_newline<R: BufRead>(input: &mut R) -> io::Result<()> {
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let (used, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), buf.is_empty()),
        };
        input.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Serves one connection's request lines until EOF or `shutdown`.
/// Returns `true` when the loop ended because of a `shutdown` request
/// (the caller should stop accepting).
pub fn serve_lines<R: BufRead, W: Write>(host: &Host, mut input: R, mut out: W) -> io::Result<bool> {
    // Both buffers live as long as the connection and are reused by
    // every request on it.
    let mut line = Vec::new();
    let mut reply = String::new();
    loop {
        let text = match read_request_line(&mut input, &mut line)? {
            Line::Eof => return Ok(false),
            Line::TooLong => Err("request line is longer than 1 MiB"),
            Line::Ready => std::str::from_utf8(&line).map_err(|_| "request line is not valid UTF-8"),
        };
        let mut is_shutdown = false;
        let resp = match text {
            Ok(text) if text.trim().is_empty() => continue,
            // A Prometheus scraper speaks HTTP, not JSON-lines: answer a
            // raw `GET /metrics` request line with one complete HTTP
            // response and close the connection (scrapes are one-shot).
            Ok(text) if text.starts_with("GET /metrics") => {
                write_exposition(host, &mut out, &mut reply)?;
                return Ok(false);
            }
            Err(msg) => host.decode_failed(&DecodeError { msg: msg.into(), id: None }),
            Ok(_) if host.fault().hit(fault::site::REQUEST_DECODE).is_some() => {
                // The read "corrupted" this request: report it as retryable
                // so the client resends; the request itself is never
                // executed (no partial effects to undo).
                host.counters().decode_faults.inc();
                err_response(None, "transient decode failure, resend", Some(10))
            }
            Ok(text) => match decode(text) {
                Ok(req) => {
                    is_shutdown = matches!(req, Request::Shutdown { .. });
                    host.handle(req)
                }
                Err(e) => host.decode_failed(&e),
            },
        };
        let written = write_response(host, &mut out, &resp, &mut reply);
        // The host has drained whether or not the client was still there
        // to read the reply, so the caller must stop either way.
        if is_shutdown {
            return Ok(true);
        }
        written?;
    }
}

/// Writes the Prometheus text exposition as one HTTP/1.1 response.
fn write_exposition<W: Write>(host: &Host, out: &mut W, buf: &mut String) -> io::Result<()> {
    let body = host.render_prometheus();
    buf.clear();
    // Formatting into a `String` cannot fail.
    let _ = write!(
        buf,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    buf.push_str(&body);
    out.write_all(buf.as_bytes())?;
    out.flush()
}

/// Writes one response line with a single `write_all`, retrying injected
/// transient write faults with exponential backoff (1ms, 2ms, 4ms). Real
/// `io::Error`s from the sink still propagate — a closed pipe is not
/// transient.
fn write_response<W: Write>(host: &Host, out: &mut W, resp: &Json, buf: &mut String) -> io::Result<()> {
    let mut backoff = Duration::from_millis(1);
    for attempt in 0..WRITE_ATTEMPTS {
        if host.fault().hit(fault::site::RESPONSE_WRITE).is_some() {
            host.counters().write_faults.inc();
            if attempt + 1 == WRITE_ATTEMPTS {
                // Response lost; the connection survives. Clients match
                // replies by id and re-ask after a timeout.
                host.counters().responses_lost.inc();
                return Ok(());
            }
            std::thread::sleep(backoff);
            backoff *= 2;
            continue;
        }
        buf.clear();
        resp.render_into(buf);
        buf.push('\n');
        out.write_all(buf.as_bytes())?;
        return out.flush();
    }
    Ok(())
}

/// Serves stdin/stdout until EOF or `shutdown`.
pub fn serve_stdio(host: &Host) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_lines(host, stdin.lock(), stdout.lock()).map(|_| ())
}

/// The sockets of the live connections, so that `shutdown` can end them.
type Live = Mutex<HashMap<u64, Arc<TcpStream>>>;

/// Every update of the table is a single insert or remove, so it is
/// valid even if a holder of the lock panicked.
fn lock(live: &Live) -> MutexGuard<'_, HashMap<u64, Arc<TcpStream>>> {
    live.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One admitted connection's place in the live table and in the host's
/// `connections` gauge; dropping it gives both back.
struct Slot<'a> {
    host: &'a Host,
    live: &'a Live,
    key: u64,
}

impl<'a> Slot<'a> {
    fn take(host: &'a Host, live: &'a Live, key: u64, conn: Arc<TcpStream>) -> Self {
        lock(live).insert(key, conn);
        host.connections().fetch_add(1, Ordering::Relaxed);
        Slot { host, live, key }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        lock(self.live).remove(&self.key);
        self.host.connections().fetch_sub(1, Ordering::Relaxed);
    }
}

/// Turns a connection away with one retryable error line.
fn reject(host: &Host, mut conn: TcpStream, live: u64) {
    host.counters().rejected_connections.inc();
    let mut line =
        err_response(None, &format!("connection table full ({live} live)"), Some(RETRY_AFTER_MS))
            .render();
    line.push('\n');
    // The peer may already be gone; there is nobody else to tell.
    let _ = conn.write_all(line.as_bytes());
}

/// Serves TCP connections on `addr` (e.g. `127.0.0.1:7878`), each on a
/// thread of its own over the shared host, until one of them issues
/// `shutdown`. Returns the bound local address via `on_bound` before
/// accepting (tests use an OS-assigned port).
///
/// At most `ServiceConfig::max_sessions` connections are live at once;
/// one more is answered with a single retryable error line carrying
/// `retry_after_ms` and closed. `shutdown` on any connection drains the
/// host, stops the accept loop, closes the other connections (their
/// clients see EOF) and returns once every connection thread has ended.
pub fn serve_tcp(host: &Host, addr: &str, on_bound: impl FnOnce(SocketAddr)) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    on_bound(local);
    // Where a connection thread connects to get `accept` to return.
    let wake = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => SocketAddr::new(Ipv4Addr::LOCALHOST.into(), local.port()),
        IpAddr::V6(ip) if ip.is_unspecified() => SocketAddr::new(Ipv6Addr::LOCALHOST.into(), local.port()),
        _ => local,
    };
    let stop = AtomicBool::new(false);
    let live = Live::default();
    let (stop, live) = (&stop, &live);
    let max_live = host.config().max_sessions as u64;
    std::thread::scope(|scope| {
        let mut accepted = 0u64;
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // One broken connection must not take the listener down:
            // whatever fails from here on costs that connection only.
            let Ok(conn) = conn else { continue };
            let now_live = host.connections().load(Ordering::Relaxed);
            if now_live >= max_live {
                reject(host, conn, now_live);
                continue;
            }
            if conn.set_nodelay(true).is_err() {
                continue;
            }
            let conn = Arc::new(conn);
            accepted += 1;
            let slot = Slot::take(host, live, accepted, Arc::clone(&conn));
            // When the thread cannot start, the closure is dropped and
            // with it the slot and the socket.
            let _ = std::thread::Builder::new()
                .name("iflex-conn".into())
                .spawn_scoped(scope, move || {
                    let _slot = slot;
                    if matches!(serve_lines(host, BufReader::new(&*conn), &*conn), Ok(true)) {
                        stop.store(true, Ordering::SeqCst);
                        let _ = TcpStream::connect(wake);
                    }
                });
        }
        for conn in lock(live).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Leaving the scope joins every connection thread.
    });
    Ok(())
}

/// A minimal blocking JSON-lines client of [`serve_tcp`]: what the smoke
/// gate, the chaos harness and this crate's tests talk to it with. A
/// reply that takes more than five seconds is an error, not a hang.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a listening server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line (the newline is added here).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// The next reply line without its newline, or `None` once the
    /// server has closed the connection.
    pub fn recv(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        Ok(match self.reader.read_line(&mut line)? {
            0 => None,
            _ => {
                line.truncate(line.trim_end().len());
                Some(line)
            }
        })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()?.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }

    /// Closes the sending side; replies can still be received.
    pub fn finish_sending(&self) -> io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::ServiceConfig;
    use crate::json;
    use iflex_engine::{Fault, FaultPlan, Trigger};

    fn host() -> Host {
        Host::new(
            crate::fixture::tiny_core(),
            crate::fixture::PROGRAM,
            ServiceConfig::default(),
        )
    }

    fn run_transcript(host: &Host, lines: &str) -> Vec<Json> {
        let mut out = Vec::new();
        serve_lines(host, lines.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn end_to_end_transcript() {
        let host = host();
        let responses = run_transcript(
            &host,
            "{\"cmd\":\"create-session\",\"id\":\"a\"}\n\
             \n\
             {\"cmd\":\"get-results\",\"session\":1,\"limit\":4}\n\
             {\"cmd\":\"stats\"}\n\
             {\"cmd\":\"shutdown\"}\n\
             {\"cmd\":\"stats\"}\n",
        );
        // The blank line is skipped; shutdown ends the loop, so the
        // trailing stats is never answered.
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("a"));
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(responses[2].get("sessions").and_then(Json::as_u64), Some(1));
        assert_eq!(responses[3].get("drained_sessions").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn only_a_shutdown_request_stops_the_loop() {
        let host = host();
        // The word in an id and in a program's text; neither is the verb.
        let program = crate::fixture::PROGRAM.replace("extractV", "shutdown");
        let create = Json::obj(vec![
            ("cmd", Json::str("create-session")),
            ("program", Json::str(program)),
        ])
        .render();
        let mut out = Vec::new();
        let stopped = serve_lines(
            &host,
            format!("{{\"cmd\":\"stats\",\"id\":\"shutdown\"}}\n{create}\n{{\"cmd\":\"stats\"}}\n").as_bytes(),
            &mut out,
        )
        .unwrap();
        assert!(!stopped, "no shutdown was requested");
        let out = String::from_utf8(out).unwrap();
        let responses: Vec<Json> = out.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(responses.len(), 3, "got: {out}");
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("shutdown"));
        for r in &responses {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "got: {out}");
        }
        assert!(host.is_accepting());
        assert_eq!(host.active_sessions(), 1);
    }

    #[test]
    fn shutdown_stops_the_loop_even_when_its_reply_cannot_be_written() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let host = host();
        let stopped = serve_lines(&host, "{\"cmd\":\"shutdown\"}\n".as_bytes(), Closed).unwrap();
        assert!(stopped);
        assert!(!host.is_accepting());
    }

    fn is_rejection(resp: &Json) -> bool {
        resp.get("ok") == Some(&Json::Bool(false)) && resp.get("retryable") == Some(&Json::Bool(false))
    }

    #[test]
    fn oversized_line_is_refused_and_the_next_line_is_served() {
        let host = host();
        let stats = "{\"cmd\":\"stats\"}";
        // Exactly at the bound is a request; one byte more is not.
        let at_bound = format!("{stats}{}", " ".repeat(MAX_LINE_BYTES - stats.len()));
        let over = format!("{at_bound} ");
        let responses = run_transcript(&host, &format!("{over}\n{at_bound}\n{over}\r\n{stats}\n"));
        assert_eq!(responses.len(), 4);
        assert!(is_rejection(&responses[0]), "got: {}", responses[0].render());
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
        assert!(is_rejection(&responses[2]));
        assert_eq!(responses[3].get("ok"), Some(&Json::Bool(true)));
        // A line that never ends is refused once, at the end of input.
        let responses = run_transcript(&host, &"x".repeat(3 * MAX_LINE_BYTES));
        assert_eq!(responses.len(), 1);
        assert!(is_rejection(&responses[0]));
    }

    #[test]
    fn deeply_nested_line_is_refused_and_the_connection_survives() {
        // A 1 MiB line of `[` used to recurse once per byte and overflow
        // the connection thread's stack; it is one invalid-JSON reply now.
        let host = host();
        let nested = "[".repeat(MAX_LINE_BYTES);
        let responses = run_transcript(&host, &format!("{nested}\n{{\"cmd\":\"stats\"}}\n"));
        assert_eq!(responses.len(), 2);
        assert!(is_rejection(&responses[0]), "got: {}", responses[0].render());
        let error = responses[0].get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.starts_with("invalid JSON: nesting too deep"), "{error}");
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
        assert!(host.is_accepting());
    }

    #[test]
    fn oversized_line_is_never_buffered_whole() {
        /// Hands out `left` bytes of one line without an end.
        struct Endless {
            left: usize,
            chunk: [u8; 4096],
        }
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(self.left).min(self.chunk.len());
                buf[..n].copy_from_slice(&self.chunk[..n]);
                self.left -= n;
                Ok(n)
            }
        }
        let mut input = BufReader::new(Endless { left: 8 * MAX_LINE_BYTES, chunk: [b'x'; 4096] });
        let mut line = Vec::new();
        assert!(matches!(read_request_line(&mut input, &mut line).unwrap(), Line::TooLong));
        assert!(line.capacity() <= 2 * (MAX_LINE_BYTES + 1), "buffered {} bytes", line.capacity());
        assert!(matches!(read_request_line(&mut input, &mut line).unwrap(), Line::Eof));
    }

    #[test]
    fn invalid_utf8_is_refused_and_the_connection_survives() {
        let host = host();
        let mut out = Vec::new();
        serve_lines(&host, &b"{\"cmd\":\"st\xff\xfeats\"}\n{\"cmd\":\"stats\"}\n"[..], &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let responses: Vec<Json> = out.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(responses.len(), 2, "got: {out}");
        assert!(is_rejection(&responses[0]));
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(host.metrics().counter_value("service.decode_errors"), Some(1));
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_loop_survives() {
        let host = host();
        let responses = run_transcript(
            &host,
            "this is not json\n\
             {\"cmd\":\"nope\",\"id\":\"z\"}\n\
             {\"cmd\":\"stats\"}\n",
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(responses[1].get("id").and_then(Json::as_str), Some("z"));
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn decode_fault_rejects_without_executing() {
        let host = host();
        host.fault().arm(
            iflex_engine::fault::site::REQUEST_DECODE,
            Trigger::Nth(0),
            Fault::Io("corrupt".into()),
            3,
        );
        let responses = run_transcript(
            &host,
            "{\"cmd\":\"create-session\"}\n\
             {\"cmd\":\"create-session\"}\n",
        );
        // First create was swallowed by the decode fault (retryable),
        // second went through — exactly one session exists.
        assert_eq!(responses[0].get("retryable"), Some(&Json::Bool(true)));
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(host.active_sessions(), 1);
    }

    #[test]
    fn transient_write_fault_is_retried_and_response_arrives() {
        let host = host();
        host.fault().arm(
            iflex_engine::fault::site::RESPONSE_WRITE,
            Trigger::Nth(0),
            Fault::Io("flaky".into()),
            3,
        );
        let responses = run_transcript(&host, "{\"cmd\":\"stats\"}\n");
        assert_eq!(responses.len(), 1, "retry must deliver the response");
        assert_eq!(host.metrics().counter_value("service.write_faults"), Some(1));
        // Counters are pre-registered at host construction, so an
        // untouched one reads zero rather than absent.
        assert_eq!(host.metrics().counter_value("service.responses_lost"), Some(0));
    }

    #[test]
    fn persistent_write_fault_drops_the_response_but_not_the_connection() {
        let host = host();
        let plan: &FaultPlan = host.fault();
        plan.arm(
            iflex_engine::fault::site::RESPONSE_WRITE,
            Trigger::Always,
            Fault::Io("dead".into()),
            3,
        );
        let responses = run_transcript(&host, "{\"cmd\":\"stats\"}\n{\"cmd\":\"stats\"}\n");
        assert!(responses.is_empty(), "all responses lost");
        assert_eq!(host.metrics().counter_value("service.responses_lost"), Some(2));
        // The host itself is still healthy.
        plan.disarm_all();
        let responses = run_transcript(&host, "{\"cmd\":\"stats\"}\n");
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn get_metrics_line_answers_with_http_exposition() {
        let host = host();
        let mut out = Vec::new();
        serve_lines(
            &host,
            "{\"cmd\":\"create-session\"}\n".as_bytes(),
            &mut Vec::new(),
        )
        .unwrap();
        let done = serve_lines(&host, "GET /metrics HTTP/1.1\n".as_bytes(), &mut out).unwrap();
        assert!(!done, "a scrape is not a shutdown");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(text.contains("Content-Type: text/plain"));
        let body = text.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("iflex_service_requests"));
        assert!(body.contains("iflex_session_ask_to_answer_us{session=\"1\",quantile=\"0.99\"}"));
        // The advertised length matches the body exactly.
        let len: usize = text
            .lines()
            .find(|l| l.starts_with("Content-Length: "))
            .and_then(|l| l.trim_start_matches("Content-Length: ").trim().parse().ok())
            .unwrap();
        assert_eq!(len, body.len());
    }

    #[test]
    fn garbage_pipelined_before_a_scrape_gets_its_error_then_the_exposition() {
        let host = host();
        let mut out = Vec::new();
        serve_lines(
            &host,
            &b"\x00\x01 not a request\n\xff\nGET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"[..],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.splitn(3, '\n');
        assert!(is_rejection(&json::parse(lines.next().unwrap()).unwrap()));
        assert!(is_rejection(&json::parse(lines.next().unwrap()).unwrap()));
        let http = lines.next().unwrap();
        assert!(http.starts_with("HTTP/1.1 200 OK\r\n"), "got: {http}");
        assert!(http.contains("iflex_service_decode_errors 2"), "got: {http}");
    }

    #[test]
    fn tcp_roundtrip() {
        use std::io::{BufRead, BufReader, Write};
        let host = std::sync::Arc::new(host());
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let host = std::sync::Arc::clone(&host);
            std::thread::spawn(move || {
                serve_tcp(&host, "127.0.0.1:0", move |a| {
                    let _ = addr_tx.send(a);
                })
            })
        };
        let addr = addr_rx.recv().unwrap();
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"cmd\":\"create-session\",\"id\":\"t\"}\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("t"));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        conn.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("drained_sessions"));
        server.join().unwrap().unwrap();
    }

    /// A `serve_tcp` on an OS-assigned port, on a thread of its own.
    struct Server {
        host: std::sync::Arc<Host>,
        addr: SocketAddr,
        thread: std::thread::JoinHandle<io::Result<()>>,
    }

    fn start(cfg: ServiceConfig) -> Server {
        let host = std::sync::Arc::new(Host::new(crate::fixture::tiny_core(), crate::fixture::PROGRAM, cfg));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let thread = {
            let host = std::sync::Arc::clone(&host);
            std::thread::spawn(move || {
                serve_tcp(&host, "127.0.0.1:0", move |a| {
                    let _ = addr_tx.send(a);
                })
            })
        };
        Server { host, addr: addr_rx.recv().unwrap(), thread }
    }

    impl Server {
        /// Sends `shutdown` over `client` and waits for `serve_tcp` to
        /// return; panics when that takes a second or more.
        fn stop_via(self, client: &mut TestClient) -> Json {
            let t0 = std::time::Instant::now();
            let reply = client.call("{\"cmd\":\"shutdown\"}");
            while !self.thread.is_finished() {
                assert!(t0.elapsed() < Duration::from_secs(1), "serve_tcp is still running");
                std::thread::yield_now();
            }
            self.thread.join().unwrap().unwrap();
            reply
        }
    }

    /// [`Client`] with the errors unwrapped and the replies parsed.
    struct TestClient(Client);

    impl TestClient {
        fn connect(addr: SocketAddr) -> TestClient {
            TestClient(Client::connect(addr).unwrap())
        }

        fn send(&mut self, line: &str) {
            self.0.send(line).unwrap();
        }

        /// The next reply, or `None` once the server closed.
        fn recv(&mut self) -> Option<Json> {
            let line = self.0.recv().expect("no reply within 5 s")?;
            Some(json::parse(&line).unwrap())
        }

        fn call(&mut self, line: &str) -> Json {
            self.send(line);
            self.recv().expect("connection closed before the reply")
        }
    }

    #[test]
    fn fifty_round_trips_on_one_connection_take_no_delayed_ack_stalls() {
        let server = start(ServiceConfig::default());
        let mut client = TestClient::connect(server.addr);
        client.call("{\"cmd\":\"stats\"}");
        let t0 = std::time::Instant::now();
        for _ in 0..50 {
            let resp = client.call("{\"cmd\":\"stats\"}");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        }
        let took = t0.elapsed();
        // A reply split over two segments costs ≈44 ms each: ≈2.2 s.
        assert!(took < Duration::from_millis(500), "50 round trips took {took:?}");
        server.stop_via(&mut client);
    }

    #[test]
    fn a_connection_is_served_while_another_holds_a_session_and_an_unread_reply() {
        let server = start(ServiceConfig::default());
        let mut a = TestClient::connect(server.addr);
        assert_eq!(a.call("{\"cmd\":\"create-session\"}").get("session").and_then(Json::as_u64), Some(1));
        a.send("{\"cmd\":\"get-results\",\"session\":1,\"limit\":4}");
        // A has not read its reply and stays connected; B is served anyway.
        let mut b = TestClient::connect(server.addr);
        assert_eq!(b.call("{\"cmd\":\"create-session\"}").get("session").and_then(Json::as_u64), Some(2));
        let stats = b.call("{\"cmd\":\"stats\"}");
        assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(2));
        assert_eq!(a.recv().unwrap().get("ok"), Some(&Json::Bool(true)));
        server.stop_via(&mut a);
    }

    #[test]
    fn shutdown_on_one_connection_ends_the_idle_ones_and_the_listener() {
        let server = start(ServiceConfig::default());
        let mut a = TestClient::connect(server.addr);
        let mut b = TestClient::connect(server.addr);
        a.call("{\"cmd\":\"create-session\"}");
        b.call("{\"cmd\":\"create-session\"}");
        let host = std::sync::Arc::clone(&server.host);
        let reply = server.stop_via(&mut a);
        assert_eq!(reply.get("drained_sessions").and_then(Json::as_u64), Some(2));
        assert!(b.recv().is_none(), "the idle connection must see EOF");
        assert!(a.recv().is_none());
        assert_eq!(host.connections().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn connections_past_the_bound_are_turned_away_and_the_listener_keeps_accepting() {
        let server = start(ServiceConfig { max_sessions: 2, ..ServiceConfig::default() });
        let mut a = TestClient::connect(server.addr);
        let mut b = TestClient::connect(server.addr);
        // A round trip each: both are admitted before the third connects.
        a.call("{\"cmd\":\"stats\"}");
        b.call("{\"cmd\":\"stats\"}");
        for _ in 0..3 {
            let mut extra = TestClient::connect(server.addr);
            let resp = extra.recv().expect("a rejection line");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(resp.get("retryable"), Some(&Json::Bool(true)));
            assert_eq!(resp.get("retry_after_ms").and_then(Json::as_u64), Some(25));
            assert!(extra.recv().is_none(), "a rejected connection is closed");
        }
        let stats = a.call("{\"cmd\":\"stats\"}");
        assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("rejected_connections").and_then(Json::as_u64), Some(3));
        // B leaves; once the server has noticed, its place is free again.
        drop(b);
        while a.call("{\"cmd\":\"stats\"}").get("connections").and_then(Json::as_u64) != Some(1) {
            std::thread::yield_now();
        }
        let mut c = TestClient::connect(server.addr);
        assert_eq!(c.call("{\"cmd\":\"create-session\"}").get("ok"), Some(&Json::Bool(true)));
        server.stop_via(&mut c);
    }

    #[test]
    fn a_half_closed_client_still_gets_its_reply() {
        let server = start(ServiceConfig::default());
        let mut client = TestClient::connect(server.addr);
        client.send("{\"cmd\":\"stats\",\"id\":\"last\"}");
        client.0.finish_sending().unwrap();
        let resp = client.recv().expect("the reply to the request sent before the half-close");
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("last"));
        assert!(client.recv().is_none());
        let mut other = TestClient::connect(server.addr);
        server.stop_via(&mut other);
    }
}
