//! The structured trace journal.
//!
//! A [`Tracer`] is a cheap cloneable handle; clones (the engine, its
//! worker threads, the session loop) append to one shared journal. Every probe starts with a relaxed atomic load of the enabled
//! flag — a disabled tracer performs **no allocation and no locking**,
//! which the counter-based tests below assert and the tier-1 smoke gate
//! verifies stays overhead-neutral.
//!
//! Events are chrome-trace-like: `B`(egin)/`E`(nd) pairs sharing a span
//! id, plus `I`(nstant) markers, each stamped with microseconds since the
//! tracer's epoch (a monotonic [`Instant`]). Spans form a tree through
//! `parent` ids; the well-formedness contract (every child closes inside
//! its parent) is checked by [`crate::replay::validate_nesting`].

use crate::json_escape;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A span identifier. `SpanId::NONE` (0) is the root: a span with parent
/// 0 is a top-level span, and every recording call made with a `NONE`
/// target id is a no-op (what [`Tracer::begin`] hands out while disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The root / "no span" id.
    pub const NONE: SpanId = SpanId(0);

    /// True for the root / disabled id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// The span taxonomy (DESIGN.md §8). Engine spans nest
/// `run → rule → operator → shard`; assistant spans nest
/// `session → iteration → question → probe` with engine runs hanging off
/// whichever assistant span drove them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One developer session (the outermost assistant span).
    Session,
    /// One execute → examine → refine iteration.
    Iteration,
    /// Selecting + answering one feature question.
    Question,
    /// One simulated refinement executed by the simulation strategy.
    Probe,
    /// One engine run (full or sampled).
    Run,
    /// One rule's evaluation (or reuse-cache hit).
    Rule,
    /// One plan operator (scan, join, constraint, ψ, …).
    Operator,
    /// One scatter shard on a worker thread (legacy journals; the
    /// morsel-driven executor emits [`SpanKind::Morsel`] instead).
    Shard,
    /// One dispensed morsel (index range) of a parallel operator section.
    Morsel,
    /// Anything else (instant markers, degradations, retries).
    Mark,
}

impl SpanKind {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Iteration => "iteration",
            SpanKind::Question => "question",
            SpanKind::Probe => "probe",
            SpanKind::Run => "run",
            SpanKind::Rule => "rule",
            SpanKind::Operator => "operator",
            SpanKind::Shard => "shard",
            SpanKind::Morsel => "morsel",
            SpanKind::Mark => "mark",
        }
    }

    /// Parses a wire name back (replay).
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "session" => SpanKind::Session,
            "iteration" => SpanKind::Iteration,
            "question" => SpanKind::Question,
            "probe" => SpanKind::Probe,
            "run" => SpanKind::Run,
            "rule" => SpanKind::Rule,
            "operator" => SpanKind::Operator,
            "shard" => SpanKind::Shard,
            "morsel" => SpanKind::Morsel,
            "mark" => SpanKind::Mark,
            _ => return None,
        })
    }
}

/// The event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin.
    Begin,
    /// Span end.
    End,
    /// A point-in-time marker.
    Instant,
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The phase.
    pub ph: Phase,
    /// The span id (`End` events carry the id of the span they close).
    pub id: u64,
    /// Parent span id (0 = top level). Meaningless on `End`.
    pub parent: u64,
    /// The span kind.
    pub kind: SpanKind,
    /// Human-readable name (rule text, operator name, …). Empty on `End`.
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub t_us: u64,
    /// Numeric attachments (`tuples_out`, `shard`, …).
    pub args: Vec<(&'static str, u64)>,
    /// Free-text attachment (degradation cause, fault site, …).
    pub note: Option<String>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
    /// Events appended so far (the zero-allocation-when-disabled counter).
    recorded: AtomicU64,
    /// Events discarded because the journal hit its cap.
    dropped: AtomicU64,
    cap: usize,
}

/// Journal cap: generous for any realistic run, finite so a runaway trace
/// cannot exhaust memory (overflow is counted in [`Tracer::dropped`]).
const DEFAULT_CAP: usize = 4 << 20;

/// The shared trace journal handle.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Self {
        Tracer::with_enabled_cap(enabled, DEFAULT_CAP)
    }

    /// An enabled tracer with an explicit journal cap — lets tests (and
    /// the truncation-warning path in `exp_trace`) exercise the cap
    /// without journaling four million events.
    pub fn with_cap(cap: usize) -> Self {
        Tracer::with_enabled_cap(true, cap)
    }

    fn with_enabled_cap(enabled: bool, cap: usize) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                recorded: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                cap,
            }),
        }
    }

    /// A disabled tracer (what every engine starts with): every recording
    /// call is one relaxed atomic load, no locks, no allocation.
    pub fn disabled() -> Self {
        Tracer::with_enabled(false)
    }

    /// A tracer recording from the start.
    pub fn enabled() -> Self {
        Tracer::with_enabled(true)
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Turns recording off (already-journaled events are kept).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Release);
    }

    /// True while recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, ev: TraceEvent) {
        let mut events = self.inner.events.lock().expect("trace journal lock");
        if events.len() >= self.inner.cap {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(ev);
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens a span. Returns [`SpanId::NONE`] while disabled, which makes
    /// the matching [`Tracer::end`] a no-op.
    pub fn begin(&self, parent: SpanId, kind: SpanKind, name: &str) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            ph: Phase::Begin,
            id,
            parent: parent.0,
            kind,
            name: name.to_string(),
            t_us: self.now_us(),
            args: Vec::new(),
            note: None,
        });
        SpanId(id)
    }

    /// Closes a span.
    pub fn end(&self, id: SpanId) {
        self.end_with(id, &[]);
    }

    /// Closes a span with numeric attachments.
    pub fn end_with(&self, id: SpanId, args: &[(&'static str, u64)]) {
        if id.is_none() || !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            ph: Phase::End,
            id: id.0,
            parent: 0,
            kind: SpanKind::Mark,
            name: String::new(),
            t_us: self.now_us(),
            args: args.to_vec(),
            note: None,
        });
    }

    /// Records a point-in-time marker under `parent`.
    pub fn instant(&self, parent: SpanId, kind: SpanKind, name: &str, note: Option<&str>) {
        if !self.is_enabled() {
            return;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            ph: Phase::Instant,
            id,
            parent: parent.0,
            kind,
            name: name.to_string(),
            t_us: self.now_us(),
            args: Vec::new(),
            note: note.map(str::to_string),
        });
    }

    /// `Some((self, parent))` only while enabled — the cheap way to hand a
    /// trace context into code (scatter workers) that must not even format
    /// a span name when tracing is off.
    pub fn ctx(&self, parent: SpanId) -> Option<(&Tracer, SpanId)> {
        if self.is_enabled() {
            Some((self, parent))
        } else {
            None
        }
    }

    /// Events journaled so far.
    pub fn recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Events discarded at the journal cap.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A snapshot of the journal.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().expect("trace journal lock").clone()
    }

    /// Renders the journal as JSONL (one event object per line). When the
    /// journal overflowed its cap, a final `journal_truncated` instant
    /// (parent 0, `dropped` arg) marks the loss so replay tooling can
    /// warn instead of silently under-reporting spans.
    pub fn to_jsonl(&self) -> String {
        let events = self.inner.events.lock().expect("trace journal lock");
        let mut out = String::with_capacity(events.len() * 64);
        for ev in events.iter() {
            render_event(&mut out, ev);
            out.push('\n');
        }
        let dropped = self.inner.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            let marker = TraceEvent {
                ph: Phase::Instant,
                id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
                parent: 0,
                kind: SpanKind::Mark,
                name: "journal_truncated".to_string(),
                t_us: events.last().map(|e| e.t_us).unwrap_or(0),
                args: vec![("dropped", dropped)],
                note: Some("journal hit its event cap; span tables under-report".to_string()),
            };
            render_event(&mut out, &marker);
            out.push('\n');
        }
        out
    }

    /// Writes the journal to `path` as JSONL.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Renders one event as a single-line JSON object.
fn render_event(out: &mut String, ev: &TraceEvent) {
    use std::fmt::Write as _;
    let ph = match ev.ph {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "I",
    };
    let _ = write!(out, "{{\"ph\":\"{ph}\",\"id\":{}", ev.id);
    if ev.ph != Phase::End {
        let _ = write!(
            out,
            ",\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\"",
            ev.parent,
            ev.kind.as_str(),
            json_escape(&ev.name)
        );
    }
    let _ = write!(out, ",\"t\":{}", ev.t_us);
    for (k, v) in &ev.args {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    if let Some(note) = &ev.note {
        let _ = write!(out, ",\"note\":\"{}\"", json_escape(note));
    }
    out.push('}');
}

/// The `IFLEX_TRACE` convention: unset, empty, or `0` → no tracing;
/// `1` → trace to `iflex-trace.jsonl` in the working directory; any other
/// value → trace to that path. A value that is not valid UTF-8 cannot
/// name a trace path portably, so it is treated as "off" — with a warning
/// (once per process) naming the offending value, rather than silently.
pub fn trace_path_from_env() -> Option<std::path::PathBuf> {
    let v = match std::env::var("IFLEX_TRACE") {
        Ok(v) => v,
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "iflex: ignoring invalid IFLEX_TRACE={raw:?} \
                     (not valid UTF-8); tracing stays off"
                );
            });
            return None;
        }
    };
    trace_path_from_value(&v)
}

/// The pure half of [`trace_path_from_env`], factored out for tests.
pub fn trace_path_from_value(v: &str) -> Option<std::path::PathBuf> {
    let v = v.trim();
    if v.is_empty() || v == "0" {
        return None;
    }
    if v == "1" {
        return Some(std::path::PathBuf::from("iflex-trace.jsonl"));
    }
    Some(std::path::PathBuf::from(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_journals_nothing() {
        // Counter-based zero-allocation assertion: a disabled tracer must
        // append no events (the journal Vec never grows, so nothing is
        // allocated on its behalf) across every call shape.
        let t = Tracer::disabled();
        let s = t.begin(SpanId::NONE, SpanKind::Run, "run");
        assert!(s.is_none());
        let child = t.begin(s, SpanKind::Rule, "rule text");
        t.instant(child, SpanKind::Mark, "degradation", Some("budget"));
        t.end_with(child, &[("tuples_out", 3)]);
        t.end(s);
        assert!(t.ctx(SpanId::NONE).is_none());
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.dropped(), 0);
        assert!(t.events().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn enabled_tracer_records_nested_spans() {
        let t = Tracer::enabled();
        let run = t.begin(SpanId::NONE, SpanKind::Run, "run");
        let rule = t.begin(run, SpanKind::Rule, "q(x) :- p(x).");
        t.end_with(rule, &[("tuples_out", 7)]);
        t.end(run);
        assert_eq!(t.recorded(), 4);
        let evs = t.events();
        assert_eq!(evs[0].ph, Phase::Begin);
        assert_eq!(evs[1].parent, evs[0].id);
        assert!(evs[0].t_us <= evs[3].t_us, "timestamps are monotonic");
    }

    #[test]
    fn clones_share_one_journal() {
        let t = Tracer::enabled();
        let c = t.clone();
        let s = c.begin(SpanId::NONE, SpanKind::Shard, "shard0");
        t.end(s);
        assert_eq!(t.recorded(), 2);
        assert_eq!(c.recorded(), 2);
    }

    #[test]
    fn enable_disable_round_trip() {
        let t = Tracer::disabled();
        assert!(t.begin(SpanId::NONE, SpanKind::Run, "x").is_none());
        t.enable();
        let s = t.begin(SpanId::NONE, SpanKind::Run, "x");
        assert!(!s.is_none());
        t.end(s);
        t.disable();
        assert!(t.begin(SpanId::NONE, SpanKind::Run, "y").is_none());
        assert_eq!(t.recorded(), 2);
    }

    #[test]
    fn jsonl_renders_escaped_names_and_args() {
        let t = Tracer::enabled();
        let s = t.begin(SpanId::NONE, SpanKind::Rule, "r(p) :- f(p) = \"x\".");
        t.instant(s, SpanKind::Mark, "degradation", Some("budget"));
        t.end_with(s, &[("tuples_out", 42)]);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\\\"x\\\""));
        assert!(lines[1].contains("\"note\":\"budget\""));
        assert!(lines[2].contains("\"tuples_out\":42"));
    }

    #[test]
    fn capped_journal_marks_truncation() {
        let t = Tracer::with_cap(2);
        let a = t.begin(SpanId::NONE, SpanKind::Run, "run");
        let b = t.begin(a, SpanKind::Rule, "r");
        t.end(b); // over cap: dropped
        t.end(a); // over cap: dropped
        assert_eq!(t.dropped(), 2);
        let jsonl = t.to_jsonl();
        let last = jsonl.lines().last().unwrap();
        assert!(last.contains("journal_truncated"), "{last}");
        assert!(last.contains("\"dropped\":2"), "{last}");
        // An un-truncated journal carries no marker.
        let clean = Tracer::enabled();
        clean.instant(SpanId::NONE, SpanKind::Mark, "x", None);
        assert!(!clean.to_jsonl().contains("journal_truncated"));
    }

    #[test]
    fn env_convention() {
        // No env mutation (tests run in parallel): exercise the parsing
        // contract through a copy of the rules on explicit values.
        let parse = |v: &str| -> Option<String> {
            let v = v.trim();
            if v.is_empty() || v == "0" {
                None
            } else if v == "1" {
                Some("iflex-trace.jsonl".into())
            } else {
                Some(v.to_string())
            }
        };
        assert_eq!(parse(""), None);
        assert_eq!(parse("0"), None);
        assert_eq!(parse("1"), Some("iflex-trace.jsonl".into()));
        assert_eq!(parse("/tmp/t.jsonl"), Some("/tmp/t.jsonl".into()));
    }
}
