//! Spans: the benchmark's own recorder (around every public call it makes
//! into iFlex during the traced run) and the self-time arithmetic applied
//! to the engine's span journal.

use iflex::engine::obs::{build_spans, Span, SpanKind, TraceEvent};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One benchmark-owned span.
#[derive(Debug, Clone)]
struct Rec {
    name: String,
    parent: u64,
    /// Identifier shared by every span of one operation (one session, one
    /// run, one service session).
    op: u64,
    t0_us: u64,
    t1_us: u64,
}

/// The benchmark's span recorder. Off (the untraced run), every call is a
/// branch on a bool; on, spans stay in memory until [`Recorder::to_jsonl`].
pub struct Recorder {
    on: bool,
    epoch: Instant,
    recs: Mutex<Vec<Rec>>,
}

impl Recorder {
    /// A recorder; `on` selects the traced run.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span and returns its id (0 while off; ids start at 1).
    fn begin(&self, name: &str, parent: u64, op: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let t = self.now_us();
        let mut recs = self
            .recs
            .lock()
            .expect("no panic while holding the span list");
        recs.push(Rec {
            name: name.to_string(),
            parent,
            op,
            t0_us: t,
            t1_us: t,
        });
        recs.len() as u64
    }

    /// Closes span `id`.
    fn end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let t = self.now_us();
        let mut recs = self
            .recs
            .lock()
            .expect("no panic while holding the span list");
        if let Some(r) = recs.get_mut(id as usize - 1) {
            r.t1_us = t;
        }
    }

    /// Renders the recorded spans, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let recs = self
            .recs
            .lock()
            .expect("no panic while holding the span list");
        let mut out = String::with_capacity(recs.len() * 96);
        for (i, r) in recs.iter().enumerate() {
            out.push_str(&format!(
                "{{\"src\":\"benchmark\",\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"t0_us\":{},\"t1_us\":{}}}\n",
                i + 1,
                r.parent,
                r.op,
                iflex::engine::obs::json_escape(&r.name),
                r.t0_us,
                r.t1_us
            ));
        }
        out
    }
}

/// A place in the benchmark's span tree: the recorder, the span new spans
/// hang under, and the operation they belong to. Passed by value down the
/// call chain in place of those three.
#[derive(Clone, Copy)]
pub struct At<'a> {
    rec: &'a Recorder,
    parent: u64,
    op: u64,
}

impl<'a> At<'a> {
    /// The top of `rec`'s tree, operation 0.
    pub fn root(rec: &'a Recorder) -> Self {
        At {
            rec,
            parent: 0,
            op: 0,
        }
    }

    /// The same place, recording under operation `op`.
    pub fn op(self, op: u64) -> Self {
        At { op, ..self }
    }

    /// Opens a span here; returns its id (for [`Recorder::end`]) and the
    /// place inside it.
    pub fn open(self, name: &str) -> (u64, At<'a>) {
        let id = self.rec.begin(name, self.parent, self.op);
        (id, At { parent: id, ..self })
    }

    /// Closes a span opened with [`At::open`].
    pub fn close(self, id: u64) {
        self.rec.end(id);
    }

    /// Runs `f` inside a span opened here.
    pub fn scope<T>(self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.rec.begin(name, self.parent, self.op);
        let out = f();
        self.rec.end(id);
        out
    }
}

/// The length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Self time summed per layer key: a span's duration minus the part of
/// that interval its child spans cover (children of a parallel operator
/// overlap one another, so the cover is a union, not a sum).
#[derive(Debug, Default)]
pub struct JournalTimes {
    /// Self time in µs by key: the span kind's wire name, or
    /// `operator:<name>` for operator spans.
    pub self_us: BTreeMap<String, u64>,
    /// Span count by the same keys.
    pub count: BTreeMap<String, u64>,
    /// Events in the journal.
    pub events: u64,
}

impl JournalTimes {
    /// Self time of `key` in milliseconds (0 when the layer never ran —
    /// or no longer exists under that name).
    pub fn self_ms(&self, key: &str) -> f64 {
        self.self_us.get(key).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Span count of `key`.
    pub fn spans(&self, key: &str) -> u64 {
        self.count.get(key).copied().unwrap_or(0)
    }

    /// Folds another journal's totals into this one.
    pub fn merge(&mut self, other: &JournalTimes) {
        for (k, v) in &other.self_us {
            *self.self_us.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.count {
            *self.count.entry(k.clone()).or_insert(0) += v;
        }
        self.events += other.events;
    }
}

fn key_of(span: &Span) -> String {
    match span.kind {
        SpanKind::Operator => format!("operator:{}", span.name),
        kind => kind.as_str().to_string(),
    }
}

/// Computes per-layer self times from an engine journal. Layers are read
/// by their wire names, so a layer that is renamed or removed shows up as
/// absent here rather than as a build failure.
pub fn journal_times(events: &[TraceEvent]) -> Result<JournalTimes, String> {
    let spans = build_spans(events)?;
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans {
        children.entry(s.parent).or_default().push((s.t0, s.t1));
    }
    let mut out = JournalTimes {
        events: events.len() as u64,
        ..Default::default()
    };
    for s in &spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = s.dur_us().saturating_sub(covered(kids, s.t0, s.t1));
        let key = key_of(s);
        *out.self_us.entry(key.clone()).or_insert(0) += own;
        *out.count.entry(key).or_insert(0) += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex::engine::obs::{SpanId, Tracer};

    #[test]
    fn cover_is_a_union_clipped_to_the_parent() {
        assert_eq!(covered(vec![], 0, 10), 0);
        assert_eq!(covered(vec![(2, 4), (3, 6)], 0, 10), 4);
        assert_eq!(covered(vec![(0, 20)], 5, 10), 5);
        assert_eq!(covered(vec![(1, 2), (8, 12)], 0, 10), 3);
    }

    #[test]
    fn self_times_partition_the_root_span() {
        let t = Tracer::enabled();
        let run = t.begin(SpanId::NONE, SpanKind::Run, "run:full");
        let rule = t.begin(run, SpanKind::Rule, "q(x) :- t(x).");
        let op = t.begin(rule, SpanKind::Operator, "scan_ext");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(op);
        t.end(rule);
        t.end(run);
        let events = t.events();
        let jt = journal_times(&events).expect("well-formed journal");
        let total: u64 = jt.self_us.values().sum();
        let root = build_spans(&events).expect("well-formed journal")[0].dur_us();
        assert_eq!(total, root, "self times sum to the root span's duration");
        assert!(jt.self_ms("operator:scan_ext") >= 2.0);
        assert_eq!(jt.spans("rule"), 1);
        assert_eq!(jt.self_ms("operator:no_such_operator"), 0.0);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(At::root(&r).scope("x", || 7), 7);
        assert!(r.to_jsonl().is_empty());
        let r = Recorder::new(true);
        let (id, inside) = At::root(&r).op(1).open("outer");
        inside.scope("inner", || ());
        inside.close(id);
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\""));
    }
}
