//! Rendering for JSONL trace dumps: a per-rule self-time table (the
//! flamegraph numbers, flattened) and the assistant's iteration timeline.
//!
//! Consumed by the `exp_trace` binary and the trace-replay integration
//! test. Input is the validated span list from
//! [`iflex_engine::obs::replay`].

use iflex_engine::obs::{QuantileSketch, Span, SpanKind, Window};
use std::collections::BTreeMap;

/// Aggregated cost of one rule (by rule text) across every run in the
/// trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRow {
    /// The rule text (the span name).
    pub name: String,
    /// How many times the rule span appeared.
    pub count: u64,
    /// Total inclusive time, µs.
    pub inclusive_us: u64,
    /// Total self time (inclusive minus direct operator children), µs.
    pub self_us: u64,
    /// Total tuples the rule produced (summed `tuples_out`).
    pub tuples_out: u64,
}

/// Aggregated cost of one operator kind across the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRow {
    /// Operator name (`scan_ext`, `cross_join`, …).
    pub name: String,
    /// Span count.
    pub count: u64,
    /// Total inclusive time, µs — operators nest, so this over-counts
    /// relative to wall clock; self time is what sums to the rule total.
    pub inclusive_us: u64,
    /// Total self time (inclusive minus direct operator children), µs.
    pub self_us: u64,
}

/// One assistant iteration for the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationRow {
    /// Span name (`iteration3`, `final`).
    pub name: String,
    /// Start offset from the first span in the trace, µs.
    pub start_us: u64,
    /// Inclusive duration, µs.
    pub dur_us: u64,
    /// Engine runs begun directly under this iteration.
    pub runs: u64,
    /// Probe spans anywhere below this iteration.
    pub probes: u64,
    /// Questions asked (the `questions` arg, when present).
    pub questions: Option<u64>,
    /// Result size (the `size` arg, when present).
    pub size: Option<u64>,
}

fn children_index(spans: &[Span]) -> BTreeMap<u64, Vec<usize>> {
    let mut by_parent: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_parent.entry(s.parent).or_default().push(i);
    }
    by_parent
}

/// Self time of span `i`: inclusive duration minus the durations of its
/// direct children (any kind — a rule's cost below its operators, an
/// operator's cost below its shards, belongs to the child).
fn self_us(spans: &[Span], by_parent: &BTreeMap<u64, Vec<usize>>, i: usize) -> u64 {
    let child_total: u64 = by_parent
        .get(&spans[i].id)
        .map(|cs| cs.iter().map(|&c| spans[c].dur_us()).sum())
        .unwrap_or(0);
    spans[i].dur_us().saturating_sub(child_total)
}

/// Aggregates rule spans into per-rule rows, sorted by self time
/// (descending), ties broken by name.
pub fn rule_self_time(spans: &[Span]) -> Vec<RuleRow> {
    let by_parent = children_index(spans);
    let mut agg: BTreeMap<&str, RuleRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::Rule {
            continue;
        }
        let row = agg.entry(&s.name).or_insert_with(|| RuleRow {
            name: s.name.clone(),
            count: 0,
            inclusive_us: 0,
            self_us: 0,
            tuples_out: 0,
        });
        row.count += 1;
        row.inclusive_us += s.dur_us();
        row.self_us += self_us(spans, &by_parent, i);
        row.tuples_out += s.arg("tuples_out").unwrap_or(0);
    }
    let mut rows: Vec<RuleRow> = agg.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    rows
}

/// Aggregates operator spans into per-operator rows, sorted by self time.
pub fn operator_self_time(spans: &[Span]) -> Vec<OpRow> {
    let by_parent = children_index(spans);
    let mut agg: BTreeMap<&str, OpRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::Operator {
            continue;
        }
        let row = agg.entry(&s.name).or_insert_with(|| OpRow {
            name: s.name.clone(),
            count: 0,
            inclusive_us: 0,
            self_us: 0,
        });
        row.count += 1;
        row.inclusive_us += s.dur_us();
        row.self_us += self_us(spans, &by_parent, i);
    }
    let mut rows: Vec<OpRow> = agg.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    rows
}

fn count_below(spans: &[Span], by_parent: &BTreeMap<u64, Vec<usize>>, root: usize, kind: SpanKind) -> u64 {
    let mut n = 0;
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if let Some(cs) = by_parent.get(&spans[i].id) {
            for &c in cs {
                if spans[c].kind == kind {
                    n += 1;
                }
                stack.push(c);
            }
        }
    }
    n
}

/// Extracts the assistant iteration timeline, in start order. The epoch
/// is the earliest `t0` in the trace.
pub fn iteration_timeline(spans: &[Span]) -> Vec<IterationRow> {
    let by_parent = children_index(spans);
    let epoch = spans.iter().map(|s| s.t0).min().unwrap_or(0);
    let mut rows = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::Iteration {
            continue;
        }
        let runs = by_parent
            .get(&s.id)
            .map(|cs| cs.iter().filter(|&&c| spans[c].kind == SpanKind::Run).count() as u64)
            .unwrap_or(0);
        rows.push(IterationRow {
            name: s.name.clone(),
            start_us: s.t0 - epoch,
            dur_us: s.dur_us(),
            runs,
            probes: count_below(spans, &by_parent, i, SpanKind::Probe),
            questions: s.arg("questions"),
            size: s.arg("size"),
        });
    }
    rows.sort_by_key(|r| r.start_us);
    rows
}

/// Per-name latency quantiles of span duration — the offline replay
/// analogue of the live `run_us` sketch series the service exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Span name (rule text or operator name).
    pub name: String,
    /// Span count feeding the sketch.
    pub count: u64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// 95th-percentile duration, µs.
    pub p95_us: f64,
    /// 99th-percentile duration, µs.
    pub p99_us: f64,
}

/// Builds p50/p95/p99 duration rows for every span of `kind`, sorted by
/// p99 (descending), ties broken by name. Each name gets its own
/// [`QuantileSketch`], so the numbers carry the same relative-error
/// guarantee as the live endpoint.
pub fn latency_quantiles(spans: &[Span], kind: SpanKind) -> Vec<LatencyRow> {
    let mut agg: BTreeMap<&str, QuantileSketch> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == kind) {
        agg.entry(&s.name).or_default().observe(s.dur_us());
    }
    let mut rows: Vec<LatencyRow> = agg
        .into_iter()
        .map(|(name, sk)| LatencyRow {
            name: name.to_string(),
            count: sk.count(),
            p50_us: sk.quantile(0.50).unwrap_or(0.0),
            p95_us: sk.quantile(0.95).unwrap_or(0.0),
            p99_us: sk.quantile(0.99).unwrap_or(0.0),
        })
        .collect();
    rows.sort_by(|a, b| b.p99_us.total_cmp(&a.p99_us).then(a.name.cmp(&b.name)));
    rows
}

/// Renders the latency-quantile table for one span kind.
pub fn render_latency(rows: &[LatencyRow], what: &str) -> String {
    let mut out = format!("{what} latency quantiles\n");
    out += &format!(
        "{:>6} {:>10} {:>10} {:>10}  {}\n",
        "spans", "p50 ms", "p95 ms", "p99 ms", what.to_lowercase()
    );
    for r in rows {
        out += &format!(
            "{:>6} {:>10.2} {:>10.2} {:>10.2}  {}\n",
            r.count,
            r.p50_us / 1000.0,
            r.p95_us / 1000.0,
            r.p99_us / 1000.0,
            r.name
        );
    }
    out
}

/// Trailing engine-run rates reconstructed from the trace: run spans
/// replayed through a [`Window`] via `observe_at`, read at the last
/// run's start — the same 1s/10s/60s horizons the live endpoint serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRates {
    /// Total run spans in the trace.
    pub runs: u64,
    /// Runs per second over the trailing 1s / 10s / 60s windows.
    pub rates: [f64; 3],
    /// Mean run duration (µs) over the trailing 60s window.
    pub mean_us_60s: f64,
}

/// Replays run-span start times into a sliding window and reads the
/// trailing rates at trace end.
pub fn run_rates(spans: &[Span]) -> RunRates {
    let w = Window::new();
    let mut runs = 0;
    let mut end = 0;
    for s in spans.iter().filter(|s| s.kind == SpanKind::Run) {
        w.observe_at(s.t0, s.dur_us());
        runs += 1;
        end = end.max(s.t0);
    }
    let rate = |secs: u64| w.stats_at(end, secs).rate();
    RunRates {
        runs,
        rates: [rate(1), rate(10), rate(60)],
        mean_us_60s: w.stats_at(end, 60).mean(),
    }
}

/// Renders the windowed run-rate summary.
pub fn render_run_rates(r: &RunRates) -> String {
    format!(
        "Engine run rate (trailing windows at trace end)\n  \
         {} runs — {:.1}/s over 1s, {:.1}/s over 10s, {:.1}/s over 60s; \
         mean run {:.2} ms (60s)\n",
        r.runs,
        r.rates[0],
        r.rates[1],
        r.rates[2],
        r.mean_us_60s / 1000.0
    )
}

/// The `dropped` count from the journal's truncation marker, when the
/// tracer hit its event cap while recording
/// ([`Tracer::to_jsonl`](iflex_engine::obs::trace::Tracer::to_jsonl)
/// appends the marker); `None` for a complete journal.
pub fn truncation(events: &[iflex_engine::obs::trace::TraceEvent]) -> Option<u64> {
    events.iter().find(|e| e.name == "journal_truncated").map(|e| {
        e.args
            .iter()
            .find(|(k, _)| *k == "dropped")
            .map(|(_, v)| *v)
            .unwrap_or(0)
    })
}

fn fmt_ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1000.0)
}

/// Renders the per-rule self-time table.
pub fn render_rule_table(rows: &[RuleRow]) -> String {
    let mut out = String::from("Per-rule self time\n");
    out += &format!(
        "{:>6} {:>10} {:>10} {:>10}  rule\n",
        "runs", "self ms", "incl ms", "tuples"
    );
    for r in rows {
        out += &format!(
            "{:>6} {:>10} {:>10} {:>10}  {}\n",
            r.count,
            fmt_ms(r.self_us),
            fmt_ms(r.inclusive_us),
            r.tuples_out,
            r.name
        );
    }
    out
}

/// Renders the per-operator self-time table.
pub fn render_operator_table(rows: &[OpRow]) -> String {
    let mut out = String::from("Per-operator self time\n");
    out += &format!("{:>6} {:>10} {:>10}  operator\n", "calls", "self ms", "incl ms");
    for r in rows {
        out += &format!(
            "{:>6} {:>10} {:>10}  {}\n",
            r.count,
            fmt_ms(r.self_us),
            fmt_ms(r.inclusive_us),
            r.name
        );
    }
    out
}

/// Renders the assistant iteration timeline.
pub fn render_timeline(rows: &[IterationRow]) -> String {
    let mut out = String::from("Assistant iteration timeline\n");
    out += &format!(
        "{:>12} {:>10} {:>10} {:>5} {:>7} {:>10} {:>10}\n",
        "iteration", "start ms", "dur ms", "runs", "probes", "questions", "size"
    );
    let opt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "—".into());
    for r in rows {
        out += &format!(
            "{:>12} {:>10} {:>10} {:>5} {:>7} {:>10} {:>10}\n",
            r.name,
            fmt_ms(r.start_us),
            fmt_ms(r.dur_us),
            r.runs,
            r.probes,
            opt(r.questions),
            opt(r.size)
        );
    }
    out
}

/// The full report: a truncation warning when the journal overflowed,
/// then the rule table, operator table, latency quantiles, windowed run
/// rates, iteration timeline, and the degradation instants (rule +
/// cause/site notes), when any.
pub fn render_report(spans: &[Span], events: &[iflex_engine::obs::trace::TraceEvent]) -> String {
    let mut out = String::new();
    if let Some(dropped) = truncation(events) {
        out += &format!(
            "WARNING: trace truncated — {dropped} events dropped at the journal \
             cap; every table below under-reports.\n\n"
        );
    }
    out += &render_rule_table(&rule_self_time(spans));
    out += "\n";
    out += &render_operator_table(&operator_self_time(spans));
    out += "\n";
    out += &render_latency(&latency_quantiles(spans, SpanKind::Rule), "Per-rule");
    out += "\n";
    out += &render_latency(&latency_quantiles(spans, SpanKind::Operator), "Per-operator");
    out += "\n";
    out += &render_run_rates(&run_rates(spans));
    out += "\n";
    out += &render_timeline(&iteration_timeline(spans));
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let degs: Vec<String> = events
        .iter()
        .filter(|e| e.ph == iflex_engine::obs::Phase::Instant && e.name == "degradation")
        .map(|e| {
            let rule = by_id
                .get(&e.parent)
                .map(|s| s.name.as_str())
                .unwrap_or("<unknown rule>");
            format!(
                "  {} — {}",
                e.note.as_deref().unwrap_or("<no cause>"),
                rule
            )
        })
        .collect();
    if !degs.is_empty() {
        out += "\nDegradations\n";
        for d in &degs {
            out += d;
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_engine::obs::{parse_jsonl, validate_nesting, SpanId, Tracer};

    fn sample_trace() -> Tracer {
        let t = Tracer::enabled();
        let session = t.begin(SpanId::NONE, SpanKind::Session, "session");
        let it = t.begin(session, SpanKind::Iteration, "iteration1");
        let run = t.begin(it, SpanKind::Run, "run:sampled");
        let rule = t.begin(run, SpanKind::Rule, "q(x) :- p(x).");
        let op = t.begin(rule, SpanKind::Operator, "scan_ext");
        t.end_with(op, &[("tuples_out", 10)]);
        t.end_with(rule, &[("tuples_out", 10)]);
        t.end(run);
        let q = t.begin(it, SpanKind::Question, "question0");
        let probe = t.begin(q, SpanKind::Probe, "probe");
        t.end(probe);
        t.end(q);
        t.end_with(it, &[("questions", 1), ("size", 10)]);
        t.end(session);
        t
    }

    #[test]
    fn rule_and_operator_aggregation() {
        let t = sample_trace();
        let spans = validate_nesting(&t.events()).expect("well-formed");
        let rules = rule_self_time(&spans);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].count, 1);
        assert_eq!(rules[0].tuples_out, 10);
        assert!(rules[0].self_us <= rules[0].inclusive_us);
        let ops = operator_self_time(&spans);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].name, "scan_ext");
    }

    #[test]
    fn timeline_sees_runs_probes_and_args() {
        let t = sample_trace();
        let spans = validate_nesting(&t.events()).expect("well-formed");
        let tl = iteration_timeline(&spans);
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].runs, 1);
        assert_eq!(tl[0].probes, 1);
        assert_eq!(tl[0].questions, Some(1));
        assert_eq!(tl[0].size, Some(10));
    }

    #[test]
    fn report_renders_from_a_round_tripped_dump() {
        let t = sample_trace();
        let events = parse_jsonl(&t.to_jsonl()).expect("parse");
        let spans = validate_nesting(&events).expect("well-formed");
        let report = render_report(&spans, &events);
        assert!(report.contains("Per-rule self time"));
        assert!(report.contains("q(x) :- p(x)."));
        assert!(report.contains("Assistant iteration timeline"));
        assert!(report.contains("iteration1"));
        assert!(report.contains("Per-rule latency quantiles"));
        assert!(report.contains("Engine run rate"));
        // A complete journal renders no truncation warning.
        assert!(!report.contains("WARNING: trace truncated"));
    }

    #[test]
    fn latency_quantiles_and_run_rates_aggregate() {
        let t = sample_trace();
        let spans = validate_nesting(&t.events()).expect("well-formed");
        let rules = latency_quantiles(&spans, SpanKind::Rule);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].count, 1);
        assert!(rules[0].p50_us <= rules[0].p99_us);
        let r = run_rates(&spans);
        assert_eq!(r.runs, 1);
        // A single run at t0 lands inside every trailing horizon.
        assert!(r.rates.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn truncated_journal_surfaces_a_warning() {
        let t = iflex_engine::obs::Tracer::with_cap(2);
        let a = t.begin(SpanId::NONE, SpanKind::Run, "run");
        let b = t.begin(a, SpanKind::Rule, "r");
        t.end(b);
        t.end(a);
        let events = parse_jsonl(&t.to_jsonl()).expect("parse");
        assert_eq!(truncation(&events), Some(2));
        // The dropped End events orphan the spans, so skip nesting
        // validation and render against the open-span-free view.
        let report = render_report(&[], &events);
        assert!(report.contains("WARNING: trace truncated — 2 events dropped"));
    }
}
