//! The metric catalogue (names, units, directions, bounds — the same rows
//! `BENCHMARK.json` declares) and the result printer.

use std::collections::BTreeMap;

/// The four workloads, in the order the run script executes them.
pub const WORKLOADS: [&str; 4] = [
    "iterate-select",
    "iterate-join",
    "extract-cold",
    "service-sessions",
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue row.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`, starts alphanumeric, ≤ 64).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]`, ≤ 16).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics: what a developer or an operator of iFlex sees.
/// Every workload reports every one of them (see README, "End-to-end
/// metrics", for what each means on each workload).
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", 0.25),
    e2e("rep_s", "s", 0.15),
    e2e("wait_p50_ms", "ms", 0.25),
    e2e("wait_p90_ms", "ms", 0.25),
    e2e("cpu_s", "s", 0.15),
    e2e("peak_rss_mb", "MB", 0.10),
    e2e("questions_asked", "count", 0.01),
    e2e("superset_ratio", "ratio", 0.01),
];

/// Per-layer metrics, grouped by crate/module. A layer the workload does
/// not exercise reports 0.
pub const PER_LAYER: [MetricDef; 115] = [
    // text
    hi("text.markup.parse_mb_per_s", "MB/s"),
    hi("text.tokenize.mb_per_s", "MB/s"),
    hi("text.subspans.m_per_s", "M/s"),
    // corpus
    lo("corpus.build.s", "s"),
    lo("corpus.task.ms", "ms"),
    // pattern
    lo("pattern.compile.us", "us"),
    lo("pattern.match.ns_per_byte", "ns/B"),
    lo("pattern.match.allocs_per_call", "count"),
    // features
    lo("features.verify.ns_per_call.style", "ns"),
    lo("features.verify.ns_per_call.numeric", "ns"),
    lo("features.verify.ns_per_call.shape", "ns"),
    lo("features.verify.ns_per_call.context", "ns"),
    lo("features.verify.ns_per_call.structure", "ns"),
    lo("features.verify.ns_per_call.pattern", "ns"),
    lo("features.refine.ns_per_call.style", "ns"),
    lo("features.refine.ns_per_call.numeric", "ns"),
    lo("features.refine.ns_per_call.shape", "ns"),
    lo("features.refine.ns_per_call.context", "ns"),
    lo("features.refine.ns_per_call.structure", "ns"),
    lo("features.refine.ns_per_call.pattern", "ns"),
    lo("features.refine.assignments_per_call", "count"),
    // ctable
    lo("ctable.build.ns_per_tuple", "ns"),
    lo("ctable.expanded_len.ns_per_tuple", "ns"),
    lo("ctable.stats.ns_per_tuple", "ns"),
    lo("ctable.render.us_per_row", "us"),
    // alog
    lo("alog.parse.us_per_program", "us"),
    lo("alog.unfold.us_per_program", "us"),
    lo("alog.display.us_per_program", "us"),
    // engine, through its public calls
    lo("engine.construct.ms", "ms"),
    lo("engine.run.cold_ms.T5", "ms"),
    lo("engine.run.cold_ms.T7", "ms"),
    lo("engine.run.cold_ms.T8", "ms"),
    lo("engine.run.cold_ms.Panel", "ms"),
    lo("engine.run.cold_ms.Project", "ms"),
    lo("engine.run.cold_ms.Chair", "ms"),
    lo("engine.run.warm_ms", "ms"),
    lo("engine.run_sampled.cold_ms", "ms"),
    lo("engine.explain.ms", "ms"),
    // engine, self time from its span journal
    lo("engine.run.self_ms", "ms"),
    lo("engine.rule.self_ms", "ms"),
    lo("engine.op.self_ms.scan_ext", "ms"),
    lo("engine.op.self_ms.scan_rel", "ms"),
    lo("engine.op.self_ms.from_extract", "ms"),
    lo("engine.op.self_ms.constraint", "ms"),
    lo("engine.op.self_ms.compare", "ms"),
    lo("engine.op.self_ms.var_unify", "ms"),
    lo("engine.op.self_ms.filter_proc", "ms"),
    lo("engine.op.self_ms.generate_proc", "ms"),
    lo("engine.op.self_ms.cross_join", "ms"),
    lo("engine.op.self_ms.project", "ms"),
    lo("engine.op.self_ms.annotate", "ms"),
    lo("engine.op.self_ms.fused", "ms"),
    lo("engine.par.morsel_self_ms", "ms"),
    hi("engine.journal.coverage_ratio", "ratio"),
    // engine caches, executor and optimizer, from its metrics registry
    hi("engine.memo.hits", "count"),
    lo("engine.memo.misses", "count"),
    hi("engine.memo.hit_ratio", "ratio"),
    hi("engine.incr.hits", "count"),
    lo("engine.incr.misses", "count"),
    hi("engine.incr.hit_ratio", "ratio"),
    lo("engine.incr.invalidations", "count"),
    lo("engine.par.sections", "count"),
    lo("engine.par.morsels", "count"),
    lo("engine.par.steals", "count"),
    lo("engine.par.dispense_ms", "ms"),
    lo("engine.par.busy_imbalance", "ratio"),
    hi("engine.opt.pushdowns", "count"),
    hi("engine.opt.fused_nodes", "count"),
    lo("engine.rules_evaluated", "count"),
    lo("engine.tuples_scanned", "count"),
    lo("engine.assignments_produced", "count"),
    lo("engine.degradations", "count"),
    // assistant, from the journal
    lo("assistant.question.self_ms", "ms"),
    lo("assistant.probe.self_ms", "ms"),
    lo("assistant.probe.count", "count"),
    lo("assistant.iteration.count", "count"),
    // core: the session loop
    lo("core.session.wall_ms.T1", "ms"),
    lo("core.session.wall_ms.T4", "ms"),
    lo("core.session.wall_ms.T5", "ms"),
    lo("core.session.wall_ms.T7", "ms"),
    lo("core.session.wall_ms.T8", "ms"),
    lo("core.session.wall_ms.Panel", "ms"),
    lo("core.session.wall_ms.T9", "ms"),
    lo("core.session.wall_ms.T3", "ms"),
    lo("core.session.wall_ms.T6", "ms"),
    lo("core.session.final_run_ms", "ms"),
    lo("core.session.tail_ms", "ms"),
    lo("core.session.question_wait_max_ms", "ms"),
    // service
    lo("service.json.parse_us", "us"),
    lo("service.json.render_us", "us"),
    lo("service.protocol.decode_us", "us"),
    lo("service.host.handle_line_ms.create-session", "ms"),
    lo("service.host.handle_line_ms.ask-question", "ms"),
    lo("service.host.handle_line_ms.answer", "ms"),
    lo("service.host.handle_line_ms.get-results", "ms"),
    lo("service.host.handle_line_ms.close-session", "ms"),
    lo("service.host.handle_line_ms.stats", "ms"),
    lo("service.server.tcp_overhead_ms", "ms"),
    lo("service.server.accept_wait_ms", "ms"),
    lo("service.host.server_p50_ms", "ms"),
    lo("service.host.server_p95_ms", "ms"),
    lo("service.requests", "count"),
    lo("service.rejected", "count"),
    lo("service.watchdog_cancels", "count"),
    lo("service.worker_panics", "count"),
    lo("service.turn.over_limit_ratio", "ratio"),
    lo("service.session.p50_s", "s"),
    hi("service.sessions_per_s", "1/s"),
    // batch extraction throughput
    hi("extract.docs_per_s", "1/s"),
    // tracing and allocation
    lo("obs.trace.overhead_pct", "%"),
    lo("obs.trace.events", "count"),
    lo("alloc.count_per_input_doc", "count"),
    lo("alloc.bytes_per_input_doc", "B"),
    lo("alloc.peak_live_mb", "MB"),
    lo("alloc.engine_serial_run.count", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

impl Metrics {
    /// Records `name = value` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Attaches a free-text remark printed beside the metric (raw value,
    /// sample count, why it is 0).
    pub fn note(&mut self, name: &str, note: impl Into<String>) {
        self.notes.insert(name.to_string(), note.into());
    }

    /// The recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (sessions, runs, service requests).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Human-readable reasons for every failed check.
    pub failures: Vec<String>,
}

/// Renders a float with all its digits, as JSON accepts it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinities; a metric that overflowed is a failure
        // the caller has already flagged.
        "0".to_string()
    }
}

/// Prints every catalogue metric by name with unit, direction and bound,
/// then the one-line JSON result the driver parses. Metrics the run did
/// not set are printed as 0 with the remark "not exercised".
pub fn print(workload: &str, defs: &[MetricDef], out: &Outcome) {
    println!("== {workload}: {} metrics", defs.len());
    let mut json = String::new();
    for d in defs {
        let (value, missing) = match out.metrics.get(d.name) {
            Some(v) => (v, false),
            None => (0.0, true),
        };
        let bound = match d.bound {
            Some(b) => format!("bound {:.0}%", b * 100.0),
            None => "no bound".to_string(),
        };
        let note = match (out.metrics.notes.get(d.name), missing) {
            (Some(n), _) => format!("  ({n})"),
            (None, true) => "  (not exercised by this workload)".to_string(),
            (None, false) => String::new(),
        };
        println!(
            "{:<46} {:>16.6} {:<6} {} is better, {bound}{note}",
            d.name,
            value,
            d.unit,
            d.better.as_str()
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(value),
            d.unit
        ));
    }
    for f in &out.failures {
        println!("FAILED CHECK: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "workload name {w} collides with a metric");
        }
        assert!(!name_ok(".leading-dot"));
        assert!(!name_ok("has space"));
        assert!(!name_ok("slash/not/allowed"));
        assert!(!unit_ok("way-too-long-a-unit-name"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_fit_the_contract() {
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&b), "{}: bound {b}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` sits one directory up, outside this package; when
    /// it is there (it is in a checkout of the repository) every name,
    /// unit, direction and bound in it must match the catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let v = iflex_service::json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| match v.get(key) {
            Some(iflex_service::Json::Arr(a)) => a.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (row, d) in listed.iter().zip(defs) {
                let s = |k: &str| {
                    row.get(k)
                        .and_then(|j| j.as_str())
                        .unwrap_or("")
                        .to_string()
                };
                assert_eq!(s("name"), d.name);
                assert_eq!(s("unit"), d.unit, "{}", d.name);
                assert_eq!(s("better"), d.better.as_str(), "{}", d.name);
                assert_eq!(
                    row.get("bound").and_then(|j| j.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let names: Vec<String> = rows("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|j| j.as_str())
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
