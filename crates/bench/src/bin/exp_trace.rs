//! Run-report tooling for JSONL trace dumps (`IFLEX_TRACE`).
//!
//! Modes:
//! * `exp_trace <trace.jsonl>` — parse and validate a dump, then render
//!   the per-rule self-time table, the per-operator table, and the
//!   assistant iteration timeline;
//! * `exp_trace --smoke [path]` — run one tiny traced session (the T1
//!   movies task at 0.1 scale) end to end: execute with `IFLEX_TRACE`
//!   pointing at `path` (default `BENCH_trace_smoke.jsonl`), re-read the
//!   dump, validate span nesting, and render the report. Exits non-zero
//!   on any malformed output — the tier-1 gate.

use iflex_bench::trace_report::{
    iteration_timeline, latency_quantiles, operator_self_time, render_report, rule_self_time,
    run_rates, truncation,
};
use iflex_bench::{run_session, Strat};
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use iflex_engine::obs::{parse_jsonl, validate_nesting};

fn report(path: &str) -> Result<(), String> {
    let input = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let events = parse_jsonl(&input)?;
    let spans = validate_nesting(&events)?;
    println!("{path}: {} events, {} spans, nesting well-formed\n", events.len(), spans.len());
    print!("{}", render_report(&spans, &events));
    Ok(())
}

fn smoke(path: &str) -> Result<(), String> {
    // `trace_path_from_env` reads IFLEX_TRACE at session end; pointing it
    // at `path` makes the session write the dump this smoke then replays.
    std::env::set_var("IFLEX_TRACE", path);
    let corpus = Corpus::build(CorpusConfig::scaled(0.1));
    let task = corpus.task(TaskId::T1, None);
    let run = run_session(&corpus, &task, Strat::Sim);
    std::env::remove_var("IFLEX_TRACE");
    if run.quality.recall <= 0.0 {
        return Err("smoke session produced no recall".into());
    }
    let input = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let events = parse_jsonl(&input)?;
    let spans = validate_nesting(&events)?;
    let rules = rule_self_time(&spans);
    if rules.is_empty() {
        return Err("trace contains no rule spans".into());
    }
    let timeline = iteration_timeline(&spans);
    if timeline.is_empty() {
        return Err("trace contains no iteration spans".into());
    }
    // every T1 rule extracts in one pass, so a fused pass must have run
    if !operator_self_time(&spans).iter().any(|r| r.name == "fused") {
        return Err("trace contains no fused pass".into());
    }
    // the telemetry sections reconstruct from the same spans: per-rule
    // latency quantiles and trailing run rates must populate, and a
    // default-cap journal must not have truncated
    if latency_quantiles(&spans, iflex_engine::obs::SpanKind::Rule).is_empty() {
        return Err("trace yields no rule latency quantiles".into());
    }
    if run_rates(&spans).runs == 0 {
        return Err("trace yields no run spans for the rate window".into());
    }
    if let Some(dropped) = truncation(&events) {
        return Err(format!("smoke trace truncated ({dropped} events dropped)"));
    }
    print!("{}", render_report(&spans, &events));
    println!(
        "smoke OK: {} events, {} spans, {} rules, {} iterations",
        events.len(),
        spans.len(),
        rules.len(),
        timeline.len()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(|s| s.as_str()) {
        Some("--smoke") => smoke(
            args.get(1).map(|s| s.as_str()).unwrap_or("BENCH_trace_smoke.jsonl"),
        ),
        Some(path) => report(path),
        None => Err("usage: exp_trace <trace.jsonl> | exp_trace --smoke [path]".into()),
    };
    if let Err(e) = result {
        eprintln!("exp_trace: {e}");
        std::process::exit(1);
    }
}
