//! End-to-end trace replay (satellite 4): run a traced session, dump the
//! journal as JSONL, parse it back through the same path `exp_trace`
//! uses, and check the span-nesting contract — every child closes inside
//! its parent — plus the report renderings.

use iflex::prelude::*;
use iflex::Session;
use iflex_alog::parse_program;
use iflex_bench::trace_report::{
    iteration_timeline, operator_self_time, render_report, rule_self_time,
};
use iflex_engine::obs::{parse_jsonl, validate_nesting, SpanKind};
use iflex_engine::Engine;
use iflex_text::DocumentStore;
use std::sync::Arc;

fn engine() -> Engine {
    let mut store = DocumentStore::new();
    let mut ids = Vec::new();
    for i in 0..8 {
        ids.push(store.add_markup(&format!(
            "junk {} words <b>{}</b> tail {}",
            i * 3 + 1,
            (i + 1) * 100,
            i * 7 + 2
        )));
    }
    let mut eng = Engine::new(Arc::new(store));
    eng.add_doc_table("pages", &ids);
    // Tracing enabled through the limits flag, not IFLEX_TRACE: tests
    // must not depend on (or mutate) the process environment.
    eng.limits.trace = true;
    eng
}

fn traced_session() -> Session {
    let program = parse_program(
        r#"
        q(x, <v>) :- pages(x), extractV(#x, v).
        extractV(#x, v) :- from(#x, v), numeric(v) = yes.
    "#,
    )
    .unwrap();
    let oracle = OracleSpec::new().knows(
        "extractV.v",
        "bold-font",
        iflex_features::FeatureArg::yes(),
    );
    let mut session = Session::new(
        engine(),
        program,
        Box::new(Sequential),
        Box::new(SimulatedDeveloper::new(oracle)),
    );
    session.config.use_sampling = false;
    session
}

#[test]
fn jsonl_dump_replays_with_well_formed_nesting() {
    let mut session = traced_session();
    let out = session.run().expect("session runs");
    assert!(!out.table.is_empty());

    // Dump → parse must be lossless, and nesting must validate.
    let jsonl = session.engine.tracer.to_jsonl();
    let events = parse_jsonl(&jsonl).expect("parse dump");
    assert_eq!(events, session.engine.tracer.events(), "lossless replay");
    let spans = validate_nesting(&events).expect("well-formed nesting");

    // The whole taxonomy shows up: session → iteration → run → rule →
    // operator, and question spans in refining iterations.
    for kind in [
        SpanKind::Session,
        SpanKind::Iteration,
        SpanKind::Question,
        SpanKind::Run,
        SpanKind::Rule,
        SpanKind::Operator,
    ] {
        assert!(
            spans.iter().any(|s| s.kind == kind),
            "no {kind:?} span in the dump"
        );
    }

    // Every run nests under an iteration, every operator under a rule.
    let find = |id: u64| spans.iter().find(|s| s.id == id).unwrap();
    for s in &spans {
        match s.kind {
            SpanKind::Run => assert_eq!(find(s.parent).kind, SpanKind::Iteration),
            SpanKind::Operator => assert!(matches!(
                find(s.parent).kind,
                SpanKind::Rule | SpanKind::Operator
            )),
            _ => {}
        }
    }

    // The exp_trace renderings work off the replayed spans.
    let rules = rule_self_time(&spans);
    assert!(!rules.is_empty(), "per-rule table has rows");
    assert!(rules.iter().all(|r| r.self_us <= r.inclusive_us));
    let ops = operator_self_time(&spans);
    assert!(ops.iter().any(|o| o.name == "scan_ext"));
    let timeline = iteration_timeline(&spans);
    assert!(!timeline.is_empty(), "timeline has iterations");
    assert!(timeline.iter().all(|r| r.runs >= 1));
    let report = render_report(&spans, &events);
    assert!(report.contains("Per-rule self time"));
    assert!(report.contains("Assistant iteration timeline"));
}

#[test]
fn final_stats_travel_with_the_chosen_attempt() {
    let mut session = traced_session();
    let out = session.run().expect("session runs");
    // Satellite 1: the outcome's stats describe exactly the chosen final
    // run — counters reset per run, so a clean final run reports zero
    // degradations and a fresh feature-cache tally.
    assert!(out.final_stats.degradations.is_empty());
    assert_eq!(
        out.final_stats.assignments_produced,
        out.records.last().unwrap().assignments
    );
    assert!(out.final_stats.rules_evaluated + out.final_stats.incr_hits > 0);
}
