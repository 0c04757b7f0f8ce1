//! Integration tests of fault-tolerant execution: every injection site
//! degrades gracefully — the run returns `Ok` with the degradation
//! recorded in `ExecStats` and a superset-safe widened result — and the
//! process never aborts.

use iflex::engine::{fault, PlanError};
use iflex::prelude::*;
use std::error::Error as _;
use std::sync::Arc;

fn engine_with_pages(n: usize) -> (Engine, Vec<iflex::text::DocId>) {
    let mut store = DocumentStore::new();
    let mut ids = Vec::new();
    for i in 0..n {
        ids.push(store.add_markup(&format!("row {} val <b>{}</b>", i, (i + 1) * 10)));
    }
    let mut eng = Engine::new(Arc::new(store));
    eng.add_doc_table("pages", &ids);
    (eng, ids)
}

fn extraction_program() -> Program {
    parse_program(
        "q(x, v) :- pages(x), e(#x, v).\n\
         e(#x, v) :- from(#x, v), numeric(v) = yes.",
    )
    .unwrap()
}

#[test]
fn rule_panic_is_contained_and_recorded() {
    let (mut eng, _) = engine_with_pages(3);
    eng.fault.arm(
        fault::site::EVAL_RULE,
        Trigger::Nth(0),
        Fault::Panic("kaboom".into()),
        7,
    );
    let result = eng.run(&extraction_program()).expect("panic is contained");
    assert!(eng.stats.degraded_by(DegradeCause::RulePanic));
    let d = &eng.stats.degradations[0];
    assert!(d.truncated.contains("kaboom"), "payload survives: {d}");
    assert!(!result.is_empty());
    assert!(result.tuples().iter().any(|t| t.maybe));
}

#[test]
fn join_site_fault_degrades_that_rule() {
    let (mut eng, ids) = engine_with_pages(3);
    eng.add_doc_table("others", &ids);
    eng.fault.arm(fault::site::JOIN_TUPLE, Trigger::Nth(0), Fault::TooLarge, 7);
    let prog = parse_program("q(x, y) :- pages(x), others(y).").unwrap();
    let result = eng.run(&prog).expect("join fault degrades");
    assert!(eng.stats.degraded_by(DegradeCause::Budget));
    assert!(!result.is_empty());
}

#[test]
fn generator_site_fault_degrades() {
    let (mut eng, _) = engine_with_pages(3);
    eng.procs_mut().register_generator("gen", 1, |_, args| {
        let Some(Value::Span(x)) = args.first() else {
            return vec![];
        };
        vec![vec![Value::Span(*x)]]
    });
    eng.fault.arm(
        fault::site::GENERATOR,
        Trigger::Nth(0),
        Fault::Panic("generator died".into()),
        7,
    );
    let prog = parse_program("q(v) :- pages(x), gen(#x, v).").unwrap();
    let result = eng.run(&prog).expect("generator fault degrades");
    assert!(eng.stats.degraded_by(DegradeCause::RulePanic));
    assert!(!result.is_empty());
}

#[test]
fn annotate_site_fault_degrades() {
    let (mut eng, _) = engine_with_pages(3);
    eng.fault.arm(
        fault::site::ANNOTATE,
        Trigger::Nth(0),
        Fault::DeadlineExpired,
        7,
    );
    let prog = parse_program(
        "q(x, <v>) :- pages(x), e(#x, v).\n\
         e(#x, v) :- from(#x, v), numeric(v) = yes.",
    )
    .unwrap();
    let result = eng.run(&prog).expect("annotate fault degrades");
    assert!(eng.stats.degraded_by(DegradeCause::Deadline));
    assert!(!result.is_empty());
}

#[test]
fn cancellation_is_cooperative_and_superset_safe() {
    let (mut eng, _) = engine_with_pages(3);
    let token = eng.budget.cancel_token();
    token.cancel(); // cancelled before the run even starts
    let result = eng.run(&extraction_program()).expect("cancel degrades");
    assert!(eng.stats.degraded_by(DegradeCause::Cancelled));
    assert!(!result.is_empty());
    // the token resets for the next run
    token.reset();
    let _ = eng.run(&extraction_program()).unwrap();
    assert!(!eng.stats.degraded());
}

#[test]
fn degraded_results_are_never_cached() {
    let (mut eng, _) = engine_with_pages(3);
    // fires exactly once: first run degrades, second must re-evaluate
    eng.fault.arm(fault::site::EVAL_RULE, Trigger::Nth(0), Fault::TooLarge, 7);
    let prog = extraction_program();
    let degraded = eng.run(&prog).unwrap();
    assert!(eng.stats.degraded());
    let exact = eng.run(&prog).unwrap();
    assert!(!eng.stats.degraded(), "retry after the fault is exact");
    assert_ne!(
        exact.tuples(),
        degraded.tuples(),
        "the widened result must not be served from the cache"
    );
}

#[test]
fn deadline_zero_run_completes_quickly_and_degrades() {
    let (mut eng, _) = engine_with_pages(5);
    eng.budget.deadline = Some(std::time::Duration::ZERO);
    let t0 = std::time::Instant::now();
    let result = eng.run(&extraction_program()).expect("deadline degrades");
    assert!(eng.stats.degraded_by(DegradeCause::Deadline));
    assert!(!result.is_empty());
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "expired run must drain fast"
    );
}

#[test]
fn engine_errors_chain_sources() {
    let planned = EngineError::Plan(PlanError::Internal {
        rule: "q(x) :- pages(x).".into(),
        detail: "test".into(),
    });
    assert!(planned.source().is_some(), "plan errors expose their cause");
    assert!(EngineError::Deadline.source().is_none());
    assert!(EngineError::Cancelled.source().is_none());
    assert!(EngineError::TooLarge("x".into()).source().is_none());
    // every variant renders
    for e in [
        EngineError::Deadline,
        EngineError::Cancelled,
        EngineError::RulePanic("p".into()),
        EngineError::Internal("i".into()),
    ] {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn memo_lookup_site_fault_degrades_that_rule_only() {
    let (mut eng, _) = engine_with_pages(3);
    let prog = extraction_program();
    // Warm the cache with an exact run, then poison the next lookup.
    let exact = eng.run(&prog).unwrap();
    assert!(!eng.stats.degraded());
    eng.fault.arm(
        fault::site::MEMO_LOOKUP,
        Trigger::Nth(0),
        Fault::Panic("cache lookup died".into()),
        7,
    );
    let degraded = eng.run(&prog).expect("lookup fault degrades, never aborts");
    assert!(eng.stats.degraded_by(DegradeCause::RulePanic));
    let d = &eng.stats.degradations[0];
    assert_eq!(
        d.site.as_deref(),
        Some(fault::site::MEMO_LOOKUP),
        "degradation is attributed to the lookup site: {d}"
    );
    assert!(!degraded.is_empty(), "superset-safe stand-in survives");
    // The fault fired once; the next run is exact again and equals the
    // original (the widened result was never cached).
    let retry = eng.run(&prog).unwrap();
    assert!(!eng.stats.degraded());
    assert_eq!(retry.tuples(), exact.tuples());
}

#[test]
fn memo_lookup_too_large_fault_degrades_as_budget() {
    let (mut eng, _) = engine_with_pages(3);
    let prog = extraction_program();
    eng.run(&prog).unwrap();
    eng.fault.arm(
        fault::site::MEMO_LOOKUP,
        Trigger::Nth(0),
        Fault::TooLarge,
        7,
    );
    let degraded = eng.run(&prog).expect("a lookup overflow degrades, never fails");
    assert!(eng.stats.degraded_by(DegradeCause::Budget));
    let d = &eng.stats.degradations[0];
    assert_eq!(d.site.as_deref(), Some(fault::site::MEMO_LOOKUP), "{d}");
    assert!(!degraded.is_empty(), "superset-safe stand-in survives");
}
