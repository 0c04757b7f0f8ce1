//! Property tests of the parallel execution engine: for any program shape
//! and any thread count, the sharded operators must produce a result
//! **byte-identical** to the serial run — including which rules degrade
//! when a fault is injected at any named site. Parallelism is a pure
//! performance lever; it may never change what the engine computes.

use iflex_alog::{parse_program, Program};
use iflex_ctable::Value;
use iflex_engine::{fault, Engine, Fault, Trigger};
use iflex_text::DocumentStore;
use proptest::prelude::*;
use std::sync::Arc;

/// Every named injection site that fires identically under serial and
/// parallel execution, in a fixed order the generator indexes.
/// `fault::site::PAR_STEAL` is deliberately absent: it is probed only
/// when a participant begins a *stolen* morsel, which never happens in a
/// serial run, so it cannot satisfy a serial-identity property. Its
/// containment guarantee is covered by [`steal_faults_degrade_not_corrupt`]
/// below and by the deterministic forced-steal unit tests in `par.rs`.
const SITES: &[&str] = &[
    fault::site::EVAL_RULE,
    fault::site::JOIN_TUPLE,
    fault::site::GENERATOR,
    fault::site::ANNOTATE,
    fault::site::IO_READ,
];

/// How many shapes [`program`] generates.
const KINDS: u8 = 8;

/// An engine over `n` markup documents, with a second relation for join
/// shapes, a 3×-larger corpus (`big`) for skewed joins, a two-column
/// table (`r2`: an exact number and a numeric-text span) for a post-join
/// selection, and a pass-through generator for generator shapes.
fn build_engine(n: usize, threads: usize) -> Engine {
    let mut store = DocumentStore::new();
    let mut ids = Vec::new();
    for i in 0..n {
        ids.push(store.add_markup(&format!(
            "row {} val <b>{}</b> extra {}",
            i,
            (i + 1) * 10,
            i % 7
        )));
    }
    let big: Vec<_> = (0..3 * n)
        .map(|i| store.add_markup(&format!("item {} cost <b>{}</b>", i, i + 5)))
        .collect();
    let r2_rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let d = store.add_plain(format!("{}", i * 3));
            vec![Value::Num(i as f64), Value::Span(store.doc(d).full_span())]
        })
        .collect();
    let mut eng = Engine::new(Arc::new(store));
    eng.add_doc_table("pages", &ids);
    eng.add_doc_table("others", &ids);
    eng.add_doc_table("big", &big);
    eng.add_table(
        "r2",
        iflex_ctable::CompactTable::from_exact_rows(vec!["a".into(), "b".into()], r2_rows),
    );
    eng.procs_mut().register_generator("gen", 1, |_, args| {
        let Some(Value::Span(x)) = args.first() else {
            return vec![];
        };
        vec![vec![Value::Span(*x)]]
    });
    eng.limits.threads = threads;
    eng
}

/// Program shapes covering the sharded operators and the passes the
/// compiler fuses: extraction with a domain constraint, a cross join, a
/// generator procedure, a comparison, an annotated head (the ψ operator),
/// a skewed join, a post-join selection, a similarity join, and a
/// similarity prefilter with a trailing step and a projection in one
/// pass.
fn program(kind: u8) -> Program {
    let src = match kind % KINDS {
        0 => {
            "q(x, <v>) :- pages(x), e(#x, v).\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes."
        }
        1 => "q(x, y) :- pages(x), others(y).",
        2 => "q(v) :- pages(x), gen(#x, v).",
        3 => {
            "q(x, v) :- pages(x), e(#x, v), v > 20.\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes."
        }
        // a skewed join: pages × big is 1:3, streamed pair by pair
        4 => "q(x, y) :- pages(x), big(y).",
        // a post-join selection: `x < a` straddles pages × r2 and forces
        // the join; `numeric(b)` touches only the right side and runs
        // over the pairs (it keeps every r2 row)
        5 => "q(x, a, b) :- pages(x), r2(a, b), x < a, numeric(b) = yes.",
        // a similarity join: the straddling `similar` is the first step
        // over the cross join, so it runs as the pass's token prefilter
        6 => "q(a, b) :- pages(x), from(#x, a), big(y), from(#y, b), similar(#a, #b).",
        // `numeric(a)` shares `a` with the straddling `similar`, so
        // `similar` stays first: prefilter, constraint and π run in one
        // pass over the pairs, as in T3's outer rule
        _ => {
            "q(a) :- pages(x), from(#x, a), big(y), from(#y, b), \
             similar(#a, #b), numeric(a) = yes."
        }
    };
    parse_program(src).unwrap()
}

/// One full run: the result table plus the full degradation records
/// (cause, rule, truncated error, site), in order. `morsel` overrides
/// `Limits::morsel_tuples` so the sweep can force many tiny morsels
/// (maximum dispenser traffic) or one huge one (serial-like).
fn observe_morsel(
    n: usize,
    threads: usize,
    kind: u8,
    arm: Option<(usize, Trigger, bool)>,
    morsel: Option<(usize, usize)>,
) -> (String, Vec<String>) {
    let mut eng = build_engine(n, threads);
    if let Some(m) = morsel {
        eng.limits.morsel_tuples = m;
    }
    if let Some((site_idx, trigger, panic_not_budget)) = arm {
        let f = if panic_not_budget {
            Fault::Panic("prop-parallel".into())
        } else {
            Fault::TooLarge
        };
        eng.fault.arm(SITES[site_idx % SITES.len()], trigger, f, 11);
    }
    let table = eng.run(&program(kind)).unwrap();
    let degraded: Vec<String> = eng
        .stats
        .degradations
        .iter()
        .map(|d| d.to_string())
        .collect();
    // Debug output is a faithful structural rendering; comparing it keeps
    // the assertion byte-level without requiring tables to be Ord.
    (format!("{table:?}"), degraded)
}

/// [`observe_morsel`] with the default morsel bounds.
fn observe(n: usize, threads: usize, kind: u8, arm: Option<(usize, Trigger, bool)>) -> (String, Vec<String>) {
    observe_morsel(n, threads, kind, arm, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact runs: every thread count yields the identical table.
    #[test]
    fn parallel_equals_serial_exact(
        n in 1usize..24,
        kind in 0u8..KINDS,
    ) {
        let serial = observe(n, 1, kind, None);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(&observe(n, threads, kind, None), &serial, "threads={}", threads);
        }
    }

    /// Faulted runs: a single armed Nth fault, or an always-armed one, at
    /// any named site degrades the same rules and leaves the same widened
    /// table, at every thread count. Rules evaluate serially and every
    /// shard joins before the rule boundary, so the shared hit counter
    /// reaches a rule boundary with the same value no matter how tuples
    /// were scattered.
    #[test]
    fn faults_degrade_identically_across_thread_counts(
        n in 4usize..24,
        kind in 0u8..KINDS,
        site_idx in 0usize..5,
        nth in 0u64..9,
        panic_not_budget in any::<bool>(),
    ) {
        // One draw in nine arms the site on every visit.
        let trigger = if nth == 8 { Trigger::Always } else { Trigger::Nth(nth) };
        let armed = Some((site_idx, trigger, panic_not_budget));
        let serial = observe(n, 1, kind, armed);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(&observe(n, threads, kind, armed), &serial, "threads={}", threads);
        }
    }

    /// A warm rule cache must be invisible: a second run on the same
    /// engine returns exactly what a fresh engine returns.
    #[test]
    fn warm_caches_preserve_results(
        n in 1usize..16,
        kind in 0u8..KINDS,
    ) {
        let prog = program(kind);
        let mut eng = build_engine(n, 8);
        let first = format!("{:?}", eng.run(&prog).unwrap());
        let warm = format!("{:?}", eng.run(&prog).unwrap());
        prop_assert_eq!(&warm, &first);
        prop_assert_eq!(&observe(n, 8, kind, None).0, &first);
    }

    /// Morsel-size sweep (exact runs): from pathological 1-tuple morsels
    /// (maximum dispenser and steal traffic) to morsels larger than the
    /// input (serial-like), every configuration folds to the serial
    /// table at every thread count.
    #[test]
    fn morsel_sizes_preserve_exact_results(
        n in 1usize..24,
        kind in 0u8..KINDS,
        min_idx in 0usize..4,
    ) {
        let min = [1usize, 2, 4, 64][min_idx];
        let serial = observe(n, 1, kind, None);
        for threads in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                &observe_morsel(n, threads, kind, None, Some((min, min * 4))),
                &serial,
                "threads={} morsel_min={}", threads, min
            );
        }
    }

    /// Morsel-size × threads × fault-site sweep: a single armed Nth fault
    /// at any serial-reachable site degrades the same rule with the
    /// identical record and leaves the identical widened table, no matter
    /// how the index space was morselized.
    #[test]
    fn morsel_sizes_degrade_identically(
        n in 4usize..24,
        kind in 0u8..KINDS,
        site_idx in 0usize..5,
        nth in 0u64..6,
        panic_not_budget in any::<bool>(),
        min_idx in 0usize..3,
    ) {
        let min = [1usize, 2, 16][min_idx];
        let armed = Some((site_idx, Trigger::Nth(nth), panic_not_budget));
        let serial = observe(n, 1, kind, armed);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(
                &observe_morsel(n, threads, kind, armed, Some((min, min * 4))),
                &serial,
                "threads={} morsel_min={}", threads, min
            );
        }
    }
}

/// Acceptance gate: tracing and live telemetry (windows, quantile
/// sketches, flight recorder) are pure observers. Enabling either changes
/// no result at any thread count, and the journal — including the shard
/// spans emitted inside scatter workers — is well-nested.
#[test]
fn traced_runs_match_untraced_at_every_thread_count() {
    use iflex_engine::obs::{validate_nesting, FlightRecorder, LiveSet, SpanKind};
    for kind in 0..KINDS {
        let baseline = observe(16, 1, kind, None);
        for threads in [1usize, 2, 4, 8] {
            let mut eng = build_engine(16, threads);
            eng.tracer.enable();
            let table = eng.run(&program(kind)).unwrap();
            assert_eq!(
                format!("{table:?}"),
                baseline.0,
                "threads={threads} kind={kind}"
            );
            let spans = validate_nesting(&eng.tracer.events()).expect("well-formed journal");
            assert!(spans.iter().any(|s| s.kind == SpanKind::Run));
            assert!(spans.iter().any(|s| s.kind == SpanKind::Rule));
            assert!(spans.iter().any(|s| s.kind == SpanKind::Operator));

            let mut eng = build_engine(16, threads);
            eng.live = LiveSet::enabled();
            eng.flight = FlightRecorder::new(0);
            let table = eng.run(&program(kind)).unwrap();
            assert_eq!(
                format!("{table:?}"),
                baseline.0,
                "live telemetry, threads={threads} kind={kind}"
            );
            assert!(
                !eng.live.sketches().is_empty(),
                "the run fed the live sketches"
            );
        }
    }
}

/// A trace-disabled engine must journal nothing: the tracer's event and
/// drop counters stay at zero across full runs (the begin/end calls are
/// single relaxed atomic loads that allocate nothing).
#[test]
fn disabled_tracer_journals_nothing_across_runs() {
    let mut eng = build_engine(16, 4);
    for kind in 0..KINDS {
        eng.run(&program(kind)).unwrap();
    }
    assert_eq!(eng.tracer.recorded(), 0, "no events journaled");
    assert_eq!(eng.tracer.dropped(), 0, "nothing hit the journal cap");
    assert!(eng.tracer.events().is_empty());
}

/// The shapes run fused passes: the fusion counter is non-zero on the
/// constraint-and-comparison chain, so the properties above do not pass
/// vacuously over unfused plans.
#[test]
fn shapes_actually_exercise_the_passes() {
    use iflex_engine::obs::metrics::names;
    let mut eng = build_engine(8, 1);
    eng.run(&program(3)).unwrap();
    let fused = eng.metrics.counter_value(names::OPT_FUSED_NODES);
    assert!(fused.unwrap_or(0) > 0, "kind 3 fused nothing: {fused:?}");
}

/// Faulted + traced: the degradation instant carries the cause and the
/// record carries the injection site (satellite 3).
#[test]
fn traced_degradation_names_site_and_rule() {
    let mut eng = build_engine(8, 2);
    eng.tracer.enable();
    eng.fault
        .arm(fault::site::EVAL_RULE, Trigger::Nth(0), Fault::TooLarge, 3);
    eng.run(&program(0)).unwrap();
    let d = &eng.stats.degradations[0];
    assert_eq!(d.site.as_deref(), Some(fault::site::EVAL_RULE));
    assert!(d.to_string().contains("site: engine.eval_rule"), "{d}");
    let events = eng.tracer.events();
    let inst = events
        .iter()
        .find(|e| e.name == "degradation")
        .expect("degradation instant");
    let note = inst.note.as_deref().unwrap_or("");
    assert!(note.contains("budget"), "{note}");
    assert!(note.contains("engine.eval_rule"), "{note}");
}

/// A fault injected at the steal site — the thief panicking the moment it
/// begins someone else's morsel — must be contained exactly like any rule
/// failure: the run still completes, the affected rule degrades (never
/// corrupts), and the record names `engine.par_steal`. Steals are
/// timing-dependent (this probe only fires on a real steal), so the run
/// is retried with pathological 1-tuple morsels until one fires; if the
/// scheduler never interleaves (possible on a single-core host), the
/// deterministic forced-steal coverage in `par.rs` stands in.
#[test]
fn steal_faults_degrade_not_corrupt() {
    for attempt in 0..32 {
        let mut eng = build_engine(48, 4);
        eng.limits.morsel_tuples = (1, 2);
        eng.fault.arm(
            fault::site::PAR_STEAL,
            Trigger::Always,
            Fault::Panic("mid-steal".into()),
            attempt,
        );
        let table = eng.run(&program(1)).expect("steal fault must not abort the run");
        if eng.fault.fired_count(fault::site::PAR_STEAL) == 0 {
            continue; // no steal happened this run; try again
        }
        let d = eng
            .stats
            .degradations
            .iter()
            .find(|d| d.site.as_deref() == Some(fault::site::PAR_STEAL))
            .expect("a fired steal fault must be recorded as a degradation");
        assert!(d.truncated.contains("mid-steal"), "{d}");
        // Degraded, not corrupted: the widened table still has the rule's
        // declared columns.
        assert_eq!(table.columns(), &["x", "y"], "{table:?}");
        return;
    }
    eprintln!("steal never fired in 32 attempts (single-core scheduler); covered by par.rs unit tests");
}
