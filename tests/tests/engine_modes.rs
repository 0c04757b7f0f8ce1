//! Integration tests of the engine's two usage modes (§2): classic
//! *precise Xlog* with procedural IE predicates plugged in as registered
//! generators, and *best-effort Alog* with description rules — plus the
//! failure paths (budgets, validation, bad procedures).

use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use iflex_text::markup::style;

/// The paper's original workflow: IE predicates implemented procedurally
/// (the "Perl modules"), executed by the same engine. The results must be
/// exact (no maybe tuples) and equal to ground truth.
#[test]
fn precise_xlog_mode_through_the_engine() {
    let c = Corpus::build(CorpusConfig::tiny());
    let imdb_docs: Vec<_> = c.movies.imdb.iter().map(|(d, _)| *d).collect();
    let mut engine = iflex::engine::Engine::new(c.store.clone());
    engine.add_doc_table("imdb", &imdb_docs);
    // the procedural extractor: exactly what §2.1 calls a p-predicate
    engine
        .procs_mut()
        .register_generator("extractIMDB", 2, |store, args| {
            let Some(Value::Span(x)) = args.first() else {
                return vec![];
            };
            let doc = store.doc(x.doc);
            let Some((ts, te)) = doc
                .styled_regions(x.start, x.end, style::BOLD)
                .into_iter()
                .next()
            else {
                return vec![];
            };
            let text = doc.text();
            let Some(vpos) = text.find("votes") else {
                return vec![];
            };
            let tail = text[vpos + 5..].trim_start();
            let vend = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            let Some(votes) = iflex::text::parse_number(&tail[..vend]) else {
                return vec![];
            };
            vec![vec![
                Value::Span(iflex::text::Span::new(x.doc, ts, te)),
                Value::Num(votes),
            ]]
        });
    // Table 2's T1 program, verbatim shape, no description rules at all
    let prog = parse_program(
        "t1(title) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.",
    )
    .unwrap();
    let result = engine.run(&prog).unwrap();
    assert!(result.tuples().iter().all(|t| !t.maybe), "precise mode");
    let task = c.task(TaskId::T1, None);
    let q = iflex::score(&result, &task.truth_cols, &task.truth, engine.store());
    assert_eq!(q.result_tuples, q.correct_tuples);
    assert!((q.recall - 1.0).abs() < 1e-9);
    assert!((q.certain_precision - 1.0).abs() < 1e-9);
}

#[test]
fn best_effort_and_precise_modes_agree() {
    // The refined best-effort program and the procedural program compute
    // the same relation.
    let c = Corpus::build(CorpusConfig::tiny());
    let task = c.task(TaskId::T7, Some(30));
    // best-effort, fully refined
    let mut engine = task.engine(&c);
    let refined = parse_program(
        r#"
        t7(title) :- barnes(x), extractBarnes(#x, title, price), price > 100.
        extractBarnes(#x, title, price) :- from(#x, title), from(#x, price),
            bold-font(title) = distinct-yes, numeric(price) = yes,
            underlined(price) = distinct-yes.
    "#,
    )
    .unwrap();
    let best_effort = engine.run(&refined).unwrap();
    let precise = iflex_baseline::run_precise(&c, TaskId::T7, Some(30));
    assert_eq!(best_effort.expanded_len(engine.store()) as usize, precise.len());
}

#[test]
fn too_large_budget_degrades_instead_of_failing() {
    let c = Corpus::build(CorpusConfig::tiny());
    let task = c.task(TaskId::T9, Some(40));
    let mut engine = task.engine(&c);
    engine.limits.max_result_tuples = 10; // absurdly small
    let result = engine.run(&task.program).expect("degrades, not fails");
    assert!(engine.stats.degraded(), "budget overflow must be recorded");
    assert!(engine
        .stats
        .degradations
        .iter()
        .any(|d| d.cause == iflex::engine::DegradeCause::Budget));
    assert!(!result.is_empty(), "widened stand-ins keep the superset");
    assert!(
        result.tuples().iter().any(|t| t.maybe),
        "degraded tuples are marked maybe"
    );
}

#[test]
fn session_survives_budget_overflow_via_subset_fallback() {
    let c = Corpus::build(CorpusConfig::tiny());
    let task = c.task(TaskId::T9, Some(40));
    let mut engine = task.engine(&c);
    engine.limits.max_result_tuples = 2_000; // full joins blow this
    let mut session = iflex::Session::new(
        engine,
        task.program.clone(),
        Box::new(Sequential),
        Box::new(SimulatedDeveloper::new(iflex::OracleSpec::new())), // knows nothing
    );
    session.config.max_iterations = 4;
    let out = session.run().expect("falls back to the subset result");
    assert!(!out.full_run_within_budget);
    assert!(!out.table.is_empty());
}

#[test]
fn generator_arity_mismatch_is_an_error() {
    let c = Corpus::build(CorpusConfig::tiny());
    let docs: Vec<_> = c.movies.imdb.iter().take(3).map(|(d, _)| *d).collect();
    let mut engine = iflex::engine::Engine::new(c.store.clone());
    engine.add_doc_table("pages", &docs);
    engine
        .procs_mut()
        .register_generator("bad", 1, |_, _| vec![vec![Value::Num(1.0), Value::Num(2.0)]]);
    let prog = parse_program("q(x, v) :- pages(x), bad(#x, v).").unwrap();
    match engine.run(&prog) {
        Err(iflex::engine::EngineError::BadProcedure(msg)) => {
            assert!(msg.contains("arity"), "{msg}")
        }
        other => panic!("expected BadProcedure, got {other:?}"),
    }
}

#[test]
fn validation_errors_are_collected_not_panicked() {
    let c = Corpus::build(CorpusConfig::tiny());
    let mut engine = iflex::engine::Engine::new(c.store.clone());
    let prog = parse_program(
        r#"
        a(x) :- ghost(x).
        b(y) :- a(y), numeric(z) = yes.
    "#,
    )
    .unwrap();
    match engine.run(&prog) {
        Err(iflex::engine::EngineError::Validation(errs)) => {
            assert!(errs.len() >= 2, "{errs:?}");
        }
        other => panic!("expected Validation, got {other:?}"),
    }
}

#[test]
fn explain_matches_runtime_behaviour() {
    let c = Corpus::build(CorpusConfig::tiny());
    let task = c.task(TaskId::T6, Some(20));
    let engine = task.engine(&c);
    let text = engine.explain(&task.program).unwrap();
    // the similarity join is compiled above a cross join with per-side
    // extraction below it
    assert!(text.contains("Filter[similar"));
    assert!(text.contains("CrossJoin"));
    let filter_at = text.find("Filter[similar").unwrap();
    let join_at = text.find("CrossJoin").unwrap();
    assert!(filter_at < join_at);
}

/// The README's "Explaining a plan" sample, program and output, verbatim:
/// the compiler's choices (fusion, step order) and the rendering may not
/// drift from what the documentation shows.
#[test]
fn readme_explain_sample_is_verbatim() {
    let readme = include_str!("../../README.md");
    let section = &readme[readme.find("## Explaining a plan").expect("README section")..];
    let between = |open: &str, close: &str| -> &str {
        let start = section.find(open).expect("opening marker") + open.len();
        let len = section[start..].find(close).expect("closing marker");
        &section[start..start + len]
    };
    let program = between("cat > prog.alog <<'EOF'\n", "EOF\n");
    let expected = between("```\n-- ", "```\n");
    let mut store = DocumentStore::new();
    let pages = [
        store.add_markup("<b>Cozy house</b> price 251000, 3 beds"),
        store.add_markup("<b>Big house</b> price 619000, 5 beds"),
    ];
    let mut engine = iflex::engine::Engine::new(std::sync::Arc::new(store));
    engine.add_doc_table("housePages", &pages);
    let text = engine.explain(&parse_program(program).unwrap()).unwrap();
    assert_eq!(text, format!("-- {expected}"));
}

/// A plan depends only on its rule and the relation sizes: EXPLAIN
/// prints the same bytes on a fresh engine, after programs and a
/// Simulation session ran on it, and on a fork whose sibling fork ran a
/// session.
#[test]
fn explain_is_the_same_before_and_after_sessions() {
    let c = Corpus::build(CorpusConfig::tiny());
    let task = c.task(TaskId::T1, Some(30));
    let prog = &task.program;
    let session = |engine| {
        let mut s = iflex::Session::new(
            engine,
            prog.clone(),
            Box::new(Simulation::default()),
            Box::new(SimulatedDeveloper::new(task.oracle.clone())),
        );
        s.run().expect("session runs");
        s.engine
    };
    let mut engine = task.engine(&c);
    let fresh = engine.explain(prog).unwrap();
    let other =
        parse_program("q(t) :- imdb(x), e(#x, t). e(#x, t) :- from(#x, t), italic-font(t) = yes.")
            .unwrap();
    engine.run(prog).unwrap();
    engine.run(&other).unwrap();
    assert_eq!(engine.explain(prog).unwrap(), fresh, "after runs");
    let engine = session(engine);
    assert_eq!(engine.explain(prog).unwrap(), fresh, "after a session");
    let core = task.engine(&c).into_core();
    let fork = core.fork();
    session(core.fork());
    assert_eq!(
        fork.explain(prog).unwrap(),
        fresh,
        "beside a sibling's session"
    );
}

#[test]
fn multiple_rules_same_head_union() {
    // a predicate defined by two rules is the union of both results
    let c = Corpus::build(CorpusConfig::tiny());
    let imdb: Vec<_> = c.movies.imdb.iter().take(5).map(|(d, _)| *d).collect();
    let ebert: Vec<_> = c.movies.ebert.iter().take(5).map(|(d, _)| *d).collect();
    let mut engine = iflex::engine::Engine::new(c.store.clone());
    engine.add_doc_table("imdb", &imdb);
    engine.add_doc_table("ebert", &ebert);
    let prog = parse_program(
        r#"
        titles(t) :- imdb(x), eb(#x, t).
        titles(t) :- ebert(y), ei(#y, t).
        eb(#x, t) :- from(#x, t), bold-font(t) = distinct-yes.
        ei(#y, t) :- from(#y, t), italic-font(t) = distinct-yes.
    "#,
    )
    .unwrap();
    let result = engine.run(&prog).unwrap();
    assert_eq!(result.len(), 10, "5 bold + 5 italic titles");
}

#[test]
fn annotate_paths_agree_on_singleton_keys() {
    // the exact BAnnotate and the compact-direct ψ produce the same value
    // sets when grouping keys are exact (the common case)
    use iflex::engine::annotate::{bannotate_compact, bannotate_exact, ATABLE_BUDGET};
    let c = Corpus::build(CorpusConfig::tiny());
    let imdb: Vec<_> = c.movies.imdb.iter().take(8).map(|(d, _)| *d).collect();
    let mut engine = iflex::engine::Engine::new(c.store.clone());
    engine.add_doc_table("imdb", &imdb);
    // the rule body alone yields the table ψ groups
    let body = parse_program(
        r#"
        q(x, v) :- imdb(x), e(#x, v).
        e(#x, v) :- from(#x, v), numeric(v) = yes.
    "#,
    )
    .unwrap();
    let input = engine.run(&body).unwrap();
    let exact = bannotate_exact(&input, &[1], &c.store, ATABLE_BUDGET).expect("fits the budget");
    let compact = bannotate_compact(&input, &[1], &c.store);
    assert_eq!(exact.len(), compact.len());
    // the engine's ψ takes the exact path when the a-table fits
    let annotated = parse_program(
        r#"
        q(x, <v>) :- imdb(x), e(#x, v).
        e(#x, v) :- from(#x, v), numeric(v) = yes.
    "#,
    )
    .unwrap();
    assert_eq!(*engine.run(&annotated).unwrap(), exact);
    let store = &c.store;
    let canon = |t: &iflex::ctable::CompactTable| -> Vec<(String, std::collections::BTreeSet<String>)> {
        let mut rows: Vec<_> = t
            .tuples()
            .iter()
            .map(|tup| {
                (
                    tup.cells[0]
                        .singleton(store)
                        .unwrap()
                        .as_text(store)
                        .to_string(),
                    tup.cells[1]
                        .values(store)
                        .map(|v| v.as_text(store).to_string())
                        .collect(),
                )
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(canon(&exact), canon(&compact));
}

#[test]
fn reuse_off_gives_identical_results() {
    let c = Corpus::build(CorpusConfig::tiny());
    let task = c.task(TaskId::T1, Some(20));
    let run_with = |reuse: bool| {
        let mut engine = task.engine(&c);
        engine.limits.use_incremental = reuse;
        engine.run(&task.program).unwrap();
        engine.run(&task.program).unwrap()
    };
    assert_eq!(run_with(true), run_with(false));
}

#[test]
fn similarity_join_argument_order_changes_neither_table_nor_scans() {
    // `similar(y, x)` misses the token prefilter (which wants the left
    // side's column first) and enumerates each pair's candidates instead
    // — in the same pass over the two inputs, each evaluated once.
    let run = |filter: &str| {
        let mut engine = Engine::new(std::sync::Arc::new(DocumentStore::new()));
        let names = |rows: &[&str]| {
            CompactTable::from_exact_rows(
                vec!["n".into()],
                rows.iter().map(|r| vec![Value::Str((*r).into())]).collect(),
            )
        };
        engine.add_table("r", names(&["Basktall HS", "Vanhise High", "The Big Sleep"]));
        engine.add_table("s", names(&["Basktall", "Big Sleep"]));
        let prog = parse_program(&format!("q(x, y) :- r(x), s(y), {filter}.")).unwrap();
        let table = engine.run(&prog).unwrap();
        (format!("{table:?}"), engine.stats.tuples_scanned)
    };
    let (forward, scanned) = run("similar(x, y)");
    assert!(forward.contains("Basktall HS") && !forward.contains("Vanhise"));
    assert_eq!(scanned, 5, "each input is scanned once");
    assert_eq!(run("similar(y, x)"), (forward, scanned));
}

#[test]
fn selective_step_over_a_cross_join_streams_under_the_cap() {
    // The selection and the head projection are one pass over the cross
    // join. The pass filters the 40 × 40 pairs as it generates them, so a
    // cap of 100 tuples is never reached by the 5 that survive — for a
    // comparison, a shared-variable unification, and a filter that is not
    // the `similar(x, y)` prefilter alike.
    let new_engine = || {
        let mut engine = Engine::new(std::sync::Arc::new(DocumentStore::new()));
        engine.limits.max_result_tuples = 100;
        let column = |rows: Vec<Value>| {
            CompactTable::from_exact_rows(
                vec!["v".into()],
                rows.into_iter().map(|v| vec![v]).collect(),
            )
        };
        engine.add_table("r", column((0..40).map(|i| Value::Num(i.into())).collect()));
        engine.add_table("s", column((35..75).map(|i| Value::Num(i.into())).collect()));
        engine.add_table("rn", column((0..40).map(|i| Value::Str(format!("n{i}"))).collect()));
        engine.add_table("sn", column((35..75).map(|i| Value::Str(format!("n{i}"))).collect()));
        engine
    };
    for body in ["r(x), s(y), x = y", "r(x), s(x)", "rn(x), sn(y), similar(y, x)"] {
        let prog = parse_program(&format!("q(x) :- {body}.")).unwrap();
        let mut engine = new_engine();
        let table = engine.run(&prog).unwrap();
        assert!(!engine.stats.degraded(), "{body}: {:?}", engine.stats.degradations);
        assert_eq!(table.len(), 5, "{body}");
    }
    // A *result* over the cap still degrades the rule, also when no
    // single morsel reaches it and only the merge can notice.
    let prog = parse_program("q(x, y) :- r(x), s(y), x != y.").unwrap();
    let mut engine = new_engine();
    engine.limits.threads = 4;
    engine.limits.morsel_tuples = (1, 2);
    let table = engine.run(&prog).expect("an over-cap result degrades");
    let causes: Vec<_> = engine.stats.degradations.iter().map(|d| d.cause).collect();
    assert_eq!(causes, [iflex::engine::DegradeCause::Budget]);
    assert!(table.tuples().iter().all(|t| t.maybe));
}

#[test]
fn similarity_prefilter_is_capped_by_its_survivors() {
    // `numeric(a)` shares `a` with the straddling `similar`, so the
    // compiler keeps `similar` first over the join, where it is the
    // pass's token prefilter. All 8 × 8 pairs share the token "lot" and
    // pass the prefilter, more than the cap of 20; `numeric(a)` then
    // keeps only the pairs of the one left row with a number. Only those
    // 8 are built, so the rule stays under the cap.
    let words = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    let mut store = DocumentStore::new();
    let left: Vec<_> = (0..8)
        .map(|i| match i {
            0 => store.add_plain("lot 42".to_string()),
            _ => store.add_plain(format!("lot {}", words[i])),
        })
        .collect();
    let right: Vec<_> = words
        .iter()
        .map(|w| store.add_plain(format!("{w} lot")))
        .collect();
    let mut engine = Engine::new(std::sync::Arc::new(store));
    engine.add_doc_table("l", &left);
    engine.add_doc_table("r", &right);
    engine.limits.max_result_tuples = 20;
    let prog = parse_program(
        "q(a, b) :- l(x), from(#x, a), r(y), from(#y, b), similar(#a, #b), numeric(a) = yes.",
    )
    .unwrap();
    let table = engine.run(&prog).unwrap();
    assert!(!engine.stats.degraded(), "{:?}", engine.stats.degradations);
    assert_eq!(table.len(), 8);
    assert!(
        table.tuples().iter().all(|t| t.maybe),
        "prefiltered pairs are maybe"
    );
}

#[test]
fn parallel_and_sequential_joins_agree() {
    // Limits::threads only changes wall clock, never results: the threaded
    // arm splits every section into morsels of one or two tuples and must
    // still fold to the serial table byte for byte.
    let c = Corpus::build(CorpusConfig::tiny());
    for id in [TaskId::T1, TaskId::T5, TaskId::T6, TaskId::T8, TaskId::T9, TaskId::Panel] {
        let task = c.task(id, Some(30));
        let run_with = |threads: usize| {
            let mut engine = task.engine(&c);
            engine.limits.threads = threads;
            if threads > 1 {
                engine.limits.morsel_tuples = (1, 2);
            }
            format!("{:?}", engine.run(&task.program).unwrap())
        };
        assert_eq!(run_with(1), run_with(4), "{id:?}");
    }

    // A 1 × 64 join under one step that keeps every pair: its pass
    // shards the 64 pairs, not the one left row, so the threaded arm
    // splits it into several morsels.
    use iflex::engine::obs::{validate_nesting, SpanKind};
    let single_left_row = |threads: usize| {
        let mut engine = Engine::new(std::sync::Arc::new(DocumentStore::new()));
        engine.limits.threads = threads;
        engine.limits.morsel_tuples = (1, 2);
        let column = |vals: std::ops::Range<u32>| {
            CompactTable::from_exact_rows(
                vec!["v".into()],
                vals.map(|i| vec![Value::Num(i.into())]).collect(),
            )
        };
        engine.add_table("r", column(0..1));
        engine.add_table("s", column(1..65));
        engine.tracer.enable();
        let prog = parse_program("q(x, y) :- r(x), s(y), x < y.").unwrap();
        let table = engine.run(&prog).unwrap();
        assert_eq!(table.len(), 64);
        // Count the morsels of the one pass over the join, which also
        // projects onto the head.
        let spans = validate_nesting(&engine.tracer.events()).unwrap();
        let join = spans
            .iter()
            .find(|s| s.kind == SpanKind::Operator && s.name == "fused")
            .expect("the pass over the join");
        let morsels = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Morsel && s.parent == join.id)
            .count();
        (format!("{table:?}"), morsels)
    };
    let (serial, _) = single_left_row(1);
    let (threaded, morsels) = single_left_row(4);
    assert_eq!(threaded, serial);
    assert!(morsels > 1, "the 1 × 64 join ran as {morsels} morsel(s)");
}

/// Two one-column document tables of short titles: `t1` and `t2` share
/// some titles outright, some as fragments, and some not at all.
fn title_tables(store: &mut DocumentStore) -> (Vec<iflex::text::DocId>, Vec<iflex::text::DocId>) {
    let left = ["The Big Sleep", "Basktall HS", "Vanhise High", "--", "Sleep 42"];
    let right = ["Big Sleep", "Basktall", "Madison", "the big sleep 42", ", ;"];
    let add = |st: &mut DocumentStore, titles: &[&str]| -> Vec<_> {
        titles.iter().map(|t| st.add_plain((*t).to_string())).collect()
    };
    (add(store, &left), add(store, &right))
}

#[test]
fn a_filter_position_similar_over_a_join_reads_profiles_as_it_enumerated() {
    // The compiler fuses `u != v` and the built-in `similar` into the
    // join's pass with the comparison first, so `similar` decides each
    // pair from the two sides' per-row value profiles. Registered under another name, the same predicate is a
    // plain filter that enumerates each pair's values and calls
    // `approx_match` per combination.
    let run = |filter: &str, threads: usize| {
        let mut store = DocumentStore::new();
        let (left, right) = title_tables(&mut store);
        let mut engine = Engine::new(std::sync::Arc::new(store));
        engine.limits.threads = threads;
        engine.limits.morsel_tuples = (1, 2);
        engine.add_doc_table("t1", &left);
        engine.add_doc_table("t2", &right);
        engine.procs_mut().register_filter("enumerated", |store, args| match args {
            [a, b] => iflex::engine::similarity::approx_match(&a.as_text(store), &b.as_text(store)),
            _ => false,
        });
        let prog = parse_program(&format!(
            "q(u, v) :- t1(x), from(#x, u), t2(y), from(#y, v), u != v, {filter}(#u, #v)."
        ))
        .unwrap();
        let plan = engine.explain(&prog).unwrap();
        let table = engine.run(&prog).unwrap();
        assert!(!engine.stats.degraded(), "{:?}", engine.stats.degradations);
        (format!("{table:?}"), table.len(), plan)
    };
    let (profiled, len, plan) = run("similar", 1);
    assert!(
        plan.contains("Fused[2 steps]\n  π[[1, 3] as [\"u\", \"v\"]]\n  Filter[similar[1, 3]]\n  σ["),
        "{plan}"
    );
    assert!(0 < len && len < 25, "{len} of 25 pairs survive");
    assert_eq!(run("similar", 4).0, profiled);
    assert_eq!(run("enumerated", 1).0, profiled);
    assert_eq!(run("enumerated", 4).0, profiled);
}

#[test]
fn a_registered_similar_replaces_the_builtin_as_the_first_step_over_a_join() {
    let run = |register: bool| {
        let mut store = DocumentStore::new();
        let (left, right) = title_tables(&mut store);
        let mut engine = Engine::new(std::sync::Arc::new(store));
        engine.add_doc_table("t1", &left[..1]);
        engine.add_doc_table("t2", &right[..1]);
        if register {
            engine.procs_mut().register_filter("similar", |_, _| false);
        }
        let prog = parse_program(
            "q(u, v) :- t1(x), from(#x, u), t2(y), from(#y, v), similar(#u, #v).",
        )
        .unwrap();
        engine.run(&prog).unwrap().len()
    };
    assert_eq!(run(false), 1, "the built-in keeps the one pair");
    assert_eq!(run(true), 0, "the registered filter rejects every pair");
}
