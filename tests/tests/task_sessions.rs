//! End-to-end integration tests: full iFlex sessions (execute → ask →
//! refine → converge) over the synthetic corpora, checked against ground
//! truth.

use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};

fn corpus() -> Corpus {
    Corpus::build(CorpusConfig::tiny())
}

/// Runs a full session for `id` over the first `n` records and returns
/// `(quality, outcome)`.
fn run_task(
    c: &Corpus,
    id: TaskId,
    n: Option<usize>,
    strategy: Box<dyn Strategy>,
) -> (iflex::Quality, iflex::SessionOutcome) {
    let task = c.task(id, n);
    let engine = task.engine(c);
    let mut session = iflex::Session::new(
        engine,
        task.program.clone(),
        strategy,
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );
    if task.needs_type_cleanup {
        // already registered by task.engine(); charge the cleanup cost
        session.clock.charge_cleanup(session.cost.write_cleanup_secs);
    }
    let outcome = session.run().expect("session runs");
    let q = iflex::score(
        &outcome.table,
        &task.truth_cols,
        &task.truth,
        session.engine.store(),
    );
    (q, outcome)
}

#[test]
fn t1_converges_to_exact_result() {
    let c = corpus();
    let (q, out) = run_task(&c, TaskId::T1, Some(30), Box::new(Sequential));
    assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
    assert!((q.recall - 1.0).abs() < 1e-9);
    assert!(out.questions_asked >= 2);
}

#[test]
fn t2_year_range_exact() {
    let c = corpus();
    let (q, _) = run_task(&c, TaskId::T2, Some(30), Box::new(Sequential));
    assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
    assert!((q.recall - 1.0).abs() < 1e-9);
    assert!(q.correct_tuples > 0);
}

#[test]
fn t4_journal_pubs_exact() {
    let c = corpus();
    let (q, _) = run_task(&c, TaskId::T4, Some(30), Box::new(Sequential));
    assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
    assert!((q.recall - 1.0).abs() < 1e-9);
    assert_eq!(q.correct_tuples, 10); // every third of 30
}

#[test]
fn t5_short_papers_sim_exact_seq_superset() {
    let c = corpus();
    // Sequential exhausts one attribute and converges early to a superset
    // (the Table 5 phenomenon); Simulation refines every attribute.
    let (q_seq, _) = run_task(&c, TaskId::T5, Some(40), Box::new(Sequential));
    assert!((q_seq.recall - 1.0).abs() < 1e-9);
    assert!(q_seq.superset_pct >= 100.0);
    let (q_sim, _) = run_task(&c, TaskId::T5, Some(40), Box::new(Simulation::default()));
    assert_eq!(q_sim.result_tuples, q_sim.correct_tuples, "{q_sim:?}");
    assert!((q_sim.recall - 1.0).abs() < 1e-9);
    assert!(q_sim.superset_pct <= q_seq.superset_pct);
}

#[test]
fn t7_expensive_books_exact_under_both_strategies() {
    let c = corpus();
    for strat in [0, 1] {
        let s: Box<dyn Strategy> = if strat == 0 {
            Box::new(Sequential)
        } else {
            Box::new(Simulation::default())
        };
        let (q, _) = run_task(&c, TaskId::T7, Some(40), s);
        assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
        assert!((q.recall - 1.0).abs() < 1e-9);
    }
}

#[test]
fn t8_price_relations_sim_exact_seq_superset() {
    let c = corpus();
    let (q_seq, _) = run_task(&c, TaskId::T8, Some(40), Box::new(Sequential));
    assert!((q_seq.recall - 1.0).abs() < 1e-9);
    assert!(q_seq.superset_pct > 100.0, "{q_seq:?}");
    let (q_sim, _) = run_task(&c, TaskId::T8, Some(40), Box::new(Simulation::default()));
    assert_eq!(q_sim.result_tuples, q_sim.correct_tuples, "{q_sim:?}");
    assert!((q_sim.recall - 1.0).abs() < 1e-9);
}

#[test]
fn t3_triple_join_sim_exact() {
    let c = corpus();
    let (q, _) = run_task(&c, TaskId::T3, Some(30), Box::new(Simulation::default()));
    assert!((q.recall - 1.0).abs() < 1e-9, "{q:?}");
    assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
    assert!(q.correct_tuples > 0);
}

#[test]
fn t6_shared_authors_sim_exact_seq_superset() {
    let c = corpus();
    let (q_seq, _) = run_task(&c, TaskId::T6, Some(40), Box::new(Sequential));
    assert!((q_seq.recall - 1.0).abs() < 1e-9, "{q_seq:?}");
    let (q_sim, _) = run_task(&c, TaskId::T6, Some(40), Box::new(Simulation::default()));
    assert_eq!(q_sim.result_tuples, q_sim.correct_tuples, "{q_sim:?}");
    assert!(q_sim.superset_pct <= q_seq.superset_pct);
    assert!(q_sim.correct_tuples > 0);
}

#[test]
fn t9_price_comparison_sim_exact() {
    let c = corpus();
    let (q, _) = run_task(&c, TaskId::T9, Some(40), Box::new(Simulation::default()));
    assert!((q.recall - 1.0).abs() < 1e-9, "{q:?}");
    assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
    assert!(q.correct_tuples > 0);
}

#[test]
fn initial_programs_overextract_then_shrink() {
    let c = corpus();
    let task = c.task(TaskId::T1, Some(30));
    let mut engine = task.engine(&c);
    let initial = engine.run(&task.program).unwrap();
    let initial_size = initial.expanded_len(engine.store());
    assert!(
        initial_size as usize > task.truth.len(),
        "initial approximate result must be a strict superset: {initial_size} vs {}",
        task.truth.len()
    );
    // and it must cover the truth (superset semantics)
    let q = iflex::score(&initial, &task.truth_cols, &task.truth, engine.store());
    assert!((q.recall - 1.0).abs() < 1e-9);
}

#[test]
fn simulation_strategy_also_converges_t1() {
    let c = corpus();
    let (q, _) = run_task(&c, TaskId::T1, Some(20), Box::new(Simulation::default()));
    assert!((q.recall - 1.0).abs() < 1e-9, "{q:?}");
    assert!(q.superset_pct <= 200.0, "{q:?}");
}

#[test]
fn dblife_panel_task_recall() {
    let c = corpus();
    let (q, out) = run_task(&c, TaskId::Panel, None, Box::new(Sequential));
    assert!(q.recall >= 0.99, "{q:?}");
    assert!(out.questions_asked >= 2);
}

#[test]
fn dblife_chair_task_with_cleanup() {
    let c = corpus();
    let (q, out) = run_task(&c, TaskId::Chair, None, Box::new(Sequential));
    assert!(q.recall >= 0.99, "{q:?}");
    assert!(out.cleanup_minutes > 0.0);
}

#[test]
fn converged_results_are_certain_and_precise() {
    // After convergence under the simulation strategy the answer bracket
    // collapses: certain == superset == truth (certain precision 1.0).
    let c = corpus();
    for (id, n) in [(TaskId::T1, Some(30)), (TaskId::T7, Some(40))] {
        let (q, _) = run_task(&c, id, n, Box::new(Simulation::default()));
        assert!((q.certain_precision - 1.0).abs() < 1e-9, "{id:?} {q:?}");
        assert_eq!(q.certain_tuples, q.correct_tuples, "{id:?} {q:?}");
    }
}

#[test]
fn unrefined_results_have_wide_brackets() {
    // Before refinement the superset is large and little is certain.
    let c = corpus();
    let task = c.task(TaskId::T1, Some(30));
    let mut engine = task.engine(&c);
    let initial = engine.run(&task.program).unwrap();
    let q = iflex::score(&initial, &task.truth_cols, &task.truth, engine.store());
    assert!(q.result_tuples > q.correct_tuples);
    assert!(q.certain_tuples <= q.result_tuples);
}

#[test]
fn example_markup_feedback_accelerates_convergence() {
    // §5.1.1: marking up one true votes value answers all its appearance
    // questions at once and still converges exactly.
    let c = corpus();
    let task = c.task(TaskId::T1, Some(30));
    let engine = task.engine(&c);
    let mut session = iflex::Session::new(
        engine,
        task.program.clone(),
        Box::new(Simulation::default()),
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );
    // highlight the true votes span of the first record
    let (doc, rec) = &c.movies.imdb[0];
    let text = c.store.doc(*doc).text().to_string();
    let pos = text.find(&rec.votes.to_string()).unwrap() as u32;
    let span = iflex::text::Span::new(*doc, pos, pos + rec.votes.to_string().len() as u32);
    assert!(session.add_example("extractIMDB.votes", span, true));
    let out = session.run().unwrap();
    let q = iflex::score(&out.table, &task.truth_cols, &task.truth, session.engine.store());
    assert_eq!(q.result_tuples, q.correct_tuples, "{q:?}");
    // the derived constraints landed in the description rule
    let prog = session.program().to_string();
    assert!(prog.contains("underlined(votes) = distinct-yes"), "{prog}");
}

#[test]
fn add_example_rejects_unknown_attribute() {
    let c = corpus();
    let task = c.task(TaskId::T1, Some(10));
    let engine = task.engine(&c);
    let mut session = iflex::Session::new(
        engine,
        task.program.clone(),
        Box::new(Sequential),
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );
    let span = iflex::text::Span::new(c.movies.imdb[0].0, 0, 2);
    assert!(!session.add_example("nope.v", span, true));
}

#[test]
fn cleanup_last_author_scenario_end_to_end() {
    // §2.2.4: extract citations and their author *lists* declaratively
    // (here the lists are italic-distinct, so the extraction is exact),
    // then a cleanup procedure picks the last author — the paper's DBLP
    // example verbatim.
    let mut store = iflex::text::DocumentStore::new();
    let docs = vec![
        store.add_markup(
            "<b>Mediators in the architecture of future systems</b> by              <i>Hector Garcia-Molina, Jennifer Widom, Jeff Ullman</i> TODS 1992",
        ),
        store.add_markup(
            "<b>The TSIMMIS approach</b> by <i>Sudarshan Chawathe, Hector Garcia-Molina</i>              VLDB 1994",
        ),
    ];
    let mut engine = iflex::engine::Engine::new(std::sync::Arc::new(store));
    engine.add_doc_table("pubs", &docs);
    engine
        .procs_mut()
        .register_generator("lastAuthor", 1, iflex::cleanup::last_of_list(','));
    let prog = iflex::alog::parse_program(
        r#"
        q(title, last) :- pubs(x), extractPub(#x, title, authors),
                          lastAuthor(#authors, last).
        extractPub(#x, t, a) :- from(#x, t), from(#x, a),
            bold-font(t) = distinct-yes, italic-font(a) = distinct-yes.
    "#,
    )
    .unwrap();
    let result = engine.run(&prog).unwrap();
    let store = engine.store();
    let mut lasts: Vec<String> = result
        .tuples()
        .iter()
        .map(|t| {
            t.cells[1]
                .singleton(store)
                .expect("exact inputs give exact cleanup outputs")
                .as_text(store)
                .to_string()
        })
        .collect();
    lasts.sort();
    assert_eq!(lasts, vec!["Hector Garcia-Molina", "Jeff Ullman"]);
    assert!(result.tuples().iter().all(|t| !t.maybe));
}

#[test]
fn dblife_project_task_recall() {
    let c = corpus();
    let (q, _) = run_task(&c, TaskId::Project, None, Box::new(Simulation::default()));
    assert!(q.recall >= 0.99, "{q:?}");
}

#[test]
fn simulated_minutes_track_questions() {
    // more questions ⇒ more simulated developer time (cost model sanity)
    let c = corpus();
    let (_, fast) = run_task(&c, TaskId::T2, Some(30), Box::new(Sequential));
    let (_, slow) = run_task(&c, TaskId::T8, Some(40), Box::new(Simulation::default()));
    if slow.questions_asked > fast.questions_asked {
        assert!(slow.minutes >= fast.minutes, "{} vs {}", slow.minutes, fast.minutes);
    }
}

#[test]
fn iteration_records_cover_the_whole_session() {
    let c = corpus();
    let task = c.task(TaskId::T4, Some(20));
    let engine = task.engine(&c);
    let mut session = iflex::Session::new(
        engine,
        task.program.clone(),
        Box::new(Sequential),
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );
    let out = session.run().unwrap();
    assert_eq!(out.iterations, out.records.len());
    // iteration indices are 1-based and contiguous
    for (i, r) in out.records.iter().enumerate() {
        assert_eq!(r.iteration, i + 1);
    }
    // questions in records sum to the session total
    let q_sum: usize = out.records.iter().map(|r| r.questions_this_iter).sum();
    assert_eq!(q_sum, out.questions_asked);
}

#[test]
fn extract_cold_programs_keep_their_result_sizes() {
    // The six programs the benchmark's `extract-cold` workload runs: each
    // task's Sequential session converges at corpus scale 1, and its
    // program then runs once on a fresh engine. Their (tuples, expanded
    // tuples) are pinned, so a change to how rule bodies are evaluated
    // cannot change what these programs return unnoticed.
    let c = Corpus::build(CorpusConfig::scaled(1.0));
    let expected = [
        (TaskId::T5, 2136, 2136),
        (TaskId::T7, 1504, 1504),
        (TaskId::T8, 2490, 2490),
        (TaskId::Panel, 6738, 140_928),
        (TaskId::Project, 6738, 140_928),
        (TaskId::Chair, 240, 1440),
    ];
    for (id, len, expanded) in expected {
        let task = c.task(id, None);
        let mut session = iflex::Session::new(
            task.engine(&c),
            task.program.clone(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(task.oracle.clone())),
        );
        session.run().expect("session runs");
        let mut engine = task.engine(&c);
        let out = engine
            .run(session.program())
            .expect("converged program runs");
        assert_eq!(
            (out.len(), out.expanded_len(engine.store())),
            (len, expanded),
            "{id:?}"
        );
    }
}

/// A developer that answers like the simulated one and records each
/// (attribute, feature, answer) it was asked.
struct Recording {
    inner: SimulatedDeveloper,
    asked: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
}

impl Developer for Recording {
    fn answer(&mut self, q: &Question) -> Answer {
        let a = self.inner.answer(q);
        let line = format!("({}, {}, {a:?})", q.attr.display(), q.feature);
        self.asked.borrow_mut().push(line);
        a
    }
}

/// The Simulation strategy's question sequences on four single-table
/// tasks at corpus scale 1, sample seed 7, as they were when every probe
/// ran a program of its own. How a candidate answer is sized must not
/// change which question is asked.
#[test]
fn simulation_question_sequences_are_pinned() {
    let c = Corpus::build(CorpusConfig::scaled(1.0));
    let cases = [
        (
            TaskId::T1,
            "(extractIMDB.title, preceded-by, DontKnow) \
             (extractIMDB.votes, followed-by, DontKnow) \
             (extractIMDB.title, max-length, DontKnow) \
             (extractIMDB.votes, max-value, Value(Num(500000.0)))",
        ),
        (
            TaskId::T5,
            "(extractVLDB.fp, underlined, Value(Tri(DistinctYes))) \
             (extractVLDB.lp, underlined, Value(Tri(No))) \
             (extractVLDB.lp, preceded-by, Value(Text(\"-\"))) \
             (extractVLDB.fp, bold-font, Value(Tri(No))) \
             (extractVLDB.fp, italic-font, Value(Tri(No))) \
             (extractVLDB.fp, max-value, Value(Num(450.0))) \
             (extractVLDB.fp, min-value, DontKnow) \
             (extractVLDB.fp, hyperlinked, Value(Tri(No)))",
        ),
        (
            TaskId::T8,
            "(extractAmazon.np, italic-font, DontKnow) \
             (extractAmazon.np, underlined, DontKnow) \
             (extractAmazon.lp, italic-font, DontKnow) \
             (extractAmazon.lp, underlined, Value(Tri(DistinctYes))) \
             (extractAmazon.up, italic-font, Value(Tri(DistinctYes))) \
             (extractAmazon.np, bold-font, DontKnow) \
             (extractAmazon.np, preceded-by, Value(Text(\"New: $\"))) \
             (extractAmazon.np, hyperlinked, DontKnow) \
             (extractAmazon.np, max-value, Value(Num(200.0))) \
             (extractAmazon.np, min-value, DontKnow) \
             (extractAmazon.np, in-title, DontKnow) \
             (extractAmazon.np, in-list, DontKnow)",
        ),
        (
            TaskId::Panel,
            "(extractConference.y, max-value, DontKnow) \
             (extractConference.y, min-value, DontKnow) \
             (extractPanelists.x, preceded-by, DontKnow) \
             (extractPanelists.x, prec-label-max-dist, Value(Num(700.0))) \
             (extractPanelists.x, followed-by, DontKnow) \
             (extractConference.y, numeric, DontKnow) \
             (extractConference.y, person-name, DontKnow) \
             (extractPanelists.x, first-half, DontKnow)",
        ),
    ];
    for (id, want) in cases {
        let task = c.task(id, None);
        let asked = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let developer = Recording {
            inner: SimulatedDeveloper::new(task.oracle.clone()),
            asked: std::rc::Rc::clone(&asked),
        };
        let mut session = iflex::Session::new(
            task.engine(&c),
            task.program.clone(),
            Box::new(Simulation::default()),
            Box::new(developer),
        );
        session.config.sample_seed = 7;
        session.run().expect("session runs");
        assert_eq!(asked.borrow().join(" "), want, "{id:?}");
    }
}
