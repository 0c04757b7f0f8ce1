//! Join probes count what the refined program returns. For the
//! multi-table tasks at corpus scale 1 (T3, T6 over 500 records, T9 over
//! 5), at the start of a Simulation session and after each of its oracle
//! answers, every question and every value of its static or data-derived
//! answer space is sized twice over the sample the session draws: by the
//! engine's count over the current result's lineage
//! (`Engine::probe_sizes`), and by running the refined program
//! (`add_constraint`). `(expanded_len, assignments_produced)` must agree,
//! at one thread and at two; the full T9 is checked on one feature. A
//! counted question starts one run, the current program's; an answer
//! whose refinement cuts a word, which the token prefilter may match on,
//! is run instead, and must agree too. Each task must count some.

use iflex::assistant::{add_constraint, answer_space, attributes, question_space, Simulation};
use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, Task, TaskId};
use iflex_engine::obs::{Phase, SpanKind, TraceEvent};
use iflex_engine::ProbeSpec;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Answers like the task's oracle and records each concrete answer.
struct Recording {
    inner: SimulatedDeveloper,
    answers: Rc<RefCell<Vec<(Question, FeatureArg)>>>,
}

impl Developer for Recording {
    fn answer(&mut self, q: &Question) -> Answer {
        let a = self.inner.answer(q);
        if let Answer::Value(v) = &a {
            self.answers.borrow_mut().push((q.clone(), v.clone()));
        }
        a
    }
}

/// The task's program at the start of a Simulation session and after
/// each of its oracle answers.
fn session_programs(c: &Corpus, task: &Task) -> Vec<Program> {
    let answers = Rc::new(RefCell::new(Vec::new()));
    let developer = Recording {
        inner: SimulatedDeveloper::new(task.oracle.clone()),
        answers: Rc::clone(&answers),
    };
    let mut session = Session::new(
        task.engine(c),
        task.program.clone(),
        Box::new(Simulation::default()),
        Box::new(developer),
    );
    session.run().expect("session runs");
    let mut programs = vec![task.program.clone()];
    for (q, v) in answers.borrow().iter() {
        let next = add_constraint(programs.last().unwrap(), &q.attr, &q.feature, v);
        programs.push(next);
    }
    programs
}

/// How many runs `engine` has started since its tracer was enabled.
fn runs(engine: &Engine) -> usize {
    let events = engine.tracer.events();
    let run = |e: &&TraceEvent| e.ph == Phase::Begin && e.kind == SpanKind::Run;
    events.iter().filter(run).count()
}

/// Checks every question of `program` about one of `features` (every
/// question, without) at `threads`; returns how many answers were
/// counted.
fn check(
    c: &Corpus,
    task: &Task,
    program: &Program,
    threads: usize,
    features: Option<&[&str]>,
) -> usize {
    let mut counted = task.engine(c);
    counted.limits.threads = threads;
    counted.tracer.enable();
    let mut run = task.engine(c);
    let input = run.ext_tables().map(|(_, t)| t.len()).max().unwrap_or(0);
    let sample = Sample::auto(input, SessionConfig::default().sample_seed);
    let mut spaces = Simulation::default();
    let mut n = 0;
    for q in question_space(program, run.features(), &BTreeSet::new()) {
        if features.is_some_and(|f| !f.contains(&q.feature.as_str())) {
            continue;
        }
        let mut values = answer_space(&q.feature);
        if values.is_empty() {
            values = spaces.dynamic_space(&mut run, program, &q.attr, &q.feature, sample);
        }
        if values.is_empty() {
            continue;
        }
        let spec = ProbeSpec {
            pred: &q.attr.pred,
            pos: q.attr.pos,
            var: &q.attr.var,
            feature: &q.feature,
            values: &values,
        };
        let before = runs(&counted);
        let sizes = counted.probe_sizes(program, sample, &[spec]).remove(0);
        let sizes = sizes.unwrap_or_else(|e| panic!("{:?}: {}: {e}", task.id, q.text));
        // One run for the current program, plus one per answer whose
        // refinement cuts a word and may gain a prefilter token.
        let started = runs(&counted) - before;
        assert!(started <= 1 + values.len(), "{:?}: {}", task.id, q.text);
        for (v, got) in values.iter().zip(sizes) {
            let refined = add_constraint(program, &q.attr, &q.feature, v);
            let t = run
                .run_sampled(&refined, sample)
                .expect("refined program runs");
            let want = (
                t.expanded_len(run.store()) as usize,
                run.stats.assignments_produced,
            );
            assert_eq!(
                got, want,
                "{:?} threads={threads}: {} = {v:?}\n{program}",
                task.id, q.text
            );
            n += usize::from(started <= 1);
        }
    }
    n
}

/// Checks `id` at the start of a Simulation session and after each of
/// its oracle answers, at one thread and at two.
fn check_session(id: TaskId, n: Option<usize>) {
    let c = Corpus::build(CorpusConfig::scaled(1.0));
    let task = c.task(id, n);
    let mut counted = 0;
    for program in session_programs(&c, &task) {
        for threads in [1, 2] {
            counted += check(&c, &task, &program, threads, None);
        }
    }
    assert!(counted > 0, "{id:?}: no join answer was counted");
}

#[test]
fn t3_probes_match_refined_runs() {
    check_session(TaskId::T3, None);
}

#[test]
fn t6_probes_match_refined_runs() {
    check_session(TaskId::T6, Some(500));
}

#[test]
fn t9_probes_match_refined_runs() {
    check_session(TaskId::T9, Some(5));
}

/// The full T9 join is too large to probe every question of a session
/// exactly here: one feature, before and after the oracle's answers on
/// both titles.
#[test]
fn full_t9_probes_match_refined_runs() {
    let c = Corpus::build(CorpusConfig::scaled(1.0));
    let task = c.task(TaskId::T9, None);
    let mut answered = task.program.clone();
    for attr in attributes(&task.program) {
        if let Some(v) = task.oracle.lookup(&attr.display(), "bold-font") {
            answered = add_constraint(&answered, &attr, "bold-font", v);
        }
    }
    let features: &[&str] = &["italic-font"];
    let mut counted = 0;
    for program in [&task.program, &answered] {
        counted += check(&c, &task, program, 2, Some(features));
    }
    assert!(counted > 0, "no join answer was counted");
}
