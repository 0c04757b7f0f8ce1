//! `iterate-select` and `iterate-join`: the paper's main loop. A full
//! `Session::run` with the Simulation strategy and a simulated developer
//! per task, a fresh engine per session.
//!
//! * `iterate-select` — the single-table extraction/selection tasks. Subset
//!   evaluation, simulation probes, the incremental rule cache and the
//!   feature memo do most of the work; joins do none.
//! * `iterate-join` — the multi-table tasks. Cross joins, comparisons,
//!   variable unification, similarity and the assistant's join probes
//!   dominate; a σ-chain optimisation should not move it.

use super::{BuildTimes, Mode, Opts, RepOut, Workload};
use crate::spans::At;
use crate::{stats, sys::Rng};
use iflex::assistant::{Answer, Question, Simulation};
use iflex::{Developer, Session, SimulatedDeveloper};
use iflex_corpus::{Corpus, CorpusConfig, Task, TaskId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The waits one session imposed on its developer.
struct WaitLog {
    /// When the developer last handed control to the machine.
    mark: Instant,
    waits_ms: Vec<f64>,
}

/// A developer that answers like `inner` and stamps how long the machine
/// kept them waiting: session start → first question, and answer returned
/// → next question.
struct TimedDeveloper {
    inner: SimulatedDeveloper,
    log: Rc<RefCell<WaitLog>>,
}

impl Developer for TimedDeveloper {
    fn answer(&mut self, question: &Question) -> Answer {
        let waited = self.log.borrow().mark.elapsed().as_secs_f64() * 1e3;
        let answer = self.inner.answer(question);
        let mut log = self.log.borrow_mut();
        log.waits_ms.push(waited);
        log.mark = Instant::now();
        answer
    }
}

/// The two task lists. `n` is "first n records per table" as
/// `Corpus::task` takes it.
struct Spec {
    scale: f64,
    tasks: &'static [(TaskId, Option<usize>)],
}

/// T2 is left out: at scale 10 under the Simulation strategy it returns
/// recall 0.577 (373 of 646 true tuples) — a superset-semantics violation
/// recorded in the README as a known defect. A workload may hold only
/// operations that succeed.
const SELECT_TASKS: Spec = Spec {
    scale: 3.0,
    tasks: &[
        (TaskId::T1, None),
        (TaskId::T4, None),
        (TaskId::T5, None),
        (TaskId::T7, None),
        (TaskId::T8, None),
        (TaskId::Panel, None),
    ],
};

const JOIN_TASKS: Spec = Spec {
    scale: 1.0,
    tasks: &[
        (TaskId::T9, Some(5)),
        (TaskId::T3, None),
        (TaskId::T6, Some(500)),
    ],
};

const SMOKE_SCALE: f64 = 0.1;

/// Either workload: `JOIN` selects the multi-table task list.
pub struct Iterate<const JOIN: bool> {
    corpus: Corpus,
    tasks: Vec<Task>,
    next_op: u64,
}

/// The single-table workload.
pub type IterateSelect = Iterate<false>;
/// The multi-table workload.
pub type IterateJoin = Iterate<true>;

impl<const JOIN: bool> Workload for Iterate<JOIN> {
    const NAME: &'static str = if JOIN {
        "iterate-join"
    } else {
        "iterate-select"
    };
    const WALL_CALIBRATED: bool = true;

    fn build(opts: &Opts) -> (Self, BuildTimes) {
        let spec = if JOIN { &JOIN_TASKS } else { &SELECT_TASKS };
        let t0 = Instant::now();
        let scale = if opts.smoke {
            SMOKE_SCALE.min(spec.scale)
        } else {
            spec.scale
        };
        let corpus = Corpus::build(CorpusConfig::scaled(scale));
        let corpus_s = t0.elapsed().as_secs_f64();
        let mut order: Vec<(TaskId, Option<usize>)> = spec.tasks.to_vec();
        Rng::new(opts.seed, 1).shuffle(&mut order);
        let mut task_ms = Vec::new();
        let tasks = order
            .into_iter()
            .map(|(id, n)| {
                let t0 = Instant::now();
                let task = corpus.task(id, n);
                task_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                task
            })
            .collect();
        (
            Iterate {
                corpus,
                tasks,
                next_op: 0,
            },
            BuildTimes {
                corpus_s,
                task_ms: stats::median(&task_ms),
            },
        )
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn rep(&mut self, mode: Mode, at: At) -> RepOut {
        let mut out = RepOut::default();
        let (mut final_run_ms, mut tail_ms, mut wait_max_ms) = (0.0, 0.0, 0.0f64);
        for task in &self.tasks {
            self.next_op += 1;
            let at = at.op(self.next_op);
            let name = task.id.name();
            let (span, inside) = at.open(&format!("session:{name}"));
            let mut engine = inside.scope("Task::engine", || task.engine(&self.corpus));
            if mode == Mode::Traced {
                engine.limits.trace = true;
            }
            let log = Rc::new(RefCell::new(WaitLog {
                mark: Instant::now(),
                waits_ms: Vec::new(),
            }));
            let developer = TimedDeveloper {
                inner: SimulatedDeveloper::new(task.oracle.clone()),
                log: Rc::clone(&log),
            };
            let mut session = Session::new(
                engine,
                task.program.clone(),
                Box::new(Simulation::default()),
                Box::new(developer),
            );
            log.borrow_mut().mark = Instant::now();
            let t0 = Instant::now();
            let result = inside.scope("Session::run", || session.run());
            let wall_s = t0.elapsed().as_secs_f64();
            let tail = log.borrow().mark.elapsed().as_secs_f64() * 1e3;
            out.work_s += wall_s;
            out.attempted += 1;
            out.input_docs += task
                .tables
                .iter()
                .map(|(_, ids)| ids.len() as u64)
                .sum::<u64>();
            out.truth_tuples += task.truth.len() as u64;
            let waits = std::mem::take(&mut log.borrow_mut().waits_ms);
            wait_max_ms = waits.iter().copied().fold(wait_max_ms, f64::max);
            out.waits_ms.extend(waits);
            match result {
                Err(e) => out.fail(format!("session {name} failed: {e}")),
                Ok(outcome) => {
                    out.questions += outcome.questions_asked as u64;
                    let degraded =
                        outcome.degraded_iterations > 0 || !outcome.full_run_within_budget;
                    if degraded {
                        out.fail(format!(
                            "session {name} degraded ({} iterations)",
                            outcome.degraded_iterations
                        ));
                    }
                    out.record_table(
                        name,
                        &outcome.table,
                        session.engine.store(),
                        task,
                        mode == Mode::WarmUp && !degraded,
                    );
                    final_run_ms += outcome.final_run_secs * 1e3;
                    tail_ms += tail;
                    out.layer
                        .push((format!("core.session.wall_ms.{name}"), wall_s * 1e3));
                }
            }
            if mode == Mode::Traced {
                out.absorb_registry(&session.engine.metrics);
                out.journals
                    .push((format!("session:{name}"), session.engine.tracer.clone()));
            }
            inside.close(span);
        }
        out.layer
            .push(("core.session.final_run_ms".into(), final_run_ms));
        out.layer.push(("core.session.tail_ms".into(), tail_ms));
        out.layer
            .push(("core.session.question_wait_max_ms".into(), wait_max_ms));
        out
    }
}
