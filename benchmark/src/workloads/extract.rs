//! `extract-cold`: batch use. The converged programs of six tasks, each
//! executed by one `Engine::run` over the task's full input on a fresh
//! engine.
//!
//! Every memo and incremental-cache probe is a miss followed by an insert —
//! the write side of every cache the `iterate-*` workloads read — so a
//! cache change that helps iterations but taxes one-shot extraction shows
//! here. It is also the workload with the largest inputs, where morsel
//! parallelism has the most to amortise.

use super::{BuildTimes, Mode, Opts, RepOut, Workload};
use crate::report::Metrics;
use crate::spans::{journal_times, At};
use crate::{stats, sys::Rng};
use iflex::alog::Program;
use iflex::assistant::Sequential;
use iflex::ctable::CompactTable;
use iflex::engine::{Engine, EngineError};
use iflex::{Session, SimulatedDeveloper};
use iflex_corpus::{Corpus, CorpusConfig, Task, TaskId};
use std::sync::Arc;
use std::time::Instant;

const TASKS: [TaskId; 6] = [
    TaskId::T5,
    TaskId::T7,
    TaskId::T8,
    TaskId::Panel,
    TaskId::Project,
    TaskId::Chair,
];
const SCALE: f64 = 3.0;
const SMOKE_SCALE: f64 = 0.1;
/// How far the journal's self times may be from the caller's wall-clock.
const JOURNAL_TOLERANCE: f64 = 0.05;

/// A task with the program its Sequential-strategy session converged on.
pub struct Converged {
    /// The task (tables, truth).
    pub task: Task,
    /// The converged program.
    pub program: Program,
    /// Questions the deriving session asked.
    pub questions: u64,
}

/// Derives the converged program of `task`: one session with the
/// Sequential strategy and the task's oracle.
pub fn converge(corpus: &Corpus, task: Task) -> Result<Converged, String> {
    let mut session = Session::new(
        task.engine(corpus),
        task.program.clone(),
        Box::new(Sequential),
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );
    let outcome = session
        .run()
        .map_err(|e| format!("deriving the program of {}: {e}", task.id.name()))?;
    let program = session.program().clone();
    Ok(Converged {
        task,
        program,
        questions: outcome.questions_asked as u64,
    })
}

/// Input documents of a task, over all its tables.
pub fn input_docs(task: &Task) -> u64 {
    task.tables.iter().map(|(_, ids)| ids.len() as u64).sum()
}

/// One `Engine::run` of a converged program on a fresh engine.
pub struct ColdRun {
    /// The engine, for its registry and journal.
    pub engine: Engine,
    /// Wall-clock seconds of `Engine::run` alone.
    pub wall_s: f64,
    /// What the run returned.
    pub result: Result<Arc<CompactTable>, EngineError>,
}

/// Builds a fresh engine for `c` and runs its program once. `threads`
/// overrides the engine's default worker count.
pub fn cold_run(
    corpus: &Corpus,
    c: &Converged,
    threads: Option<usize>,
    traced: bool,
    at: At,
) -> ColdRun {
    let mut engine = at.scope("Task::engine", || c.task.engine(corpus));
    if let Some(n) = threads {
        engine.limits.threads = n;
    }
    if traced {
        engine.tracer.enable();
    }
    let t0 = Instant::now();
    let result = at.scope("Engine::run", || engine.run(&c.program));
    let wall_s = t0.elapsed().as_secs_f64();
    ColdRun {
        engine,
        wall_s,
        result,
    }
}

/// The workload.
pub struct ExtractCold {
    corpus: Corpus,
    programs: Vec<Converged>,
    build_failures: Vec<String>,
    next_op: u64,
}

impl Workload for ExtractCold {
    const NAME: &'static str = "extract-cold";
    const WALL_CALIBRATED: bool = true;

    fn build(opts: &Opts) -> (Self, BuildTimes) {
        let t0 = Instant::now();
        let corpus = Corpus::build(CorpusConfig::scaled(if opts.smoke {
            SMOKE_SCALE
        } else {
            SCALE
        }));
        let corpus_s = t0.elapsed().as_secs_f64();
        let mut order = TASKS.to_vec();
        Rng::new(opts.seed, 1).shuffle(&mut order);
        let mut task_ms = Vec::new();
        let mut programs = Vec::new();
        let mut build_failures = Vec::new();
        for id in order {
            let t0 = Instant::now();
            let task = corpus.task(id, None);
            task_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match converge(&corpus, task) {
                Ok(c) => programs.push(c),
                Err(e) => build_failures.push(e),
            }
        }
        (
            ExtractCold {
                corpus,
                programs,
                build_failures,
                next_op: 0,
            },
            BuildTimes {
                corpus_s,
                task_ms: stats::median(&task_ms),
            },
        )
    }

    fn rep(&mut self, mode: Mode, at: At) -> RepOut {
        let mut out = RepOut::default();
        out.failures.extend(self.build_failures.iter().cloned());
        let traced = mode == Mode::Traced;
        for c in &self.programs {
            self.next_op += 1;
            let name = c.task.id.name();
            let (span, inside) = at.op(self.next_op).open(&format!("extract:{name}"));
            let run = cold_run(&self.corpus, c, None, traced, inside);
            out.work_s += run.wall_s;
            out.waits_ms.push(run.wall_s * 1e3);
            out.questions += c.questions;
            out.input_docs += input_docs(&c.task);
            out.truth_tuples += c.task.truth.len() as u64;
            out.attempted += 1;
            match &run.result {
                Err(e) => out.fail(format!("run {name} failed: {e}")),
                Ok(table) => {
                    let degraded = run
                        .engine
                        .metrics
                        .counter_value("engine.degradations")
                        .unwrap_or(0);
                    if degraded > 0 {
                        out.fail(format!("run {name} degraded {degraded} rules"));
                    }
                    out.record_table(
                        name,
                        table,
                        run.engine.store(),
                        &c.task,
                        mode == Mode::WarmUp && degraded == 0,
                    );
                }
            }
            if traced {
                out.layer
                    .push((format!("engine.run.cold_ms.{name}"), run.wall_s * 1e3));
                out.absorb_registry(&run.engine.metrics);
                out.journals
                    .push((format!("extract:{name}"), run.engine.tracer.clone()));
            }
            inside.close(span);
        }
        if traced {
            out.layer.push((
                "extract.docs_per_s".into(),
                out.input_docs as f64 / out.work_s.max(1e-9),
            ));
        }
        out
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn converged(&self) -> Option<&[Converged]> {
        Some(&self.programs)
    }

    /// Journal coverage: with one worker thread, the self times of the
    /// engine's journal must add up to what the caller waited for
    /// `Engine::run` — otherwise a layer's time is missing from the
    /// per-layer table.
    fn probe_layers(&mut self, at: At, m: &mut Metrics) -> Vec<String> {
        let (mut wall_us, mut journal_us) = (0.0, 0.0);
        for c in &self.programs {
            let run = cold_run(&self.corpus, c, Some(1), true, at);
            wall_us += run.wall_s * 1e6;
            if let Ok(jt) = journal_times(&run.engine.tracer.events()) {
                journal_us += jt.self_us.values().sum::<u64>() as f64;
            }
        }
        let ratio = journal_us / wall_us.max(1.0);
        m.set("engine.journal.coverage_ratio", ratio);
        m.note(
            "engine.journal.coverage_ratio",
            format!(
                "serial traced runs: journal self times {:.1} ms of {:.1} ms waited",
                journal_us / 1e3,
                wall_us / 1e3
            ),
        );
        if (ratio - 1.0).abs() > JOURNAL_TOLERANCE {
            return vec![format!(
                "journal self times cover {ratio:.3} of the serial Engine::run wall-clock, outside ±{JOURNAL_TOLERANCE}"
            )];
        }
        Vec::new()
    }
}

/// The programs the engine-layer probes of the other workloads run.
pub fn probe_programs(corpus: &Corpus) -> Vec<Converged> {
    TASKS
        .iter()
        .filter_map(|&id| converge(corpus, corpus.task(id, None)).ok())
        .collect()
}
