//! The iFlex development session: the execute → examine → refine loop of
//! §2.2.4 and §5, driven by a question-selection strategy and a developer
//! (human or simulated).

use crate::cost::{CostModel, SimClock};
use crate::developer::Developer;
use iflex_alog::Program;
use iflex_assistant::{
    add_constraint, attributes, implied_answers, Answer, AssistContext, ConvergenceMonitor,
    Examples, Strategy,
};
use iflex_ctable::CompactTable;
use iflex_engine::obs::{trace_path_from_env, SpanId, SpanKind};
use iflex_engine::{Engine, EngineError, ExecStats, Sample};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// How an iteration executed (Table 4 distinguishes subset-evaluation
/// iterations from the final reuse-mode full run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Subset evaluation over a sampled input (§5.2).
    Subset,
    /// Full input with the reuse cache warm.
    Reuse,
    /// A retry of the final run over a shrunken sample after the full run
    /// degraded (best-effort backoff).
    Fallback,
}

/// One row of the session log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// The iteration.
    pub iteration: usize,
    /// The mode.
    pub mode: ExecMode,
    /// Result size (expanded tuples) this iteration.
    pub result_tuples: usize,
    /// The assignments.
    pub assignments: usize,
    /// The questions this iter.
    pub questions_this_iter: usize,
    /// Rules the engine degraded this iteration (0 for an exact run).
    pub degradations: usize,
}

/// Why the session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The convergence monitor fired (§5.1).
    Converged,
    /// The question space was exhausted.
    QuestionsExhausted,
    /// The iteration cap was hit.
    MaxIterations,
    /// Consecutive subset iterations degraded — refining further on a
    /// result dominated by widened stand-ins would chase noise, so the
    /// loop stops early and reports what it has.
    Degraded,
}

/// Questions asked per iteration (the paper's volunteers answered
/// roughly two per iteration — Table 4).
const QUESTIONS_PER_ITERATION: usize = 2;

/// Factor the sample fraction shrinks by between final-run retries.
const RETRY_SHRINK: f64 = 0.5;

/// Session tuning knobs. The engine's own settings — its run deadline
/// (`engine.budget.deadline`) and worker threads (`engine.limits.threads`)
/// — are set on [`Session::engine`] directly.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Seed for subset sampling.
    pub sample_seed: u64,
    /// Disable to always execute on the full input.
    pub use_sampling: bool,
    /// Final-run retries on shrinking samples after a degraded full run.
    pub max_retries: usize,
    /// Consecutive degraded subset iterations tolerated before the loop
    /// stops with [`StopReason::Degraded`].
    pub max_degraded_iterations: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_iterations: 30,
            sample_seed: 7,
            use_sampling: true,
            max_retries: 3,
            max_degraded_iterations: 2,
        }
    }
}

/// The outcome of a full session run.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The final result: the full-input run's, or the least-degraded
    /// fallback retry's when that run degraded (see
    /// `full_run_within_budget`). Shared, not cloned: the engine's result
    /// tables travel by `Arc` through the retry ladder.
    pub table: Arc<CompactTable>,
    /// False when the final full-input run degraded (a budget overflow,
    /// deadline, cancellation, or contained panic) and the retry ladder
    /// ran; `table` is then the least-degraded attempt (an unconverged
    /// program over the full input can be enormous — the user would refine
    /// further).
    pub full_run_within_budget: bool,
    /// The stop.
    pub stop: StopReason,
    /// The iterations.
    pub iterations: usize,
    /// Total questions asked across the session.
    pub questions_asked: usize,
    /// Simulated developer + machine minutes (Tables 3–6).
    pub minutes: f64,
    /// Cleanup-writing minutes (parenthesized in Table 3).
    pub cleanup_minutes: f64,
    /// Per-iteration log (Table 4 rows).
    pub records: Vec<IterationRecord>,
    /// Wall-clock seconds of the final full-input execution (§6.3 reports
    /// this for the DBLife programs).
    pub final_run_secs: f64,
    /// Total machine seconds across the whole session.
    pub machine_secs: f64,
    /// Iterations (subset, fallback, or final) whose result was degraded.
    pub degraded_iterations: usize,
    /// Fallback retries spent on the final run.
    pub retries: usize,
    /// Engine statistics of the run that produced [`Self::table`] — the
    /// chosen final attempt, not necessarily the last one executed. The
    /// engine resets its metrics registry at the start of every run, so
    /// these counters (including `incr_hits` and `degradations`) describe
    /// exactly one execution; nothing leaks across [`ExecMode::Fallback`]
    /// retries.
    pub final_stats: ExecStats,
}

/// An interactive best-effort IE session.
pub struct Session {
    /// The engine.
    pub engine: Engine,
    program: Program,
    strategy: Box<dyn Strategy>,
    developer: Box<dyn Developer>,
    asked: BTreeSet<(String, String)>,
    monitor: ConvergenceMonitor,
    /// The cost.
    pub cost: CostModel,
    /// The clock.
    pub clock: SimClock,
    /// The config.
    pub config: SessionConfig,
    records: Vec<IterationRecord>,
    questions_asked: usize,
    examples: Examples,
}

impl Session {
    /// Starts a session: charges the skeleton-writing cost and takes
    /// ownership of the engine and the initial approximate program.
    pub fn new(
        engine: Engine,
        program: Program,
        strategy: Box<dyn Strategy>,
        developer: Box<dyn Developer>,
    ) -> Self {
        let cost = CostModel::default();
        let mut clock = SimClock::new();
        clock.charge(cost.write_skeleton_secs);
        Session {
            engine,
            program,
            strategy,
            developer,
            asked: BTreeSet::new(),
            monitor: ConvergenceMonitor::paper_default(),
            cost,
            clock,
            config: SessionConfig::default(),
            records: Vec::new(),
            questions_asked: 0,
            examples: Examples::new(),
        }
    }

    /// Records a developer-highlighted true value for an attribute
    /// (§5.1.1 "mark up a sample title"), charging one inspection's worth
    /// of time. Answers the example contradicts are pruned from the
    /// simulation strategy's answer spaces. With `derive_constraints`,
    /// the example's tri-state feature values are folded straight into
    /// the description rules (and marked as asked).
    pub fn add_example(
        &mut self,
        attr_display: &str,
        span: iflex_text::Span,
        derive_constraints: bool,
    ) -> bool {
        let Some(attr) = attributes(&self.program)
            .into_iter()
            .find(|a| a.display() == attr_display)
        else {
            return false;
        };
        self.clock.charge(self.cost.answer_question_secs);
        self.examples.add(&attr, span);
        if derive_constraints {
            for (feature, arg) in implied_answers(&self.engine, span) {
                self.asked.insert((attr.display(), feature.clone()));
                self.program = add_constraint(&self.program, &attr, &feature, &arg);
            }
        }
        true
    }

    /// The current program text.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Registers a cleanup procedure (§2.2.4), charging its writing cost.
    pub fn add_cleanup_generator(
        &mut self,
        name: &str,
        out_arity: usize,
        f: impl Fn(&iflex_text::DocumentStore, &[iflex_ctable::Value]) -> Vec<Vec<iflex_ctable::Value>>
            + Send
            + Sync
            + 'static,
    ) {
        self.clock.charge_cleanup(self.cost.write_cleanup_secs);
        self.engine.procs_mut().register_generator(name, out_arity, f);
    }

    /// Registers a cleanup filter (§2.2.4), charging its writing cost.
    pub fn add_cleanup_filter(
        &mut self,
        name: &str,
        f: impl Fn(&iflex_text::DocumentStore, &[iflex_ctable::Value]) -> bool
            + Send
            + Sync
            + 'static,
    ) {
        self.clock.charge_cleanup(self.cost.write_cleanup_secs);
        self.engine.procs_mut().register_filter(name, f);
    }

    /// Replaces the program wholesale (manual refinement outside the
    /// assistant loop).
    pub fn set_program(&mut self, program: Program) {
        self.program = program;
    }

    fn input_size(&self) -> usize {
        self.engine.ext_tables().map(|(_, t)| t.len()).max().unwrap_or(0)
    }

    fn sample(&self) -> Sample {
        if self.config.use_sampling {
            Sample::auto(self.input_size(), self.config.sample_seed)
        } else {
            Sample::new(1.0, self.config.sample_seed)
        }
    }

    fn timed_run(
        &mut self,
        sample: Option<Sample>,
    ) -> Result<Arc<CompactTable>, EngineError> {
        let t0 = Instant::now();
        let out = match sample {
            Some(s) if s.fraction < 1.0 => self.engine.run_sampled(&self.program, s),
            _ => self.engine.run(&self.program),
        };
        self.clock.charge_machine(t0.elapsed().as_secs_f64());
        out
    }

    /// One attempt of the final phase: its result (possibly degraded)
    /// with the engine's stats for it.
    ///
    /// The stats snapshot is taken immediately after the run, while the
    /// engine's registry still describes this attempt: the engine resets
    /// every counter at run start, so each attempt in the retry ladder
    /// reads a clean slate and the snapshot carried with the chosen
    /// attempt is self-contained.
    fn final_attempt(
        &mut self,
        sample: Option<Sample>,
    ) -> Result<(Arc<CompactTable>, ExecStats), EngineError> {
        let table = self.timed_run(sample)?;
        Ok((table, self.engine.stats.clone()))
    }

    /// Runs the full loop: subset iterations with questions until the
    /// monitor converges (or the space/iteration budget is exhausted),
    /// then one full reuse-mode execution.
    ///
    /// When [`iflex_engine::Limits::trace`] is set — or the `IFLEX_TRACE`
    /// environment variable requests a dump — the engine's tracer is
    /// enabled and the session wraps the loop in assistant spans
    /// (`session → iteration → question`, with the engine nesting
    /// `run → rule → operator → shard` and the strategy nesting `probe`
    /// underneath). With `IFLEX_TRACE` set, the journal is written as
    /// JSONL next to a `*.metrics.json` snapshot of the final run's
    /// metrics registry when the session completes.
    pub fn run(&mut self) -> Result<SessionOutcome, EngineError> {
        let trace_path = trace_path_from_env();
        if self.engine.limits.trace || trace_path.is_some() {
            self.engine.tracer.enable();
        }
        let tracer = self.engine.tracer.clone();
        let session_span = tracer.begin(SpanId::NONE, SpanKind::Session, "session");
        let sample = self.sample();
        let mut stop = StopReason::MaxIterations;
        let mut degraded_streak = 0usize;
        for iter in 1..=self.config.max_iterations {
            let iter_span = match tracer.ctx(session_span) {
                Some((t, parent)) => {
                    t.begin(parent, SpanKind::Iteration, &format!("iteration{iter}"))
                }
                None => SpanId::NONE,
            };
            self.engine.trace_parent = iter_span;
            let table = match self.timed_run(Some(sample)) {
                Ok(t) => t,
                Err(e) => {
                    tracer.end(iter_span);
                    tracer.end(session_span);
                    return Err(e);
                }
            };
            let mut stats = table.stats();
            // The paper's result size counts expanded tuples; its monitor
            // watches the assignments of the whole extraction process.
            stats.tuples = table.expanded_len(self.engine.store()).min(usize::MAX as u64) as usize;
            stats.assignments = self.engine.stats.assignments_produced;
            self.monitor.observe(&stats);
            if let Some((t, parent)) = tracer.ctx(iter_span) {
                t.instant(
                    parent,
                    SpanKind::Mark,
                    "monitor",
                    Some(&format!(
                        "stable {}/{}",
                        self.monitor.stability_streak(),
                        self.monitor.k()
                    )),
                );
            }
            self.clock.charge(self.cost.review_iteration_secs);
            let mut rec = IterationRecord {
                iteration: iter,
                mode: ExecMode::Subset,
                result_tuples: stats.tuples,
                assignments: stats.assignments,
                questions_this_iter: 0,
                degradations: self.engine.stats.degradations.len(),
            };
            if self.monitor.converged() {
                self.records.push(rec);
                stop = StopReason::Converged;
                tracer.end(iter_span);
                break;
            }
            if rec.degradations > 0 {
                degraded_streak += 1;
                if degraded_streak >= self.config.max_degraded_iterations {
                    // Refining against a result dominated by widened
                    // stand-ins chases noise; stop and report.
                    self.records.push(rec);
                    stop = StopReason::Degraded;
                    tracer.end(iter_span);
                    break;
                }
            } else {
                degraded_streak = 0;
            }
            // Ask questions and fold answers in.
            let mut asked_now = 0usize;
            for qn in 0..QUESTIONS_PER_ITERATION {
                let q_span = match tracer.ctx(iter_span) {
                    Some((t, parent)) => {
                        t.begin(parent, SpanKind::Question, &format!("question{qn}"))
                    }
                    None => SpanId::NONE,
                };
                self.engine.trace_parent = q_span;
                let question = {
                    let mut ctx = AssistContext {
                        program: &self.program,
                        engine: &mut self.engine,
                        asked: &self.asked,
                        sample,
                        current_size: stats.tuples,
                        examples: self.examples.clone(),
                    };
                    self.strategy.next_question(&mut ctx)
                };
                self.engine.trace_parent = iter_span;
                let Some(q) = question else {
                    tracer.end(q_span);
                    break;
                };
                if let Some((t, parent)) = tracer.ctx(q_span) {
                    t.instant(
                        parent,
                        SpanKind::Mark,
                        "chosen",
                        Some(&format!("{}.{}", q.attr.display(), q.feature)),
                    );
                }
                tracer.end(q_span);
                self.asked.insert((q.attr.display(), q.feature.clone()));
                self.clock.charge(self.cost.answer_question_secs);
                self.questions_asked += 1;
                asked_now += 1;
                if let Answer::Value(v) = self.developer.answer(&q) {
                    self.program = add_constraint(&self.program, &q.attr, &q.feature, &v);
                }
            }
            rec.questions_this_iter = asked_now;
            self.records.push(rec);
            tracer.end_with(
                iter_span,
                &[
                    ("iteration", iter as u64),
                    ("questions", asked_now as u64),
                    ("size", rec.result_tuples as u64),
                ],
            );
            if asked_now == 0 {
                stop = StopReason::QuestionsExhausted;
                break;
            }
        }
        self.engine.trace_parent = session_span;

        // Final full execution; reuse makes this cheap for the rules the
        // last refinements did not touch. If the (possibly unconverged)
        // program degrades over the full input — budget, deadline, or a
        // contained rule panic — retry over shrinking samples and keep the
        // least-degraded result seen (best-effort backoff).
        let machine_before_final = self.clock.machine_secs;
        let final_span = match tracer.ctx(session_span) {
            Some((t, parent)) => t.begin(parent, SpanKind::Iteration, "final"),
            None => SpanId::NONE,
        };
        self.engine.trace_parent = final_span;
        let mut retries = 0usize;
        let (mut table, mut final_stats) = match self.final_attempt(None) {
            Ok(c) => c,
            Err(e) => {
                tracer.end(final_span);
                tracer.end(session_span);
                return Err(e);
            }
        };
        let full_run_within_budget = !final_stats.degraded();
        if !full_run_within_budget {
            let mut fraction = sample.fraction;
            for retry in 1..=self.config.max_retries {
                fraction *= RETRY_SHRINK;
                let s = Sample::new(fraction, self.config.sample_seed.wrapping_add(retry as u64));
                retries += 1;
                // The incremental cache carries across iterations, but a
                // Fallback retry follows a degraded full run: drop it so
                // the shrunken attempt re-evaluates every rule from
                // scratch instead of mixing in entries produced alongside
                // the degradation (degraded results themselves are never
                // cached, and each retry samples a fresh subset anyway).
                self.engine.clear_cache();
                let (t, st) = match self.final_attempt(Some(s)) {
                    Ok(a) => a,
                    Err(e) => {
                        tracer.end(final_span);
                        tracer.end(session_span);
                        return Err(e);
                    }
                };
                let d = st.degradations.len();
                let tuples =
                    t.expanded_len(self.engine.store()).min(usize::MAX as u64) as usize;
                self.records.push(IterationRecord {
                    iteration: self.records.len() + 1,
                    mode: ExecMode::Fallback,
                    result_tuples: tuples,
                    assignments: st.assignments_produced,
                    questions_this_iter: 0,
                    degradations: d,
                });
                // Strictly fewer degradations wins, so among equally
                // degraded attempts the widest input — the full run — is kept.
                if d < final_stats.degradations.len() {
                    (table, final_stats) = (t, st);
                }
                if !final_stats.degraded() {
                    break;
                }
            }
        }
        tracer.end_with(final_span, &[("items", retries as u64)]);
        let final_run_secs = self.clock.machine_secs - machine_before_final;
        let mut stats = table.stats();
        stats.tuples = table.expanded_len(self.engine.store()).min(usize::MAX as u64) as usize;
        stats.assignments = final_stats.assignments_produced;
        self.records.push(IterationRecord {
            iteration: self.records.len() + 1,
            mode: ExecMode::Reuse,
            result_tuples: stats.tuples,
            assignments: stats.assignments,
            questions_this_iter: 0,
            degradations: final_stats.degradations.len(),
        });
        tracer.end_with(
            session_span,
            &[
                ("iteration", self.records.len() as u64),
                ("questions", self.questions_asked as u64),
                ("assignments", stats.assignments as u64),
                ("degradations", final_stats.degradations.len() as u64),
            ],
        );
        if let Some(path) = trace_path {
            if let Err(e) = self.engine.tracer.write_jsonl(&path) {
                eprintln!("iflex: could not write trace {}: {e}", path.display());
            } else {
                eprintln!("iflex: trace written to {}", path.display());
            }
            // The registry describes the most recent engine run (counters
            // reset per run), i.e. the last final-phase attempt.
            let mpath = path.with_extension("metrics.json");
            if std::fs::write(&mpath, self.engine.metrics.render_json()).is_ok() {
                eprintln!("iflex: metrics written to {}", mpath.display());
            }
        }
        Ok(SessionOutcome {
            table,
            full_run_within_budget,
            final_run_secs,
            machine_secs: self.clock.machine_secs,
            stop,
            iterations: self.records.len(),
            questions_asked: self.questions_asked,
            minutes: self.clock.total_minutes(),
            cleanup_minutes: self.clock.cleanup_minutes(),
            records: self.records.clone(),
            degraded_iterations: self.records.iter().filter(|r| r.degradations > 0).count(),
            retries,
            final_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::developer::{OracleSpec, SimulatedDeveloper};
    use iflex_alog::parse_program;
    use iflex_assistant::Sequential;
    use iflex_features::FeatureArg;
    use iflex_text::DocumentStore;
    use std::sync::Arc;

    fn engine() -> Engine {
        let mut store = DocumentStore::new();
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(store.add_markup(&format!(
                "junk {} words <b>{}</b> tail {}",
                i * 3 + 1,
                (i + 1) * 100,
                i * 7 + 2
            )));
        }
        let store = Arc::new(store);
        let mut eng = Engine::new(store);
        eng.add_doc_table("pages", &ids);
        eng
    }

    fn program() -> Program {
        parse_program(
            r#"
            q(x, <v>) :- pages(x), extractV(#x, v).
            extractV(#x, v) :- from(#x, v), numeric(v) = yes.
        "#,
        )
        .unwrap()
    }

    #[test]
    fn session_converges_with_oracle() {
        let oracle = OracleSpec::new().knows("extractV.v", "bold-font", FeatureArg::yes());
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(oracle)),
        );
        session.config.use_sampling = false;
        let out = session.run().unwrap();
        assert_eq!(out.stop, StopReason::Converged);
        // After the bold-font answer every page has exactly one candidate.
        assert_eq!(out.table.len(), 6);
        let store = session.engine.store();
        for t in out.table.tuples() {
            assert_eq!(t.cells[1].value_set(store).len(), 1);
        }
        assert!(out.questions_asked >= 1);
        assert!(out.minutes > 0.0);
        // last record is the reuse-mode full run
        assert_eq!(out.records.last().unwrap().mode, ExecMode::Reuse);
    }

    #[test]
    fn ignorant_developer_exhausts_or_converges() {
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        session.config.use_sampling = false;
        session.config.max_iterations = 50;
        let out = session.run().unwrap();
        // Nothing changes, so the monitor converges quickly.
        assert_eq!(out.stop, StopReason::Converged);
        assert!(out.iterations <= 5);
    }

    #[test]
    fn cleanup_registration_charges_time() {
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        let before = session.clock.cleanup_minutes();
        session.add_cleanup_filter("alwaysTrue", |_, _| true);
        assert!(session.clock.cleanup_minutes() > before);
    }

    #[test]
    fn max_iterations_cap_stops_the_loop() {
        // a developer who keeps giving useful-looking but size-neutral
        // answers forever is cut off at the cap
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        session.config.max_iterations = 2;
        session.config.use_sampling = false;
        let out = session.run().unwrap();
        assert!(out.iterations <= 3); // 2 subset + 1 reuse
    }

    #[test]
    fn sampling_mode_still_produces_full_final_result() {
        let oracle = OracleSpec::new().knows("extractV.v", "bold-font", FeatureArg::yes());
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(oracle)),
        );
        session.config.use_sampling = true;
        let out = session.run().unwrap();
        // final reuse-mode run covers the full input: 6 pages
        assert_eq!(out.records.last().unwrap().result_tuples, 6);
        assert!(out.machine_secs >= 0.0);
        assert!(out.final_run_secs >= 0.0);
    }

    #[test]
    fn injected_rule_panic_degrades_session_not_abort() {
        use iflex_engine::{fault, Fault, Trigger};
        let eng = engine();
        eng.fault.arm(
            fault::site::EVAL_RULE,
            Trigger::Always,
            Fault::Panic("session boom".into()),
            9,
        );
        let mut session = Session::new(
            eng,
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        session.config.use_sampling = false;
        let out = session.run().unwrap();
        // every run degrades, so the session completes with the
        // degradation visible rather than aborting
        assert!(out.degraded_iterations > 0);
        assert!(out.records.iter().any(|r| r.degradations > 0));
        assert!(!out.table.is_empty(), "widened fallback keeps a result");
    }

    #[test]
    fn tight_budget_triggers_fallback_retries() {
        use iflex_engine::{fault, Fault, Trigger};
        // ψ overflows its budget on every run, so `q` degrades on every
        // attempt, the final phase walks the whole retry ladder, and no
        // retry is less degraded than the full-input run. `extractV` stays
        // exact, so its assignments tell the attempts' inputs apart.
        let armed = || {
            let eng = engine();
            eng.fault
                .arm(fault::site::ANNOTATE, Trigger::Always, Fault::TooLarge, 5);
            eng
        };
        let mut session = Session::new(
            armed(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        session.config.use_sampling = false;
        session.config.max_retries = 2;
        let out = session.run().unwrap();
        assert!(!out.full_run_within_budget);
        assert_eq!(out.retries, session.config.max_retries);
        let fallbacks: Vec<&IterationRecord> = out
            .records
            .iter()
            .filter(|r| r.mode == ExecMode::Fallback)
            .collect();
        assert_eq!(fallbacks.len(), 2);
        assert!(out.records.last().unwrap().mode == ExecMode::Reuse);
        // Every attempt degraded equally, so the kept table is the
        // full-input attempt's: its stats are a full run's, not a
        // shrunken retry's.
        let mut full = armed();
        let full_table = full.run(session.program()).unwrap();
        assert_eq!(out.table, full_table);
        assert_eq!(out.final_stats.degradations.len(), 1);
        assert_eq!(out.final_stats.assignments_produced, full.stats.assignments_produced);
        for r in fallbacks {
            assert_eq!(r.degradations, 1);
            assert!(r.assignments < full.stats.assignments_produced, "{r:?}");
        }
    }

    #[test]
    fn zero_deadline_degrades_but_completes() {
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        session.config.use_sampling = false;
        session.engine.budget.deadline = Some(std::time::Duration::ZERO);
        session.config.max_retries = 1;
        let out = session.run().unwrap();
        assert!(out.degraded_iterations > 0);
        assert!(!out.table.is_empty());
    }

    #[test]
    fn consecutive_degraded_iterations_stop_the_loop() {
        use iflex_engine::{fault, Fault, Trigger};
        let eng = engine();
        eng.fault.arm(
            fault::site::EVAL_RULE,
            Trigger::Always,
            Fault::TooLarge,
            3,
        );
        let mut session = Session::new(
            eng,
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(OracleSpec::new())),
        );
        session.config.use_sampling = false;
        session.config.max_degraded_iterations = 1;
        let out = session.run().unwrap();
        assert_eq!(out.stop, StopReason::Degraded);
        // one subset iteration, then the final phase
        assert!(out.records.iter().filter(|r| r.mode == ExecMode::Subset).count() == 1);
    }

    #[test]
    fn record_log_shapes() {
        let oracle = OracleSpec::new().knows("extractV.v", "bold-font", FeatureArg::yes());
        let mut session = Session::new(
            engine(),
            program(),
            Box::new(Sequential),
            Box::new(SimulatedDeveloper::new(oracle)),
        );
        session.config.use_sampling = false;
        let out = session.run().unwrap();
        assert!(!out.records.is_empty());
        assert!(out
            .records
            .iter()
            .take(out.records.len() - 1)
            .all(|r| r.mode == ExecMode::Subset));
        // result sizes monotonically shrink or stay (bold answer narrows)
        let sizes: Vec<usize> = out.records.iter().map(|r| r.result_tuples).collect();
        assert!(sizes.windows(2).all(|w| w[1] <= w[0] || w[1] == sizes[sizes.len() - 1]));
    }
}
