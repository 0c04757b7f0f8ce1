//! # iflex-bench
//!
//! The experiment harness: one binary per table of the paper's evaluation
//! (§6), each regenerating the corresponding rows over the synthetic
//! corpora, plus the ablation, scaling and trace reports over the
//! design choices DESIGN.md calls out.
//!
//! Binaries (run with `cargo run --release -p iflex-bench --bin <name>`):
//! * `exp_table1` — domain/table inventory
//! * `exp_table2` — the nine IE tasks and their initial programs
//! * `exp_table3` — Manual / Xlog / iFlex run time over 27 scenarios
//! * `exp_table4` — per-iteration refinement effects (9 scenarios)
//! * `exp_table5` — sequential vs simulation question selection
//! * `exp_table6` — the DBLife tasks
//! * `exp_ablation` — each design choice timed with and without it
//! * `exp_scaling` — session wall clock vs corpus scale (§6.3)
//! * `exp_all` — everything above, in order
//! * `exp_trace` — the run report of a JSONL trace dump

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use iflex::prelude::*;
use iflex::{score, Quality, SessionOutcome};
use iflex_corpus::{Corpus, Task, TaskId};

pub mod trace_report;

/// Scenario sizes per task: Table 3's "Num Tuples per Table" column
/// (`None` = the full table).
pub fn table3_scenarios(id: TaskId) -> [Option<usize>; 3] {
    match id {
        TaskId::T1 | TaskId::T2 | TaskId::T3 | TaskId::T4 => [Some(10), Some(100), None],
        _ => [Some(100), Some(500), None],
    }
}

/// Which strategy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strat {
    /// The §5.1 sequential strategy.
    Seq,
    /// The §5.1 simulation strategy.
    Sim,
}

impl Strat {
    /// The name.
    pub fn name(self) -> &'static str {
        match self {
            Strat::Seq => "Seq",
            Strat::Sim => "Sim",
        }
    }

    fn boxed(self) -> Box<dyn Strategy> {
        match self {
            Strat::Seq => Box::new(Sequential),
            Strat::Sim => Box::new(Simulation::default()),
        }
    }
}

/// The outcome of one full iFlex session on a task scenario.
pub struct RunResult {
    /// The outcome.
    pub outcome: SessionOutcome,
    /// The quality.
    pub quality: Quality,
}

/// Runs a full iFlex session (§5): subset iterations with the given
/// question-selection strategy until convergence, then a reuse-mode full
/// execution. Cleanup procedures are registered (and charged) when the
/// task needs them.
pub fn run_session(corpus: &Corpus, task: &Task, strat: Strat) -> RunResult {
    let mut session = iflex::Session::new(
        task.engine(corpus),
        task.program.clone(),
        strat.boxed(),
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );
    if task.needs_type_cleanup {
        session
            .clock
            .charge_cleanup(session.cost.write_cleanup_secs);
    }
    let outcome = session.run().expect("session runs");
    let quality = score(
        &outcome.table,
        &task.truth_cols,
        &task.truth,
        session.engine.store(),
    );
    // Quality lands in the engine registry so in-process consumers (and
    // a later snapshot render) see it next to the execution counters.
    quality.export(&session.engine.metrics);
    RunResult { outcome, quality }
}

/// Formats minutes the way Table 3 does: rounded, with the cleanup
/// component in parentheses when non-zero.
pub fn fmt_minutes(total: f64, cleanup: f64) -> String {
    let t = total.round().max(1.0) as i64;
    if cleanup >= 0.5 {
        format!("{t} ({})", cleanup.round().max(1.0) as i64)
    } else {
        format!("{t}")
    }
}

/// Formats an optional minute count ("—" for did-not-finish).
pub fn fmt_opt_minutes(m: Option<f64>) -> String {
    match m {
        Some(m) => format!("{}", m.round().max(1.0) as i64),
        None => "—".to_string(),
    }
}

/// Percentage formatting for superset sizes.
pub fn fmt_pct(p: f64) -> String {
    if p.is_infinite() {
        "∞".into()
    } else {
        format!("{}%", p.round() as i64)
    }
}

/// Scenario label for tables.
pub fn scenario_label(task: &Task, n: Option<usize>) -> String {
    let total = task.tables[0].1.len();
    match n {
        Some(k) => k.to_string(),
        None => format!("{total}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_minutes(7.4, 0.0), "7");
        assert_eq!(fmt_minutes(16.2, 12.0), "16 (12)");
        assert_eq!(fmt_opt_minutes(None), "—");
        assert_eq!(fmt_opt_minutes(Some(2.6)), "3");
        assert_eq!(fmt_pct(100.0), "100%");
        assert_eq!(fmt_pct(f64::INFINITY), "∞");
    }

    #[test]
    fn scenarios_shape() {
        for id in TaskId::TABLE2 {
            let s = table3_scenarios(id);
            assert_eq!(s.len(), 3);
            assert!(s[2].is_none());
        }
    }
}
