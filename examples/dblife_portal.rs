//! The §6.3 evaluation: the three DBLife extraction programs (Panel,
//! Project, Chair) over a heterogeneous snapshot of community Web pages —
//! including the `extractType` cleanup p-predicate (§2.2.4) for the Chair
//! task's "chair type" attribute.
//!
//! Run with: `cargo run --release -p iflex-examples --bin dblife_portal`

use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};

fn main() {
    println!("building the DBLife snapshot (conference/project/noise pages)...");
    let corpus = Corpus::build(CorpusConfig::tiny());
    println!("{} pages total\n", corpus.dblife.docs.len());

    for id in TaskId::DBLIFE {
        let task = corpus.task(id, None);
        println!("== {} — {}", id.name(), id.description());
        let engine = task.engine(&corpus);
        let mut session = iflex::Session::new(
            engine,
            task.program.clone(),
            Box::new(Simulation::default()),
            Box::new(SimulatedDeveloper::new(task.oracle.clone())),
        );
        if task.needs_type_cleanup {
            // the engine already has extractType registered; charge the
            // §2.2.4 cleanup-writing time the paper reports in parentheses
            session
                .clock
                .charge_cleanup(session.cost.write_cleanup_secs);
        }
        let outcome = session.run().expect("session runs");
        let q = iflex::score(
            &outcome.table,
            &task.truth_cols,
            &task.truth,
            session.engine.store(),
        );
        println!(
            "   {:.0} simulated min ({:.0} cleanup) · {} questions · {} iterations",
            outcome.minutes,
            outcome.cleanup_minutes,
            outcome.questions_asked,
            outcome.iterations
        );
        println!(
            "   result {} tuples vs {} correct (recall {:.0}%)",
            q.result_tuples,
            q.correct_tuples,
            q.recall * 100.0
        );
        println!("{}", outcome.table.render(session.engine.store(), 3));
    }
}
